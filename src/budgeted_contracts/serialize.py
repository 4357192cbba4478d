"""JSON schemas for instances, results, and run manifests.

Instance files look like::

    {"n": 3,
     "costs": [0.2, 0.2, 0.0],
     "reward": {"type": "xos", "clauses": [[0.4, 0.4, 0.2], [0, 0, 0.4]]}}

with ``type`` one of additive / xos / table (``values`` carries the payload
for the other two). Teams serialize as sorted index arrays. Reals are
accepted either as JSON numbers or as decimal strings and are always
emitted in plain decimal notation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import stat
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import Additive, Instance, InputError, SetFunction, Table, XosClauses, bits
from .corpora import CORPUS_VERSION
from .objectives import OBJECTIVES, Objective


def _real(x: Any) -> float:
    """A finite float from a JSON number or a decimal string."""
    if type(x) not in (float, int, str):  # a JSON true/false is not a number
        raise InputError(f"expected a real number, got {type(x).__name__}")
    try:
        v = float(x)
    except ValueError as exc:
        raise InputError(f"bad decimal string {x!r}") from exc
    except OverflowError as exc:
        raise InputError("number too large for a float") from exc
    if not math.isfinite(v):
        raise InputError(f"expected a finite real number, got {x!r}")
    return v


def _reals(xs: list) -> np.ndarray:
    """``_real`` over a list, as one float64 array.

    A list of JSON numbers converts in one step; a list holding a decimal
    string or a bad entry goes through ``_real`` one element at a time, so
    the first bad entry gives the same error as before.
    """
    if set(map(type, xs)) <= {float, int}:
        try:
            vals = np.array(xs, np.float64)
            if np.isfinite(vals).all():
                return vals
        except OverflowError:  # an integer too large for a float
            pass
    return np.array([_real(x) for x in xs], np.float64)


def _list(x: Any, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a list, got {type(x).__name__}")
    return x


def team_to_list(team: int) -> list[int]:
    return list(bits(team))


def reward_to_dict(f: SetFunction) -> dict:
    if isinstance(f, Additive):
        return {"type": "additive", "values": list(f.values)}
    if isinstance(f, XosClauses):
        return {"type": "xos", "clauses": [list(row) for row in f.clauses]}
    return {"type": "table", "values": f.values.tolist()}


def reward_from_dict(d: dict) -> SetFunction:
    if not isinstance(d, dict):
        raise InputError(f"reward must be an object, got {type(d).__name__}")
    kind = d.get("type")
    if kind == "additive":
        return Additive(tuple(_real(v) for v in _list(d["values"], "values")))
    if kind == "xos":
        rows = (_list(row, "a clause") for row in _list(d["clauses"], "clauses"))
        return XosClauses(tuple(tuple(_real(v) for v in row) for row in rows))
    if kind == "table":
        return Table(_reals(_list(d["values"], "values")))
    raise InputError(f"unknown reward type {kind!r}")


def instance_to_dict(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "costs": list(inst.costs),
        "reward": reward_to_dict(inst.reward),
    }


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise InputError(f"an instance must be a JSON object, got {type(d).__name__}")
    try:
        n = d["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError(f"n must be an integer, got {type(n).__name__}")
        return Instance(
            n=n,
            costs=tuple(_real(c) for c in _list(d["costs"], "costs")),
            reward=reward_from_dict(d["reward"]),
        )
    except KeyError as exc:
        raise InputError(f"instance file missing field {exc}") from exc


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # valid JSON, e.g. an integer too long to convert
            raise InputError(str(exc)) from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path: str) -> None:
    write_text(path, json.dumps(instance_to_dict(inst), indent=2) + "\n")


def write_text(path: str, body: str) -> None:
    """Write ``body`` to ``path`` as UTF-8: the one way this package writes a file.

    An existing file is rewritten in place and then cut to the written
    length, not truncated to empty first: on ext4 (``auto_da_alloc``, the
    default) closing a file truncated from non-empty to empty starts a
    writeback, which costs several times the write itself. The flags, file
    mode, umask and symlink behaviour are those of ``open(path, "w")``. Only a
    regular file is cut: a FIFO, a terminal or ``/dev/null`` takes the body
    as it would from ``open(path, "w")``. The rewrite is not atomic: a
    writer killed mid-write may leave the old file's tail after the new
    bytes.
    """
    with open(path, "w", encoding="utf-8", newline="", opener=_open_untruncated) as fh:
        fh.write(body)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _open_untruncated(path: str, flags: int) -> int:
    """``open``'s own flags for mode ``"w"`` and its default file mode,
    less ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def objective_from_name(name: str) -> Objective:
    if name not in OBJECTIVES:
        raise InputError(f"unknown objective {name!r}")
    return OBJECTIVES[name]


def parse_objective_at_budget(spec: str) -> tuple[Objective, float]:
    """Parse CLI specs of the form ``welfare@1.0`` or ``profit@0.5``."""
    name, sep, budget = spec.partition("@")
    if not sep:
        raise InputError(f"expected objective@budget, got {spec!r}")
    return objective_from_name(name), _real(budget)


def jsonable(obj: Any) -> Any:
    """Dataclasses to dicts, team masks stay ints; inf becomes a string."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility sidecar attached to every CLI output file.

    The corpus recipe version and the Python and numpy versions default to
    those of the running process.
    """

    command: list[str]
    instance_hashes: dict[str, str]
    tool_version: str
    seed: int | None
    wall_time_s: float
    corpus_version: int = CORPUS_VERSION
    python: str = platform.python_version()
    numpy: str = np.__version__


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_path(out_path: str) -> str:
    return out_path + ".manifest.json"


def write_manifest(manifest: RunManifest, out_path: str) -> None:
    """Write the manifest as sorted, indented JSON. The dict holds the
    fields themselves, not deep copies; one ``json.dumps`` makes the text."""
    body = {f.name: getattr(manifest, f.name) for f in dataclasses.fields(manifest)}
    write_text(manifest_path(out_path), json.dumps(body, indent=2, sort_keys=True) + "\n")
