"""JSON schemas for instances, results, and run manifests.

Instance files look like::

    {"n": 3,
     "costs": [0.2, 0.2, 0.0],
     "reward": {"type": "xos", "clauses": [[0.4, 0.4, 0.2], [0, 0, 0.4]]}}

with ``type`` one of additive / xos / table / coverage (``values`` carries
the payload of additive and table rewards). A table lists f over all 2^n
team masks; a weighted coverage reward is written from its parts instead::

    {"type": "coverage", "weights": [3, 1, 4], "covers": [[0, 2], [1]],
     "scale": 8.0}

with integer element weights (summing below 2^53), each agent's covered
element indices, and a power-of-two scale; it is tabulated on load, bit for
bit the table that a ``table`` file of the same function holds, and such
``table`` files still load. Teams serialize as sorted index arrays. Reals
are accepted either as JSON numbers or as decimal strings, and each float
is written as its shortest round-trip ``repr`` (``0.25``, ``1e-05``,
``5e-324``).
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

from .core import (
    Additive,
    Coverage,
    Instance,
    InputError,
    SetFunction,
    Table,
    XosClauses,
    bits,
)
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
    """``_real`` over a list, as one float64 array: the one way a file's
    costs, additive values, clauses and table values are read.

    A list of JSON numbers converts in one step; a list holding a decimal
    string or a bad entry goes through ``_real`` one element at a time, so
    the first bad entry gives the same error as ``_real`` would.
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
    if isinstance(f, Additive):  # an XosClauses too, so it is tested first
        return {"type": "additive", "values": list(f.values)}
    if isinstance(f, XosClauses):
        return {"type": "xos", "clauses": [list(row) for row in f.clauses]}
    if isinstance(f, Coverage):
        return {
            "type": "coverage",
            "weights": list(f.weights),
            "covers": [list(c) for c in f.covers],
            "scale": f.scale,
        }
    return {"type": "table", "values": f.values.tolist()}


def reward_from_dict(d: dict) -> SetFunction:
    if not isinstance(d, dict):
        raise InputError(f"reward must be an object, got {type(d).__name__}")
    kind = d.get("type")
    if kind == "additive":
        return Additive(_reals(_list(d["values"], "values")).tolist())
    if kind == "xos":
        rows = (_list(row, "a clause") for row in _list(d["clauses"], "clauses"))
        return XosClauses([_reals(row).tolist() for row in rows])
    if kind == "table":
        return Table._owning(_reals(_list(d["values"], "values")))
    if kind == "coverage":
        covers = [_list(c, "a cover") for c in _list(d["covers"], "covers")]
        return Coverage(_list(d["weights"], "weights"), covers, _real(d["scale"]))
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
            costs=_reals(_list(d["costs"], "costs")).tolist(),
            reward=reward_from_dict(d["reward"]),
        )
    except KeyError as exc:
        raise InputError(f"instance file missing field {exc}") from exc


def _read_text(path: str) -> tuple[str, str]:
    """A file's text as ``open(path, encoding="utf-8")`` reads it, with
    universal newlines, so parse errors name the same positions, and the
    SHA-256 hex digest of its bytes. The bytes are freed on return, before
    the caller parses the text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if "\r" in text:  # rare, and the "\r\n" search costs 1.6 ms per MB
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(raw).hexdigest()


def read_instance(path: str) -> tuple[Instance, str]:
    """The instance in a file and the SHA-256 hex digest of the bytes it was
    parsed from: the file is opened and read once."""
    try:
        text, digest = _read_text(path)
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise InputError(str(exc)) from exc
    return instance_from_dict(data), digest


def load_instance(path: str) -> Instance:
    return read_instance(path)[0]


def instance_text(inst: Instance) -> str:
    """The text of an instance file: ``json.dumps`` of ``instance_to_dict``
    with ``indent=2`` and a final newline, byte for byte.

    An indented ``json.dumps`` formats every float in Python, one at a
    time, so a ``Table`` (not a ``Coverage``, whose file holds no table) is
    written apart: the head is encoded with an empty ``values`` list (the
    text's last ``[]``, as ``values`` ends the last key), and each distinct
    bit pattern of the values is formatted once and spliced in there.
    Keying by bits keeps ``-0.0`` apart from ``0.0``; ``float.__repr__`` is
    the text ``json`` writes for a finite float, and a ``Table`` holds only
    finite values.
    """
    f = inst.reward
    if type(f) is not Table:
        return json.dumps(instance_to_dict(inst), indent=2) + "\n"
    head = json.dumps(
        {"n": inst.n, "costs": list(inst.costs), "reward": {"type": "table", "values": []}},
        indent=2,
    )
    cut = head.rindex("[]")
    patterns, inverse = np.unique(f.values.view(np.int64), return_inverse=True)
    reprs = np.array([repr(v) for v in patterns.view(np.float64).tolist()], dtype=object)
    block = ",\n      ".join(reprs[inverse].tolist())
    return f"{head[:cut]}[\n      {block}\n    ]{head[cut + 2:]}\n"


def save_instance(inst: Instance, path: str) -> None:
    write_text(path, instance_text(inst))


#: The flags of ``open(path, "w")`` less ``O_TRUNC``; ``os.open`` adds
#: ``O_CLOEXEC`` as ``open`` does.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path: str, body: str) -> bool:
    """Write ``body`` to ``path`` as UTF-8: the one way this package writes a
    file. Returns whether ``path`` is a regular file.

    The body is encoded once and written through one descriptor, with no
    buffered file object around it. An existing file is rewritten in place
    and then cut to the written length, not truncated to empty first: on
    ext4 (``auto_da_alloc``, the default) closing a file truncated from
    non-empty to empty starts a writeback, which costs several times the
    write itself. The flags, file mode (``0o666`` under the umask) and
    symlink behaviour are those of ``open(path, "w")``. Only a regular file
    is cut: a FIFO, a terminal or ``/dev/null`` takes the body as it would
    from ``open(path, "w")``. The rewrite is not atomic: a writer killed
    mid-write may leave the old file's tail after the new bytes.
    """
    data = memoryview(body.encode("utf-8"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        rest = data
        while rest:  # a FIFO or a signal may take part of the bytes
            rest = rest[os.write(fd, rest):]
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return regular


def differs(path: str, body: str) -> bool:
    """Whether ``path`` is an existing regular file whose bytes are not
    ``body`` encoded as UTF-8, as ``write_text`` would write it.

    Only a regular file holds an earlier output: a missing path, a FIFO or a
    device differs from nothing, and none of them is opened here.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return False
    except FileNotFoundError:
        return False
    with open(path, "rb") as fh:
        return fh.read() != body.encode("utf-8")


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


def jsonable(result: Any) -> dict[str, Any]:
    """A result dataclass as a dict of its fields, all scalars: team masks
    stay ints, and an infinite float becomes a string."""
    body = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    for name, v in body.items():
        if isinstance(v, float) and math.isinf(v):
            body[name] = "inf" if v > 0 else "-inf"
    return body


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


def manifest_path(out_path: str) -> str:
    return out_path + ".manifest.json"


def write_manifest(manifest: RunManifest, out_path: str) -> None:
    """Write the manifest as sorted, indented JSON. The dict holds the
    fields themselves, not deep copies; one ``json.dumps`` makes the text."""
    body = {f.name: getattr(manifest, f.name) for f in dataclasses.fields(manifest)}
    write_text(manifest_path(out_path), json.dumps(body, indent=2, sort_keys=True) + "\n")
