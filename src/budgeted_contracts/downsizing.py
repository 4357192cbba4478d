"""Team downsizing: shrink payment to a target fraction, keep value.

Two procedures and their composition:

* ``downsize_submodular``: bag-filling over the per-agent payment shares
  c_i / f_S(i). For submodular rewards and any integer M >= 3 it returns
  T inside S with psi(T) >= psi(S) / (M-1) for any subadditive psi, and
  either p(T) <= (2/M) p(S) or T a singleton.

* ``recover_marginals_xos``: given T inside S with an XOS reward, prune T
  to U so that every survivor keeps at least half its marginal relative to
  S while f(U) >= f(T) / 2. This repairs the non-monotone marginals that
  break the bag-filling payment bound beyond submodularity.

* ``downsize_xos``: bag-filling followed by marginal recovery. For XOS
  rewards it yields f(U) >= f(S) / (2M-2) and either p(U) <= (4/M) p(S)
  or U a singleton.

All comparisons inside the algorithms are raw float comparisons; the
guarantees tolerate either resolution of an exact tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    Instance,
    InputError,
    PreconditionError,
    SetFunction,
    XosClauses,
    _check_team,
    _class_gate,
    _margins,
    _pay,
    _paid,
    _table_is_subadditive,
    is_submodular,
    mask_of,
)
from .objectives import REWARD, Objective, Reward, evaluate, evaluate_all


@dataclass(frozen=True)
class DownsizeResult:
    subset: int
    payment_before: float
    payment_after: float
    objective_before: float
    objective_after: float
    singleton_exit: bool


def downsize_submodular(
    inst: Instance, team: int, m: int, psi: Objective = REWARD, check: bool = False
) -> DownsizeResult:
    """Bag-filling downsizing for submodular rewards.

    Agents whose payment share exceeds p(S)/M are set aside first; if one of
    them alone already preserves a 1/(M-1) fraction of psi it is returned.
    Otherwise the remaining agents are consumed in ascending index order
    into bags that stop once their share sum passes p(S)/M; the first bag
    preserving the psi fraction is returned, falling back to the unconsumed
    remainder. ``psi`` may be any subadditive objective; ``check=True``
    verifies that the reward is submodular (n <= 20 unless additive) and
    that any other psi is subadditive (n <= 16).
    """
    _check_downsize(inst, team, m)
    if check:
        check_reward_class(inst.reward, "submodular")
        if not isinstance(psi, Reward):  # a submodular reward is subadditive
            _assert_subadditive(psi, inst)
    f_team, marg = _margins(inst.reward, team)
    share, pay_team = _paid(inst, marg)
    psi_team = f_team if psi == REWARD else evaluate(psi, inst, team)
    after, psi_after, singleton = _fill_bags(
        inst, m, psi, share, pay_team, psi_team, lambda i: evaluate(psi, inst, 1 << i)
    )
    f_after = psi_after if psi == REWARD else None  # the bag test asked f(T)
    pay_after = _pay(inst, _margins(inst.reward, after, f_after)[1])
    return DownsizeResult(after, pay_team, pay_after, psi_team, psi_after, singleton)


def check_reward_class(f: SetFunction, mode: str) -> None:
    """Raise ``PreconditionError`` unless f is in the class that the downsizing
    of ``mode`` assumes: submodular for ``"submodular"``, XOS for ``"xos"``.

    Clause forms (the one-clause ``Additive`` too) are XOS, and so is a
    submodular table; other rewards are checked with ``is_submodular``, which
    raises ``SizeCapError`` where a non-additive reward does not tabulate
    (n > ENUM_CAP).
    """
    if mode == "xos" and isinstance(f, XosClauses):
        return
    if not is_submodular(f):
        raise PreconditionError(
            "reward representation cannot be certified XOS" if mode == "xos"
            else "reward function is not submodular"
        )


def _check_downsize(inst: Instance, team: int, m: int) -> None:
    if not isinstance(m, int) or m < 3:
        raise InputError("downsizing parameter m must be an integer >= 3")
    _check_team(team, inst.n)
    if team == 0:
        raise InputError("cannot downsize the empty team")


def _fill_bags(
    inst: Instance,
    m: int,
    psi: Objective,
    share: dict[int, float],
    pay_team: float,
    psi_team: float,
    single: Callable[[int], float],
) -> tuple[int, float, bool]:
    """The piece bag filling returns, psi of it, and whether it is an outlier
    singleton, from p(S), psi(S), ``share``, which maps each member to its
    payment share, members ascending, and ``single``, which maps i to psi({i})."""
    threshold = pay_team / m
    floor = psi_team / (m - 1)
    outliers = [i for i, s in share.items() if s > threshold]
    for i in outliers:
        psi_single = single(i)
        if psi_single >= floor:
            return 1 << i, psi_single, True

    queue = [i for i, s in share.items() if s <= threshold]
    pos = 0
    for _ in range(m - len(outliers) - 2):
        bag, bag_sum = 0, 0.0
        while pos < len(queue) and bag_sum <= threshold:
            i = queue[pos]
            pos += 1
            bag |= 1 << i
            bag_sum += share[i]
        psi_bag = evaluate(psi, inst, bag)
        if psi_bag >= floor:
            return bag, psi_bag, False
    remainder = mask_of(queue[pos:])
    if len(outliers) >= m - 1:
        # With M-1 outliers (more is impossible: each share exceeds p/M),
        # the piece accounting would run out of bags, but folding the
        # cheapest outlier into the remainder still works: the remainder's
        # share total is below p/M and the cheapest outlier is at most
        # 1/(M-1) of the rest, which together stay within (2/M) p(S);
        # the other M-2 outliers each failed the value floor above.
        remainder |= 1 << min(outliers, key=lambda i: (share[i], i))
    return remainder, evaluate(psi, inst, remainder), False


def _recover(
    f: SetFunction,
    current: int,
    team_marg: dict[int, float],
    held: tuple[float, dict[int, float]] | None = None,
) -> tuple[int, float, dict[int, float]]:
    """``recover_marginals_xos`` from the members' team marginals; it also
    returns the value and the marginals of the set it keeps, which are what
    p() of that set asks. ``held`` is f and the marginals of ``current``
    where the caller has them, which the first round then takes."""
    while True:
        f_cur, own_marg = held or _margins(f, current)
        held = None
        worst, worst_ratio = None, math.inf
        violated = False
        for i, own in own_marg.items():
            target = team_marg[i]
            if target <= 0.0:
                continue
            if own < 0.5 * target:
                violated = True
            ratio = own / target
            if ratio < worst_ratio:
                worst, worst_ratio = i, ratio
        if not violated:
            return current, f_cur, own_marg
        current &= ~(1 << worst)


def recover_marginals_xos(inst: Instance, kept: int, team: int) -> int:
    """Prune ``kept`` until every survivor keeps half its marginal in ``team``.

    Repeatedly drops the agent with the smallest ratio between its current
    marginal in the pruned set and its marginal in the full team, as long as
    some agent violates the half-marginal condition. Agents whose team
    marginal is zero count as satisfying the condition (the 0/0 case) and
    are never removed; ratio ties drop the smallest index.
    """
    _check_team(team, inst.n)
    if kept & ~team:
        raise InputError("kept agents must form a subset of the team")
    return _recover(inst.reward, kept, _margins(inst.reward, team)[1])[0]


def downsize_xos(
    inst: Instance, team: int, m: int, check: bool = False
) -> DownsizeResult:
    """Bag-filling plus marginal recovery for XOS rewards.

    The bag stage is run with psi equal to the reward itself; its share-sum
    bound needs no submodularity, and the recovery stage converts it into a
    true payment bound at the cost of a factor two on each side.

    The two stages share their queries: f(S) and each f(S - {i}) are taken
    once, for the bag stage's shares and psi(S) and for recovery's team
    marginals, and the value and marginals of the set recovery keeps give
    its payment and value. An outlier singleton {i} takes f({i}) from the
    singleton values the instance keeps (the scan that the light-agent test
    and the reduction pools share, run here on an instance that has not run
    it), and every piece T hands its bag test's f(T) to recovery's first
    round. The result equals running ``downsize_submodular`` and then
    ``recover_marginals_xos`` bit for bit.
    """
    f = inst.reward
    if check:
        check_reward_class(f, "xos")
    _check_downsize(inst, team, m)
    f_team, team_marg = _margins(f, team)
    share, pay_team = _paid(inst, team_marg)
    after, f_after, singleton = _fill_bags(
        inst, m, REWARD, share, pay_team, f_team, lambda i: inst._singleton_values[i]
    )
    held = _margins(f, after, f_after)  # the bag test asked f(T) already
    kept, f_kept, kept_marg = _recover(f, after, team_marg, held)
    return DownsizeResult(
        kept, pay_team, _pay(inst, kept_marg), f_team, f_kept, singleton
    )


def _assert_subadditive(psi: Objective, inst: Instance) -> None:
    # The guarantee accounting splits teams into disjoint pieces, so only
    # subadditivity across disjoint pairs is required (welfare satisfies
    # this whenever the reward does, despite failing on overlapping pairs).
    _class_gate(inst.n)
    if not _table_is_subadditive(evaluate_all(psi, inst), inst.n):
        raise PreconditionError("psi is not subadditive on this instance")
