import ast
import random
from pathlib import Path

import pytest

import budgeted_contracts

from budgeted_contracts import (
    Additive,
    Convex,
    Instance,
    InputError,
    Profit,
    Reward,
    SizeCapError,
    Table,
    Welfare,
    XosClauses,
    check_best_conditions,
    evaluate,
    gen_subadditive_lb,
    key_property_gap,
    payment,
    profit,
    to_table,
    value,
)
from budgeted_contracts.core import team_table
from budgeted_contracts.solvers import knapsack_fptas
from budgeted_contracts.corpora import submodular_corpus, xos_corpus
from budgeted_contracts.objectives import (
    OBJECTIVES,
    PROFIT,
    REWARD,
    WELFARE,
    evaluate_all,
)
from budgeted_contracts.serialize import objective_from_name

ALL4 = 0b1111


def test_evaluate_examples(uniform4, single_agent):
    assert evaluate(WELFARE, uniform4, ALL4) == pytest.approx(3 / 4)
    assert evaluate(REWARD, uniform4, 0) == 0.0
    assert evaluate(PROFIT, uniform4, 0) == 0.0
    mix = Convex((REWARD, PROFIT), (0.5, 0.5))
    assert evaluate(mix, single_agent, 0b1) == pytest.approx(3 / 4)


def test_welfare_is_reward_minus_costs():
    rng = random.Random(17)
    for inst in xos_corpus(10, seed=501, n_hi=7):
        for _ in range(10):
            team = rng.randrange(0, 1 << inst.n)
            costs = sum(inst.costs[i] for i in range(inst.n) if (team >> i) & 1)
            assert evaluate(WELFARE, inst, team) == evaluate(REWARD, inst, team) - costs


def test_welfare_unclamped():
    inst = Instance(1, (0.9,), Additive((0.5,)))
    assert evaluate(WELFARE, inst, 0b1) == pytest.approx(-0.4)


def test_convex_validation():
    with pytest.raises(InputError):
        Convex((REWARD,), (0.5,))
    with pytest.raises(InputError):
        Convex((REWARD, PROFIT), (1.2, -0.2))
    with pytest.raises(InputError):
        Convex((), ())
    with pytest.raises(InputError, match="strictly positive"):
        Convex((REWARD, PROFIT), (0.0, 1.0))  # sums to 1, but a weight of 0
    assert Convex((REWARD, PROFIT), (0.5, 0.5)).name == "convex"


def test_objective_registry():
    assert list(OBJECTIVES) == ["reward", "profit", "welfare"]  # check's order
    for name, obj in OBJECTIVES.items():
        assert obj.name == name
        assert objective_from_name(name) is obj


def test_types_are_value_objects():
    assert Reward() == REWARD
    assert Profit() == PROFIT
    assert Welfare() == WELFARE


def test_best_conditions_on_corpora():
    rng = random.Random(19)
    mixes = [
        Convex((REWARD, PROFIT, WELFARE), (0.25, 0.25, 0.5)),
        Convex((PROFIT, WELFARE), (0.7, 0.3)),
    ]
    for inst in xos_corpus(15, seed=502, n_hi=8) + submodular_corpus(
        15, seed=503, n_hi=8
    ):
        for obj in (REWARD, PROFIT, WELFARE, rng.choice(mixes)):
            assert check_best_conditions(obj, inst)


def test_best_conditions_on_subadditive_construction():
    # genuinely subadditive, not submodular (and believed non-XOS)
    inst = gen_subadditive_lb(8, 0.9, 1.0)
    for obj in (REWARD, PROFIT, WELFARE):
        assert check_best_conditions(obj, inst)


def test_best_conditions_cap(additive21):
    with pytest.raises(SizeCapError):
        check_best_conditions(REWARD, additive21)


def _nondyadic_instances(count, seed):
    """XOS and table instances whose float sums depend on the adding order."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 3 + k % 5
        rows = [[rng.random() / n for _ in range(n)] for _ in range(1 + k % 3)]
        costs = [rng.random() / (2 * n) for _ in range(n)]
        reward = XosClauses(tuple(map(tuple, rows)))
        if k % 2:
            reward = Table(tuple(min(1.0, v * 1.1) for v in to_table(reward).values))
        out.append(Instance(n, tuple(costs), reward))
    return out


def test_evaluate_all_matches_evaluate():
    mix = Convex((REWARD, PROFIT, WELFARE), (0.2, 0.3, 0.5))
    corpus = (
        xos_corpus(6, seed=506, n_hi=6)
        + submodular_corpus(4, seed=507, n_hi=6)
        + _nondyadic_instances(10, seed=508)
    )
    # free agents at cost -0.0 as well as 0.0, which the team table skips
    corpus += [
        Instance(inst.n, [-c if c == 0.0 else c for c in inst.costs], inst.reward)
        for inst in corpus
        if 0.0 in inst.costs
    ]
    # compared by bits (float.hex), since == cannot tell -0.0 from 0.0
    for inst in corpus:
        f, pay = team_table(inst)
        for obj in (REWARD, PROFIT, WELFARE, mix):
            table = evaluate_all(obj, inst)
            for team in range(1 << inst.n):
                assert table[team].hex() == evaluate(obj, inst, team).hex()
        for team in range(1 << inst.n):
            assert f[team].hex() == value(inst.reward, team).hex()
            assert pay[team].hex() == payment(inst, team).hex()


def test_objective_arrays_are_the_instances_own():
    inst = xos_corpus(1, seed=509, n_hi=6)[0]
    f, _ = team_table(inst)
    assert evaluate_all(REWARD, inst) is f
    assert evaluate_all(PROFIT, inst) is inst._profit_table
    assert not inst._profit_table.flags.writeable


def test_objective_dispatch_sits_in_four_functions():
    # the evaluators and the two preconditions that name an objective class
    # are the only functions that test one
    classes = {"Reward", "Profit", "Welfare", "Convex"}
    package = Path(budgeted_contracts.__file__).parent
    testers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and classes & {n.id for n in ast.walk(node.args[1])
                                       if isinstance(n, ast.Name)}):
                    testers.add(f"{path.stem}.{func.name}")
    assert testers == {
        "objectives.evaluate",
        "objectives.evaluate_all",
        "solvers.knapsack_fptas",
        "downsizing.downsize_submodular",
    }


def _type_tests(node: ast.AST, scope: str):
    """(scope, class name) for each class an ``isinstance`` call or a
    ``type(x) is`` test under ``node`` names, scopes dotted as
    ``module.Class.function``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _type_tests(child, f"{scope}.{child.name}")
            continue
        tested = []
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
            tested = [child.args[1]]
        elif (isinstance(child, ast.Compare) and isinstance(child.left, ast.Call)
                and getattr(child.left.func, "id", None) == "type"):
            tested = child.comparators
        for classes in tested:
            yield from ((scope, n.id) for n in ast.walk(classes) if isinstance(n, ast.Name))
        yield from _type_tests(child, scope)


def test_additive_and_xos_type_tests_sit_where_the_form_is_used():
    # an additive reward is the one-clause XOS form, so clause code serves
    # both; Additive is named only where additivity itself is used, and
    # XosClauses only where the XOS class or the clause form's dict is
    package = Path(budgeted_contracts.__file__).parent
    testers = {"Additive": set(), "XosClauses": set()}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, name in _type_tests(tree, path.stem):
            if name in testers:
                testers[name].add(scope)
    assert testers == {
        "Additive": {
            "core.restrict", "core._margins", "core.classify", "core.is_submodular",
            "solvers._items", "serialize.reward_to_dict",
        },
        "XosClauses": {
            "core.Instance.__post_init__", "core.classify",
            "downsizing.check_reward_class", "serialize.reward_to_dict",
        },
    }


def test_sandwich_pointwise():
    mix = Convex((REWARD, PROFIT, WELFARE), (0.2, 0.3, 0.5))
    for inst in xos_corpus(10, seed=504, n_hi=7):
        for team in range(1 << inst.n):
            lo = profit(inst, team)
            hi = value(inst.reward, team)
            assert lo <= evaluate(mix, inst, team) + 1e-9
            assert evaluate(mix, inst, team) <= hi + 1e-9


def test_key_property_gap_examples(separation):
    lhs, rhs = key_property_gap(REWARD, separation, 1.0)
    assert lhs == pytest.approx(1.0)
    assert lhs <= rhs + 1e-9

    # all agents light and the reward additive: the tighter coefficient 1
    light = Instance(3, (0.05, 0.05, 0.05), Additive((0.25, 0.25, 0.3)))
    lhs, rhs = key_property_gap(REWARD, light, 1.0)
    mrl = 0.8  # every team is budget-feasible and light
    assert rhs == pytest.approx(1.0 * mrl + 0.3)
    assert lhs == pytest.approx(0.8)

    free = Instance(2, (0.0, 0.0), Additive((0.3, 0.4)))
    lhs, rhs = key_property_gap(WELFARE, free, 0.5)
    assert lhs == pytest.approx(0.7)
    assert lhs <= rhs + 1e-9


def test_evaluate_takes_the_empty_value_from_no_oracle(table_queries, additive_queries):
    # f({}) is the table's entry 0, and 0.0 for the additive form
    table = Instance(2, (0.125, 0.25), Table((0.125, 0.25, 0.5, 0.75)))
    additive = Instance(2, (0.125, 0.25), Additive((0.25, 0.5)))
    half = Convex((REWARD, WELFARE), (0.5, 0.5))
    for obj, want in ((REWARD, 0.125), (WELFARE, 0.125), (PROFIT, 0.125), (half, 0.125)):
        assert evaluate(obj, table, 0) == want
        assert evaluate(obj, additive, 0) == 0.0
    assert table_queries == [] and additive_queries == []


@pytest.mark.parametrize("obj", [REWARD, WELFARE], ids=["reward", "welfare"])
def test_knapsack_with_no_valued_item_asks_no_oracle(additive_queries, obj):
    inst = Instance(2, (0.125, 0.125), Additive((0.0, 0.0)))
    result = knapsack_fptas(inst, 0.5, 0.1, obj)
    assert (result.optimum, result.value, result.payment) == (0, 0.0, 0.0)
    assert additive_queries == []


def test_key_property_gap_grid():
    for inst in xos_corpus(12, seed=505, n_hi=8):
        for budget in (0.25, 0.5, 0.75, 1.0):
            for obj in (REWARD, PROFIT, WELFARE):
                lhs, rhs = key_property_gap(obj, inst, budget)
                assert lhs <= rhs + 1e-9


def test_key_property_gap_validates_budget(separation):
    with pytest.raises(InputError):
        key_property_gap(REWARD, separation, 0.0)
