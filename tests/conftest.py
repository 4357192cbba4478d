import pytest

from budgeted_contracts import (
    Additive,
    Instance,
    Table,
    XosClauses,
    bits,
    gen_additive_lb,
    gen_xos_separation,
)


@pytest.fixture
def separation():
    """Three-agent clause instance: a1=(.4,.4,.2), a2=(0,0,.4), c=(.2,.2,0)."""
    return gen_xos_separation(0.5, 1.0)


@pytest.fixture
def uniform4():
    """Four equal agents worth 1/4 each at cost 1/16 (table-backed)."""
    return gen_additive_lb(4, 0.4, 1.0)


@pytest.fixture
def single_agent():
    """One agent, cost 1/2, certain success on effort."""
    return Instance(1, (0.5,), Additive((1.0,)))


@pytest.fixture
def nondyadic():
    """Seven agents whose float sums depend on the order agents are added."""
    clauses = (
        (0.13, 0.07, 0.21, 0.11, 0.03, 0.17, 0.09),
        (0.05, 0.19, 0.02, 0.14, 0.23, 0.06, 0.12),
        (0.1,) * 7,
    )
    return Instance(7, (0.03, 0.05, 0.07, 0.02, 0.09, 0.04, 0.06), XosClauses(clauses))


@pytest.fixture
def additive21():
    """21 free agents worth 1/100 each: one agent past the enumeration cap."""
    return Instance(21, (0.0,) * 21, Additive((0.01,) * 21))


@pytest.fixture
def table_queries(monkeypatch):
    """The masks passed to ``Table.value`` while the test runs, in call order."""
    calls = []
    table_value = Table.value

    def counting(self, team):
        calls.append(team)
        return table_value(self, team)

    monkeypatch.setattr(Table, "value", counting)
    return calls


@pytest.fixture
def additive_queries(monkeypatch):
    """The masks whose value ``Additive`` was asked while the test runs, in
    call order: one ``drop_values`` pass over S counts as the |S| + 1
    queries it answers, S first and then S - {i} for each member i
    ascending."""
    calls = []
    additive_value, drop_values = Additive.value, Additive.drop_values

    def counting_value(self, team):
        calls.append(team)
        return additive_value(self, team)

    def counting_drops(self, team):
        calls.append(team)
        calls.extend(team & ~(1 << i) for i in bits(team))
        return drop_values(self, team)

    monkeypatch.setattr(Additive, "value", counting_value)
    monkeypatch.setattr(Additive, "drop_values", counting_drops)
    return calls
