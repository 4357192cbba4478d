"""Budget-feasible multi-agent contract design toolkit."""

from .core import (
    Additive,
    Contract,
    ContractsError,
    Coverage,
    FunctionClasses,
    InfeasibleSetError,
    InputError,
    Instance,
    PreconditionError,
    SetFunction,
    SizeCapError,
    SolverContractError,
    Table,
    XosClauses,
    bits,
    classify,
    contract_profit,
    demand,
    enumerate_equilibria,
    is_nash_equilibrium,
    light_agents,
    marginal,
    mask_of,
    optimal_contract_for,
    payment,
    profit,
    restrict,
    singleton_payment,
    to_table,
    value,
)
from .corpora import (
    CORPUS_VERSION,
    additive_corpus,
    random_additive_instance,
    random_submodular_instance,
    random_xos_instance,
    submodular_corpus,
    xos_corpus,
)
from .downsizing import (
    DownsizeResult,
    downsize_submodular,
    downsize_xos,
    recover_marginals_xos,
)
from .frugality import (
    PofQuery,
    PofReport,
    gen_additive_lb,
    gen_profit_lb_k,
    gen_profit_lb_two,
    gen_subadditive_lb,
    gen_xos_separation,
    pof,
    pof_bound,
    pof_bound_kind,
    value_payment_curve,
)
from .objectives import (
    OBJECTIVES,
    Convex,
    Objective,
    Profit,
    Reward,
    Welfare,
    check_best_conditions,
    evaluate,
    key_property_gap,
)
from .reductions import (
    ReductionOutcome,
    ScaledInstance,
    brute_solver,
    equivalence_pipeline,
    reduce_from_mrl,
    reduce_to_mrl,
    scale_instance,
)
from .solvers import (
    RoundedTable,
    SolveResult,
    brute_force_max,
    build_rounded_table,
    fptas_additive_profit,
    knapsack_fptas,
)

__version__ = "0.1.0"
