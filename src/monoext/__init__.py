"""Extremal values of monotone-bijection sums on finite posets, with the
continuous line-integral and random-process bounds they discretize."""

from . import errors
from .continuous import (
    MembershipReport,
    eval_extremal_surface,
    line_integral_bound,
    line_integral_on_surface,
    verify_membership,
)
from .discretize import (
    GridExperiment,
    column_chain_bound,
    grid_experiment,
    rows_grid_cross_check,
    scale_from_m,
)
from .func1d import (
    EmpiricalRV,
    MonotoneMap1D,
    StepFunction1D,
    integrate,
)
from .oracle import CheckResult, brute_min_max, check_monotone_bijection, swap_adjacent
from .poset import (
    DEFAULT_CAP,
    Poset,
    QuerySet,
    build_poset,
    grid_poset,
)
from .process import (
    ExtremalProcess,
    ProcessMembershipReport,
    expectation_at_tau,
    expectation_bound,
    fubini_check,
    make_extremal_process,
    simplified_bound,
    verify_process_membership,
)
from .solver import (
    build_witness,
    chain_bounds,
    conditional_max,
    conditional_min,
    disjoint_bound,
    solve_max,
    solve_min,
)
from .values import BoundResult, MonotoneBijection, ValueScale

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CheckResult",
    "DEFAULT_CAP",
    "EmpiricalRV",
    "ExtremalProcess",
    "GridExperiment",
    "MembershipReport",
    "MonotoneBijection",
    "MonotoneMap1D",
    "Poset",
    "ProcessMembershipReport",
    "QuerySet",
    "StepFunction1D",
    "ValueScale",
    "brute_min_max",
    "build_poset",
    "build_witness",
    "chain_bounds",
    "check_monotone_bijection",
    "column_chain_bound",
    "conditional_max",
    "conditional_min",
    "disjoint_bound",
    "errors",
    "eval_extremal_surface",
    "expectation_at_tau",
    "expectation_bound",
    "fubini_check",
    "grid_experiment",
    "grid_poset",
    "integrate",
    "line_integral_bound",
    "line_integral_on_surface",
    "make_extremal_process",
    "rows_grid_cross_check",
    "scale_from_m",
    "simplified_bound",
    "solve_max",
    "solve_min",
    "swap_adjacent",
    "verify_membership",
    "verify_process_membership",
]
