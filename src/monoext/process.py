"""Sharp lower bound for the expected value of a monotone random process
at a random time, with the explicit extremal process.

Processes live on [0,1] with almost-surely non-decreasing trajectories in
[0,1] and expected super-level-set measure at least 1 - m(s).  For a random
time tau with non-increasing rearrangement r, the expectation at tau is at
least the integral over y of m^{-1}(R(y)) with R(y) the integral of r over
[1-y, 1].  The sample space is the rank fraction y, uniform on [0, 1] by
construction, so tau may have atoms (tied samples) and needs no tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .continuous import MAX_SURFACE_GRID
from .errors import (
    InvalidGrid,
    MembershipViolation,
    ValidationError,
)
from .func1d import (
    EmpiricalRV,
    MonotoneMap1D,
    _clamp_unit,
    _integrate_nodes,
    _level_set_deviation,
    _unit_many,
)
from .poset import QuerySet, grid_poset
from .solver import disjoint_bound, scale_from_m


def _tail_sums(tau: EmpiricalRV):
    """(ascending samples, descending samples, suffix sums of descending)."""
    asc = np.array(tau.samples, dtype=float)
    dsc = asc[::-1].copy()
    tail = np.zeros(len(dsc) + 1)
    tail[:-1] = np.cumsum(dsc[::-1])[::-1]
    return asc, dsc, tail


def expectation_bound(
    m: MonotoneMap1D, tau: EmpiricalRV, tol: float = 1e-9
) -> float:
    """Integral over y of m^{-1}(R(y)), R(y) = tail integral of the
    rearrangement of tau.  The inner integral is exact (the rearrangement
    is a step function); the outer one is adaptive to ``tol``.  The
    integrand is the extremal process's lower branch.
    """
    return _integrate_nodes(ExtremalProcess(m, tau).lower_branch, 0.0, 1.0, tol)


def simplified_bound(tau: EmpiricalRV) -> Fraction:
    """Exact integral of r(s) * s over [0, 1] for the identity map.

    Piecewise closed form against the step rearrangement: piece i of width
    1/M contributes its value times (2i+1)/(2M^2).  Each sample is n/d
    with d a power of two, so the sum is one integer over 2M^2 * max(d).
    """
    m_count = tau.m
    ratios = [v.as_integer_ratio() for v in reversed(tau.samples)]
    den = max(d for _, d in ratios)
    num = sum((2 * i + 1) * n * (den // d) for i, (n, d) in enumerate(ratios))
    return Fraction(num, 2 * m_count * m_count * den)


def fubini_check(tau: EmpiricalRV, tol: float = 1e-9) -> float:
    """|expectation_bound(identity, tau) - simplified_bound(tau)|.

    The two sides differ only by the order of integration, so the
    deviation is bounded by twice the quadrature tolerance.
    """
    direct = expectation_bound(MonotoneMap1D.identity(), tau, tol)
    return abs(direct - float(simplified_bound(tau)))


@dataclass(frozen=True)
class ExtremalProcess:
    """The process attaining the expectation bound.

    A trajectory indexed by rank fraction y holds the constant value
    m^{-1}(R(y)) up to the y-quantile of tau and the constant
    m^{-1}(E tau + y - R(y)) after it; both branches are non-decreasing in
    y and the second dominates the first, so trajectories are monotone.
    Outcome y meets tau at its y-quantile, and y is uniform on [0, 1], so an
    atom of tau is met by an interval of outcomes: ties need no breaking.
    """

    m: MonotoneMap1D
    tau: EmpiricalRV

    def __post_init__(self):
        if not self.m.is_increasing_bijection:
            raise ValidationError("m must be an increasing bijection")
        asc, dsc, tail = _tail_sums(self.tau)
        object.__setattr__(self, "_asc", asc)
        object.__setattr__(self, "_dsc", dsc)
        object.__setattr__(self, "_tail", tail)

    @property
    def sample_count(self) -> int:
        return self.tau.m

    @property
    def mean_time(self) -> float:
        return float(self._tail[0]) / self.tau.m

    # The methods below take a float or an array of rank fractions y and
    # return a float or an array of the same shape; a y outside [0, 1] or
    # NaN raises OutOfDomain.

    def tail_integral(self, y):
        """Integral of the non-increasing rearrangement over [1 - y, 1]."""
        m_count = self.tau.m
        p = 1.0 - _unit_many(y, "y")
        i = np.clip(p * m_count, 0, m_count - 1).astype(np.int64)
        inner = ((i + 1) / m_count - p) * self._dsc[i] + self._tail[i + 1] / m_count
        inner = np.where(p <= 0.0, self._tail[0] / m_count, inner)
        return np.where(p >= 1.0, 0.0, inner)[()]

    def quantile(self, y):
        """Value of tau at the sample of rank fraction y."""
        m_count = self.tau.m
        rank = np.clip(np.ceil(_unit_many(y, "y") * m_count), 1, m_count)
        return self._asc[rank.astype(np.int64) - 1]

    def lower_branch(self, y):
        return self.m.inverse_many(self.tail_integral(y))[()]

    def upper_branch(self, y):
        level = self.mean_time + np.asarray(y, dtype=float) - self.tail_integral(y)
        return self.m.inverse_many(level)[()]


def make_extremal_process(m: MonotoneMap1D, tau: EmpiricalRV) -> ExtremalProcess:
    """The extremal process for ``m`` and ``tau``, tied samples included."""
    return ExtremalProcess(m, tau)


def _process_values(proc: ExtremalProcess, t, y) -> np.ndarray:
    """Trajectory values at the points (t, y), t and y broadcast against
    each other.

    The branch values are taken before broadcasting, so on a grid they are
    computed once per rank fraction.
    """
    y = np.asarray(y, dtype=float)
    return np.where(np.asarray(t, dtype=float) <= proc.quantile(y),
                    proc.lower_branch(y), proc.upper_branch(y))


def eval_extremal_process(proc: ExtremalProcess, t: float, y: float) -> float:
    """Trajectory value at time t for the outcome of rank fraction y.

    The one-point case of the grid evaluator, so it returns exactly the
    values :func:`verify_process_membership` checks.
    """
    t = _clamp_unit(t, "t")
    y = _clamp_unit(y, "y")
    return float(_process_values(proc, t, y))


# Monte Carlo ranks are drawn and counted this many at a time, so memory is
# O(M) for any trial count; chunked draws equal one-shot draws.
_MC_CHUNK = 2**20


def expectation_at_tau(
    proc: ExtremalProcess,
    mode: str = "quadrature",
    trials: int = 10**6,
    seed: int = 0,
    tol: float = 1e-9,
):
    """Expected value of the extremal process at the random time.

    ``"quadrature"`` integrates the trajectory value at its own time over
    the (uniform) rank fraction and reports (value, 0.0).  ``"montecarlo"``
    draws outcomes uniformly among the samples with a counter-based
    generator keyed by ``seed`` (deterministic regardless of scheduling)
    and reports (mean, standard error).
    """
    if mode == "quadrature":
        value = _integrate_nodes(
            lambda y: _process_values(proc, proc.quantile(y), y), 0.0, 1.0, tol
        )
        return value, 0.0
    if mode != "montecarlo":
        raise ValidationError(f"mode must be 'quadrature' or 'montecarlo', got {mode!r}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    m_count = proc.sample_count
    # At its own time each outcome sits on the lower branch; rank i has
    # R = tail[M - i] / M exactly (a whole number of rearrangement pieces).
    tail = proc._tail
    by_rank = proc.m.inverse_many(tail[:m_count][::-1] / m_count)
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(m_count + 1, dtype=np.int64)
    for start in range(0, trials, _MC_CHUNK):
        size = min(_MC_CHUNK, trials - start)
        counts += np.bincount(rng.integers(1, m_count + 1, size=size),
                              minlength=m_count + 1)
    counts = counts[1:]
    mean = float(counts @ by_rank / trials)
    if trials == 1:
        return mean, 0.0
    variance = float(counts @ (by_rank - mean) ** 2 / (trials - 1))
    return mean, math.sqrt(variance) / math.sqrt(trials)


@dataclass(frozen=True)
class ProcessMembershipReport:
    grid_t: int
    grid_y: int
    monotone_ok: bool
    max_deviation: float
    worst_level: float
    budget: float

    @property
    def ok(self) -> bool:
        return bool(self.monotone_ok and self.max_deviation <= self.budget)


def verify_process_membership(
    proc: ExtremalProcess,
    grid_t: int,
    grid_y: int,
    s_count: int = 101,
    values=None,
) -> ProcessMembershipReport:
    """Grid check that the extremal process belongs to the class.

    (a) Along each sampled trajectory the value must be non-decreasing in
    t under exact comparisons.  (b) For levels s on a grid, the
    cell-counting estimate of (mu x P){xi <= m^{-1}(s)} must equal s within
    2*(1/grid_t + 1/grid_y) + 1/M + 1e-9.  ``values`` replaces the
    process by a ``grid_y x grid_t`` array of trajectory values at the cell
    centers (rows index y), e.g. a negative control.  Raises
    :class:`MembershipViolation` on failure.
    """
    if not (2 <= grid_t <= MAX_SURFACE_GRID and 2 <= grid_y <= MAX_SURFACE_GRID):
        raise InvalidGrid(f"grids must be between 2 and {MAX_SURFACE_GRID}")
    t_centers = (np.arange(grid_t) + 0.5) / grid_t
    y_centers = (np.arange(grid_y) + 0.5) / grid_y

    if values is None:
        values = _process_values(proc, t_centers[None, :], y_centers[:, None])
    else:
        values = np.asarray(values, dtype=float)
        if values.shape != (grid_y, grid_t):
            raise InvalidGrid(
                f"values array has shape {values.shape}, want {(grid_y, grid_t)}"
            )

    steps = np.diff(values, axis=1)
    if (steps < 0).any():
        j, a = map(int, np.argwhere(steps < 0)[0])
        raise MembershipViolation(
            "trajectory decreases in t",
            witness=(
                (t_centers[a], y_centers[j], values[j, a]),
                (t_centers[a + 1], y_centers[j], values[j, a + 1]),
            ),
        )

    budget = 2.0 * (1.0 / grid_t + 1.0 / grid_y) + 1.0 / proc.sample_count + 1e-9
    worst, worst_level = _level_set_deviation(
        values, proc.m, np.linspace(0.0, 1.0, s_count)
    )
    if worst > budget:
        raise MembershipViolation(
            f"level-set deviation {worst:.3g} at s={worst_level} exceeds "
            f"budget {budget:.3g}",
            witness=(worst_level, worst),
        )
    return ProcessMembershipReport(grid_t, grid_y, True, worst, worst_level, budget)


def rows_grid_cross_check(m: MonotoneMap1D, n: int, s_indices) -> dict:
    """Row-order grid instance of the disjoint-down-set closed form.

    For non-decreasing time indices 1 <= s_1 <= ... <= s_n <= n, queries
    the nodes (s_v, v) of the n x n rows-order grid with the scale
    m^{-1}(i/n^2).  The closed form sums m^{-1}((s_1+...+s_v)/n^2); the
    dict reports both sides so callers can assert exact (rational) or
    near-exact (float) agreement.
    """
    s_list = list(s_indices)
    if len(s_list) != n:
        raise ValidationError("need exactly n time indices")
    prev = 1
    for s in s_list:
        if not prev <= s <= n:
            raise ValidationError("indices must be non-decreasing within 1..n")
        prev = s
    poset = grid_poset(n, "rows")
    scale = scale_from_m(m, n)
    query = QuerySet(poset, [(s, v) for v, s in enumerate(s_list, start=1)])
    bound = disjoint_bound(poset, scale, query, "min")
    n2 = n * n
    prefix = 0
    closed = Fraction(0) if m.kind == "identity" else 0.0
    for s in s_list:
        prefix += s
        closed += m.inverse(Fraction(prefix, n2))
    return {"poset": poset, "scale": scale, "query": query,
            "bound": bound, "closed_form": closed}
