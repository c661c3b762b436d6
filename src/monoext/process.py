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
from operator import mul

import numpy as np

from .continuous import MAX_SURFACE_GRID, _check_levels, _check_rising
from .errors import InvalidGrid, ValidationError
from .func1d import (
    EmpiricalRV,
    MonotoneMap1D,
    _float_ratios,
    _integrate_nodes,
    _unit_many,
)


def expectation_bound(m: MonotoneMap1D, tau: EmpiricalRV) -> float:
    """Integral over y of m^{-1}(R(y)), R(y) = tail integral of the
    rearrangement of tau: the mean of the closed-form cell means (see
    :func:`_cell_means`).  The integrand is the extremal process's lower
    branch.
    """
    return float(_cell_means(ExtremalProcess(m, tau)).mean())


def simplified_bound(tau: EmpiricalRV) -> Fraction:
    """Exact integral of r(s) * s over [0, 1] for the identity map.

    Piecewise closed form against the step rearrangement: piece i of width
    1/M contributes its value times (2i+1)/(2M^2).  Each sample is n/d
    with d a power of two, so the sum is one integer over 2M^2 * max(d),
    max(d) being the samples' common denominator, read off the samples'
    binary exponents.
    """
    m_count = tau.m
    nums, den = _float_ratios(np.array(tau.samples)[::-1])
    num = sum(map(mul, range(1, 2 * m_count, 2), nums))
    return Fraction(num, 2 * m_count * m_count * den)


def fubini_check(tau: EmpiricalRV, tol: float = 1e-9) -> float:
    """|quadrature of the identity's lower branch - simplified_bound(tau)|.

    The two sides differ only by the order of integration, so the
    deviation is bounded by twice the quadrature tolerance.  The
    quadrature runs over the lower branch itself, not the cell means of
    :func:`expectation_bound`, so it checks that closed form too.
    """
    proc = ExtremalProcess(MonotoneMap1D.identity(), tau)
    direct = _integrate_nodes(proc.lower_branch, 0.0, 1.0, tol)
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
        # The ascending samples and their prefix sums, 0 first: the sum of
        # the k smallest samples is _csum[k].
        asc = np.array(self.tau.samples, dtype=float)
        object.__setattr__(self, "_asc", asc)
        object.__setattr__(self, "_csum", np.concatenate(([0.0], np.cumsum(asc))))

    @property
    def sample_count(self) -> int:
        return self.tau.m

    @property
    def mean_time(self) -> float:
        return float(self._csum[-1]) / self.tau.m

    # The methods below take a float or an array of rank fractions y and
    # return a float or an array of the same shape; a y outside [0, 1] or
    # NaN raises OutOfDomain.

    def tail_integral(self, y):
        """Integral of the non-increasing rearrangement over [1 - y, 1]."""
        m_count = self.tau.m
        p = 1.0 - _unit_many(y, "y")
        i = np.clip(p * m_count, 0, m_count - 1).astype(np.int64)
        j = m_count - 1 - i
        inner = ((i + 1) / m_count - p) * self._asc[j] + self._csum[j] / m_count
        inner = np.where(p <= 0.0, self._csum[-1] / m_count, inner)
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


# A cell mean is taken as a difference of G = integral of m^{-1} only
# where that difference exceeds this share of G at the cell's right end
# (about the cube root of the float epsilon, where the cancellation error
# of the difference and the midpoint rule's error are of one size) and
# _G_FLOOR, below which G has lost digits to underflow.
_CELL_SHARE = 2.0**-17
_G_FLOOR = 2.0**-1000

# The largest Monte Carlo trial count: every count up to it is exact as a
# float, so the weighted sums see the counts drawn.
MAX_TRIALS = 2**53


def _cell_means(proc: ExtremalProcess) -> np.ndarray:
    """Mean of the lower branch m^{-1}(R(y)) over each rank cell
    [k/M, (k+1)/M], k = 0..M-1.

    R is linear on cell k, from R_k = csum[k] / M to R_{k+1}, with csum[k]
    the sum of the k smallest samples, so the mean is
    (G(R_{k+1}) - G(R_k)) / (R_{k+1} - R_k) with G the integral of m^{-1}
    (:meth:`MonotoneMap1D.inverse_integral_many`).  A cell of width
    0, or too narrow for the difference to keep its digits, takes
    m^{-1} at its midpoint instead.  Each mean is kept within m^{-1} at its
    cell's ends, which bound it, so the means never decrease with rank.
    """
    m_count = proc.sample_count
    edges = proc._csum / m_count
    g = proc.m.inverse_integral_many(edges)
    lo, hi = edges[:-1], edges[1:]
    dg = np.diff(g)
    narrow = dg <= np.maximum(_CELL_SHARE * g[1:], _G_FLOOR)
    means = np.empty(m_count)
    wide = ~narrow
    means[wide] = dg[wide] / (hi[wide] - lo[wide])
    means[narrow] = proc.m.inverse_many(0.5 * (lo[narrow] + hi[narrow]))
    ends = proc.m.inverse_many(edges)
    return np.minimum(np.maximum(means, ends[:-1]), ends[1:])


def check_trials(trials: int) -> None:
    """Raise :class:`ValidationError` unless 1 <= trials <= MAX_TRIALS."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(
            f"trials must be between 1 and {MAX_TRIALS}, got {trials}"
        )


def _rank_counts(m_count: int, trials: int, seed: int) -> np.ndarray:
    """How many of ``trials`` uniform outcomes fall in each of the
    ``m_count`` rank cells: one multinomial draw from a Philox generator
    keyed by ``seed``, so the counts depend on nothing else."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.multinomial(trials, np.full(m_count, 1.0 / m_count))


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
    draws how many of ``trials`` outcomes fall in each rank cell, in one
    multinomial draw from a counter-based generator keyed by ``seed``,
    weights each cell by its mean (:func:`_cell_means`) and reports (mean,
    standard error).  Its expectation is exactly
    :func:`expectation_bound`, and its time and memory are O(M) for any
    trial count up to :data:`MAX_TRIALS`.
    """
    if mode == "quadrature":
        value = _integrate_nodes(
            lambda y: _process_values(proc, proc.quantile(y), y), 0.0, 1.0, tol
        )
        return value, 0.0
    if mode != "montecarlo":
        raise ValidationError(f"mode must be 'quadrature' or 'montecarlo', got {mode!r}")
    check_trials(trials)
    means = _cell_means(proc)
    counts = _rank_counts(proc.sample_count, trials, seed)
    mean = float(counts @ means / trials)
    if trials == 1:
        return mean, 0.0
    variance = float(counts @ (means - mean) ** 2 / (trials - 1))
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

    def point(j, a):
        return t_centers[a], y_centers[j]

    _check_rising(values, 1, point, "trajectory decreases in t")
    budget = 2.0 * (1.0 / grid_t + 1.0 / grid_y) + 1.0 / proc.sample_count + 1e-9
    worst, worst_level = _check_levels(
        values, point, proc.m, s_count, budget,
        "level-set deviation {worst:.3g} at s={level} exceeds budget {budget:.3g}",
    )
    return ProcessMembershipReport(grid_t, grid_y, True, worst, worst_level, budget)
