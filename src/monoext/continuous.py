"""Sharp lower bound for line integrals of coordinate-wise monotone
functions on the unit square, with an explicit extremal surface.

The class under study consists of coordinate-wise non-decreasing functions
f: [0,1]^2 -> [0,1] whose super-level sets are large enough:
mu{f > u} >= 1 - m(u) for an increasing bijection m.  For a non-decreasing
path t the integral of f(t(s), s) over s is at least the integral of
m^{-1}(t(s) * s), and the bound is attained by an explicit surface whose
level regions are the growth increments of the rectangles
[0, t(s)] x [0, s].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidGrid, MembershipViolation, OutOfDomain
from .func1d import MonotoneMap1D, _clamp_unit, _integrate_nodes
from .poset import grid_poset, QuerySet
from .solver import chain_bounds, scale_from_m


# The largest grid side the membership checks accept.  They hold several
# grid x grid float arrays, so memory grows with the square of the side: at
# the maximum, cont-extremal peaks at about 223 MB resident, for a piecewise
# linear m as for the identity (in-process ru_maxrss; Python 3.11, numpy 2.4).
MAX_SURFACE_GRID = 2000


def _require_bijection(m: MonotoneMap1D) -> None:
    if not m.is_increasing_bijection:
        raise OutOfDomain("m must be an increasing bijection of [0, 1]")


def line_integral_bound(
    m: MonotoneMap1D, t: MonotoneMap1D, tol: float = 1e-9
) -> float:
    """Integral of m^{-1}(t(s) * s) over [0, 1], to tolerance ``tol``.

    This is the sharp lower bound for the line integral along s -> (t(s), s)
    over the whole class.
    """
    _require_bijection(m)
    return _integrate_nodes(
        lambda s: m.inverse_many(t.eval_many(s) * s), 0.0, 1.0, tol
    )


def eval_extremal_surface(
    m: MonotoneMap1D, t: MonotoneMap1D, x: float, y: float
) -> float:
    """Value of the extremal surface at (x, y) in the unit square.

    Left of the path's final abscissa the point belongs to the level region
    indexed by the least s whose rectangle [0, t(s)] x [0, s] contains it,
    i.e. s = max(y, min{s : t(s) >= x}), and the value is m^{-1}(t(s)*s).
    Right of it the surface climbs linearly in y from m^{-1}(t(1)) to 1.
    This is the one-point case of the grid evaluator, so it returns exactly
    the values :func:`verify_membership` checks.
    """
    x = _clamp_unit(x, "x")
    y = _clamp_unit(y, "y")
    return float(_surface_values(m, t, float(x), float(y)))


@dataclass(frozen=True)
class MembershipReport:
    grid_n: int
    monotone_ok: bool
    max_distribution_deviation: float
    worst_u: float
    budget: float

    @property
    def ok(self) -> bool:
        return bool(
            self.monotone_ok and self.max_distribution_deviation <= self.budget
        )


def _check_rising(values, axis: int, point, message: str) -> None:
    """Raise :class:`MembershipViolation` with ``message`` unless the 2-D
    array ``values`` never decreases along ``axis``.  The witness is the
    first decreasing cell (i, j) in row-major order and its successor
    along the axis, each as (*point(i, j), value)."""
    falls = np.diff(values, axis=axis) < 0
    if falls.any():
        i, j = map(int, np.argwhere(falls)[0])
        k, l = (i + 1, j) if axis == 0 else (i, j + 1)
        raise MembershipViolation(message, witness=(
            (*point(i, j), values[i, j]), (*point(k, l), values[k, l])))


def _check_levels(values, m, level_count: int, budget: float, message: str):
    """(worst, level): the largest |F(m^{-1}(u)) - u| over ``level_count``
    levels u spread evenly over [0, 1], F the empirical distribution
    function of ``values``, and the first level attaining it.  Raises
    :class:`MembershipViolation` with ``message``, formatted with worst,
    level and budget, and the witness (level, worst) when worst exceeds
    ``budget``."""
    levels = np.linspace(0.0, 1.0, level_count)
    flat = np.sort(values, axis=None)
    below = np.searchsorted(flat, m.inverse_many(levels), side="right")
    dev = np.abs(below / flat.size - levels)
    k = int(np.argmax(dev))
    worst, level = float(dev[k]), float(levels[k])
    if worst > budget:
        raise MembershipViolation(
            message.format(worst=worst, level=level, budget=budget),
            witness=(level, worst),
        )
    return worst, level


def _surface_values(m, t, x, y) -> np.ndarray:
    """Surface values at the points (x, y) of [0, 1]^2, x and y broadcast
    against each other.

    The least s with t(s) >= x is taken before broadcasting, so on a grid
    it is computed once per abscissa; the region lookup runs only where
    x <= t(1).
    """
    _require_bijection(m)
    x = np.asarray(x, dtype=float)
    t1 = t.eval(1.0)
    s_low, y = np.broadcast_arrays(t.lower_inverse_many(x), np.asarray(y, dtype=float))
    left = np.broadcast_to(x <= t1, y.shape)
    values = np.empty(y.shape)
    s_star = np.maximum(s_low[left], y[left])
    values[left] = m.inverse_many(t.eval_many(s_star) * s_star)
    right = ~left
    values[right] = m.inverse_many(t1 + (1.0 - t1) * y[right])
    return values


def _surface_grid(m, t, xs, ys) -> np.ndarray:
    """Surface values at the grid xs x ys; rows index x, columns index y."""
    return _surface_values(m, t, xs[:, None], ys[None, :])


def verify_membership(
    m: MonotoneMap1D,
    t: MonotoneMap1D,
    grid_n: int,
    surface=None,
    u_count: int = 101,
) -> MembershipReport:
    """Grid check that the extremal surface belongs to the class.

    On an ``grid_n x grid_n`` grid of cell centers: (a) coordinate-wise
    monotonicity must hold under exact <= comparisons; (b) for each level u
    the cell-counting estimate of mu{f > m^{-1}(u)} must equal 1 - u within
    2/grid_n + 1e-9 (a monotone level boundary crosses at most 2*grid_n
    cells).  ``surface`` replaces the extremal surface by a
    ``grid_n x grid_n`` array of values at the cell centers (rows index
    x), e.g. the values already computed or a negative control.  Raises
    :class:`MembershipViolation` with witness points on failure; otherwise
    returns the worst deviation observed.
    """
    _require_bijection(m)
    if not 2 <= grid_n <= MAX_SURFACE_GRID:
        raise InvalidGrid(f"grid_n must be between 2 and {MAX_SURFACE_GRID}")
    xs = (np.arange(grid_n) + 0.5) / grid_n
    ys = xs
    if surface is None:
        grid = _surface_grid(m, t, xs, ys)
    else:
        grid = np.asarray(surface, dtype=float)
        if grid.shape != (grid_n, grid_n):
            raise InvalidGrid(
                f"surface array has shape {grid.shape}, want {(grid_n, grid_n)}"
            )

    def point(i, j):
        return xs[i], ys[j]

    _check_rising(grid, 0, point, "surface decreases in x")
    _check_rising(grid, 1, point, "surface decreases in y")
    budget = 2.0 / grid_n + 1e-9
    worst, worst_u = _check_levels(
        grid, m, u_count, budget,
        "distribution deviation {worst:.3g} at u={level} exceeds budget {budget:.3g}",
    )
    return MembershipReport(grid_n, True, worst, worst_u, budget)


def line_integral_on_surface(
    m: MonotoneMap1D, t: MonotoneMap1D, tol: float = 1e-9
) -> float:
    """Line integral of the extremal surface along s -> (t(s), s).

    Goes through the region-lookup evaluator, so agreement with
    :func:`line_integral_bound` (within 2*tol) exercises the whole
    construction, not just the closed form.
    """
    return _integrate_nodes(
        lambda s: _surface_values(m, t, t.eval_many(s), s), 0.0, 1.0, tol
    )


@dataclass(frozen=True)
class GridExperiment:
    """Outcome of the square-grid discretization of the constant-path bound."""

    alpha: float
    n: int
    k: int
    column: int
    discrete_sum: Fraction      # (1/n) * sum of column values, equals discrete_bound / n
    discrete_bound: Fraction    # closed-form column-sum bound s(n+1)/(2n)
    continuous_target: Fraction  # alpha / 2
    abs_error: Fraction
    c_fit: Fraction             # abs_error * n

    def as_dict(self) -> dict:
        """The fields in declaration order, each Fraction as its string."""
        return {
            name: str(v) if isinstance(v, Fraction) else v
            for name, v in asdict(self).items()
        }


def grid_experiment(alpha: float, n: int, k: int) -> GridExperiment:
    """Discretize the constant-path problem on an n x n grid.

    The filling (values 1..n^2, scaled by 1/n^2) is the solver's min
    witness of the column chain {(s, j)}, where s is the column containing
    x = alpha: the witness of the transposed chain {(v, s)} on
    :func:`grid_poset`, turned round.  It fills the s leftmost columns row
    by row with 1..s*n, the rest row by row with s*n+1..n^2, and is checked
    monotone along both axes.  Returns the observed column average at
    column s, the closed-form bound s(n+1)/(2n), and the distance to the
    continuum target alpha/2.  ``k`` must be a positive divisor of n; it is
    validated and echoed in the record but computes nothing.
    """
    if not (math.isfinite(alpha) and 0 < alpha <= 1):
        raise InvalidGrid("alpha must lie in (0, 1]")
    fa = Fraction(alpha)
    if n < 2:
        raise InvalidGrid("n must be at least 2")
    if k < 1 or n % k != 0:
        raise InvalidGrid("k must be a positive divisor of n")
    s = math.ceil(fa * n)

    # val[i-1, j-1], i column, j row; integer values 1..n^2.
    down = grid_poset(n).down
    order = down.extension(down.first_holder([v * n + s - 1 for v in range(n)]))
    val = np.empty(n * n, dtype=np.int64)
    val[order] = np.arange(1, n * n + 1)
    val = val.reshape(n, n).T
    if (np.diff(val, axis=0) <= 0).any():
        raise MembershipViolation("grid filling not monotone in x")
    if (np.diff(val, axis=1) <= 0).any():
        raise MembershipViolation("grid filling not monotone in y")

    column_total = int(val[s - 1].sum())
    discrete_sum = Fraction(column_total, n**3)
    discrete_bound = Fraction(s * (n + 1), 2 * n)
    target = fa / 2
    err = abs(discrete_sum - target)
    return GridExperiment(
        alpha=float(alpha),
        n=n,
        k=k,
        column=s,
        discrete_sum=discrete_sum,
        discrete_bound=discrete_bound,
        continuous_target=target,
        abs_error=err,
        c_fit=err * n,
    )


def column_chain_bound(n: int, s: int) -> Fraction:
    """Column-sum lower bound on the n x n product grid via the chain
    closed form, with the identity scale i/n^2.  Ties the grid experiment
    to the discrete solver; must equal s(n+1)/(2n) exactly.
    """
    poset = grid_poset(n, "product")
    scale = scale_from_m(MonotoneMap1D.identity(), n)
    column = QuerySet(poset, [(s, v) for v in range(1, n + 1)])
    mn, _ = chain_bounds(poset, scale, column)
    return mn
