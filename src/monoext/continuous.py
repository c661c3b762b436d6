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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGrid, MembershipViolation, OutOfDomain
from .func1d import MonotoneMap1D, _clamp_unit, _integrate_nodes


# The largest grid side the membership checks accept.  The surface is one
# grid x grid float array, and the checks hold one more at a time, so memory
# grows with the square of the side: at the maximum, cont-extremal peaks at
# about 98 MB resident, for a piecewise linear m as for the identity (fresh
# interpreter, in-process ru_maxrss; Python 3.11, numpy 2.4).
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
    It is the point evaluator :func:`_surface_values` at one point; the
    grid that :func:`verify_membership` checks is the row form
    (:func:`_surface_rows`), which gives the same values bit for bit.
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
    along the axis, each as (*point(i, j), value).  A step to or from NaN
    counts as a decrease, so a NaN cell is named too."""
    falls = ~(np.diff(values, axis=axis) >= 0)
    if falls.any():
        i, j = map(int, np.argwhere(falls)[0])
        k, l = (i + 1, j) if axis == 0 else (i, j + 1)
        raise MembershipViolation(message, witness=(
            (*point(i, j), values[i, j]), (*point(k, l), values[k, l])))


def _check_levels(values, point, m, level_count: int, budget: float, message: str):
    """(worst, level): the largest |F(m^{-1}(u)) - u| over ``level_count``
    levels u spread evenly over [0, 1], F the empirical distribution
    function of ``values``, and the first level attaining it.  Raises
    :class:`MembershipViolation` naming the first value in row-major order
    outside [0, 1], the class's range, with the witness
    (*point(i, j), value); otherwise with ``message``, formatted with
    worst, level and budget, and the witness (level, worst) when worst
    exceeds ``budget``."""
    flat = np.sort(values, axis=None)
    if flat[0] < 0.0 or flat[-1] > 1.0:
        i, j = map(int, np.argwhere((values < 0.0) | (values > 1.0))[0])
        value = float(values[i, j])
        raise MembershipViolation(f"value {value!r} lies outside [0, 1]",
                                  witness=(*point(i, j), value))
    levels = np.linspace(0.0, 1.0, level_count)
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
    against each other, point by point.

    Where x <= t(1) the value is G(max(s_low(x), y)), with
    G(s) = m^{-1}(t(s) * s) and s_low(x) the least s with t(s) >= x;
    elsewhere it is R(y) = m^{-1}(t(1) + (1 - t(1)) * y).  G is evaluated
    once per point.  A grid goes through :func:`_surface_rows` instead,
    which evaluates G and R once per abscissa and once per ordinate; each
    of its cells is the G or R of the same argument as here.
    """
    _require_bijection(m)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t1 = t.eval(1.0)
    s_low, y, right = np.broadcast_arrays(t.lower_inverse_many(x), y, x > t1)
    left = ~right
    values = np.empty(right.shape)
    s_star = np.maximum(s_low[left], y[left])
    values[left] = m.inverse_many(t.eval_many(s_star) * s_star)
    values[right] = m.inverse_many(t1 + (1.0 - t1) * y[right])
    return values


@dataclass(frozen=True)
class _SurfaceRows:
    """The surface on a grid xs x ys with ys ascending, as rows (rows index
    x): row i is ``right_row`` where ``right[i]`` (x > t(1)); otherwise it
    is ``stretch[i]`` = G(s_low(x)) on its first ``cut[i]`` cells, the
    ordinates y <= s_low(x), and ``tail`` = G(y) on the rest.
    ``right_row`` is R(y).  Each cell is G(max(s_low(x), y)) or R(y), as
    at the one point (:func:`_surface_values`)."""

    tail: np.ndarray
    right_row: np.ndarray
    stretch: np.ndarray
    right: np.ndarray
    cut: np.ndarray

    def grid(self) -> np.ndarray:
        """The rows as one float array."""
        values = np.empty((self.stretch.size, self.tail.size))
        np.copyto(values, self.tail)
        np.copyto(values, self.stretch[:, None],
                  where=np.arange(self.tail.size) < self.cut[:, None])
        np.copyto(values, self.right_row, where=self.right[:, None])
        return values


def _surface_rows(m, t, xs, ys) -> _SurfaceRows:
    """The surface on the grid xs x ys, ys ascending, from G and R once per
    ordinate and G(s_low(x)) once per abscissa: O(len(xs) + len(ys)) map
    values."""
    _require_bijection(m)
    t1 = t.eval(1.0)
    s_low = t.lower_inverse_many(xs)

    def g(s):
        return m.inverse_many(t.eval_many(s) * s)

    return _SurfaceRows(
        tail=g(ys),
        right_row=m.inverse_many(t1 + (1.0 - t1) * ys),
        stretch=g(s_low),
        right=xs > t1,
        cut=np.searchsorted(ys, s_low, side="right"),
    )


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
        grid = _surface_rows(m, t, xs, ys).grid()
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
        grid, point, m, u_count, budget,
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
