"""Monotone maps of the unit interval, step functions, empirical random
variables, and adaptive quadrature.

Three map kinds are shipped: identity, power, and piecewise linear.  All
three have closed-form inverses and generalized inverses, so no root
finding is involved.  The non-increasing rearrangement of an empirical
random time lives with its only user, :mod:`monoext.process`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le, lshift
from typing import Iterable

import numpy as np

from .errors import (
    NotIncreasing,
    OutOfDomain,
    ToleranceNotMet,
    ValidationError,
)

_UNIT_SLACK = 1e-9
# Entries per step of a pwl interpolation: its six temporaries then take
# 3 MB, however large the input.
_INTERP_CHUNK = 1 << 16


def _clamp_unit(x, what: str = "argument"):
    """A value in [0, 1] unchanged (Fractions included); any other value
    through :func:`_unit_many`."""
    if 0 <= x <= 1:
        return x
    return float(_unit_many(x, what))


def _unit_many(x, what: str) -> np.ndarray:
    """``x`` as a float array, float noise outside [0, 1] clamped into it;
    raises :class:`OutOfDomain` for NaN or any value more than _UNIT_SLACK
    outside [0, 1].  One min and one max reduction decide (NaN propagates
    through both), and an array within [0, 1] is returned as it is."""
    x = np.asarray(x, dtype=float)
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):
        bad = (x < -_UNIT_SLACK) | (x > 1 + _UNIT_SLACK) | np.isnan(x)
        if bad.any():
            raise OutOfDomain(f"{what} {float(x[bad].flat[0])!r} outside [0, 1]")
        x = np.clip(x, 0.0, 1.0)
    return x


def _float_ratios(xs: np.ndarray) -> tuple:
    """``(nums, den)`` with ``xs[k] == nums[k] / den`` exactly, in Python
    ints, for a 1-D array of finite floats; ``den`` is the least common
    denominator.

    Each float is odd * 2**e, and its denominator is 2**-e when e < 0,
    so the common denominator is 2**k with k = max(0, -min e), and each
    numerator is odd shifted left by e + k.
    """
    mant, exp = np.frexp(xs)
    ints = np.ldexp(mant, 53).astype(np.int64)  # xs == ints * 2**(exp - 53)
    low = ints & -ints  # the lowest set bit, 0 for a zero
    zero = low == 0
    shift = np.frexp(low)[1] - 1  # its position
    odd = ints >> np.where(zero, 0, shift)
    e = np.where(zero, 0, exp - 53 + shift)
    k = -int(e.min(initial=0))
    return list(map(lshift, odd.tolist(), (e + k).tolist())), 1 << k


def _by_piece(u, knots, side: str, piece) -> np.ndarray:
    """``piece(c, i)`` over the entries c of ``u``, with i the piece of
    each entry: searchsorted(knots, c, side) - 1, kept within the first and
    last piece.  Entries are taken _INTERP_CHUNK at a time, so the
    temporaries stay small beside the result.
    """
    out = np.empty(np.shape(u))
    flat_u, flat_out = np.ravel(u), out.reshape(-1)
    for start in range(0, flat_u.size, _INTERP_CHUNK):
        c = flat_u[start:start + _INTERP_CHUNK]
        i = np.clip(np.searchsorted(knots, c, side=side) - 1, 0, len(knots) - 2)
        flat_out[start:start + _INTERP_CHUNK] = piece(c, i)
    return out


def _lerp(c, i, knots, images) -> np.ndarray:
    """Linear interpolation of ``c`` on piece ``i`` from ``knots`` to
    ``images``, clamped into the piece's image range, so it is
    non-decreasing in c.  A piece of zero width divides by one instead."""
    k0, k1 = knots[i], knots[i + 1]
    v0, v1 = images[i], images[i + 1]
    v = v0 + (c - k0) * (v1 - v0) / np.where(k1 > k0, k1 - k0, 1.0)
    return np.minimum(np.maximum(v, v0), v1)


def _interpolate(u, knots, images, side: str) -> np.ndarray:
    """Piecewise-linear interpolation of ``u`` from ``knots`` to ``images``
    (:func:`_lerp` on the piece :func:`_by_piece` finds)."""
    return _by_piece(u, knots, side, lambda c, i: _lerp(c, i, knots, images))


@dataclass(frozen=True)
class MonotoneMap1D:
    """Non-decreasing map of [0, 1] into itself.

    Kinds: ``"identity"``; ``"power"`` with exponent p > 0 (x -> x**p);
    ``"pwl"``, piecewise linear through ``points``.  Identity and power
    maps are increasing bijections; a pwl map may contain flat pieces, in
    which case it can serve as a path but has no inverse.
    """

    kind: str
    p: float = 0.0
    points: tuple = ()
    # Set once by __post_init__.
    is_increasing_bijection: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in ("identity", "power"):
            if self.kind == "power" and not 0 < self.p < math.inf:
                raise ValidationError("power exponent must be positive and finite")
            object.__setattr__(self, "is_increasing_bijection", True)
            return
        if self.kind != "pwl":
            raise ValidationError(f"unknown map kind {self.kind!r}")
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 2:
            raise ValidationError("piecewise-linear map needs >= 2 points")
        xs = tuple(x for x, _ in pts)
        ys = tuple(y for _, y in pts)
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValidationError("breakpoints must span [0, 1]")
        for a, b in zip(xs, xs[1:]):
            if not a < b:  # also rejects NaN
                raise NotIncreasing("breakpoint abscissae must strictly increase")
        for y in ys:
            if not 0.0 <= y <= 1.0:
                raise OutOfDomain(f"breakpoint ordinate {y} outside [0, 1]")
        for a, b in zip(ys, ys[1:]):
            if a > b:
                raise NotIncreasing("breakpoint ordinates must not decrease")
        bijection = ys[0] == 0.0 and ys[-1] == 1.0 and all(
            a < b for a, b in zip(ys, ys[1:])
        )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "is_increasing_bijection", bijection)
        object.__setattr__(self, "_xs_np", np.array(xs))
        object.__setattr__(self, "_ys_np", np.array(ys))

    @staticmethod
    def identity() -> "MonotoneMap1D":
        return MonotoneMap1D("identity")

    @staticmethod
    def power(p: float) -> "MonotoneMap1D":
        return MonotoneMap1D("power", p=float(p))

    @staticmethod
    def piecewise_linear(points: Iterable) -> "MonotoneMap1D":
        return MonotoneMap1D("pwl", points=tuple(points))

    @staticmethod
    def constant(alpha: float) -> "MonotoneMap1D":
        """Constant path t(s) = alpha (usable as a path, not invertible)."""
        return MonotoneMap1D.piecewise_linear([(0.0, alpha), (1.0, alpha)])

    def eval(self, x):
        """Evaluate at x in [0, 1]: the one-point case of :meth:`eval_many`.

        Exact passthrough for the identity (Fractions stay Fractions).
        """
        x = _clamp_unit(x)
        if self.kind == "identity":
            return x
        return float(self.eval_many(x))

    def inverse(self, y):
        """Inverse at y in [0, 1]: the one-point case of :meth:`inverse_many`.

        Exact passthrough for the identity (Fractions stay Fractions).
        """
        y = _clamp_unit(y, "value")
        if self.kind == "identity":
            return y
        return float(self.inverse_many(y))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """The map at every entry of ``xs``.

        The pwl evaluation clamps each piece into its ordinate range, so the
        result is non-decreasing in x, piece boundaries included.  Raises
        :class:`OutOfDomain` for NaN or an entry outside [0, 1] by more than
        float noise; entries within it are clamped into [0, 1] first, as the
        scalar methods do.
        """
        xs = _unit_many(xs, "argument")
        if self.kind == "identity":
            return xs.copy()
        if self.kind == "power":
            return xs**self.p
        return _interpolate(xs, self._xs_np, self._ys_np, "right")

    def inverse_many(self, ys: np.ndarray) -> np.ndarray:
        """The inverse at every entry of ``ys``; requires an increasing
        bijection.  The domain check of :meth:`eval_many` applies."""
        ys = _unit_many(ys, "value")
        if self.kind == "identity":
            return ys.copy()
        if self.kind == "power":
            return np.sqrt(ys) if self.p == 2.0 else ys ** (1.0 / self.p)
        if not self.is_increasing_bijection:
            raise NotIncreasing("map is not an increasing bijection")
        return _interpolate(ys, self._ys_np, self._xs_np, "right")

    def inverse_integral_many(self, ys: np.ndarray) -> np.ndarray:
        """G(y), the integral of the inverse over [0, y], at every entry of
        ``ys``.  The domain and bijection checks of :meth:`inverse_many`
        apply.

        Closed form for every kind: y^2/2 for the identity,
        y^(1+1/p)/(1+1/p) for a power map, and for a pwl map the trapezoids
        of the inverse up to the ordinate below y plus the partial
        trapezoid from there to y.
        """
        ys = _unit_many(ys, "value")
        if self.kind == "identity":
            return ys * ys / 2.0
        if self.kind == "power":
            q = 1.0 + 1.0 / self.p
            return ys**q / q
        if not self.is_increasing_bijection:
            raise NotIncreasing("map is not an increasing bijection")
        knots, images = self._ys_np, self._xs_np
        below = np.concatenate(
            ([0.0], np.cumsum(np.diff(knots) * (images[:-1] + images[1:]) / 2.0))
        )

        def piece(c, i):
            v = _lerp(c, i, knots, images)
            return below[i] + (c - knots[i]) * (images[i] + v) / 2.0

        return _by_piece(ys, knots, "right", piece)

    def lower_inverse_many(self, xs: np.ndarray) -> np.ndarray:
        """Generalized inverse: the least s in [0, 1] with t(s) >= x, for
        each x <= t(1).

        Closed form for every kind.  On a pwl map it inverts the piece with
        ordinates y0 < x <= y1, so x at the level of a flat piece gives that
        piece's left end, and x <= t(0) gives 0.  The domain check of
        :meth:`eval_many` applies.
        """
        if self.kind != "pwl":
            return self.inverse_many(xs)
        xs = _unit_many(xs, "value")
        # For x <= t(1) only the first piece can be flat here, with x <= y0:
        # the unit divisor leaves v <= x0, which the clamp turns into x0.
        return _interpolate(xs, self._ys_np, self._xs_np, "left")


@dataclass(frozen=True)
class StepFunction1D:
    """Piecewise-constant function on [0, 1] with left-closed pieces.

    ``breaks`` has K+1 entries running from 0 to 1; piece k covers
    ``[breaks[k], breaks[k+1])`` and the final piece also contains 1, so
    the function is right-continuous at every interior jump.  Breakpoints
    and values may be exact Fractions or floats.
    """

    breaks: tuple
    values: tuple
    orientation: str = "non-increasing"

    def __post_init__(self):
        brs = tuple(self.breaks)
        vals = tuple(self.values)
        if len(brs) != len(vals) + 1 or not vals:
            raise ValidationError("need K+1 breakpoints for K >= 1 pieces")
        if brs[0] != 0 or brs[-1] != 1:
            raise ValidationError("breakpoints must span [0, 1]")
        for a, b in zip(brs, brs[1:]):
            if a >= b:
                raise NotIncreasing("breakpoints must strictly increase")
        for v in vals:
            if v < 0 or v > 1:
                raise OutOfDomain(f"piece value {v} outside [0, 1]")
        if self.orientation == "non-increasing":
            ok = all(a >= b for a, b in zip(vals, vals[1:]))
        elif self.orientation == "non-decreasing":
            ok = all(a <= b for a, b in zip(vals, vals[1:]))
        else:
            raise ValidationError(f"unknown orientation {self.orientation!r}")
        if not ok:
            raise ValidationError("piece values inconsistent with orientation")
        object.__setattr__(self, "breaks", brs)
        object.__setattr__(self, "values", vals)

    def eval(self, x):
        if x < 0 or x > 1:
            raise OutOfDomain(f"argument {x!r} outside [0, 1]")
        i = bisect.bisect_right(self.breaks, x) - 1
        return self.values[min(max(i, 0), len(self.values) - 1)]

    def __call__(self, x):
        return self.eval(x)

    def integral(self, a=0, b=1) -> Fraction:
        """Exact integral over [a, b] as a Fraction."""
        fa, fb = Fraction(a), Fraction(b)
        if fa > fb:
            raise ValidationError("integration bounds out of order")
        total = Fraction(0)
        for k, v in enumerate(self.values):
            lo = max(Fraction(self.breaks[k]), fa)
            hi = min(Fraction(self.breaks[k + 1]), fb)
            if hi > lo:
                total += Fraction(v) * (hi - lo)
        return total


@dataclass(frozen=True)
class EmpiricalRV:
    """Random variable given by equally weighted samples in [0, 1]."""

    samples: tuple

    def __post_init__(self):
        xs = tuple(map(float, self.samples))
        if not xs:
            raise ValidationError("need at least one sample")
        # A NaN fails every comparison, so it falls through to the loops.
        if not (xs[0] >= 0.0 and xs[-1] <= 1.0 and all(map(le, xs, xs[1:]))):
            for x in xs:
                if not 0.0 <= x <= 1.0:
                    raise OutOfDomain(f"sample {x} outside [0, 1]")
            raise ValidationError("samples must be sorted ascending")
        object.__setattr__(self, "samples", xs)

    @classmethod
    def from_samples(cls, xs: Iterable[float]) -> "EmpiricalRV":
        return cls(sorted(map(float, xs)))

    @classmethod
    def constant(cls, alpha: float, m: int = 1) -> "EmpiricalRV":
        return cls(tuple([float(alpha)] * m))

    @classmethod
    def uniform_grid(cls, m: int) -> "EmpiricalRV":
        """Midpoint grid (i - 1/2)/m, an m-sample stand-in for Uniform[0,1]."""
        return cls(tuple((i + 0.5) / m for i in range(m)))

    @classmethod
    def two_point(cls, a: float, b: float, m: int = 2) -> "EmpiricalRV":
        lo, hi = sorted((float(a), float(b)))
        k = m // 2
        return cls(tuple([lo] * k + [hi] * (m - k)))

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> Fraction:
        return sum((Fraction(x) for x in self.samples), Fraction(0)) / len(
            self.samples
        )


# Per-level tolerance decay.  1/sqrt(2) instead of the textbook 1/2 so that
# integrands with sqrt-type endpoint singularities (local Simpson error
# ~ h^1.5) still converge within the depth cap.
_TOL_DECAY = 0.7071067811865476

MAX_QUAD_DEPTH = 40

# Pending intervals refined per integrand call.  The walk takes the leftmost
# ones first, so about _QUAD_BATCH * MAX_QUAD_DEPTH intervals are pending at
# most.
_QUAD_BATCH = 64


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _integrate_nodes(g_many, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature of ``g_many`` over [a, b], a < b.

    ``g_many`` maps a 1-D float array of nodes to the array of integrand
    values.  An interval with Simpson estimate ``whole`` is split in two;
    the split is accepted when the halves' estimates differ from ``whole``
    by at most 15 * tol, and otherwise each half is refined with tolerance
    tol * _TOL_DECAY, at most :data:`MAX_QUAD_DEPTH` levels deep.  The
    leftmost pending intervals, up to _QUAD_BATCH of them, share one call
    of ``g_many``.  The accepted pieces are added up in the order of a
    recursive refinement, left half plus right half, so the result does
    not depend on the batching.  Raises :class:`ToleranceNotMet` naming
    the leftmost interval still unresolved at the depth cap.
    """
    m = 0.5 * (a + b)
    fa, fm, fb = g_many(np.array([a, m, b])).tolist()
    # (a, b, fa, fm, fb, Simpson estimate, tol, depth left, path), leftmost
    # last; the root's path is 1 and the halves of path p are 2p and 2p + 1.
    # Depth left never decreases from left to right, so the first interval
    # found unresolved at the depth cap is the leftmost such interval, the
    # one a recursive refinement would report.
    depth = MAX_QUAD_DEPTH
    pending = [(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), tol, depth, 1)]
    pieces = {}  # path -> value of an accepted interval
    while pending:
        batch = pending[-_QUAD_BATCH:][::-1]
        del pending[-_QUAD_BATCH:]
        nodes = []
        for a, b, *_ in batch:
            m = 0.5 * (a + b)
            nodes += (0.5 * (a + m), 0.5 * (m + b))
        values = g_many(np.array(nodes)).tolist()
        children = []
        for k, (a, b, fa, fm, fb, whole, tol, depth, path) in enumerate(batch):
            m = 0.5 * (a + b)
            flm, frm = values[2 * k], values[2 * k + 1]
            left = _simpson(a, m, fa, flm, fm)
            right = _simpson(m, b, fm, frm, fb)
            delta = left + right - whole
            if abs(delta) <= 15.0 * tol:
                pieces[path] = left + right + delta / 15.0
            elif depth > 0:
                tol *= _TOL_DECAY
                children += ((a, m, fa, flm, fm, left, tol, depth - 1, 2 * path),
                             (m, b, fm, frm, fb, right, tol, depth - 1, 2 * path + 1))
            else:
                raise ToleranceNotMet(
                    f"quadrature did not reach tolerance on [{a}, {b}]"
                )
        pending += reversed(children)
    # Add the pieces up as a recursive refinement would: each refined
    # interval's value is its left half's plus its right half's.
    def value(path):
        if path in pieces:
            return pieces[path]
        return value(2 * path) + value(2 * path + 1)

    return value(1)


def integrate(g, a=0.0, b=1.0, tol: float = 1e-9):
    """Integral of ``g`` over [a, b].

    Step functions integrate exactly (Fraction result).  A callable is
    called with one float at a time, at the nodes of the adaptive Simpson
    quadrature :func:`_integrate_nodes`, with absolute tolerance ``tol``
    and refinement depth capped at :data:`MAX_QUAD_DEPTH`; the result is a
    float.
    """
    if isinstance(g, StepFunction1D):
        return g.integral(a, b)
    a, b = float(a), float(b)
    if a > b:
        raise ValidationError("integration bounds out of order")
    if a == b:
        return 0.0
    return _integrate_nodes(
        lambda xs: np.array([g(x) for x in xs.tolist()], dtype=float), a, b, tol
    )
