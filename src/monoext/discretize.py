"""The reduction of the continuous problems to their discrete counterparts.

This is the one module that knows how a problem on the unit square becomes
a grid instance for the discrete solver.  The square is cut into an n x n
grid, a map m becomes the scale m^{-1}(i / n^2) (:func:`scale_from_m`), and
a non-decreasing path or random time becomes time indices
1 <= s_1 <= ... <= s_n <= n, one per height v / n.  The query is the nodes
(s_v, v) (:func:`grid_instance`).  Under the product order they form the
chain of the line-integral bound; under the rows order their down-sets
are disjoint, as in the process bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidGrid, MembershipViolation, ValidationError
from .func1d import MonotoneMap1D, _float_ratios
from .poset import QuerySet, _is_int, grid_poset
from .solver import chain_bounds, disjoint_bound
from .values import ValueScale


def scale_from_m(m: MonotoneMap1D, n: int) -> ValueScale:
    """The scale of preimages m^{-1}(i / n^2), i = 1..n^2.

    Identity maps produce the exact rationals i / n^2, held as the
    numerators ``range(1, n^2 + 1)`` over n^2.  Other kinds go through one
    :meth:`~MonotoneMap1D.inverse_many` call on the correctly rounded
    floats i / n^2, whose results the scale then holds exactly, as
    integers over their common power-of-two denominator.  Strict increase
    is re-checked on the integers.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not m.is_increasing_bijection:
        raise ValidationError("map must be an increasing bijection")
    n2 = n * n
    if m.kind == "identity":
        return ValueScale.over(range(1, n2 + 1), n2)
    inverse = m.inverse_many(np.arange(1, n2 + 1) / n2)
    return ValueScale.over(*_float_ratios(inverse))


def grid_instance(m: MonotoneMap1D, n: int, s_indices, order_kind: str):
    """``(poset, scale, query)``: the nodes (s_v, v) of
    ``grid_poset(n, order_kind)`` under ``scale_from_m(m, n)``.

    ``s_indices`` are n time indices 1 <= s_1 <= ... <= s_n <= n.  The
    product order makes the nodes a chain, the rows order gives them
    disjoint down-sets.
    """
    s_list = list(s_indices)
    if len(s_list) != n:
        raise ValidationError("need exactly n time indices")
    for prev, s in zip([1, *s_list], s_list):
        if not prev <= s <= n:
            raise ValidationError("indices must be non-decreasing within 1..n")
    poset = grid_poset(n, order_kind)
    scale = scale_from_m(m, n)
    return poset, scale, QuerySet(poset, [(s, v) for v, s in enumerate(s_list, start=1)])


def _grid_witness(n: int, s_list) -> np.ndarray:
    """The solver's min witness of the chain {(s_v, v)} on the y-major
    n x n product grid, as the integer ranks ``val[i - 1, j - 1]``, i the
    column and j the row.

    It is the grid order of the transposed chain {(v, s_v)} on
    :func:`grid_poset`, turned round, checked monotone along both axes.
    For a constant s it fills the s leftmost columns row by row with
    1..s*n, the rest row by row with s*n+1..n^2.
    """
    down = grid_poset(n).down
    order = down.extension(down.first_holder([v * n + s - 1 for v, s in enumerate(s_list)]))
    val = np.empty(n * n, dtype=np.int64)
    val[order] = np.arange(1, n * n + 1)
    val = val.reshape(n, n).T
    for axis, name in enumerate("xy"):
        if (np.diff(val, axis=axis) <= 0).any():
            raise MembershipViolation(f"grid filling not monotone in {name}")
    return val


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

    The filling (values 1..n^2, scaled by 1/n^2) is :func:`_grid_witness`
    of the column chain {(s, j)}, where s is the column containing
    x = alpha.  Returns the observed column average at column s, the
    closed-form bound s(n+1)/(2n), and the distance to the continuum
    target alpha/2.  ``k`` must be an int dividing n; it is validated
    and echoed in the record but computes nothing.
    """
    if not (math.isfinite(alpha) and 0 < alpha <= 1):
        raise InvalidGrid("alpha must lie in (0, 1]")
    fa = Fraction(alpha)
    if not (_is_int(n) and _is_int(k)):
        raise InvalidGrid(f"n and k must be integers, got {n!r} and {k!r}")
    if n < 2:
        raise InvalidGrid("n must be at least 2")
    if k < 1 or n % k != 0:
        raise InvalidGrid("k must be a positive divisor of n")
    s = math.ceil(fa * n)

    column_total = int(_grid_witness(n, [s] * n)[s - 1].sum())
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
    closed form on the instance of the constant time index s, with the
    identity scale i/n^2.  Ties the grid experiment to the discrete
    solver; must equal s(n+1)/(2n) exactly.
    """
    return chain_bounds(*grid_instance(MonotoneMap1D.identity(), n, [s] * n, "product"))[0]


def rows_grid_cross_check(m: MonotoneMap1D, n: int, s_indices) -> dict:
    """Row-order grid instance of the disjoint-down-set closed form.

    Queries :func:`grid_instance` under the rows order.  The closed form
    sums m^{-1}((s_1+...+s_v)/n^2); the dict reports both sides so callers
    can assert exact (rational) or near-exact (float) agreement.
    """
    poset, scale, query = grid_instance(m, n, s_indices, "rows")
    bound = disjoint_bound(poset, scale, query, "min")
    prefix = 0
    closed = Fraction(0) if m.kind == "identity" else 0.0
    for s, _ in query.labels:
        prefix += s
        closed += m.inverse(Fraction(prefix, n * n))
    return {"poset": poset, "scale": scale, "query": query,
            "bound": bound, "closed_form": closed}
