"""The reduction of the continuous problems to grid instances: pins of the
reduced values, and the instances checked against the brute-force oracle."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from monoext import (
    MonotoneMap1D,
    QuerySet,
    brute_min_max,
    build_poset,
    build_witness,
    chain_bounds,
    column_chain_bound,
    disjoint_bound,
    grid_poset,
    line_integral_bound,
    rows_grid_cross_check,
    scale_from_m,
)
from monoext.discretize import _grid_witness, grid_instance
from monoext.errors import ValidationError

ID = MonotoneMap1D.identity()
SQ = MonotoneMap1D.power(2)
PWL = MonotoneMap1D.piecewise_linear([(0, 0), (0.5, 0.25), (1, 1)])
MAPS = pytest.mark.parametrize("m", [ID, SQ], ids=["id", "power:2"])


def rising_indices(n):
    """Every non-decreasing vector of n time indices in 1..n."""
    return combinations_with_replacement(range(1, n + 1), n)


def test_rows_grid_cross_check_is_pinned():
    # Both sides, as reprs, for every index vector with n <= 4.
    digest = hashlib.sha256()
    for m in (ID, SQ):
        for n in range(1, 5):
            for s in rising_indices(n):
                res = rows_grid_cross_check(m, n, s)
                digest.update(
                    f"{m.kind} {s} {res['bound']!r} {res['closed_form']!r}\n".encode())
    assert digest.hexdigest() == (
        "131cab8260160892fe4702d4ba5a0d99784d68b2700e28837bf60b55518f8919")


def test_column_chain_bound_is_pinned():
    for n in range(1, 13):
        for s in range(1, n + 1):
            assert column_chain_bound(n, s) == Fraction(s * (n + 1), 2 * n)


@MAPS
def test_chain_instance_matches_the_oracle(m):
    for n in range(1, 4):
        for s in rising_indices(n):
            poset, scale, query = grid_instance(m, n, s, "product")
            bmin, bmax, _ = brute_min_max(poset, scale, query)
            assert chain_bounds(poset, scale, query) == (bmin.objective, bmax.objective)


@MAPS
def test_rows_instance_matches_the_oracle(m):
    for n in range(1, 4):
        for s in rising_indices(n):
            poset, scale, query = grid_instance(m, n, s, "rows")
            bmin, bmax, _ = brute_min_max(poset, scale, query)
            assert disjoint_bound(poset, scale, query, "min") == bmin.objective
            assert disjoint_bound(poset, scale, query, "max") == bmax.objective


@MAPS
def test_grid_witness_is_the_y_major_chain_witness(m):
    # The y-major copy is built as in
    # test_solver.test_y_major_witness_is_the_transposed_grid_witness; its
    # witness comes from the built-poset path, not the grid arithmetic.
    for n in range(1, 6):
        g = grid_poset(n)
        y_major = build_poset([(i, j) for j in range(1, n + 1) for i in range(1, n + 1)],
                              [(g.labels[a], g.labels[b]) for a, b in g.covers])
        scale = scale_from_m(m, n)
        for s in rising_indices(n):
            chain = QuerySet(y_major, [(s_v, v) for v, s_v in enumerate(s, start=1)])
            w = build_witness(y_major, scale, chain, tuple(range(n)), "min")
            val = _grid_witness(n, s)
            assert {lab: w.rank(lab) for lab in y_major.labels} == {
                (i, j): val[i - 1, j - 1] for j in range(1, n + 1) for i in range(1, n + 1)}


@pytest.mark.parametrize("order_kind", ["product", "rows"])
@pytest.mark.parametrize(
    "s, message",
    [
        ([1, 2], "need exactly n time indices"),
        ([1, 2, 3, 3], "need exactly n time indices"),
        ([2, 1, 3], "indices must be non-decreasing within 1..n"),
        ([0, 1, 1], "indices must be non-decreasing within 1..n"),
        ([1, 2, 4], "indices must be non-decreasing within 1..n"),
    ],
    ids=["short", "long", "decreasing", "zero", "n-plus-one"],
)
def test_bad_time_indices_rejected(order_kind, s, message):
    with pytest.raises(ValidationError) as e:
        grid_instance(ID, 3, s, order_kind)
    assert str(e.value) == message


def test_column_chain_bound_rejects_a_column_off_the_grid():
    # The shared index check refuses it, as a plain ValidationError.
    with pytest.raises(ValidationError) as e:
        column_chain_bound(5, 6)
    assert type(e.value) is ValidationError
    assert str(e.value) == "indices must be non-decreasing within 1..n"


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.7])
@pytest.mark.parametrize("m", [ID, SQ, PWL], ids=["id", "power:2", "pwl"])
def test_constant_path_chain_converges_to_the_line_integral(m, alpha):
    # e_n, the chain minimum over n less the continuous bound, is positive,
    # O(1/n) with n * e_n at most m^{-1}(alpha) / 2, and n * e_n does not
    # fall as the grid is refined.
    bound = line_integral_bound(m, MonotoneMap1D.constant(alpha), 1e-12)
    scaled = []
    for n in (20, 40, 80):
        s = math.ceil(Fraction(alpha) * n)
        low, _ = chain_bounds(*grid_instance(m, n, [s] * n, "product"))
        scaled.append(n * (float(low / n) - bound))
    assert all(0 < e <= m.inverse(alpha) / 2 + 1e-9 for e in scaled), scaled
    assert all(b >= a - 1e-9 for a, b in zip(scaled, scaled[1:])), scaled
