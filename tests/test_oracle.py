import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoext import (
    MonotoneBijection,
    QuerySet,
    ValueScale,
    brute_min_max,
    build_poset,
    build_witness,
    check_monotone_bijection,
    grid_poset,
    swap_adjacent,
)
from monoext.errors import (
    CapExceeded,
    EmptyQuery,
    NotAdjacentValues,
    NotIncomparable,
    ValidationError,
)
from reference import linear_extensions, reversed_instance


class TestBruteMinMax:
    def test_grid_singleton(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2)])
        bmin, bmax, count = brute_min_max(p, s, q)
        assert bmin.objective == 2 and bmax.objective == 3 and count == 2

    def test_antichain_symmetric(self):
        p = build_poset(["a", "b", "c"], [])
        s = ValueScale([1, 2, 3])
        bmin, bmax, count = brute_min_max(p, s, QuerySet(p, ["a"]))
        assert bmin.objective == 1 and bmax.objective == 3 and count == 6

    def test_chain_is_rigid(self):
        p = build_poset(range(4), [(0, 1), (1, 2), (2, 3)])
        s = ValueScale([2, 3, 5, 7])
        bmin, bmax, count = brute_min_max(p, s, QuerySet(p, [1, 3]))
        assert count == 1 and bmin.objective == bmax.objective == 10

    def test_count_matches_extension_count(self):
        p = build_poset(range(5), [(0, 1), (0, 2), (3, 4)])
        s = ValueScale(range(1, 6))
        _, _, count = brute_min_max(p, s, QuerySet(p, [0]))
        assert count == len(list(linear_extensions(p)))

    def test_relabeling_invariance(self):
        covers = [(0, 1), (0, 2), (2, 3)]
        p1 = build_poset([0, 1, 2, 3], covers)
        relabel = {0: "w", 1: "x", 2: "y", 3: "z"}
        p2 = build_poset(
            ["w", "x", "y", "z"],
            [(relabel[a], relabel[b]) for a, b in covers],
        )
        s = ValueScale([1, 4, 9, 16])
        r1 = brute_min_max(p1, s, QuerySet(p1, [1, 3]))
        r2 = brute_min_max(p2, s, QuerySet(p2, ["x", "z"]))
        assert r1[0].objective == r2[0].objective
        assert r1[1].objective == r2[1].objective

    def test_empty_query(self):
        p = grid_poset(2, "product")
        with pytest.raises(EmptyQuery):
            brute_min_max(p, ValueScale([1, 2, 3, 4]), QuerySet(p, []))

    def test_cap(self):
        p = build_poset(range(5), [])
        with pytest.raises(CapExceeded):
            brute_min_max(p, ValueScale(range(1, 6)), QuerySet(p, [0]), cap=10)

    @pytest.mark.parametrize("poset", [
        build_poset(range(6), [(i, i + 1) for i in range(5)]),
        build_poset(range(6), []),
        grid_poset(3, "product"),
    ], ids=["chain", "antichain", "grid"])
    def test_cap_boundary(self, poset):
        s = ValueScale(range(1, poset.n + 1))
        q = QuerySet(poset, poset.labels[:1])
        count = len(list(linear_extensions(poset)))
        assert brute_min_max(poset, s, q, cap=count)[2] == count
        with pytest.raises(CapExceeded):
            brute_min_max(poset, s, q, cap=count - 1)

    def test_wide_antichain_stops_before_a_layer_above_cap(self):
        # 2000! extensions: the second layer would hold 2000 * 1999 / 2
        # ideals, the first holds 2000.
        n = 2000
        p = build_poset(range(n), [])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                brute_min_max(p, ValueScale(range(n)), QuerySet(p, [0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_deep_chain(self):
        n = 1500
        p = build_poset(range(n), [(i, i + 1) for i in range(n - 1)])
        s = ValueScale(range(1, n + 1))
        bmin, bmax, count = brute_min_max(p, s, QuerySet(p, [0, n - 1]))
        assert count == 1
        assert bmin.objective == bmax.objective == n + 1

    def test_fractional_scales_stay_exact(self):
        p = grid_poset(2, "product")
        s = ValueScale([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1])
        bmin, bmax, _ = brute_min_max(p, s, QuerySet(p, [(1, 2)]))
        assert bmin.objective == Fraction(1, 2)
        assert bmax.objective == Fraction(2, 3)


@st.composite
def shuffled_instances(draw, max_n=7):
    """A poset on n <= 7 elements whose canonical (label-list) order is not
    a linear extension, its cover pairs as drawn, a scale and a query."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    labels = list(draw(st.permutations(range(n))))
    values = draw(st.lists(st.fractions(-10, 10, max_denominator=6),
                           min_size=n, max_size=n, unique=True))
    query = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    return labels, covers, sorted(values), query


def reference_min_max(labels, covers, values, query):
    """(min, max, count, min ranks, max ranks) by filtering all n!
    placements: the first placement attaining each optimum, placements in
    lexicographic order of the labels' list positions."""
    pos = {lab: i for i, lab in enumerate(labels)}
    best = {}
    count = 0
    for order in permutations(range(len(labels))):
        rank = [0] * len(labels)
        for r, i in enumerate(order):
            rank[i] = r
        if any(rank[pos[a]] > rank[pos[b]] for a, b in covers):
            continue
        count += 1
        total = sum(values[rank[pos[lab]]] for lab in query)
        ranks = [r + 1 for r in rank]
        if "min" not in best or total < best["min"][0]:
            best["min"] = (total, ranks)
        if "max" not in best or total > best["max"][0]:
            best["max"] = (total, ranks)
    return best["min"], best["max"], count


@given(shuffled_instances())
@settings(max_examples=150, deadline=None)
def test_oracle_matches_permutation_reference(instance):
    labels, covers, values, query = instance
    p = build_poset(labels, covers)
    bmin, bmax, count = brute_min_max(p, ValueScale(values), QuerySet(p, query))
    (ref_min, min_ranks), (ref_max, max_ranks), ref_count = reference_min_max(
        labels, covers, values, query
    )
    assert count == ref_count
    assert bmin.objective == ref_min and bmax.objective == ref_max
    assert list(bmin.witness_fn.ranks) == min_ranks
    assert list(bmax.witness_fn.ranks) == max_ranks


class TestChecker:
    def test_valid_witness_passes(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2)])
        w = build_witness(p, s, q, (0,), "min")
        assert check_monotone_bijection(p, s, w)

    def test_order_violation_reports_pair(self):
        p = build_poset(["a", "b"], [("a", "b")])
        s = ValueScale([1, 2])
        res = check_monotone_bijection(p, s, {"a": 2, "b": 1})
        assert not res
        assert res.pair == ("a", "b")

    def test_first_violated_cover_in_stored_order(self):
        p = build_poset(["a", "b", "c"], [("b", "c"), ("a", "b"), ("b", "c")])
        s = ValueScale([1, 2, 3])
        res = check_monotone_bijection(p, s, {"a": 3, "b": 2, "c": 1})
        assert res.pair == ("b", "c")
        rp, _, _ = reversed_instance(p, s, QuerySet(p, []))
        res = check_monotone_bijection(rp, s, {"a": 1, "b": 2, "c": 3})
        assert res.pair == ("c", "b")

    def test_non_surjective_rank_map(self):
        p = build_poset(["a", "b"], [("a", "b")])
        s = ValueScale([1, 2])
        res = check_monotone_bijection(p, s, {"a": 1, "b": 1})
        assert not res and "bijection" in res.reason

    def test_labels_outside_the_poset(self):
        p = build_poset(["a", "b"], [("a", "b")])
        s = ValueScale([1, 2])
        res = check_monotone_bijection(p, s, {"a": 1, "b": 2, "c": 3})
        assert not res and "outside the ground set" in res.reason
        with pytest.raises(ValidationError, match="does not cover"):
            MonotoneBijection(p, s, {"a": 1, "b": 2, "c": 3})

    def test_bijection_of_another_poset(self):
        f = MonotoneBijection(build_poset(["a", "b"], []), ValueScale([1, 2]), [2, 1])
        p = build_poset(["a", "b", "c"], [("a", "b")])
        res = check_monotone_bijection(p, ValueScale([1, 2, 3]), f)
        assert not res and "bijection" in res.reason

    def test_partial_rank_map(self):
        p = build_poset(["a", "b"], [("a", "b")])
        res = check_monotone_bijection(p, ValueScale([1, 2]), {"a": 1})
        assert not res

    @pytest.mark.parametrize("ranks", [
        [1.5, 2.9], [1.7, 2.2], ["1", "2"],
        [1.0, 2.0], [True, 2], [1, Fraction(2)],
    ])
    def test_non_integer_ranks_are_rejected_not_truncated(self, ranks):
        p = build_poset(["a", "b"], [("a", "b")])
        s = ValueScale([1, 2])
        res = check_monotone_bijection(p, s, dict(zip("ab", ranks)))
        assert not res and "is not an integer" in res.reason
        with pytest.raises(ValidationError, match="is not an integer"):
            MonotoneBijection(p, s, ranks)
        with pytest.raises(ValidationError, match="is not an integer"):
            MonotoneBijection(p, s, dict(zip("ab", ranks)))

    def test_integer_types_are_ranks(self):
        p = build_poset(["a", "b"], [("a", "b")])
        s = ValueScale([1, 2])
        ranks = np.array([1, 2])
        assert check_monotone_bijection(p, s, dict(zip("ab", ranks)))
        assert MonotoneBijection(p, s, ranks).ranks == (1, 2)
        assert type(MonotoneBijection(p, s, ranks).ranks[0]) is int


class TestSwapAdjacent:
    def test_swap_on_grid(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        f = MonotoneBijection(p, s, {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
        g = swap_adjacent(f, (1, 2), (2, 1))
        assert g.value((1, 2)) == 3 and g.value((2, 1)) == 2
        assert check_monotone_bijection(p, s, g)

    def test_antichain_pair_always_swappable(self):
        p = build_poset(["a", "b"], [])
        s = ValueScale([1, 2])
        f = MonotoneBijection(p, s, {"a": 1, "b": 2})
        assert swap_adjacent(f, "a", "b").value("a") == 2

    def test_comparable_pair_rejected(self):
        p = build_poset(["a", "b"], [("a", "b")])
        f = MonotoneBijection(p, ValueScale([1, 2]), {"a": 1, "b": 2})
        with pytest.raises(NotIncomparable):
            swap_adjacent(f, "a", "b")

    def test_non_adjacent_values_rejected(self):
        p = build_poset(["a", "b", "c"], [])
        f = MonotoneBijection(p, ValueScale([1, 2, 3]), {"a": 1, "b": 2, "c": 3})
        with pytest.raises(NotAdjacentValues):
            swap_adjacent(f, "a", "c")
