import pytest

from monoext import (
    ElementSet,
    QuerySet,
    admissible_permutations,
    build_poset,
    count_linear_extensions,
    down_set,
    grid_poset,
    linear_extensions,
    up_set,
)
from monoext.errors import (
    CapExceeded,
    CycleError,
    DuplicateLabelError,
    InvalidGrid,
    UnknownElement,
)
from monoext.poset import _query_covers


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def antichain(k):
    return build_poset(list(range(k)), [])


class TestBuildPoset:
    def test_singleton(self):
        p = build_poset(["a"], [])
        assert p.n == 1
        assert p.leq("a", "a")

    def test_chain_closure_has_six_pairs(self):
        p = chain3()
        pairs = [
            (a, b)
            for a in p.labels
            for b in p.labels
            if p.leq(a, b)
        ]
        assert len(pairs) == 6
        assert p.leq("a", "c") and not p.leq("c", "a")

    def test_three_cycle_rejected(self):
        with pytest.raises(CycleError):
            build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            build_poset(["a"], [("a", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            build_poset(["a", "a"], [])

    def test_unknown_cover_endpoint(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])

    def test_transitive_covers_are_harmless(self):
        direct = build_poset("abc", [("a", "b"), ("b", "c")])
        redundant = build_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert direct.down == redundant.down

    def test_closure_is_transitive_and_antisymmetric(self):
        p = build_poset(range(5), [(0, 1), (1, 2), (0, 3), (3, 4)])
        for a in p.labels:
            assert p.leq(a, a)
            for b in p.labels:
                if p.leq(a, b) and p.leq(b, a):
                    assert a == b
                for c in p.labels:
                    if p.leq(a, b) and p.leq(b, c):
                        assert p.leq(a, c)


class TestGridPoset:
    def test_singleton_grid(self):
        assert grid_poset(1, "product").n == 1

    def test_2x2_product_structure(self):
        p = grid_poset(2, "product")
        assert p.n == 4
        assert p.leq((1, 1), (2, 2))
        assert not p.leq((1, 2), (2, 1)) and not p.leq((2, 1), (1, 2))
        assert all(p.leq((1, 1), other) for other in p.labels)
        assert all(p.leq(other, (2, 2)) for other in p.labels)

    def test_2x2_rows_is_two_chains(self):
        p = grid_poset(2, "rows")
        assert p.leq((1, 1), (2, 1)) and p.leq((1, 2), (2, 2))
        assert not p.leq((1, 1), (1, 2))
        assert not p.leq((1, 1), (2, 2))

    def test_bad_parameters(self):
        with pytest.raises(InvalidGrid):
            grid_poset(0, "product")
        with pytest.raises(InvalidGrid):
            grid_poset(2, "diagonal")


class TestDownUpSets:
    def test_chain_down_set(self):
        p = chain3()
        assert set(down_set(p, "b").labels) == {"a", "b"}
        assert set(up_set(p, "b").labels) == {"b", "c"}

    def test_grid_top_down_set_is_everything(self):
        p = grid_poset(2, "product")
        assert len(down_set(p, (2, 2))) == 4

    def test_rows_down_set(self):
        p = grid_poset(2, "rows")
        assert set(down_set(p, (2, 1)).labels) == {(1, 1), (2, 1)}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            down_set(chain3(), "z")

    def test_reflexive_and_dual(self):
        p = build_poset(range(6), [(0, 2), (1, 2), (2, 3), (1, 4)])
        for a in p.labels:
            assert a in down_set(p, a) and a in up_set(p, a)
            for b in p.labels:
                assert (b in down_set(p, a)) == (a in up_set(p, b))

    def test_element_set_semantics(self):
        p = chain3()
        s = down_set(p, "b")
        assert isinstance(s, ElementSet)
        assert len(s) == 2 and "a" in s and "c" not in s


class TestQuerySet:
    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateLabelError):
            QuerySet(chain3(), ["a", "a"])

    def test_rejects_unknown(self):
        with pytest.raises(UnknownElement):
            QuerySet(chain3(), ["a", "z"])


class TestAdmissiblePermutations:
    def test_chain_has_single_ordering(self):
        p = chain3()
        q = QuerySet(p, ["a", "b", "c"])
        perms = list(admissible_permutations(p, q))
        assert perms == [(0, 1, 2)]

    def test_antichain_has_all_orderings(self):
        p = antichain(3)
        q = QuerySet(p, [0, 1, 2])
        assert len(list(admissible_permutations(p, q))) == 6

    def test_grid_antichain_pair(self):
        p = grid_poset(2, "product")
        q = QuerySet(p, [(1, 2), (2, 1)])
        perms = list(admissible_permutations(p, q))
        assert perms == [(0, 1), (1, 0)]

    def test_orderings_respect_strict_order(self):
        p = build_poset(range(5), [(0, 1), (0, 2), (3, 4)])
        q = QuerySet(p, [1, 0, 4, 3])
        for perm in admissible_permutations(p, q):
            for a in range(len(perm)):
                for b in range(a + 1, len(perm)):
                    ia = q.indices[perm[a]]
                    ib = q.indices[perm[b]]
                    assert not (p.leq_idx(ib, ia) and ia != ib)

    def test_cap(self):
        p = antichain(4)
        q = QuerySet(p, [0, 1, 2, 3])
        gen = admissible_permutations(p, q, cap=5)
        with pytest.raises(CapExceeded) as exc:
            list(gen)
        assert exc.value.cap == 5
        # exactly cap results is fine
        assert len(list(admissible_permutations(p, q, cap=24))) == 24


class TestLinearExtensions:
    def test_chain_has_one(self):
        assert count_linear_extensions(chain3()) == 1

    def test_antichain_factorial(self):
        for k in range(1, 6):
            import math

            assert count_linear_extensions(antichain(k)) == math.factorial(k)

    def test_2x2_grid_has_two(self):
        p = grid_poset(2, "product")
        exts = list(linear_extensions(p))
        assert len(exts) == 2
        # labels order: (1,1),(1,2),(2,1),(2,2) -> indices 0,1,2,3
        assert exts == [(0, 1, 2, 3), (0, 2, 1, 3)]

    def test_extension_order_is_lexicographic(self):
        p = antichain(3)
        exts = list(linear_extensions(p))
        assert exts == sorted(exts)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(linear_extensions(antichain(5), cap=10))

    def test_deep_chain(self):
        # The walk is iterative: depth is not bounded by the recursion limit.
        n = 1500
        p = build_poset(range(n), [(i, i + 1) for i in range(n - 1)])
        assert count_linear_extensions(p) == 1
        q = QuerySet(p, range(n))
        assert sum(1 for _ in admissible_permutations(p, q)) == 1

    def test_empty_poset_has_one_empty_extension(self):
        assert list(linear_extensions(build_poset([], []))) == [()]


class TestReversal:
    def test_double_reversal_is_identity(self):
        p = build_poset(range(5), [(0, 1), (1, 2), (0, 3)])
        assert p.reversed().reversed() == p

    def test_reversed_chain(self):
        p = chain3()
        r = p.reversed()
        assert r.leq("c", "a") and not r.leq("a", "c")

    def test_admissible_count_matches_subposet_extensions(self):
        p = build_poset(range(6), [(0, 1), (1, 2), (3, 4), (0, 5)])
        q = QuerySet(p, [0, 2, 3, 5])
        count = len(list(admissible_permutations(p, q)))
        sub_covers = [
            (a, b)
            for a in q.labels
            for b in q.labels
            if a != b and p.leq(a, b)
        ]
        sub = build_poset(q.labels, sub_covers)
        assert count == count_linear_extensions(sub)


class TestQueryCovers:
    @pytest.mark.parametrize("covers", [
        [(i, i + 1) for i in range(7)],
        [],
        [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5), (5, 6), (4, 7), (6, 7)],
        [(a, b) for a in range(4) for b in range(4, 8)],
    ], ids=["chain", "antichain", "dag", "bipartite"])
    def test_matches_definition(self, covers):
        p = build_poset([3, 7, 0, 5, 1, 6, 2, 4], covers)
        idxs = [p.index(lab) for lab in (6, 0, 2, 7, 4, 3)]
        lower, upper = _query_covers(p.down, idxs)

        def strictly_below(a, b):
            return a != b and p.leq_idx(a, b)

        for pa, a in enumerate(idxs):
            for pb, b in enumerate(idxs):
                covered = strictly_below(b, a) and not any(
                    strictly_below(b, c) and strictly_below(c, a) for c in idxs
                )
                assert bool(lower[pa] >> pb & 1) == covered
                assert (pa in upper[pb]) == covered
