import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoext import (
    MonotoneBijection,
    MonotoneMap1D,
    QuerySet,
    ValueScale,
    brute_min_max,
    build_poset,
    build_witness,
    chain_bounds,
    check_monotone_bijection,
    column_chain_bound,
    conditional_max,
    conditional_min,
    disjoint_bound,
    grid_poset,
    scale_from_m,
    solve_max,
    solve_min,
)
from monoext.errors import (
    CapExceeded,
    EmptyQuery,
    InvalidPermutation,
    NotAChain,
    NotIncreasing,
    PreconditionViolated,
    ValidationError,
)
from monoext import solver
from monoext.grid import _GridSets
from monoext.poset import _cover_succs, _first_extension, _grid_poset
from monoext.solver import _orientation
from reference import (
    admissible_orderings,
    bellman_extremum,
    first_offending_pair,
    ordering_violation,
    reversed_instance,
)


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


class TestValueScale:
    def test_floats_held_exactly(self):
        s = ValueScale([0.25, 0.5, 1.0])
        assert s.values == (Fraction(1, 4), Fraction(1, 2), Fraction(1))

    def test_not_increasing(self):
        with pytest.raises(NotIncreasing):
            ValueScale([1, 1, 2])

    def test_rank_lookup(self):
        s = ValueScale([5, 7, 9])
        assert s.value(2) == 7
        with pytest.raises(ValidationError):
            s.value(0)

    @pytest.mark.parametrize(
        "nums, den, error",
        [
            ([], 4, ValidationError),
            (range(1, 1), 4, ValidationError),
            ([1, 2, 2, 3], 4, NotIncreasing),
            ([1, 3, 2], 4, NotIncreasing),
            (range(3, 0, -1), 4, NotIncreasing),
            ([1, 2], 0, ValidationError),
            ([1, 2], -4, ValidationError),
            ([1, 2], True, ValidationError),
            ([0, True, 2], 4, ValidationError),
            ([1, 2.0, 3], 4, ValidationError),
            (["1", "2"], 4, ValidationError),
            (np.array([1.0, 2.0]), 4, ValidationError),
        ],
    )
    def test_over_rejects(self, nums, den, error):
        with pytest.raises(error):
            ValueScale.over(nums, den)

    @pytest.mark.parametrize("nums, error, message", [
        (range(1, 1), ValidationError, "scale must be nonempty"),
        (range(5, 5, -1), ValidationError, "scale must be nonempty"),
        (range(3, 0, -1), NotIncreasing, "scale values not strictly increasing: 3/4 >= 1/2"),
    ])
    def test_over_range_errors(self, nums, error, message):
        # An empty range, or a step that is not positive, is checked as
        # any other numerators are.
        with pytest.raises(error) as exc:
            ValueScale.over(nums, 4)
        assert str(exc.value) == message

    def test_over_takes_a_rising_range_unscanned(self, monkeypatch):
        from monoext import values

        def scanned(*args):
            raise AssertionError("the range was scanned")

        monkeypatch.setattr(values, "_check_increasing", scanned)
        big = range(-10**15, 10**15, 3)
        assert ValueScale.over(big, 3).values.nums is big
        # One value needs no order, whatever the step; it is still checked.
        with pytest.raises(AssertionError):
            ValueScale.over(range(2, 1, -1), 3)

    def test_over_error_names_the_values(self):
        with pytest.raises(NotIncreasing, match="3/4 >= 1/2"):
            ValueScale.over([1, 3, 2], 4)

    def test_over_equals_eager(self):
        eager = ValueScale([Fraction(i, 12) for i in range(-3, 9)])
        for nums in (range(-3, 9), list(range(-3, 9))):
            lazy = ValueScale.over(nums, 12)
            assert lazy == eager and eager == lazy
            assert lazy.values == eager.values and eager.values == lazy.values
            assert lazy.values == tuple(eager.values)
        assert ValueScale.over(range(-3, 9), 12) == ValueScale.over(range(-6, 18, 2), 24)
        assert ValueScale.over(range(1, 5), 4) != ValueScale.over(range(1, 5), 5)
        assert ValueScale.over(range(1, 5), 4) != ValueScale([1, 2, 3])

    def test_over_holds_python_ints(self):
        """Numpy numerators become Python ints, so the exact sums of the
        search and the oracle do not wrap at 2**63."""
        poset = build_poset([0, 1, 2, 3], [])
        query = QuerySet(poset, [0, 1, 2])
        big = [2**62 + i for i in range(4)]
        scale = ValueScale.over(np.array(big), 3)
        assert scale.values.nums == tuple(big)
        assert all(type(n) is int for n in scale.values.nums)
        want = Fraction(3 * 2**62 + 3, 3)
        assert want == 4611686018427387905
        assert solve_min(poset, scale, query).objective == want
        assert solve_min(poset, ValueScale.over(big, 3), query).objective == want
        lo, _, _ = brute_min_max(poset, scale, query)
        assert lo.objective == want

    def test_equal_integers_compare_without_values(self, monkeypatch):
        from monoext.values import _Ratios

        a = ValueScale.over(range(1, 10**5), 10**5)
        b = ValueScale.over(range(1, 10**5), 10**5)

        def unread(self, *args):
            raise AssertionError("a value was built")

        for name in ("__getitem__", "__iter__", "__reversed__"):
            monkeypatch.setattr(_Ratios, name, unread)
        assert a == b

    def test_ratios_in_lowest_terms(self):
        s = scale_from_m(MonotoneMap1D.identity(), 6)
        got = list(s.ratios())
        assert got[17] == (1, 2)  # 18/36
        assert got[35] == (1, 1)
        assert got == [(v.numerator, v.denominator) for v in s.values]
        eager = ValueScale([0.5, Fraction(2, 3), 2])
        assert list(eager.ratios()) == [(1, 2), (2, 3), (2, 1)]

    def test_ratios_sequence_protocol(self):
        s = ValueScale.over(range(1, 7), 6)
        want = tuple(Fraction(i, 6) for i in range(1, 7))
        assert tuple(s.values) == want
        assert list(reversed(s.values)) == list(reversed(want))
        for k in (slice(1, 4), slice(None, None, -2), slice(4, 1, -1), slice(9, 12)):
            assert s.values[k] == want[k]
        assert s.values[-1] == Fraction(1) and s.value(3) == Fraction(1, 2)
        assert Fraction(1, 3) in s.values and Fraction(1, 7) not in s.values
        with pytest.raises(IndexError):
            s.values[6]


class TestConditionalValues:
    def test_grid_singleton(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2)])
        assert conditional_min(p, s, q, (0,)) == 2
        assert conditional_max(p, s, q, (0,)) == 3

    def test_chain_middle_is_forced(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["b"])
        assert conditional_min(p, s, q, (0,)) == 2
        assert conditional_max(p, s, q, (0,)) == 2

    def test_grid_antichain_both_orderings(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2), (2, 1)])
        for perm in [(0, 1), (1, 0)]:
            assert conditional_min(p, s, q, perm) == 5
            assert conditional_max(p, s, q, perm) == 5

    def test_invalid_ordering_rejected(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "c"])
        with pytest.raises(InvalidPermutation):
            conditional_min(p, s, q, (1, 0))
        with pytest.raises(InvalidPermutation):
            conditional_min(p, s, q, (0, 0))

    def test_invalid_ordering_names_first_violation(self):
        # The ordering b, c, a, e, d breaks a < b, a < c and d < e.  The
        # first element placed above an earlier one is a, and b is the
        # first earlier element above it.
        p = build_poset(list("abcde"), [("a", "b"), ("a", "c"), ("d", "e")])
        s = ValueScale([1, 2, 3, 4, 5])
        q = QuerySet(p, list("abcde"))
        message = r"^'a' lies below 'b' but is ordered after it$"
        for check in (conditional_min, conditional_max, build_witness):
            with pytest.raises(InvalidPermutation, match=message):
                check(p, s, q, (1, 2, 0, 4, 3))


def _grid_orderings(nx, ny):
    """Every ordering of every query on the nx x ny grid, except that
    queries of more than five elements on grids of more than six get 24
    seeded random orderings each."""
    rng = random.Random(nx * 10 + ny)
    labels = [(i, j) for i in range(1, nx + 1) for j in range(1, ny + 1)]
    for k in range(len(labels) + 1):
        for query in combinations(labels, k):
            if k <= 5 or len(labels) <= 6:
                yield from ((query, perm) for perm in permutations(range(k)))
            else:
                yield from ((query, tuple(rng.sample(range(k), k)))
                            for _ in range(24))


def _falling_dag(labels, seed):
    """A random DAG on ``labels`` whose cover pairs do not all rise in
    canonical index: pairs drawn along a shuffled order of the labels."""
    rng = random.Random(seed)
    while True:
        topo = rng.sample(labels, len(labels))
        covers = [(a, b) for k, a in enumerate(topo) for b in topo[k + 1:]
                  if rng.random() < 0.4]
        poset = build_poset(labels, covers)
        if not poset.rising:
            return poset


class TestGridOrderingCheck:
    @pytest.mark.parametrize("order", ["product", "rows"])
    @pytest.mark.parametrize("nx, ny", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_messages_match_the_reference(self, nx, ny, order):
        # The grid, its built copy (covers rising in index) and two random
        # DAGs on its labels whose covers do not all rise; every check that
        # takes an ordering rejects it with the reference's message.
        grid = _grid_poset(nx, ny, order)
        labels = list(grid.labels)
        built = build_poset(labels, [(labels[a], labels[b]) for a, b in grid.covers])
        dags = [_falling_dag(labels, f"{nx} {ny} {order} {seed}") for seed in range(2)]
        scale = ValueScale(range(1, grid.n + 1))
        checks = [
            lambda p, q, perm: solver._validate_ordering(p, scale, q, perm),
            lambda p, q, perm: conditional_min(p, scale, q, perm),
            lambda p, q, perm: conditional_max(p, scale, q, perm),
            lambda p, q, perm: build_witness(p, scale, q, perm, "min"),
            lambda p, q, perm: build_witness(p, scale, q, perm, "max"),
        ]
        for poset in (grid, built, *dags):
            for query_labels, perm in _grid_orderings(nx, ny):
                query = QuerySet(poset, query_labels)
                want = ordering_violation(poset, query, perm)
                for check in checks:
                    try:
                        check(poset, query, perm)
                        got = None
                    except InvalidPermutation as e:
                        got = str(e)
                    assert got == want, (query_labels, perm)

    @pytest.mark.parametrize("order, chain", [
        ("product", [(40, j) for j in range(1, 41)]),
        ("rows", [(i, 1) for i in range(1, 41)]),
    ], ids=["product", "rows"])
    def test_min_witness_computes_no_mask(self, order, chain):
        n = 40
        poset = _grid_poset(n, n, order)
        scale = ValueScale(range(1, n * n + 1))
        query = QuerySet(poset, chain)
        witness = build_witness(poset, scale, query, tuple(range(n)), "min")
        assert not poset.down._cache and not poset.up._cache
        fresh = _grid_poset(n, n, order)
        best = solve_min(fresh, scale, QuerySet(fresh, query.labels)).objective
        assert sum(map(witness.value, query.labels)) == best


    @pytest.mark.parametrize("order", ["product", "rows"])
    def test_min_witness_computes_the_key_once(self, order, monkeypatch):
        # The check's key is the min witness's key: one running minimum.
        calls = []
        first_holder = _GridSets.first_holder
        monkeypatch.setattr(_GridSets, "first_holder",
                            lambda sets, elements: calls.append(sets.key)
                            or first_holder(sets, elements))
        poset = _grid_poset(5, 4, order)
        scale = ValueScale(range(1, poset.n + 1))
        query = QuerySet(poset, [(2, 3), (4, 1), (5, 4)])
        perm = solve_min(poset, scale, query).witness_perm
        calls.clear()
        build_witness(poset, scale, query, perm, "min")
        assert calls == [(5, 4, order, "down")]


class TestSolve:
    def test_global_top_is_forced(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(2, 2)])
        assert solve_min(p, s, q).objective == 4
        assert solve_max(p, s, q).objective == 4

    def test_full_antichain_sums_everything(self):
        p = build_poset(["a", "b", "c"], [])
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "b", "c"])
        assert solve_min(p, s, q).objective == 6
        assert solve_max(p, s, q).objective == 6

    def test_chain_endpoints(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "c"])
        res = solve_min(p, s, q)
        assert res.objective == 4
        assert res.per_node_values == (Fraction(1), Fraction(3))

    def test_empty_query_rejected(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, [])
        with pytest.raises(EmptyQuery):
            solve_min(p, s, q)
        with pytest.raises(EmptyQuery):
            solve_max(p, s, q)

    def test_scale_size_mismatch(self):
        with pytest.raises(ValidationError):
            solve_min(chain3(), ValueScale([1, 2]), QuerySet(chain3(), ["a"]))

    def test_per_node_values_strictly_increase(self):
        p = build_poset(range(5), [(0, 1), (0, 2), (2, 3)])
        s = ValueScale([2, 3, 5, 7, 11])
        q = QuerySet(p, [1, 2, 4])
        for res in (solve_min(p, s, q), solve_max(p, s, q)):
            assert all(
                a < b
                for a, b in zip(res.per_node_values, res.per_node_values[1:])
            )
            assert res.objective == sum(res.per_node_values)

    def test_deep_chain_query(self):
        # Deeper than the interpreter's default recursion limit.
        n = 1500
        p = build_poset(range(n), [(i, i + 1) for i in range(n - 1)])
        s = ValueScale(Fraction(i, 7) for i in range(1, n + 1))
        q = QuerySet(p, range(n - 1, -1, -1))
        mn, mx = chain_bounds(p, s, q)
        res_min = solve_min(p, s, q)
        res_max = solve_max(p, s, q)
        assert res_min.objective == mn
        assert res_max.objective == mx
        assert res_min.witness_perm == tuple(range(n - 1, -1, -1))
        assert res_max.witness_perm == res_min.witness_perm

    def test_cap_counts_order_ideals(self):
        # A 3-element antichain query has 2**3 = 8 order ideals.
        p = build_poset(["a", "b", "c"], [])
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "b", "c"])
        assert solve_min(p, s, q, cap=8).objective == 6
        assert solve_max(p, s, q, cap=8).objective == 6
        with pytest.raises(CapExceeded) as exc:
            solve_min(p, s, q, cap=7)
        assert exc.value.cap == 7
        with pytest.raises(CapExceeded):
            solve_max(p, s, q, cap=7)

    def test_cap_counts_the_kept_ideals(self):
        # The 16-element antidiagonal has 2**16 order ideals, of which the
        # search keeps 2604, so it solves under a cap of 8192 with the
        # result of the default cap.
        n = 16
        p = grid_poset(n)
        s = scale_from_m(MonotoneMap1D.identity(), n)
        q = QuerySet(p, [(i, n + 1 - i) for i in range(1, n + 1)])
        for solve in (solve_min, solve_max):
            res = solve(p, s, q, cap=8192)
            want = solve(p, s, q)
            assert (res.objective, res.witness_perm) == (want.objective, want.witness_perm)
            assert res.witness_fn == want.witness_fn

    def test_chain_counts_its_ideals(self):
        # A k-chain query has k + 1 order ideals.
        p = build_poset(range(6), [(i, i + 1) for i in range(5)])
        s = ValueScale(range(1, 7))
        q = QuerySet(p, [4, 0, 2, 1, 5])
        for solve in (solve_min, solve_max):
            assert solve(p, s, q, cap=6).witness_perm == (1, 3, 2, 0, 4)
            with pytest.raises(CapExceeded):
                solve(p, s, q, cap=5)

    def test_chain_reads_only_its_sizes(self, monkeypatch):
        # 3000 values over distinct prime denominators: a chain query
        # brings only the values at its k sizes to one denominator, in
        # each of chain_bounds' two sums and in each solve.
        n = 3000
        sieve = bytearray([1]) * 30000
        primes = []
        for c in range(2, len(sieve)):
            if sieve[c]:
                primes.append(c)
                sieve[c * c::c] = bytearray(len(sieve[c * c::c]))
        p = build_poset(range(n), [(i, i + 1) for i in range(n - 1)])
        s = ValueScale(i + Fraction(1, d) for i, d in enumerate(primes[:n], 1))
        q = QuerySet(p, [0, 5, 1500, 2999])
        brought = []
        ratios = solver._integer_ratios

        def counted(values):
            brought.append(len(values))
            return ratios(values)

        monkeypatch.setattr(solver, "_integer_ratios", counted)
        mn, mx = chain_bounds(p, s, q)
        assert solve_min(p, s, q).objective == mn
        assert solve_max(p, s, q).objective == mx
        assert brought == [4] * 4


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


@st.composite
def scaled_instances(draw, family, max_n=7):
    """A poset on n <= 7 elements with shuffled labels (so canonical order
    need not be a linear extension), a scale of the given family and a
    query.

    ``"int"``: distinct integers from a narrow range, so many orderings tie.
    ``"float"``: distinct floats of both signs, some within 1e-299 of zero.
    ``"prime"``: ``i + a/p`` with pairwise distinct prime denominators p.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    labels = list(draw(st.permutations(range(n))))
    poset = build_poset(labels, covers)
    if family == "int":
        values = draw(
            st.lists(st.integers(-n, 2 * n), min_size=n, max_size=n, unique=True)
        )
    elif family == "float":
        values = draw(
            st.lists(
                st.one_of(
                    st.floats(-1e3, 1e3),
                    st.floats(-1e-299, 1e-299),
                    st.sampled_from([1e-300, -1e-300, 3e-300]),
                ),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    else:
        primes = draw(st.permutations(PRIMES))[:n]
        values = [
            i + Fraction(draw(st.integers(0, p - 1)), p)
            for i, p in enumerate(primes)
        ]
    query = QuerySet(
        poset, draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    )
    return poset, ValueScale(sorted(values)), query


def first_optimal(poset, scale, query, mode):
    """The first optimal ordering by brute force.  Min scans the orderings
    in enumeration (lexicographic) order; max scans the orderings of the
    reversed order, which run from the top, and reports each reversed."""
    best_val = best_perm = None
    if mode == "min":
        for perm in admissible_orderings(poset, query):
            v = conditional_min(poset, scale, query, perm)
            if best_val is None or v < best_val:
                best_val, best_perm = v, perm
        return best_val, best_perm
    rposet, _, rquery = reversed_instance(poset, scale, query)
    for top_down in admissible_orderings(rposet, rquery):
        perm = top_down[::-1]
        v = conditional_max(poset, scale, query, perm)
        if best_val is None or v > best_val:
            best_val, best_perm = v, perm
    return best_val, best_perm


@pytest.mark.parametrize("family", ["int", "float", "prime"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solvers_match_first_optimal_ordering(family, data):
    poset, scale, query = data.draw(scaled_instances(family))
    for mode, solve in (("min", solve_min), ("max", solve_max)):
        res = solve(poset, scale, query)
        assert (res.objective, res.witness_perm) == first_optimal(
            poset, scale, query, mode
        )


WIDE_PRIMES = (2, 3, 5, 7, 11, 13, 101, 103, 997, 65537)


def _bellman_scale(rng, family, n, grid_side):
    """A scale of n values: ``"int"`` distinct integers from a narrow range;
    ``"rational"`` i + a/p over irregular prime denominators p;
    ``"from_m"`` integers over one denominator, the scale of ``id`` or
    ``power:2`` on a square grid; ``"tie"`` the arithmetic scale 1..n,
    under which orderings with the same union sizes in another order
    tie."""
    if family == "int":
        return ValueScale(sorted(rng.sample(range(-n, 3 * n), n)))
    if family == "rational":
        return ValueScale(i + Fraction(rng.randrange(p), p)
                          for i, p in enumerate(rng.choices(WIDE_PRIMES, k=n)))
    if family == "from_m":
        if grid_side:
            m = rng.choice([MonotoneMap1D.identity(), MonotoneMap1D.power(2)])
            return scale_from_m(m, grid_side)
        return ValueScale.over(sorted(rng.sample(range(-n, 5 * n), n)),
                               rng.randrange(1, 12))
    return ValueScale(range(1, n + 1))


@st.composite
def wide_instances(draw):
    """A query of at most 12 elements on a random DAG of up to 14 elements
    with shuffled labels and covers, or an antichain on a product grid of
    side up to 12 (implicit, or built with shuffled labels and covers); a
    scale of one of the families of :func:`_bellman_scale`.  A DAG of
    density 0 is an antichain of singletons, on which every ordering
    ties in both modes."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(["int", "rational", "from_m", "tie"]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 14))
        labels = rng.sample(range(100), n)
        density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3]))
        covers = [(labels[i], labels[j]) for i, j in combinations(range(n), 2)
                  if rng.random() < density]
        poset = build_poset(labels, rng.sample(covers, len(covers)))
        query = rng.sample(labels, draw(st.integers(1, min(n, 12))))
        return poset, _bellman_scale(rng, family, n, None), QuerySet(poset, query)
    side = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(side, 12)))
    xs = sorted(rng.sample(range(1, side + 1), k))
    ys = sorted(rng.sample(range(1, side + 1), k), reverse=True)
    query = rng.sample(list(zip(xs, ys)), k)
    if draw(st.booleans()):
        poset = grid_poset(side)
    else:
        cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
        covers = [((i, j), (i + di, j + dj)) for i, j in cells
                  for di, dj in ((1, 0), (0, 1)) if i + di <= side and j + dj <= side]
        poset = build_poset(rng.sample(cells, len(cells)),
                            rng.sample(covers, len(covers)))
    scale = _bellman_scale(rng, family, side * side, side)
    return poset, scale, QuerySet(poset, query)


@settings(max_examples=150, deadline=None)
@given(wide_instances())
def test_solvers_match_the_bellman_reference(instance):
    poset, scale, query = instance
    for mode, solve in (("min", solve_min), ("max", solve_max)):
        res = solve(poset, scale, query)
        assert (res.objective, res.witness_perm) == bellman_extremum(
            poset, scale, query, mode)


def _primes_from(start, count):
    out = []
    c = start
    while len(out) < count:
        if all(c % d for d in range(2, int(c**0.5) + 1)):
            out.append(c)
        c += 1
    return out


class TestCoprimeDenominators:
    """Fourteen disjoint chains of lengths 23..36 (N = 413), queried at one
    end of each, with scale values i + a_i/p_i over distinct primes p_i
    just above 10**6.  The union sizes reached cover hundreds of ranks, so
    the common denominator of the search has thousands of digits; the two
    layers of cost values the backward pass keeps bound its memory (a
    tracemalloc peak of about 9.9 MB)."""

    @staticmethod
    def instance(end):
        labels, covers, query = [], [], []
        for c, length in enumerate(range(23, 37)):
            chain = [(c, j) for j in range(length)]
            labels += chain
            covers += list(zip(chain, chain[1:]))
            query.append(chain[end])
        poset = build_poset(labels, covers)
        primes = _primes_from(10**6, poset.n)
        a = [(i * 7919) % p or 1 for i, p in enumerate(primes, 1)]
        scale = ValueScale(
            i + Fraction(ai, p) for i, (ai, p) in enumerate(zip(a, primes), 1)
        )
        return poset, scale, QuerySet(poset, query)

    # Tops for the minimum and bottoms for the maximum: the union sizes
    # are then subset sums of the chain lengths in both directions.
    @pytest.mark.parametrize(
        "end, solve, cond",
        [(-1, solve_min, conditional_min), (0, solve_max, conditional_max)],
    )
    def test_exact_with_bounded_memory(self, end, solve, cond):
        poset, scale, query = self.instance(end)
        res = solve(poset, scale, query)
        assert cond(poset, scale, query, res.witness_perm) == res.objective
        tracemalloc.start()
        try:
            again = solve(poset, scale, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.objective == res.objective
        assert peak < 15 * 2**20


class TestBuildWitness:
    def test_chain_witness_is_rank_order(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["b"])
        w = build_witness(p, s, q, (0,), "min")
        assert dict(w.items()) == {"a": 1, "b": 2, "c": 3}

    def test_grid_min_witness(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2)])
        w = build_witness(p, s, q, (0,), "min")
        assert w.value((1, 1)) == 1
        assert w.value((1, 2)) == 2
        assert {w.value((2, 1)), w.value((2, 2))} == {3, 4}

    def test_grid_max_witness(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        q = QuerySet(p, [(1, 2)])
        w = build_witness(p, s, q, (0,), "max")
        assert dict(w.items()) == {(1, 1): 1, (2, 1): 2, (1, 2): 3, (2, 2): 4}

    def test_invalid_ordering(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "c"])
        with pytest.raises(InvalidPermutation):
            build_witness(p, s, q, (1, 0), "min")

    @pytest.mark.parametrize("poset", [
        grid_poset(12), grid_poset(12, "rows"),
        build_poset(range(6), [(0, 2), (1, 2), (2, 4), (3, 4), (4, 5)]),
        build_poset(range(6), [(5, 3), (4, 3), (3, 1), (2, 1), (1, 0)]),
    ], ids=["product-grid", "rows-grid", "rising", "falling"])
    def test_solver_witness_is_handed_over_unchecked(self, poset, monkeypatch):
        # The solver's ranks are a permutation by construction: its witness
        # runs no bijection check, and the oracle's check accepts it.
        from monoext import values

        def checked(*args):
            raise AssertionError("the witness ranks were checked again")

        monkeypatch.setattr(values, "_is_permutation", checked)
        s = ValueScale(range(1, poset.n + 1))
        q = QuerySet(poset, [poset.labels[e] for e in (0, poset.n // 2, poset.n - 1)])
        for solve in (solve_min, solve_max):
            w = solve(poset, s, q).witness_fn
            assert type(w.ranks) is tuple
            assert {type(r) for r in w.ranks} == {int}
            assert check_monotone_bijection(poset, s, w).ok

    def test_bad_mode(self):
        p = chain3()
        q = QuerySet(p, ["a"])
        with pytest.raises(ValidationError):
            build_witness(p, ValueScale([1, 2, 3]), q, (0,), "median")


@st.composite
def shuffled_orderings(draw, max_n=7):
    """A poset on n <= 7 elements whose canonical (label-list) order is not
    a linear extension, a query and an admissible ordering of it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    labels = list(draw(st.permutations(range(n))))
    poset = build_poset(labels, covers)
    query = QuerySet(
        poset, draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    )
    perm = draw(st.sampled_from(list(admissible_orderings(poset, query))))
    return poset, query, perm


def reference_witness(poset, query, perm, mode):
    """Ranks filled block by block, each block by its smallest-index
    minimal unplaced element first.  Max mode fills from the top: blocks
    of up-sets along the reversed ordering, maximal elements first."""
    n = poset.n

    def leq(i, j):
        return poset.leq_idx(i, j) if mode == "min" else poset.leq_idx(j, i)

    order = perm if mode == "min" else perm[::-1]
    tops = [query.indices[p] for p in order]
    placed = []
    for k in range(len(tops) + 1):
        block = [
            j
            for j in range(n)
            if j not in placed
            and (k == len(tops) or any(leq(j, t) for t in tops[: k + 1]))
        ]
        while block:
            i = min(j for j in block if not any(leq(m, j) for m in block if m != j))
            block.remove(i)
            placed.append(i)
    ranks = [0] * n
    for r, i in enumerate(placed):
        ranks[i] = r + 1 if mode == "min" else n - r
    return ranks


@given(shuffled_orderings())
@settings(max_examples=150, deadline=None)
def test_witness_matches_block_reference(instance):
    poset, query, perm = instance
    scale = ValueScale(range(1, poset.n + 1))
    for mode in ("min", "max"):
        w = build_witness(poset, scale, query, perm, mode)
        assert list(w.ranks) == reference_witness(poset, query, perm, mode)


def heap_witness_ranks(poset, query, perm, mode):
    """The witness ranks by the heap: the key of :func:`build_witness`
    (the first block whose union holds the element, read bit by bit) and
    the least linear extension under (key, index) that
    :func:`_first_extension` builds along the cover pairs read."""
    sets, rank, sign = _orientation(poset, mode)
    key = [len(perm)] * poset.n
    mask = 0
    for k, p in enumerate(perm[::sign]):
        new = sets[query.indices[p]] & ~mask
        mask |= new
        for e in range(poset.n):
            if new >> e & 1:
                key[e] = k
    ranks = [0] * poset.n
    for pos, e in enumerate(_first_extension(_cover_succs(poset, sign), key), 1):
        ranks[e] = rank(pos)
    return tuple(ranks)


@pytest.fixture
def no_heap(monkeypatch):
    """Makes the heap an error inside build_witness."""
    def refuse(succs, key):
        raise AssertionError("build_witness used the heap")
    monkeypatch.setattr(solver, "_first_extension", refuse)


class TestWitnessBySort:
    """Grid witnesses and min-mode witnesses of posets whose covers rise in
    index come from a sort; each must equal the heap's."""

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_small_grids_exhaustively(self, kind):
        for nx in range(1, 5):
            for ny in range(1, 5):
                g = _grid_poset(nx, ny, kind)
                scale = ValueScale(range(1, g.n + 1))
                for k in range(1, 4):
                    for labels in combinations(g.labels, k):
                        q = QuerySet(g, labels)
                        for perm in admissible_orderings(g, q):
                            for mode in ("min", "max"):
                                got = build_witness(g, scale, q, perm, mode).ranks
                                want = heap_witness_ranks(g, q, perm, mode)
                                assert got == want, (nx, ny, labels, perm, mode)

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_small_grids_with_arrays(self, kind):
        # Every grid witness is built with numpy, the 5 x 5 grids included.
        rng = random.Random(18)
        for nx in range(1, 6):
            for ny in range(1, 6):
                g = _grid_poset(nx, ny, kind)
                scale = ValueScale(range(1, g.n + 1))
                for _ in range(6):
                    q = QuerySet(g, rng.sample(g.labels, rng.randint(1, min(g.n, 4))))
                    for perm in islice(admissible_orderings(g, q), 6):
                        for mode in ("min", "max"):
                            got = build_witness(g, scale, q, perm, mode).ranks
                            assert got == heap_witness_ranks(g, q, perm, mode)

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_grids_of_a_thousand_elements(self, kind, no_heap):
        rng = random.Random(19)
        g = _grid_poset(40, 30, kind)
        scale = ValueScale(range(1, g.n + 1))
        queries = [rng.sample(g.labels, size) for size in (1, 3, 5)]
        # The far row: under the product order a chain whose min-mode
        # blocks are columns, under the rows order an antichain.
        queries.append([(40, j) for j in range(1, 31, 1 if kind == "product" else 6)])
        for labels in queries:
            q = QuerySet(g, labels)
            perm = solve_min(g, scale, q).witness_perm
            for mode in ("min", "max"):
                got = build_witness(g, scale, q, perm, mode).ranks
                assert got == heap_witness_ranks(g, q, perm, mode)

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_larger_grids(self, kind):
        rng = random.Random(16)
        for _ in range(40):
            g = _grid_poset(rng.randint(1, 9), rng.randint(1, 9), kind)
            scale = ValueScale(range(1, g.n + 1))
            q = QuerySet(g, rng.sample(g.labels, rng.randint(1, min(g.n, 6))))
            perms = list(islice(admissible_orderings(g, q), 200))
            for perm in rng.sample(perms, min(len(perms), 5)):
                for mode in ("min", "max"):
                    got = build_witness(g, scale, q, perm, mode).ranks
                    assert got == heap_witness_ranks(g, q, perm, mode)

    def test_grids_never_use_the_heap(self, no_heap):
        for kind in ("product", "rows"):
            g = grid_poset(7, kind)
            scale = ValueScale(range(1, g.n + 1))
            q = QuerySet(g, [(2, 5), (4, 1), (6, 6)])
            for mode in ("min", "max"):
                build_witness(g, scale, q, solve_min(g, scale, q).witness_perm, mode)

    def test_min_mode_on_rising_dags(self, no_heap):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 8)
            covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < rng.uniform(0.1, 0.6)]
            p = build_poset(list(range(n)), rng.sample(covers, len(covers)))
            assert p.rising
            scale = ValueScale(range(1, n + 1))
            q = QuerySet(p, rng.sample(range(n), rng.randint(1, n)))
            for perm in islice(admissible_orderings(p, q), 20):
                got = build_witness(p, scale, q, perm, "min").ranks
                assert got == heap_witness_ranks(p, q, perm, "min")

    def test_other_posets_keep_the_heap(self, monkeypatch):
        calls = []
        heap = solver._first_extension
        monkeypatch.setattr(solver, "_first_extension",
                            lambda succs, key: calls.append(1) or heap(succs, key))
        falling = build_poset(["c", "b", "a"], [("a", "b"), ("b", "c")])
        assert not falling.rising
        scale = ValueScale([1, 2, 3])
        w = build_witness(falling, scale, QuerySet(falling, ["b"]), (0,), "min")
        assert dict(w.items()) == {"a": 1, "b": 2, "c": 3}
        rising = chain3()
        build_witness(rising, scale, QuerySet(rising, ["b"]), (0,), "max")
        assert len(calls) == 2


@st.composite
def transposed_grid_queries(draw):
    """An n x n product grid (n <= 5), a query of up to six of its labels
    and an admissible ordering of it."""
    n = draw(st.integers(min_value=1, max_value=5))
    g = grid_poset(n)
    labels = draw(st.lists(st.sampled_from(list(g.labels)), min_size=1,
                           max_size=min(n * n, 6), unique=True))
    perm = draw(st.sampled_from(list(admissible_orderings(g, QuerySet(g, labels)))))
    return n, labels, perm


@given(transposed_grid_queries())
@settings(max_examples=150, deadline=None)
def test_y_major_witness_is_the_transposed_grid_witness(instance):
    # The product order is symmetric in its two coordinates, so listing a
    # square grid's labels y-major is transposing it: a query's witness on
    # the y-major copy is the x-major witness of the transposed query.
    n, labels, perm = instance
    g = grid_poset(n)
    y_major = build_poset([(i, j) for j in range(1, n + 1) for i in range(1, n + 1)],
                          [(g.labels[a], g.labels[b]) for a, b in g.covers])
    scale = ValueScale(range(1, n * n + 1))
    transposed = [(j, i) for i, j in labels]
    for mode in ("min", "max"):
        got = build_witness(y_major, scale, QuerySet(y_major, labels), perm, mode)
        want = build_witness(g, scale, QuerySet(g, transposed), perm, mode)
        assert {(i, j): r for (j, i), r in want.items()} == dict(got.items())


class TestChainBounds:
    def test_three_chain_endpoints(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "c"])
        assert chain_bounds(p, s, q) == (4, 4)

    def test_column_formula(self):
        # grid column {(s, v)}_v has min sum s(n+1)/(2n) under the i/n^2 scale
        for n in range(1, 7):
            p = grid_poset(n, "product")
            scale = scale_from_m(MonotoneMap1D.identity(), n)
            for s in range(1, n + 1):
                q = QuerySet(p, [(s, v) for v in range(1, n + 1)])
                mn, _ = chain_bounds(p, scale, q)
                assert mn == Fraction(s * (n + 1), 2 * n)

    @pytest.mark.parametrize("s", [1, 106, 213, 320])
    def test_column_chain_bound_at_320(self, s):
        assert column_chain_bound(320, s) == Fraction(s * 321, 640)

    def test_singleton(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["b"])
        mn, mx = chain_bounds(p, s, q)
        assert mn == 2 and mx == 2

    def test_query_order_does_not_matter(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        assert chain_bounds(p, s, QuerySet(p, ["c", "a"])) == (4, 4)

    def test_not_a_chain(self):
        p = grid_poset(2, "product")
        s = ValueScale([1, 2, 3, 4])
        with pytest.raises(NotAChain):
            chain_bounds(p, s, QuerySet(p, [(1, 2), (2, 1)]))

    def test_not_a_chain_names_the_first_pair_in_query_order(self):
        p = grid_poset(3, "product")
        s = ValueScale(range(1, 10))
        q = QuerySet(p, [(1, 1), (2, 2), (1, 3), (3, 1)])
        with pytest.raises(NotAChain) as exc:
            chain_bounds(p, s, q)
        assert str(exc.value) == "(2, 2) and (1, 3) are incomparable"

    def test_chain_checked_in_k_minus_one_steps(self, monkeypatch):
        # The chain test that chain_bounds and the search share tests one
        # membership bit per neighbouring pair: counted as shifts of the
        # masks it reads.
        tested = []

        class Mask(int):
            def __rshift__(self, i):
                tested.append(i)
                return int(self) >> i

        class Counted:
            def __init__(self, sets):
                self.sets = sets

            def __getitem__(self, i):
                return Mask(self.sets[i])

        chain = solver._chain
        monkeypatch.setattr(solver, "_chain", lambda sets, idxs: chain(Counted(sets), idxs))
        assert column_chain_bound(40, 7) == Fraction(7 * 41, 80)
        assert len(tested) == 39
        p = grid_poset(40)
        q = QuerySet(p, [(7, j) for j in range(1, 41)])
        s = scale_from_m(MonotoneMap1D.identity(), 40)
        tested.clear()
        assert solve_min(p, s, q).objective == Fraction(7 * 41, 80)
        assert len(tested) == 39


class TestDisjointBound:
    def test_antichain(self):
        p = build_poset(["a", "b", "c"], [])
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "b", "c"])
        assert disjoint_bound(p, s, q, "min") == 6
        assert disjoint_bound(p, s, q, "max") == 6

    def test_rows_grid_example(self):
        p = grid_poset(2, "rows")
        s = ValueScale([Fraction(i, 4) for i in range(1, 5)])
        q = QuerySet(p, [(1, 1), (2, 2)])
        assert disjoint_bound(p, s, q, "min") == 1
        assert disjoint_bound(p, s, q, "max") == Fraction(3, 2)

    def test_precondition_violated_reports_pair(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        q = QuerySet(p, ["a", "b"])
        with pytest.raises(PreconditionViolated) as exc:
            disjoint_bound(p, s, q, "min")
        assert set(exc.value.pair) == {"a", "b"}

    @pytest.mark.parametrize("mode, kind", [("min", "down"), ("max", "up")])
    def test_precondition_names_the_first_pair_in_query_order(self, mode, kind):
        p = grid_poset(3, "rows")
        s = ValueScale(range(1, 10))
        q = QuerySet(p, [(1, 1), (1, 2), (2, 2), (3, 1)])
        with pytest.raises(PreconditionViolated) as exc:
            disjoint_bound(p, s, q, mode)
        assert str(exc.value) == f"{kind}-sets of (1, 1) and (3, 1) intersect"
        assert exc.value.pair == ((1, 1), (3, 1))

    def test_bad_mode(self):
        p = chain3()
        with pytest.raises(ValidationError):
            disjoint_bound(p, ValueScale([1, 2, 3]), QuerySet(p, ["a"]), "avg")


def _pair_instances():
    """The grids of up to 3 x 3 under both orders and 40 random DAGs of up
    to seven elements (covers along a shuffled order), each with eight
    seeded random queries."""
    rng = random.Random(25)
    posets = [_grid_poset(nx, ny, kind) for nx in range(1, 4) for ny in range(1, 4)
              for kind in ("product", "rows")]
    for _ in range(40):
        n = rng.randint(1, 7)
        topo = rng.sample(range(n), n)
        posets.append(build_poset(range(n), [
            (a, b) for k, a in enumerate(topo) for b in topo[k + 1:]
            if rng.random() < 0.35
        ]))
    for poset in posets:
        labels = list(poset.labels)
        for _ in range(8):
            yield poset, QuerySet(poset, rng.sample(labels, rng.randint(1, poset.n)))


class TestFirstOffendingPair:
    """The pair each fast path's precondition names is the reference's
    first offending pair in query order."""

    def test_not_a_chain(self):
        for poset, query in _pair_instances():
            scale = ValueScale(range(1, poset.n + 1))
            want = first_offending_pair(
                query, lambda a, b: not poset.leq(a, b) and not poset.leq(b, a))
            if want is None:
                chain_bounds(poset, scale, query)
                continue
            with pytest.raises(NotAChain) as exc:
                chain_bounds(poset, scale, query)
            assert str(exc.value) == f"{want[0]!r} and {want[1]!r} are incomparable"

    @pytest.mark.parametrize("mode, kind", [("min", "down"), ("max", "up")])
    def test_sets_intersect(self, mode, kind):
        for poset, query in _pair_instances():
            scale = ValueScale(range(1, poset.n + 1))

            def holds(x, c):
                return poset.leq(c, x) if mode == "min" else poset.leq(x, c)

            want = first_offending_pair(query, lambda a, b: any(
                holds(a, c) and holds(b, c) for c in poset.labels))
            if want is None:
                disjoint_bound(poset, scale, query, mode)
                continue
            with pytest.raises(PreconditionViolated) as exc:
                disjoint_bound(poset, scale, query, mode)
            assert str(exc.value) == (
                f"{kind}-sets of {want[0]!r} and {want[1]!r} intersect")
            assert exc.value.pair == want


class TestScaleFromM:
    def test_identity_scale_is_exact(self):
        s = scale_from_m(MonotoneMap1D.identity(), 2)
        assert s.values == (
            Fraction(1, 4),
            Fraction(2, 4),
            Fraction(3, 4),
            Fraction(1),
        )

    def test_square_map_single_cell(self):
        s = scale_from_m(MonotoneMap1D.power(2), 1)
        assert s.values == (Fraction(1),)

    def test_square_map_two_cells(self):
        import math

        s = scale_from_m(MonotoneMap1D.power(2), 2)
        expected = [0.5, math.sqrt(2) / 2, math.sqrt(3) / 2, 1.0]
        for got, want in zip(s.values, expected):
            assert abs(float(got) - want) < 1e-15

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            scale_from_m(MonotoneMap1D.constant(0.5), 2)

    def test_exact_identity_and_array_inverse_otherwise(self):
        n = 30
        n2 = n * n
        ranks = range(1, n2 + 1)
        identity = scale_from_m(MonotoneMap1D.identity(), n)
        assert identity.values == tuple(Fraction(i, n2) for i in ranks)
        # The float grid i / n^2 is the correctly rounded Fraction(i, n^2).
        grid = np.arange(1, n2 + 1) / n2
        assert grid.tolist() == [float(Fraction(i, n2)) for i in ranks]
        for p in (0.5, 1.7, 2.0, 3.0, 3.3):
            m = MonotoneMap1D.power(p)
            want = tuple(Fraction(v) for v in m.inverse_many(grid).tolist())
            assert scale_from_m(m, n).values == want

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 97])
    @pytest.mark.parametrize(
        "m",
        [
            MonotoneMap1D.identity(),
            MonotoneMap1D.power(0.5),
            MonotoneMap1D.power(2),
            MonotoneMap1D.power(3.3),
            MonotoneMap1D.piecewise_linear([(0, 0), (0.5, 0.25), (1, 1)]),
            # A nearly flat piece of m, then a steep one: the inverse jumps.
            MonotoneMap1D.piecewise_linear([(0, 0), (0.5, 1e-12), (0.6, 0.9), (1, 1)]),
        ],
        ids=["id", "power0.5", "power2", "power3.3", "pwl", "pwl-flat"],
    )
    def test_equals_eager_fraction_scale(self, m, n):
        """The integer scale holds the values the eager Fraction scale
        holds, and gives the same lowest-terms ratios."""
        n2 = n * n
        if m.kind == "identity":
            eager = ValueScale(Fraction(i, n2) for i in range(1, n2 + 1))
        else:
            eager = ValueScale(m.inverse_many(np.arange(1, n2 + 1) / n2).tolist())
        lazy = scale_from_m(m, n)
        assert lazy == eager and eager == lazy
        assert tuple(lazy.values) == eager.values
        assert list(lazy.ratios()) == list(eager.ratios())

    def test_identity_scale_holds_no_values(self):
        tracemalloc.start()
        try:
            s = scale_from_m(MonotoneMap1D.identity(), 350)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 350**2
        assert peak < 2**20


class TestMonotoneBijection:
    def test_rank_validation(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        with pytest.raises(ValidationError):
            MonotoneBijection(p, s, [1, 1, 2])
        with pytest.raises(ValidationError):
            MonotoneBijection(p, s, [1, 2])

    def test_constructor_checks_what_the_solver_skips(self):
        # A witness's ranks with one rank repeated are refused when they
        # come from outside the solver.
        p = grid_poset(8)
        s = scale_from_m(MonotoneMap1D.identity(), 8)
        ranks = list(solve_min(p, s, QuerySet(p, [(3, 4)])).witness_fn.ranks)
        assert MonotoneBijection(p, s, ranks).ranks == tuple(ranks)
        ranks[0] = ranks[1]
        for given in (ranks, np.array(ranks), dict(zip(p.labels, ranks))):
            with pytest.raises(ValidationError, match="not a bijection"):
                MonotoneBijection(p, s, given)

    @pytest.mark.parametrize("ranks, message", [
        ([1, 1, 2], "not a bijection"),
        ([0, 1, 2], "not a bijection"),
        ([1, 2, 4], "not a bijection"),
        ([3, 2, 1, 4], "wrong length"),
        ([1, 2], "wrong length"),
        ([1, 2.0, 3], "is not an integer"),
        ([1, True, 3], "is not an integer"),
    ])
    def test_rank_sequence_errors(self, ranks, message):
        p = chain3()
        s = ValueScale([1, 2, 3])
        with pytest.raises(ValidationError, match=message):
            MonotoneBijection(p, s, ranks)
        with pytest.raises(ValidationError, match=message):
            MonotoneBijection(p, s, iter(ranks))

    @pytest.mark.parametrize("ranks", [[3, 1, 2], (3, 1, 2), np.array([3, 1, 2]),
                                       [np.int8(3), 1, 2]])
    def test_rank_sequences_taken(self, ranks):
        f = MonotoneBijection(chain3(), ValueScale([1, 2, 3]), ranks)
        assert f.ranks == (3, 1, 2)
        assert {type(r) for r in f.ranks} == {int}

    def test_dict_construction(self):
        p = chain3()
        s = ValueScale([1, 2, 3])
        f = MonotoneBijection(p, s, {"a": 1, "b": 2, "c": 3})
        assert f.rank("c") == 3 and f.value("a") == 1
