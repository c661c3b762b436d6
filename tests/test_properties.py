"""Property-based checks: structural poset laws, solver-vs-oracle
agreement, closure of the adjacent swap, the prefix property of minimizing
witnesses, and the non-increasing rearrangement behind the process bound."""

import io
import json
import random
from fractions import Fraction
from itertools import islice

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from monoext import (
    MonotoneBijection,
    QuerySet,
    ValueScale,
    brute_min_max,
    build_poset,
    build_witness,
    chain_bounds,
    check_monotone_bijection,
    conditional_max,
    conditional_min,
    disjoint_bound,
    solve_max,
    solve_min,
    swap_adjacent,
)
from monoext import EmpiricalRV, ExtremalProcess, MonotoneMap1D
from monoext.cli import main
from monoext.errors import NotIncomparable, PreconditionViolated
from reference import admissible_orderings, linear_extensions, reversed_instance


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((i, j))
    return build_poset(list(range(n)), covers)


@st.composite
def poset_instances(draw, max_n=6):
    poset = draw(posets(max_n))
    n = poset.n
    k = draw(st.integers(min_value=1, max_value=n))
    labels = draw(
        st.permutations(list(range(n))).map(lambda p: list(p)[:k])
    )
    scale = ValueScale(
        sorted(
            draw(
                st.lists(
                    st.fractions(
                        min_value=-10, max_value=10, max_denominator=8
                    ),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
    )
    return poset, scale, QuerySet(poset, labels)


@given(posets())
@settings(max_examples=100, deadline=None)
def test_down_up_duality(poset):
    for i, a in enumerate(poset.labels):
        assert poset.down[i] >> i & 1 and poset.up[i] >> i & 1
        for j, b in enumerate(poset.labels):
            assert bool(poset.down[i] >> j & 1) == bool(poset.up[j] >> i & 1)
            assert bool(poset.down[i] >> j & 1) == poset.leq(b, a)


@given(poset_instances())
@settings(max_examples=60, deadline=None)
def test_double_reversal(instance):
    poset, scale, query = instance
    rp, rs, rq = reversed_instance(*reversed_instance(poset, scale, query))
    assert rp == poset and rs == scale and rq.indices == query.indices


@given(poset_instances(max_n=6))
@settings(max_examples=60, deadline=None)
def test_admissible_count_matches_induced_subposet(instance):
    poset, _, query = instance
    count = sum(1 for _ in admissible_orderings(poset, query))
    sub_covers = [
        (a, b)
        for a in query.labels
        for b in query.labels
        if a != b and poset.leq(a, b)
    ]
    sub = build_poset(query.labels, sub_covers)
    assert count == sum(1 for _ in linear_extensions(sub))


@given(poset_instances())
@settings(max_examples=80, deadline=None)
def test_solver_matches_oracle(instance):
    poset, scale, query = instance
    mn = solve_min(poset, scale, query)
    mx = solve_max(poset, scale, query)
    bmin, bmax, _ = brute_min_max(poset, scale, query)
    assert mn.objective == bmin.objective
    assert mx.objective == bmax.objective


@given(poset_instances())
@settings(max_examples=60, deadline=None)
def test_conditional_values_bracket_solutions(instance):
    poset, scale, query = instance
    mn = solve_min(poset, scale, query).objective
    mx = solve_max(poset, scale, query).objective
    best_min = None
    best_max = None
    for perm in admissible_orderings(poset, query):
        v = conditional_min(poset, scale, query, perm)
        w = conditional_max(poset, scale, query, perm)
        best_min = v if best_min is None else min(best_min, v)
        best_max = w if best_max is None else max(best_max, w)
    assert best_min == mn
    assert best_max == mx


@given(poset_instances())
@settings(max_examples=80, deadline=None)
def test_min_ordering_is_first_minimizer_in_enumeration_order(instance):
    poset, scale, query = instance
    best_val = best_perm = None
    for perm in admissible_orderings(poset, query):
        v = conditional_min(poset, scale, query, perm)
        if best_val is None or v < best_val:
            best_val, best_perm = v, perm
    res = solve_min(poset, scale, query)
    assert res.objective == best_val
    assert res.witness_perm == best_perm


def _chain_in(poset, labels):
    """The labels, lowest first, kept greedily while comparable with all
    labels kept so far."""
    chain = []
    size = {lab: poset.down[poset.index(lab)].bit_count() for lab in labels}
    for a in sorted(labels, key=size.__getitem__):
        if all(poset.leq(b, a) for b in chain):
            chain.append(a)
    return chain


@given(poset_instances())
@settings(max_examples=60, deadline=None)
def test_duality_through_reversal(instance):
    # Each max path equals the negated min of the order-reversed instance
    # built from the definition, under the reversed ordering.
    poset, scale, query = instance
    rp, rs, rq = reversed_instance(poset, scale, query)
    assert solve_max(poset, scale, query).objective == -solve_min(rp, rs, rq).objective
    top = poset.n + 1
    for perm in islice(admissible_orderings(poset, query), 24):
        back = perm[::-1]
        assert conditional_max(poset, scale, query, perm) == -conditional_min(
            rp, rs, rq, back
        )
        ranks = build_witness(poset, scale, query, perm, "max").ranks
        rranks = build_witness(rp, rs, rq, back, "min").ranks
        assert list(ranks) == [top - r for r in rranks]

    chain = _chain_in(poset, query.labels)
    cmin, cmax = chain_bounds(poset, scale, QuerySet(poset, chain))
    rmin, rmax = chain_bounds(rp, rs, QuerySet(rp, chain))
    assert (cmin, cmax) == (-rmax, -rmin)

    try:
        dmax = disjoint_bound(poset, scale, query, "max")
    except PreconditionViolated:
        dmax = None
    try:
        rdmin = disjoint_bound(rp, rs, rq, "min")
    except PreconditionViolated:
        rdmin = None
    assert (dmax is None) == (rdmin is None)
    if dmax is not None:
        assert dmax == -rdmin


def test_no_max_path_builds_the_reversed_poset(tmp_path):
    labels = ["a", "b", "c", "d", "e", "f"]
    covers = [("a", "c"), ("b", "c"), ("c", "d"), ("b", "e"), ("e", "f")]
    poset = build_poset(labels, covers)
    scale = ValueScale([Fraction(v, 3) for v in (-4, -1, 0, 2, 7, 9)])
    query = QuerySet(poset, ["d", "a", "e", "b"])
    rp, rs, rq = reversed_instance(poset, scale, query)
    perms = list(admissible_orderings(poset, query))
    expected = [-conditional_min(rp, rs, rq, perm[::-1]) for perm in perms]
    best = -solve_min(rp, rs, rq).objective
    assert solve_max(poset, scale, query).objective == best
    assert [conditional_max(poset, scale, query, p) for p in perms] == expected
    for perm in perms:
        build_witness(poset, scale, query, perm, "max")
    chain_bounds(poset, scale, QuerySet(poset, ["a", "c", "d"]))
    disjoint_bound(poset, scale, QuerySet(poset, ["d", "f"]), "max")

    argv = ["solve", "--mode", "both", "--witness"]
    docs = {
        "poset": {"labels": labels, "covers": [list(c) for c in covers]},
        "scale": {"values": [str(v) for v in scale.values]},
        "query": {"query": list(query.labels)},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    out = io.StringIO()
    assert main(argv, stdout=out, stderr=io.StringIO()) == 0
    assert Fraction(json.loads(out.getvalue())["max"]["objective"]) == best


@given(poset_instances())
@settings(max_examples=60, deadline=None)
def test_witnesses_are_monotone_bijections(instance):
    poset, scale, query = instance
    for res in (solve_min(poset, scale, query), solve_max(poset, scale, query)):
        assert check_monotone_bijection(poset, scale, res.witness_fn)
        assert res.objective == sum(
            (res.witness_fn.value(lab) for lab in query.labels), Fraction(0)
        )


@given(posets(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_swap_of_adjacent_incomparables_stays_monotone(poset, rnd):
    n = poset.n
    scale = ValueScale(range(1, n + 1))
    remaining = (1 << n) - 1
    order = []
    while remaining:
        minimal = [
            i
            for i in range(n)
            if remaining >> i & 1 and poset.down[i] & remaining == 1 << i
        ]
        pick = rnd.choice(minimal)
        order.append(pick)
        remaining ^= 1 << pick
    ranks = [0] * n
    for pos, e in enumerate(order):
        ranks[e] = pos + 1
    fn = MonotoneBijection(poset, scale, ranks)
    for k in range(n - 1):
        a, b = order[k], order[k + 1]
        try:
            swapped = swap_adjacent(fn, poset.labels[a], poset.labels[b])
        except NotIncomparable:
            continue
        assert check_monotone_bijection(poset, scale, swapped)


@given(poset_instances())
@settings(max_examples=60, deadline=None)
def test_min_witness_prefix_property(instance):
    poset, scale, query = instance
    res = solve_min(poset, scale, query)
    witness = build_witness(poset, scale, query, res.witness_perm, "min")
    mask = 0
    for p in res.witness_perm:
        mask |= poset.down[query.indices[p]]
        size = mask.bit_count()
        filled = 0
        for e in range(poset.n):
            if witness.ranks[e] <= size:
                filled |= 1 << e
        assert filled == mask


@given(poset_instances(max_n=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_adding_query_element_never_decreases_min(instance, rnd):
    poset, _, query = instance
    # positive scale so adding a summand cannot lower the total
    scale = ValueScale(Fraction(i, poset.n) for i in range(1, poset.n + 1))
    before = solve_min(poset, scale, query).objective
    outside = [lab for lab in poset.labels if lab not in query.labels]
    if not outside:
        return
    bigger = QuerySet(poset, list(query.labels) + [rnd.choice(outside)])
    assert solve_min(poset, scale, bigger).objective >= before


def _piece_slopes(samples):
    """M * (R((k+1)/M) - R(k/M)) for k < M: the values the non-increasing
    rearrangement takes on its pieces of width 1/M, read off the tail
    integral R of the extremal process, smallest first."""
    rv = EmpiricalRV.from_samples(samples)
    proc = ExtremalProcess(MonotoneMap1D.identity(), rv)
    m_count = rv.m
    tail = proc.tail_integral(np.arange(m_count + 1) / m_count)
    return rv, proc, m_count * np.diff(tail)


@given(
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=40
    )
)
@settings(max_examples=100, deadline=None)
def test_equimeasurability(samples):
    # Each sample value is taken on a set of measure 1/M.
    rv, _, slopes = _piece_slopes(samples)
    assert np.allclose(slopes, rv.samples, rtol=0, atol=1e-13)


@given(
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=40
    )
)
@settings(max_examples=100, deadline=None)
def test_rearrangement_is_non_increasing_and_equal_mean(samples):
    rv, proc, slopes = _piece_slopes(samples)
    # Read from y = 0 upwards the pieces run from s = 1 down to s = 0.
    assert (np.diff(slopes) >= -1e-13).all()
    assert abs(Fraction(float(proc.tail_integral(1.0))) - rv.mean) <= 1e-15
