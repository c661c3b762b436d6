import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import pytest

import monoext
from monoext import (
    QuerySet,
    ValueScale,
    brute_min_max,
    build_poset,
    conditional_min,
    grid_poset,
)
from monoext.errors import (
    CycleError,
    DuplicateLabelError,
    InvalidGrid,
    InvalidPermutation,
    UnknownElement,
)
from monoext.cli import main
from monoext.poset import _GridLabels, _GridSets, _grid_poset, _query_covers
from reference import admissible_orderings, linear_extensions, reversed_instance


def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


def antichain(k):
    return build_poset(list(range(k)), [])


def below(poset, mask):
    """The labels of the elements whose bits are set in ``mask``."""
    return {lab for i, lab in enumerate(poset.labels) if mask >> i & 1}


def reverse(poset):
    return reversed_instance(poset, ValueScale(range(poset.n)), QuerySet(poset, []))[0]


def extension_count(poset):
    """The number of linear extensions, as the oracle counts them."""
    scale = ValueScale(range(poset.n))
    return brute_min_max(poset, scale, QuerySet(poset, poset.labels[:1]))[2]


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
        assert below(p, p.down[p.index("b")]) == {"a", "b"}
        assert below(p, p.up[p.index("b")]) == {"b", "c"}

    def test_grid_top_down_set_is_everything(self):
        p = grid_poset(2, "product")
        assert p.down[p.index((2, 2))].bit_count() == 4

    def test_rows_down_set(self):
        p = grid_poset(2, "rows")
        assert below(p, p.down[p.index((2, 1))]) == {(1, 1), (2, 1)}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            chain3().leq("a", "z")

    def test_reflexive_and_dual(self):
        p = build_poset(range(6), [(0, 2), (1, 2), (2, 3), (1, 4)])
        for i, a in enumerate(p.labels):
            assert p.leq(a, a) and p.down[i] >> i & 1 and p.up[i] >> i & 1
            for j, b in enumerate(p.labels):
                assert bool(p.down[i] >> j & 1) == bool(p.up[j] >> i & 1) == p.leq(b, a)


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
        perms = list(admissible_orderings(p, q))
        assert perms == [(0, 1, 2)]

    def test_antichain_has_all_orderings(self):
        p = antichain(3)
        q = QuerySet(p, [0, 1, 2])
        assert len(list(admissible_orderings(p, q))) == 6

    def test_grid_antichain_pair(self):
        p = grid_poset(2, "product")
        q = QuerySet(p, [(1, 2), (2, 1)])
        perms = list(admissible_orderings(p, q))
        assert perms == [(0, 1), (1, 0)]

    def test_orderings_respect_strict_order(self):
        # The solver accepts exactly the orderings of the reference.
        p = build_poset(range(5), [(0, 1), (0, 2), (3, 4)])
        q = QuerySet(p, [1, 0, 4, 3])
        scale = ValueScale(range(5))
        admissible = set(admissible_orderings(p, q))
        assert len(admissible) == 6
        for perm in itertools.permutations(range(4)):
            if perm in admissible:
                conditional_min(p, scale, q, perm)
            else:
                with pytest.raises(InvalidPermutation):
                    conditional_min(p, scale, q, perm)


class TestLinearExtensions:
    def test_chain_has_one(self):
        assert extension_count(chain3()) == len(list(linear_extensions(chain3()))) == 1

    def test_antichain_factorial(self):
        for k in range(1, 6):
            assert extension_count(antichain(k)) == math.factorial(k)

    def test_2x2_grid_has_two(self):
        p = grid_poset(2, "product")
        exts = list(linear_extensions(p))
        assert extension_count(p) == len(exts) == 2
        # labels order: (1,1),(1,2),(2,1),(2,2) -> indices 0,1,2,3
        assert exts == [(0, 1, 2, 3), (0, 2, 1, 3)]

    def test_extension_order_is_lexicographic(self):
        p = build_poset(range(5), [(3, 0), (1, 4)])
        exts = list(linear_extensions(p))
        assert exts == sorted(exts) and len(exts) == 30


class TestReversal:
    def test_double_reversal_is_identity(self):
        p = build_poset(range(5), [(0, 1), (1, 2), (0, 3)])
        assert reverse(reverse(p)) == p

    def test_reversed_chain(self):
        p = chain3()
        r = reverse(p)
        assert r.leq("c", "a") and not r.leq("a", "c")
        assert list(r.down) == list(p.up) and list(r.up) == list(p.down)

    def test_admissible_count_matches_subposet_extensions(self):
        p = build_poset(range(6), [(0, 1), (1, 2), (3, 4), (0, 5)])
        q = QuerySet(p, [0, 2, 3, 5])
        count = len(list(admissible_orderings(p, q)))
        sub_covers = [
            (a, b)
            for a in q.labels
            for b in q.labels
            if a != b and p.leq(a, b)
        ]
        sub = build_poset(q.labels, sub_covers)
        assert count == extension_count(sub) == len(list(linear_extensions(sub)))


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


def built_grid(nx, ny, kind):
    """The grid of ``_grid_poset``, built by ``build_poset`` from cover
    pairs written out from the definition."""
    labels = [(i, j) for i in range(1, nx + 1) for j in range(1, ny + 1)]
    covers = []
    for i, j in labels:
        if i < nx:
            covers.append(((i, j), (i + 1, j)))
        if kind == "product" and j < ny:
            covers.append(((i, j), (i, j + 1)))
    return build_poset(labels, covers)


SMALL_GRIDS = [(nx, ny) for nx in range(1, 8) for ny in range(1, 8)]


class TestGridSets:
    """Grid posets compute each down-set and up-set on first use; every
    mask must equal the closure that ``build_poset`` computes."""

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_masks_and_covers_equal_the_closure(self, kind):
        for nx, ny in SMALL_GRIDS:
            g = _grid_poset(nx, ny, kind)
            b = built_grid(nx, ny, kind)
            assert list(g.down) == list(b.down), (nx, ny)
            assert list(g.up) == list(b.up), (nx, ny)
            assert g.covers == b.covers, (nx, ny)

    @pytest.mark.parametrize("kind", ["product", "rows"])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_grid_equals_its_built_closure_and_hashes_alike(self, n, kind):
        g = grid_poset(n, kind)
        b = built_grid(n, n, kind)
        assert g == b and b == g
        assert hash(g) == hash(b)

    def test_equal_grids_compare_without_reading_a_mask(self):
        a, b = grid_poset(40, "product"), grid_poset(40, "product")
        assert a == b and hash(a) == hash(b)
        assert not a.down._cache and not b.down._cache
        # Another order tells itself apart at its first masks.
        assert a != grid_poset(40, "rows")
        assert len(a.down._cache) <= 2

    def test_sequence_equality_is_mask_equality(self):
        # Different arguments can give equal masks: an nx x 1 grid is one
        # chain under both orders, and a 1 x ny rows grid is an antichain.
        seqs = [
            _GridSets(nx, ny, kind, direction)
            for nx in range(1, 4)
            for ny in range(1, 4)
            for kind in ("product", "rows")
            for direction in ("down", "up")
        ]
        for a in seqs:
            for b in seqs:
                assert (a == b) == (list(a) == list(b)), (a.key, b.key)
                assert (a == tuple(b)) == (tuple(a) == tuple(b))
                assert (tuple(a) == b) == (tuple(a) == tuple(b))

    @pytest.mark.parametrize("kind", ["product", "rows"])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_first_holder_is_the_first_set_holding_each_bit(self, kind, direction):
        rng = random.Random(19)
        for nx in range(1, 5):
            for ny in range(1, 5):
                sets = _GridSets(nx, ny, kind, direction)
                n = nx * ny
                readings = [[]] + [[e] for e in range(n)]
                readings += [list(pair) for pair in itertools.permutations(range(n), 2)]
                readings += [rng.sample(range(n), rng.randint(3, n)) for _ in range(20)
                             if n >= 3]
                for reading in readings:
                    want = [next((k for k, q in enumerate(reading) if sets[q] >> e & 1),
                                 len(reading)) for e in range(n)]
                    assert sets.first_holder(reading).tolist() == want, (
                        nx, ny, reading)

    @pytest.mark.parametrize("kind", ["product", "rows"])
    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_size_and_holds_read_the_masks(self, kind, direction):
        # The arithmetic answers are those of the masks, on grids that are
        # not square too.
        for nx in range(1, 5):
            for ny in range(1, 5):
                sets = _GridSets(nx, ny, kind, direction)
                masks = list(sets)
                for e in range(nx * ny):
                    assert sets.size(e) == masks[e].bit_count(), (nx, ny, e)
                    for f in range(nx * ny):
                        assert sets.holds(e, f) == bool(masks[e] >> f & 1), (nx, ny, e, f)

    def test_indexing(self):
        g = grid_poset(3, "product")
        assert len(g.down) == 9
        assert g.down[-1] == g.down[8] == (1 << 9) - 1
        with pytest.raises(IndexError):
            g.down[9]


def _index_outcome(poset, label):
    try:
        return poset.index(label)
    except UnknownElement as e:
        return str(e)


class TestGridViews:
    """A grid poset's labels, covers and index are computed from (i, j)
    arithmetic; they must read as the tuples and dict of ``build_poset``."""

    @pytest.mark.parametrize("kind", ["product", "rows"])
    def test_labels_and_covers_read_as_the_built_tuples(self, kind):
        for nx, ny in SMALL_GRIDS:
            g, b = _grid_poset(nx, ny, kind), built_grid(nx, ny, kind)
            for view, built in ((g.labels, b.labels), (g.covers, b.covers)):
                assert view == built and built == view, (nx, ny)
                assert len(view) == len(built)
                every = range(-len(built), len(built))
                assert [view[i] for i in every] == [built[i] for i in every]
                for cut in (slice(None), slice(1, -1, 2), slice(None, None, -1),
                            slice(-3, None), slice(5, 2)):
                    assert view[cut] == built[cut]
                assert tuple(reversed(view)) == built[::-1]
                with pytest.raises(IndexError):
                    view[len(built)]
                with pytest.raises(IndexError):
                    view[-len(built) - 1]

    def test_views_of_other_grids_differ(self):
        assert _grid_poset(2, 3, "product").labels != _grid_poset(3, 2, "product").labels
        assert grid_poset(3, "product").covers != grid_poset(3, "rows").covers
        assert grid_poset(3, "product").labels == grid_poset(3, "rows").labels
        assert grid_poset(3, "product").labels != built_grid(3, 2, "product").labels

    def test_random_sample_takes_the_labels(self):
        g, b = grid_poset(6, "product"), built_grid(6, 6, "product")
        for seed in range(5):
            assert (random.Random(seed).sample(g.labels, 7)
                    == random.Random(seed).sample(b.labels, 7))

    def test_index_accepts_what_the_dict_accepts(self):
        g, b = _grid_poset(3, 4, "product"), built_grid(3, 4, "product")
        point = namedtuple("point", "i j")
        probes = [
            (1, 2), (3, 4), (1.0, 2.0), (True, 2), (2, True), point(2, 3),
            (Fraction(2), 3), (1 + 0j, 2), (0, 2), (4, 1), (1, 5), (-1, 2),
            (10**30, 1), (1, 2, 3), (1,), (), (1.5, 2), ("1", 2), (None, 1),
            (float("nan"), 1), (float("inf"), 1), ((1, 2), 1), "a", 5, None,
        ]
        for label in probes:
            assert _index_outcome(g, label) == _index_outcome(b, label), label
        assert g.index((True, 2.0)) == 1
        assert _index_outcome(g, (1, 2, 3)) == "(1, 2, 3) is not an element of the poset"
        for label in ([1, 2], ([1], 2)):
            with pytest.raises(TypeError):
                b.index(label)
            with pytest.raises(TypeError):
                g.index(label)

    def test_equal_posets_hash_alike_without_reading_a_label(self, monkeypatch):
        b = built_grid(30, 30, "rows")
        monkeypatch.setattr(_GridLabels, "__iter__", None)
        g = grid_poset(30, "rows")
        assert hash(g) == hash(b) == hash(grid_poset(30, "rows"))
        assert g == grid_poset(30, "rows")

    def test_column_chain_bound_builds_no_label_or_cover(self):
        # Building the 160 x 160 grid's label tuples, cover pairs and index
        # dict took the traced peak of this call to 10 MB; the 160 down-sets
        # and up-sets it reads take under 1 MB.
        monoext.column_chain_bound(20, 3)  # first-call set-up out of the trace
        tracemalloc.start()
        try:
            assert monoext.column_chain_bound(160, 80) == Fraction(80 * 161, 320)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21


@pytest.fixture
def grid_sets(monkeypatch):
    """Records every grid's mask sequences, and makes reading all the masks
    of one (iterating it) an error."""
    made = []
    init = _GridSets.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    def refuse(self):
        raise AssertionError(f"grid sets {self.key} read in full")

    monkeypatch.setattr(_GridSets, "__init__", record)
    monkeypatch.setattr(_GridSets, "__iter__", refuse)
    return made


def _write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestNoPathForcesTheClosure:
    """The solver, witness and closed forms read a grid's masks only at the
    query elements: at most k per direction for a k-element query."""

    @pytest.mark.parametrize("n, kind, query, chain", [
        (60, "product", [[31, j] for j in range(1, 61)], True),
        (60, "product", [[28 + i, 35 - i] for i in range(8)], False),
        (60, "rows", [[3 + 8 * r, 3 + 10 * r] for r in range(6)], False),
    ], ids=["column", "antichain", "rows-disjoint"])
    def test_solve_both_with_witness(self, tmp_path, grid_sets, n, kind, query, chain):
        argv = [
            "solve", "--mode", "both", "--witness",
            "--poset", _write(tmp_path, "poset", {"grid": {"n": n, "order": kind}}),
            "--scale", _write(tmp_path, "scale", {"from_m": {"m": "id", "n": n}}),
            "--query", _write(tmp_path, "query", {"query": query}),
        ]
        out = io.StringIO()
        assert main(argv, stdout=out) == 0
        assert "min" in json.loads(out.getvalue())
        assert len(grid_sets) == 2
        for seq in grid_sets:
            if chain:
                # A chain is read off its set sizes, which a grid computes
                # without a mask.
                assert not seq._cache
            else:
                assert 0 < len(seq._cache) <= len(query)

    def test_closed_forms(self, grid_sets):
        n = 60
        scale = monoext.scale_from_m(monoext.MonotoneMap1D.identity(), n)
        product = grid_poset(n, "product")
        column = QuerySet(product, [(17, j) for j in range(1, n + 1)])
        mn, mx = monoext.chain_bounds(product, scale, column)
        assert mn < mx
        rows = grid_poset(n, "rows")
        query = QuerySet(rows, [(5 + r, 1 + 7 * r) for r in range(8)])
        monoext.disjoint_bound(rows, scale, query, "min")
        monoext.disjoint_bound(rows, scale, query, "max")
        assert len(grid_sets) == 4
        for seq in grid_sets[:2]:
            assert len(seq._cache) <= n
        for seq in grid_sets[2:]:
            assert len(seq._cache) <= 8

    def test_column_chain_bound_at_160(self, grid_sets):
        assert monoext.column_chain_bound(160, 40) == Fraction(40 * 161, 320)
        assert len(grid_sets) == 2
        assert all(len(seq._cache) <= 160 for seq in grid_sets)

    def test_rows_grid_cross_check(self, grid_sets):
        n = 50
        d = monoext.rows_grid_cross_check(
            monoext.MonotoneMap1D.identity(), n, range(1, n + 1))
        assert d["bound"] == d["closed_form"]
        assert len(grid_sets) == 2
        assert all(len(seq._cache) <= n for seq in grid_sets)


def test_column_chain_bound_160_stays_small():
    """The 160 x 160 grid's closure alone held about 190 MB.

    The child reports the peak resident size of its own image, VmHWM:
    its ``ru_maxrss`` would start from this test process's size, which
    Linux carries over fork and exec.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(monoext.__file__)))
    code = (
        "import monoext\n"
        "monoext.column_chain_bound(160, 80)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) < 100 * 1024  # in kB
