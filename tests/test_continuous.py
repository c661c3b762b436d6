import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoext import (
    MonotoneMap1D,
    column_chain_bound,
    eval_extremal_surface,
    grid_experiment,
    integrate,
    line_integral_bound,
    line_integral_on_surface,
    verify_membership,
)
from monoext.cli import load_map
from monoext.continuous import MAX_SURFACE_GRID, _surface_rows, _surface_values
from monoext.errors import InvalidGrid, MembershipViolation, OutOfDomain
from monoext.func1d import _integrate_nodes
from monoext.selftest import _SURFACE_PAIRS

from test_func1d import recursive_simpson

ID = MonotoneMap1D.identity()
SQ = MonotoneMap1D.power(2)


class TestLineIntegralBound:
    def test_identity_constant_path(self):
        assert abs(line_integral_bound(ID, MonotoneMap1D.constant(0.5)) - 0.25) <= 1e-9

    def test_identity_diagonal_path(self):
        assert abs(line_integral_bound(ID, ID) - 1 / 3) <= 1e-9

    def test_square_map_constant_path(self):
        # integral of sqrt(alpha * s) is (2/3) sqrt(alpha)
        got = line_integral_bound(SQ, MonotoneMap1D.constant(0.25))
        assert abs(got - 1 / 3) <= 1e-8

    def test_non_bijection_rejected(self):
        with pytest.raises(OutOfDomain):
            line_integral_bound(MonotoneMap1D.constant(0.5), ID)

    def test_monotone_in_path(self):
        paths = [
            MonotoneMap1D.constant(0.2),
            MonotoneMap1D.constant(0.5),
            MonotoneMap1D.piecewise_linear([(0, 0.5), (1, 0.9)]),
            MonotoneMap1D.constant(0.9),
        ]
        for m in (ID, SQ):
            bounds = [line_integral_bound(m, t) for t in paths]
            assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))


class TestExtremalSurface:
    def test_on_the_path_column(self):
        # constant path alpha: value alpha * y for x <= alpha
        assert abs(
            eval_extremal_surface(ID, MonotoneMap1D.constant(0.5), 0.5, 0.6) - 0.3
        ) <= 1e-12

    def test_right_of_the_path(self):
        got = eval_extremal_surface(ID, MonotoneMap1D.constant(0.5), 0.8, 0.6)
        assert abs(got - ((1 - 0.5) * 0.6 + 0.5)) <= 1e-12

    def test_anchor_point(self):
        for s in (0.0, 0.3, 0.71, 1.0):
            got = eval_extremal_surface(ID, ID, s, s)
            assert abs(got - s * s) <= 1e-9

    def test_domain_check(self):
        with pytest.raises(OutOfDomain):
            eval_extremal_surface(ID, ID, 1.2, 0.5)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_coordinate_rejected(self, x, y):
        with pytest.raises(OutOfDomain):
            eval_extremal_surface(SQ, MonotoneMap1D.constant(0.5), x, y)

    def test_square_map_surface(self):
        t = MonotoneMap1D.constant(0.25)
        got = eval_extremal_surface(SQ, t, 0.2, 0.49)
        assert abs(got - math.sqrt(0.25 * 0.49)) <= 1e-9


class TestSharpness:
    PAIRS = [
        (ID, MonotoneMap1D.constant(0.25)),
        (ID, MonotoneMap1D.constant(0.5)),
        (ID, MonotoneMap1D.constant(0.75)),
        (ID, ID),
        (SQ, MonotoneMap1D.constant(0.25)),
        (SQ, MonotoneMap1D.constant(0.5)),
        (SQ, MonotoneMap1D.constant(0.75)),
        (SQ, ID),
    ]

    @pytest.mark.parametrize("m,t", PAIRS)
    def test_surface_attains_bound(self, m, t):
        a = line_integral_bound(m, t)
        b = line_integral_on_surface(m, t)
        assert abs(a - b) <= 2e-9

    # float.hex of (bound at tol 1e-9, surface integral at 1e-9, bound at
    # 1e-12, surface integral at 1e-12).  The accepted quadrature pieces
    # are added as a recursive refinement adds them, left half plus right
    # half; any other grouping of the same additions would move the last
    # bits.
    PINNED = {
        ("id", "const:0.25"): ("0x1.0000000000000p-3",) * 4,
        ("id", "const:0.5"): ("0x1.0000000000000p-2",) * 4,
        ("id", "const:0.75"): ("0x1.8000000000000p-2",) * 4,
        ("id", "id"): ("0x1.5555555555555p-2",) * 4,
        ("power:2", "const:0.25"): ("0x1.55555554ed686p-2",) * 2
        + ("0x1.5555555555529p-2",) * 2,
        ("power:2", "const:0.5"): ("0x1.e2b7dddf8dafbp-2",) * 2
        + ("0x1.e2b7dddfefa3ep-2",) * 2,
        ("power:2", "const:0.75"): ("0x1.279a7458d82a2p-1",) * 2
        + ("0x1.279a745903308p-1",) * 2,
        ("power:2", "id"): ("0x1.0000000000000p-1",) * 4,
    }

    @pytest.mark.parametrize("m,t", PINNED)
    def test_quadrature_is_bit_stable(self, m, t):
        mm, tt = load_map(m), load_map(t)
        got = tuple(
            f(mm, tt, tol).hex()
            for tol in (1e-9, 1e-12)
            for f in (line_integral_bound, line_integral_on_surface)
        )
        assert got == self.PINNED[m, t]

    def test_constant_path_sharp_value(self):
        got = line_integral_on_surface(ID, MonotoneMap1D.constant(0.5))
        assert abs(got - 0.25) <= 1e-9


class TestMembership:
    def test_constant_path_passes(self):
        report = verify_membership(ID, MonotoneMap1D.constant(0.5), 200)
        assert report.ok
        assert report.max_distribution_deviation <= 0.01

    def test_diagonal_path_passes(self):
        assert verify_membership(ID, ID, 200).ok

    def test_square_map_passes(self):
        assert verify_membership(SQ, MonotoneMap1D.constant(0.25), 200).ok

    def test_corrupted_surface_fails(self):
        # The extremal surface with its lowest and highest cells swapped.
        t = MonotoneMap1D.constant(0.5)
        centers = (np.arange(20) + 0.5) / 20
        corrupted = _surface_rows(ID, t, centers, centers).grid()
        corrupted[0, 0], corrupted[-1, -1] = corrupted[-1, -1], corrupted[0, 0]
        with pytest.raises(MembershipViolation):
            verify_membership(ID, t, 20, surface=corrupted)

    CENTERS = (np.arange(3) + 0.5) / 3

    @pytest.mark.parametrize(
        "surface, message, witness",
        [
            # Decreasing in x at (0, 2) and (1, 0): the first cell in
            # row-major order is reported.
            ([[0.1, 0.2, 0.9], [0.3, 0.4, 0.5], [0.2, 0.6, 0.7]],
             "surface decreases in x", ((0, 2, 0.9), (1, 2, 0.5))),
            # Monotone in x, decreasing in y at (0, 1) and (1, 0).
            ([[0.1, 0.3, 0.2], [0.4, 0.3, 0.5], [0.5, 0.6, 0.7]],
             "surface decreases in y", ((0, 1, 0.3), (0, 2, 0.2))),
            # Decreasing along both axes: x is checked first.
            ([[0.5, 0.1, 0.9], [0.4, 0.6, 0.7], [0.8, 0.9, 1.0]],
             "surface decreases in x", ((0, 0, 0.5), (1, 0, 0.4))),
            # A NaN cell compares false both ways; the step into it is named.
            ([[0.1, 0.2, 0.3], [0.4, math.nan, 0.6], [0.7, 0.8, 0.9]],
             "surface decreases in x", ((0, 1, 0.2), (1, 1, math.nan))),
            ([[math.nan, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]],
             "surface decreases in x", ((0, 0, math.nan), (1, 0, 0.4))),
        ],
        ids=["x", "y", "x-before-y", "nan", "nan-at-origin"],
    )
    def test_decrease_witness(self, surface, message, witness):
        with pytest.raises(MembershipViolation) as e:
            verify_membership(ID, ID, 3, surface=surface)
        assert str(e.value) == message
        c = self.CENTERS
        # assert_equal holds NaN equal to NaN, and is exact otherwise.
        np.testing.assert_equal(e.value.witness,
                                tuple((c[i], c[j], v) for i, j, v in witness))

    def test_level_budget_witness(self):
        # Monotone, but every cell holds 0.5: F(u) jumps from 0 to 1 at 0.5.
        with pytest.raises(MembershipViolation) as e:
            verify_membership(ID, ID, 8, surface=np.full((8, 8), 0.5))
        assert str(e.value) == (
            "distribution deviation 0.5 at u=0.5 exceeds budget 0.25"
        )
        assert e.value.witness == (0.5, 0.5)

    def test_values_outside_the_unit_interval_rejected(self):
        # Still monotone with the corners pushed out of [0, 1]; the first
        # value in row-major order outside the range is named.
        t = MonotoneMap1D.constant(0.5)
        centers = (np.arange(100) + 0.5) / 100
        surface = _surface_rows(ID, t, centers, centers).grid()
        assert verify_membership(ID, t, 100, surface=surface).ok
        surface[0, 0], surface[-1, -1] = -3.0, 7.0
        with pytest.raises(MembershipViolation) as e:
            verify_membership(ID, t, 100, surface=surface)
        assert str(e.value) == "value -3.0 lies outside [0, 1]"
        assert e.value.witness == (centers[0], centers[0], -3.0)
        surface[0, 0] = 0.0
        with pytest.raises(MembershipViolation) as e:
            verify_membership(ID, t, 100, surface=surface)
        assert str(e.value) == "value 7.0 lies outside [0, 1]"
        assert e.value.witness == (centers[-1], centers[-1], 7.0)

    def test_grid_too_small(self):
        with pytest.raises(InvalidGrid):
            verify_membership(ID, ID, 1)

    def test_grid_too_large(self):
        # Refused before any grid x grid array is allocated.
        with pytest.raises(InvalidGrid):
            verify_membership(ID, ID, MAX_SURFACE_GRID + 1)

    def test_precomputed_surface_and_first_worst_level(self):
        # Levels 0.25 and 0.75 tie at deviation 0.25; the first is reported.
        surface = [[0.25, 0.25], [0.75, 0.75]]
        report = verify_membership(ID, ID, 2, surface=surface, u_count=5)
        assert (report.max_distribution_deviation, report.worst_u) == (0.25, 0.25)
        with pytest.raises(InvalidGrid):
            verify_membership(ID, ID, 3, surface=surface)


class TestLowerBoundProperty:
    def test_random_members_dominate_bound(self):
        # members built as maxima of extremal surfaces for random staircase
        # paths; each summand has exact level measure, so the max stays in
        # the class, and its line integral must dominate the bound.
        rng = random.Random(42)
        t_eval = MonotoneMap1D.piecewise_linear([(0, 0.2), (0.5, 0.5), (1, 0.8)])
        bound = line_integral_bound(ID, t_eval)
        for trial in range(20):
            surfaces = []
            for _ in range(rng.randint(1, 3)):
                ys = sorted(round(rng.uniform(0, 1), 3) for _ in range(2))
                pts = [(0.0, ys[0]), (1.0, ys[1])]
                if ys[0] == ys[1]:
                    path = MonotoneMap1D.constant(ys[0])
                else:
                    path = MonotoneMap1D.piecewise_linear(pts)
                surfaces.append(path)
                assert verify_membership(ID, path, 60).ok

            def member(x, y, paths=tuple(surfaces)):
                return max(eval_extremal_surface(ID, p, x, y) for p in paths)

            integral = integrate(
                lambda s: member(t_eval.eval(s), s), 0, 1, 1e-7
            )
            assert integral >= bound - 1e-6


@pytest.mark.parametrize("m, t", _SURFACE_PAIRS)
@pytest.mark.parametrize("on_surface", [False, True])
def test_batched_line_integrals_match_recursive_reference(m, t, on_surface):
    """Array integrands through the batched engine against scalar ones
    through the recursive rule: same nodes, same value within 4 ulp."""
    if on_surface:
        def scalar(s):
            return eval_extremal_surface(m, t, t.eval(s), s)

        def array(s):
            return _surface_values(m, t, t.eval_many(s), s)
    else:
        def scalar(s):
            return float(m.inverse(t.eval(s) * s))

        def array(s):
            return m.inverse_many(t.eval_many(s) * s)

    nodes = 0

    def counted(s):
        nonlocal nodes
        nodes += s.size
        return array(s)

    for tol in (1e-9, 1e-12):
        want, want_nodes = recursive_simpson(scalar, 0.0, 1.0, tol)
        nodes = 0
        got = _integrate_nodes(counted, 0.0, 1.0, tol)
        assert nodes == want_nodes
        assert abs(got - want) <= 4 * math.ulp(want)
    integral = line_integral_on_surface if on_surface else line_integral_bound
    assert integral(m, t, 1e-12) == got


def test_surface_values_broadcast_like_points():
    xs = np.linspace(0.0, 1.0, 9)
    ys = np.linspace(0.0, 1.0, 7)
    for m in (ID, SQ):
        for t in (ID, MonotoneMap1D.constant(0.5),
                  MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.3), (0.6, 0.3), (1, 1)])):
            grid = _surface_values(m, t, xs[:, None], ys[None, :])
            assert grid.shape == (9, 7)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert grid[i, j] == eval_extremal_surface(m, t, x, y)
            assert (_surface_values(m, t, xs, ys[3]) == grid[:, 3]).all()


_EXPONENTS = (0.3, 0.5, 1.5, 2.0, 3.7)


@st.composite
def _maps(draw, bijection: bool):
    """The identity, a power map or a pwl map; unless ``bijection``, the
    pwl ordinates come from a coarse set, so flat pieces and t(0) > 0 are
    common."""
    kind = draw(st.sampled_from(["id", "power", "pwl"]))
    if kind == "id":
        return ID
    if kind == "power":
        return MonotoneMap1D.power(draw(st.sampled_from(_EXPONENTS)))
    k = draw(st.integers(0, 3))
    xs = sorted(draw(st.lists(st.integers(1, 999), min_size=k, max_size=k, unique=True)))
    if bijection:
        inner = draw(st.lists(st.integers(1, 999), min_size=k, max_size=k, unique=True))
        ys = [0, *sorted(inner), 1000]
    else:
        ys = sorted(draw(st.lists(st.integers(0, 8), min_size=k + 2, max_size=k + 2)))
        ys = [125 * y for y in ys]
    return MonotoneMap1D.piecewise_linear(
        [(x / 1000, y / 1000) for x, y in zip([0, *xs, 1000], ys)])


@given(_maps(bijection=True), _maps(bijection=False), st.integers(2, 30))
@settings(max_examples=80, deadline=None)
def test_surface_grid_equals_points_bit_for_bit(m, t, n):
    """The grid, built from once-per-abscissa and once-per-ordinate map
    values, has the bits of the one-point evaluator at every cell."""
    xs = (np.arange(n) + 0.5) / n
    grid = _surface_rows(m, t, xs, xs).grid()
    points = np.array([[eval_extremal_surface(m, t, x, y) for y in xs.tolist()]
                       for x in xs.tolist()])
    assert np.array_equal(grid.view(np.int64), points.view(np.int64))


@pytest.mark.parametrize("m, t", [
    (ID, ID),
    (SQ, MonotoneMap1D.constant(0.5)),
    (MonotoneMap1D.power(0.5), MonotoneMap1D.piecewise_linear([(0, 0.2), (0.4, 0.2), (1, 0.7)])),
])
def test_grid_evaluates_maps_per_abscissa_and_ordinate(monkeypatch, m, t):
    """On an n x n grid the maps receive O(n) points, not n**2."""
    n = 300
    points = 0
    for name in ("eval_many", "inverse_many"):
        def counted(self, xs, _method=getattr(MonotoneMap1D, name)):
            nonlocal points
            points += np.size(xs)
            return _method(self, xs)

        monkeypatch.setattr(MonotoneMap1D, name, counted)
    xs = (np.arange(n) + 0.5) / n
    _surface_rows(m, t, xs, xs).grid()
    assert 0 < points <= 6 * n + 1


class TestGridExperiment:
    def test_small_grid_bound(self):
        rec = grid_experiment(0.5, 2, 2)
        assert rec.column == 1
        assert rec.discrete_bound == Fraction(3, 4)

    def test_discrete_sum_near_target(self):
        for n in (100, 1000):
            rec = grid_experiment(0.5, n, 10)
            assert abs(float(rec.discrete_sum) - 0.25) <= 0.02
            assert rec.discrete_sum == Fraction(rec.column * (n + 1), 2 * n * n)
            assert rec.discrete_sum == rec.discrete_bound / rec.n

    def test_full_width_column(self):
        for n in (2, 10, 50):
            rec = grid_experiment(1.0, n, n)
            assert rec.discrete_bound == Fraction(n * (n + 1), 2 * n)

    def test_validation(self):
        with pytest.raises(InvalidGrid):
            grid_experiment(0.0, 10, 2)
        with pytest.raises(InvalidGrid):
            grid_experiment(0.5, 1, 1)
        with pytest.raises(InvalidGrid):
            grid_experiment(0.5, 10, 3)

    @pytest.mark.parametrize("n, k", [(10, 2.5), (10, 2.0), (10.0, 2), ("10", 2), (10, True)])
    def test_sizes_must_be_integers(self, n, k):
        # A float k can divide n, and would be echoed in the record.
        with pytest.raises(InvalidGrid, match="must be integers"):
            grid_experiment(0.5, n, k)

    def test_column_ties_to_chain_closed_form(self):
        for n in (5, 12):
            rec = grid_experiment(0.4, n, 1)
            assert column_chain_bound(n, rec.column) == rec.discrete_bound

    def test_column_chain_reads_few_scale_values(self, monkeypatch):
        """The chain closed form reads O(n) of the n^2 scale values: the
        held numerators are read one by one, and no value is built."""
        from monoext import discretize
        from monoext.values import _Ratios

        reads = []

        def whole(self, *args):
            raise AssertionError("the whole scale was read")

        class Counted:
            __iter__ = whole

            def __init__(self, nums):
                self.nums = nums

            def __len__(self):
                return len(self.nums)

            def __getitem__(self, k):
                if isinstance(k, slice):
                    raise AssertionError("a slice of the scale was read")
                reads.append(k)
                return self.nums[k]

        for name in ("_at", "ratios"):
            monkeypatch.setattr(_Ratios, name, whole)
        scale_from_m = discretize.scale_from_m

        def counted_scale(m, n):
            scale = scale_from_m(m, n)
            scale.values.nums = Counted(scale.values.nums)
            return scale

        monkeypatch.setattr(discretize, "scale_from_m", counted_scale)
        n = 160
        assert column_chain_bound(n, 7) == Fraction(7 * (n + 1), 2 * n)
        assert 0 < len(reads) <= 2 * n

    def test_error_scales_like_one_over_n(self):
        errs = [float(grid_experiment(0.5, n, 1).abs_error) for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.25 / 40 + 1e-12
