import decimal
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monoext import (
    EmpiricalRV,
    MonotoneMap1D,
    expectation_at_tau,
    expectation_bound,
    fubini_check,
    line_integral_bound,
    make_extremal_process,
    rows_grid_cross_check,
    simplified_bound,
    verify_process_membership,
)
from monoext import ExtremalProcess, brute_min_max, process
from monoext.continuous import MAX_SURFACE_GRID
from monoext.errors import (
    InvalidGrid,
    MembershipViolation,
    OutOfDomain,
    ValidationError,
)
from monoext.func1d import _float_ratios

from reference import eval_extremal_process
from test_func1d import exact_inverse_integral, recursive_simpson

ID = MonotoneMap1D.identity()
SQ = MonotoneMap1D.power(2)
PWL = MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.5), (0.6, 0.7), (1, 1)])
UNIFORM = EmpiricalRV.uniform_grid(10**4)


class TestExpectationBound:
    def test_constant_time(self):
        got = expectation_bound(ID, EmpiricalRV.constant(0.5, 3))
        assert abs(got - 0.25) <= 1e-9

    def test_uniform_identity(self):
        assert abs(expectation_bound(ID, UNIFORM) - 1 / 6) <= 2e-3

    def test_uniform_square_map(self):
        got = expectation_bound(SQ, UNIFORM)
        assert abs(got - 1 / (2 * math.sqrt(2))) <= 2e-3

    def test_matches_constant_path_bound(self):
        for alpha in (0.25, 0.5, 0.75):
            for m in (ID, SQ):
                tau = EmpiricalRV.constant(alpha, 5)
                gap = abs(
                    expectation_bound(m, tau)
                    - line_integral_bound(m, MonotoneMap1D.constant(alpha))
                )
                assert gap <= 1e-8

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            expectation_bound(MonotoneMap1D.constant(0.3), UNIFORM)

    @pytest.mark.parametrize("m", [ID, SQ, MonotoneMap1D.power(0.5), PWL])
    @pytest.mark.parametrize("tau", [
        EmpiricalRV.uniform_grid(7),
        EmpiricalRV.two_point(0.2, 0.8, 6),
        EmpiricalRV.from_samples([0.1, 0.4, 0.4, 0.4, 0.9]),
    ])
    def test_matches_recursive_reference(self, monkeypatch, m, tau):
        # The recursive adaptive Simpson rule over an exact rational tail
        # integral, against quadrature mode, which integrates the bound's
        # integrand (the lower branch) with the batched engine: it must
        # visit as many nodes.
        m_count = tau.m
        dsc = sorted((Fraction(v) for v in tau.samples), reverse=True)

        def reference(y):
            p = 1 - Fraction(y)
            total = sum(v * max(Fraction(0), min(Fraction(k + 1, m_count) - p,
                                                 Fraction(1, m_count)))
                        for k, v in enumerate(dsc))
            return m.inverse(float(total))

        engine = process._integrate_nodes
        nodes = 0

        def counted(g_many, a, b, tol):
            def g(y):
                nonlocal nodes
                nodes += y.size
                return g_many(y)
            return engine(g, a, b, tol)

        monkeypatch.setattr(process, "_integrate_nodes", counted)
        want, want_nodes = recursive_simpson(reference, 0.0, 1.0, 1e-9)
        got, _ = expectation_at_tau(make_extremal_process(m, tau), "quadrature")
        assert nodes == want_nodes
        assert abs(got - want) <= 4 * math.ulp(want)


    @pytest.mark.parametrize("m", [ID, PWL], ids=["id", "pwl"])
    @pytest.mark.parametrize("xs", [
        [0.1, 0.4, 0.4, 0.4, 0.9],
        [(i + 0.5) / 9 for i in range(9)],
        [0.2] * 3 + [0.8] * 3,
        [0.0, 0.0, 0.3, 0.6, 1.0, 1.0],
        [0.05, 1 / 3, 0.7],
    ], ids=["ties", "grid", "two-point", "ends", "thirds"])
    def test_matches_exact_cell_means(self, m, xs):
        # Per rank cell, in exact rationals: R runs linearly from R_k to
        # R_{k+1}, so the cell mean of m^{-1}(R) is the difference of the
        # antiderivative over the width, or m^{-1}(R_k) on a cell of width 0.
        tau = EmpiricalRV.from_samples(xs)
        m_count = tau.m
        edges = [Fraction(0)]
        for v in tau.samples:
            edges.append(edges[-1] + Fraction(v) / m_count)
        total = Fraction(0)
        for lo, hi in zip(edges, edges[1:]):
            if hi == lo:
                total += exact_inverse(m, lo)
            else:
                g = exact_inverse_integral
                total += (g(m, hi) - g(m, lo)) / (hi - lo)
        want = total / m_count
        assert abs(Fraction(expectation_bound(m, tau)) - want) <= 1e-15


def exact_inverse(m, y):
    """m^{-1}(y) in exact rationals, for the identity and pwl maps."""
    if m.kind == "identity":
        return y
    pts = [(Fraction(a), Fraction(b)) for a, b in m.points]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y <= y1:
            return x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    raise AssertionError(y)


class TestDegenerateTau:
    """Cells of width 0 and cells too narrow for a difference of
    antiderivatives, where the cell mean is m^{-1} at the midpoint."""

    MAPS = [ID, SQ, MonotoneMap1D.power(3), PWL]

    @pytest.mark.parametrize("m", MAPS, ids=["id", "power2", "power3", "pwl"])
    @pytest.mark.parametrize("xs", [[0.0] * 7, [0.0, 0.0, 0.0, 5e-324]],
                             ids=["zeros", "zeros-then-subnormal"])
    def test_zero_time(self, m, xs):
        proc = make_extremal_process(m, EmpiricalRV.from_samples(xs))
        assert expectation_bound(m, proc.tau) == 0.0
        assert process._cell_means(proc).tolist() == [0.0] * len(xs)
        assert expectation_at_tau(proc, "montecarlo", trials=100, seed=3) == (0.0, 0.0)

    @pytest.mark.parametrize("m", MAPS, ids=["id", "power2", "power3", "pwl"])
    def test_zeros_then_one(self, m):
        # Only the last cell has width: R runs from 0 to 1/M on it, so the
        # bound is G(1/M) exactly.
        m_count = 8
        tau = EmpiricalRV.from_samples([0.0] * (m_count - 1) + [1.0])
        got = expectation_bound(m, tau)
        want = float(m.inverse_integral_many(1.0 / m_count))
        assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("m", MAPS, ids=["id", "power2", "power3", "pwl"])
    def test_narrow_cells_at_large_rank(self, m):
        # A constant time alpha over 10^6 samples: cell k has width alpha/M
        # at R = k alpha / M, narrower than process._CELL_SHARE allows from
        # k of about 10^5 on.  Each cell mean must hold to 1e-10 of the
        # mean over its own (float) ends, worked out in 40 digits, on both
        # sides of the switch.
        alpha, m_count = 0.6, 10**6
        proc = make_extremal_process(m, EmpiricalRV.constant(alpha, m_count))
        means = process._cell_means(proc)
        edges = proc._csum / m_count
        ends = m.inverse_many(edges)
        assert (ends[:-1] <= means).all() and (means <= ends[1:]).all()
        narrow = np.diff(edges) < process._CELL_SHARE * edges[1:]
        assert narrow[-1] and not narrow[: m_count // 100].any()
        for k in [*range(0, m_count, 49999), m_count - 1]:
            lo, hi = Fraction(edges[k]), Fraction(edges[k + 1])
            want = (precise_inverse_integral(m, hi)
                    - precise_inverse_integral(m, lo)) / (hi - lo)
            assert abs(Fraction(means[k]) - want) <= 1e-10 * want, k
        # The tail sums drift by about M float steps from k alpha / M.
        want = float(m.inverse_integral_many(alpha)) / alpha
        assert abs(expectation_bound(m, proc.tau) - want) <= m_count * 2**-52 * alpha


def precise_inverse_integral(m, y: Fraction) -> Fraction:
    """G(y) exactly for the identity and pwl maps, to 40 digits for a
    power map."""
    if m.kind != "power":
        return exact_inverse_integral(m, y)
    with decimal.localcontext(decimal.Context(prec=40)):
        q = 1 + 1 / decimal.Decimal(m.p)
        d = decimal.Decimal(y.numerator) / decimal.Decimal(y.denominator)
        return Fraction(d**q / q)


class TestSimplifiedBound:
    def test_constant(self):
        # exact over the binary value of 0.6; compare at float precision
        got = simplified_bound(EmpiricalRV.constant(0.6, 4))
        assert abs(float(got) - 0.3) <= 1e-15

    def test_constant_exact_rational_input(self):
        rv = EmpiricalRV.constant(0.5, 4)
        assert simplified_bound(rv) == Fraction(1, 4)

    def test_uniform(self):
        assert abs(float(simplified_bound(UNIFORM)) - 1 / 6) <= 2e-3

    def test_two_point_closed_form(self):
        got = simplified_bound(EmpiricalRV.two_point(0.2, 0.8))
        assert abs(float(got) - 0.175) <= 1e-15  # 0.1 + 0.075


_SPECIAL_SAMPLES = (0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 0.1)


@given(st.lists(st.one_of(st.sampled_from(_SPECIAL_SAMPLES), st.floats(0.0, 1.0)),
                min_size=1, max_size=40),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_simplified_bound_matches_per_term_sum(xs, repeat):
    """The integer-sum closed form is the same reduced Fraction as a
    per-term Fraction loop, ties and subnormals included."""
    tau = EmpiricalRV.from_samples(xs + xs[:repeat])
    m_count = tau.m
    want = Fraction(0)
    for i, v in enumerate(sorted(tau.samples, reverse=True)):
        want += Fraction(v) * Fraction(2 * i + 1, 2 * m_count * m_count)
    got = simplified_bound(tau)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def _many_binades():
    """Samples over every binade of the doubles in [0, 1], 0.0, 1.0 and the
    least subnormal included."""
    return EmpiricalRV.from_samples(
        [0.0, 1.0, 5e-324] + [math.ldexp(1.0 + k / 7, -k) for k in range(1, 1075)]
    )


@pytest.mark.parametrize("tau", [
    EmpiricalRV.uniform_grid(10**4),
    EmpiricalRV.two_point(0.2, 0.8, 10**4),
    _many_binades(),
], ids=["uniform", "two-point", "many-binades"])
def test_integer_form_from_binary_exponents(tau):
    """The integer form read off the samples' binary exponents equals the
    one brought to the lcm of the samples' own ratios, numerators and
    denominator alike, and the bound equals the per-term Fraction sum."""
    ratios = [v.as_integer_ratio() for v in reversed(tau.samples)]
    den = math.lcm(*{d for _, d in ratios})
    want = [n * (den // d) for n, d in ratios]
    nums, got_den = _float_ratios(np.array(tau.samples)[::-1])
    assert got_den == den and nums == want
    assert all(type(n) is int for n in nums)
    m_count = tau.m
    exact = sum(Fraction(n, den) * (2 * i + 1) for i, n in enumerate(want))
    assert simplified_bound(tau) == exact / (2 * m_count * m_count)


class TestFubini:
    def test_uniform(self):
        assert fubini_check(UNIFORM) <= 2e-9

    def test_constant(self):
        assert fubini_check(EmpiricalRV.constant(0.4, 5)) <= 2e-9

    def test_two_point(self):
        assert fubini_check(EmpiricalRV.two_point(0.2, 0.8, 100)) <= 2e-9


class TestRearrangement:
    """The non-increasing rearrangement r of tau, read through the tail
    integral R(y) of r over [1 - y, 1]."""

    def test_constant(self):
        proc = ExtremalProcess(ID, EmpiricalRV.constant(0.7, 5))
        for y in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert abs(proc.tail_integral(y) - 0.7 * y) <= 1e-15

    def test_two_samples_descending(self):
        # r is 0.8 on [0, 1/2) and 0.2 on [1/2, 1].
        proc = ExtremalProcess(ID, EmpiricalRV.from_samples([0.2, 0.8]))
        assert abs(proc.tail_integral(0.25) - 0.05) <= 1e-15
        assert abs(proc.tail_integral(0.75) - 0.3) <= 1e-15

    def test_uniform_close_to_one_minus_s(self):
        # r(s) is close to 1 - s, so R(y) is close to y^2 / 2.
        proc = ExtremalProcess(ID, EmpiricalRV.uniform_grid(10**4))
        ys = np.arange(0, 1001, 7) / 1000
        assert np.abs(proc.tail_integral(ys) - ys**2 / 2).max() <= 1e-7

    def test_equimeasurability_exact(self):
        # The piece of r over [1 - (k+1)/M, 1 - k/M] carries the (k+1)-th
        # smallest sample.
        rv = EmpiricalRV.from_samples([0.9, 0.1, 0.4, 0.4, 0.75])
        proc = ExtremalProcess(ID, rv)
        slopes = rv.m * np.diff(proc.tail_integral(np.arange(rv.m + 1) / rv.m))
        assert np.allclose(slopes, rv.samples, rtol=0, atol=1e-15)

    def test_integral_equals_mean_exactly(self):
        rv = EmpiricalRV.from_samples([0.13, 0.57, 0.57, 0.91])
        proc = ExtremalProcess(ID, rv)
        assert proc.tail_integral(1.0) == proc.mean_time
        assert abs(Fraction(proc.mean_time) - rv.mean) <= 1e-15


_TAU_SAMPLES = st.lists(
    st.one_of(st.sampled_from(_SPECIAL_SAMPLES), st.floats(0.0, 1.0)),
    min_size=1, max_size=40,
)


@given(_TAU_SAMPLES, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_tail_integral_is_sum_of_smallest_samples(xs, repeat):
    """R(k/M) is the sum of the k smallest samples over M."""
    tau = EmpiricalRV.from_samples(xs + xs[:repeat])
    proc = ExtremalProcess(ID, tau)
    m_count = tau.m
    got = proc.tail_integral(np.arange(m_count + 1) / m_count)
    for k in range(m_count + 1):
        want = sum((Fraction(v) for v in tau.samples[:k]), Fraction(0)) / m_count
        assert abs(Fraction(float(got[k])) - want) <= 1e-15


@st.composite
def bijections(draw):
    kind = draw(st.sampled_from(["identity", "power", "pwl"]))
    if kind == "identity":
        return ID
    if kind == "power":
        return MonotoneMap1D.power(draw(st.sampled_from([2.0, 0.5, 3.0, 1.7])))
    inner = draw(st.integers(0, 3))
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    xs = sorted(set(draw(st.lists(unit, min_size=inner, max_size=inner))))
    ys = sorted(set(draw(st.lists(unit, min_size=len(xs), max_size=len(xs)))))
    assume(len(ys) == len(xs))
    return MonotoneMap1D.piecewise_linear([(0, 0), *zip(xs, ys), (1, 1)])


_UNIT_POINTS = st.lists(
    st.one_of(st.sampled_from(_SPECIAL_SAMPLES), st.floats(0.0, 1.0)),
    min_size=1, max_size=12,
)


@given(bijections(), _TAU_SAMPLES, st.integers(0, 3), _UNIT_POINTS, _UNIT_POINTS)
@settings(max_examples=200, deadline=None)
def test_grid_values_equal_point_values(m, xs, repeat, ts, ys):
    """The grid evaluation behind the membership check gives, bit for bit,
    the one-point values of eval_extremal_process, ties in tau included."""
    proc = ExtremalProcess(m, EmpiricalRV.from_samples(xs + xs[:repeat]))
    grid = process._process_values(proc, np.array(ts)[None, :], np.array(ys)[:, None])
    point = np.array([[eval_extremal_process(proc, t, y) for t in ts] for y in ys])
    assert np.array_equal(grid.view(np.int64), point.view(np.int64))


class TestExtremalProcess:
    def test_time_zero_is_lower_branch(self):
        proc = make_extremal_process(ID, UNIFORM)
        y = 0.5
        assert eval_extremal_process(proc, 0.0, y) == proc.lower_branch(y)

    def test_top_outcome_reaches_one(self):
        proc = make_extremal_process(ID, UNIFORM)
        assert abs(eval_extremal_process(proc, 1.0, 1.0) - 1.0) <= 1e-12

    def test_uniform_midpoint_value(self):
        proc = make_extremal_process(ID, UNIFORM)
        got = eval_extremal_process(proc, 0.4, 0.5)
        assert abs(got - 0.125) <= 1e-3

    def test_trajectories_monotone(self):
        for tau in (UNIFORM, EmpiricalRV.two_point(0.2, 0.8, 50)):
            proc = make_extremal_process(ID, tau)
            for j in range(20):
                y = (j + 0.5) / 20
                vals = [
                    eval_extremal_process(proc, (a + 0.5) / 50, y)
                    for a in range(50)
                ]
                assert all(u <= v for u, v in zip(vals, vals[1:]))

    def test_domain_check(self):
        proc = make_extremal_process(ID, UNIFORM)
        with pytest.raises(OutOfDomain):
            eval_extremal_process(proc, 1.5, 0.5)

    @pytest.mark.parametrize("t, y", [(0.5, math.nan), (math.nan, 0.5)])
    def test_nan_time_or_rank_rejected(self, t, y):
        # A NaN rank once indexed the samples with a garbage integer, and a
        # NaN time silently took the upper branch.
        proc = make_extremal_process(ID, EmpiricalRV.uniform_grid(10))
        with pytest.raises(OutOfDomain):
            eval_extremal_process(proc, t, y)
        if math.isnan(y):
            for method in (proc.tail_integral, proc.quantile, proc.lower_branch,
                           proc.upper_branch):
                with pytest.raises(OutOfDomain):
                    method(np.array([0.5, y]))


class TestExpectationAtTau:
    def test_quadrature_matches_bound(self):
        proc = make_extremal_process(ID, UNIFORM)
        value, stderr = expectation_at_tau(proc, "quadrature")
        assert stderr == 0.0
        bound = expectation_bound(ID, UNIFORM)
        assert abs(value - bound) <= 1.0 / UNIFORM.m + 2e-9

    def test_constant_time(self):
        # the discrete average carries an O(1/M) resolution bias
        m_count = 1000
        proc = make_extremal_process(ID, EmpiricalRV.constant(0.5, m_count))
        value, _ = expectation_at_tau(proc, "quadrature")
        assert abs(value - 0.25) <= 1.0 / m_count + 2e-9
        value, stderr = expectation_at_tau(proc, "montecarlo", trials=4000, seed=3)
        assert abs(value - 0.25) <= 3 * stderr + 1.0 / m_count

    def test_montecarlo_within_three_stderr(self):
        proc = make_extremal_process(ID, UNIFORM)
        bound = expectation_bound(ID, UNIFORM)
        value, stderr = expectation_at_tau(proc, "montecarlo", trials=10**5, seed=1)
        assert abs(value - bound) <= 3 * stderr

    def test_seed_reproducible(self):
        proc = make_extremal_process(ID, UNIFORM)
        a = expectation_at_tau(proc, "montecarlo", trials=5000, seed=9)
        b = expectation_at_tau(proc, "montecarlo", trials=5000, seed=9)
        c = expectation_at_tau(proc, "montecarlo", trials=5000, seed=10)
        assert a == b
        assert a[0] != c[0]

    def test_rank_counts_are_multinomial(self):
        m_count, trials = 50, 20000
        proc = make_extremal_process(SQ, EmpiricalRV.uniform_grid(m_count))
        for seed in (0, 5, 2**100):
            counts = process._rank_counts(m_count, trials, seed)
            assert counts.shape == (m_count,) and counts.sum() == trials
            assert counts.tolist() == process._rank_counts(m_count, trials, seed).tolist()
            rng = np.random.Generator(np.random.Philox(key=seed))
            want = rng.multinomial(trials, [1 / m_count] * m_count)
            assert counts.tolist() == want.tolist()
            # Chi-squared with 49 degrees of freedom: P(> 90) is about 3e-4.
            expected = trials / m_count
            assert ((counts - expected) ** 2 / expected).sum() < 90
            # The estimate is the count-weighted mean of the cell means.
            means = process._cell_means(proc)
            draws = np.repeat(means, counts)
            mean, stderr = expectation_at_tau(proc, "montecarlo", trials=trials,
                                              seed=seed)
            assert mean == pytest.approx(draws.mean(), abs=1e-12)
            assert stderr == pytest.approx(draws.std(ddof=1) / math.sqrt(trials),
                                           rel=1e-9)

    @pytest.mark.parametrize("m", [ID, SQ, PWL], ids=["id", "power2", "pwl"])
    def test_unbiased_over_seeds(self, m):
        # Over 400 seeds on M = 5 the z-scores average near 0: right-end
        # weights instead of cell means would put them near +8.
        tau = EmpiricalRV.from_samples([0.1, 0.3, 0.3, 0.6, 0.9])
        proc = make_extremal_process(m, tau)
        bound = expectation_bound(m, tau)
        zs = []
        for seed in range(400):
            value, stderr = expectation_at_tau(proc, "montecarlo", trials=200,
                                               seed=seed)
            zs.append((value - bound) / stderr)
        assert abs(np.mean(zs)) <= 0.25
        assert 0.8 <= np.std(zs) <= 1.25

    def test_trials_bounded(self):
        proc = make_extremal_process(SQ, EmpiricalRV.uniform_grid(10))
        value, stderr = expectation_at_tau(proc, "montecarlo",
                                           trials=process.MAX_TRIALS, seed=2)
        assert abs(value - expectation_bound(SQ, proc.tau)) <= 3 * stderr
        for bad in (0, -1, process.MAX_TRIALS + 1, 10**30):
            with pytest.raises(ValidationError):
                expectation_at_tau(proc, "montecarlo", trials=bad)

    def test_cost_does_not_grow_with_trials(self):
        # 10^12 trials on 10^4 ranks: one multinomial draw, O(M) memory.
        proc = make_extremal_process(SQ, UNIFORM)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            expectation_at_tau(proc, "montecarlo", trials=10**12, seed=1)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * UNIFORM.m
        assert elapsed < 2.0
        assert not hasattr(process, "_MC_CHUNK")

    def test_montecarlo_memory_is_bounded(self):
        proc = make_extremal_process(ID, EmpiricalRV.uniform_grid(100))
        tracemalloc.start()
        try:
            expectation_at_tau(proc, "montecarlo", trials=4_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_bad_mode(self):
        proc = make_extremal_process(ID, UNIFORM)
        with pytest.raises(ValidationError):
            expectation_at_tau(proc, "exact")


class TestProcessMembership:
    def test_uniform_passes(self):
        proc = make_extremal_process(ID, UNIFORM)
        report = verify_process_membership(proc, 400, 400)
        assert report.ok and report.max_deviation <= 0.02

    def test_two_point_passes(self):
        proc = make_extremal_process(ID, EmpiricalRV.two_point(0.2, 0.8, 100))
        assert verify_process_membership(proc, 200, 200).ok

    def test_swapped_branches_fail(self):
        proc = make_extremal_process(ID, UNIFORM)
        t = (np.arange(50) + 0.5) / 50
        y = t[:, None]
        corrupted = np.where(
            t <= proc.quantile(y), proc.upper_branch(y), proc.lower_branch(y)
        )
        with pytest.raises(MembershipViolation):
            verify_process_membership(proc, 50, 50, values=corrupted)

    def test_decrease_witness(self):
        # Rows index y.  Decreasing in t at (0, 1) and (1, 0): the first
        # cell in row-major order is reported.
        proc = make_extremal_process(ID, UNIFORM)
        values = [[0.1, 0.3, 0.2], [0.5, 0.4, 0.6]]
        with pytest.raises(MembershipViolation) as e:
            verify_process_membership(proc, 3, 2, values=values)
        assert str(e.value) == "trajectory decreases in t"
        t, y = (np.arange(3) + 0.5) / 3, (np.arange(2) + 0.5) / 2
        assert e.value.witness == ((t[1], y[0], 0.3), (t[2], y[0], 0.2))
        # A NaN cell compares false both ways; the step into or out of it
        # is named.  assert_equal holds NaN equal to NaN.
        for values, witness in (
            ([[0.1, 0.2, 0.3], [0.4, math.nan, 0.6]],
             ((t[0], y[1], 0.4), (t[1], y[1], math.nan))),
            ([[math.nan, 0.2, 0.3], [0.4, 0.5, 0.6]],
             ((t[0], y[0], math.nan), (t[1], y[0], 0.2))),
        ):
            with pytest.raises(MembershipViolation) as e:
                verify_process_membership(proc, 3, 2, values=values)
            assert str(e.value) == "trajectory decreases in t"
            np.testing.assert_equal(e.value.witness, witness)

    def test_values_outside_the_unit_interval_rejected(self):
        # Rows index y; each trajectory still rises.
        proc = make_extremal_process(ID, UNIFORM)
        t, y = (np.arange(3) + 0.5) / 3, (np.arange(2) + 0.5) / 2
        for values, message, witness in (
            ([[0.1, 0.2, 1.5], [-0.25, 0.5, 0.6]],
             "value 1.5 lies outside [0, 1]", (t[2], y[0], 1.5)),
            ([[0.1, 0.2, 0.3], [-0.25, 0.5, 0.6]],
             "value -0.25 lies outside [0, 1]", (t[0], y[1], -0.25)),
        ):
            with pytest.raises(MembershipViolation) as e:
                verify_process_membership(proc, 3, 2, values=values)
            assert str(e.value) == message
            assert e.value.witness == witness

    def test_level_budget_witness(self):
        # Monotone, but every cell holds 0.5: F(s) jumps from 0 to 1 at 0.5.
        proc = make_extremal_process(ID, UNIFORM)
        with pytest.raises(MembershipViolation) as e:
            verify_process_membership(proc, 40, 40, values=np.full((40, 40), 0.5))
        assert str(e.value) == (
            "level-set deviation 0.5 at s=0.5 exceeds budget 0.1"
        )
        assert e.value.witness == (0.5, 0.5)

    def test_grid_validation(self):
        proc = make_extremal_process(ID, UNIFORM)
        with pytest.raises(InvalidGrid):
            verify_process_membership(proc, 1, 50)
        # Refused before any grid_t x grid_y array is allocated.
        with pytest.raises(InvalidGrid):
            verify_process_membership(proc, MAX_SURFACE_GRID + 1, 50)
        with pytest.raises(InvalidGrid):
            verify_process_membership(proc, 50, MAX_SURFACE_GRID + 1)

    def test_first_worst_level_is_reported(self):
        # Levels 0.25 and 0.75 tie at deviation 0.25; the first is reported.
        proc = make_extremal_process(ID, UNIFORM)
        values = [[0.25, 0.25], [0.75, 0.75]]  # rows index y
        report = verify_process_membership(proc, 2, 2, s_count=5, values=values)
        assert (report.max_deviation, report.worst_level) == (0.25, 0.25)
        with pytest.raises(InvalidGrid):
            verify_process_membership(proc, 3, 2, values=values)


# Times with atoms, down to ties at 1 and a tied group one float step
# below the next sample: the process takes them as they are.
TIED_TAUS = {
    "two-point-bench": EmpiricalRV.from_samples([0.2] * 5000 + [0.8] * 5000),
    "constant-half": EmpiricalRV.constant(0.5, 100),
    "constant-one": EmpiricalRV.constant(1.0, 3),
    "zeros-then-subnormal": EmpiricalRV.from_samples([0.0, 0.0, 0.0, 5e-324]),
}


@pytest.mark.parametrize("m", [ID, SQ], ids=["id", "power2"])
@pytest.mark.parametrize("tau", TIED_TAUS.values(), ids=TIED_TAUS.keys())
class TestTiedTau:
    def test_process_keeps_tau(self, m, tau):
        assert make_extremal_process(m, tau).tau is tau

    def test_membership(self, m, tau):
        proc = make_extremal_process(m, tau)
        for grid in (120, 400):
            assert verify_process_membership(proc, grid, grid).ok

    def test_quadrature_equals_bound(self, m, tau):
        tol = 1e-9
        value, stderr = expectation_at_tau(
            make_extremal_process(m, tau), "quadrature", tol=tol
        )
        assert stderr == 0.0
        assert abs(value - expectation_bound(m, tau)) <= 2 * tol


MAP_KINDS = {"id": ID, "power2": SQ, "power0.5": MonotoneMap1D.power(0.5),
             "power3": MonotoneMap1D.power(3), "pwl": PWL}


@pytest.mark.parametrize("m", MAP_KINDS.values(), ids=MAP_KINDS.keys())
@pytest.mark.parametrize("tau", TIED_TAUS.values(), ids=TIED_TAUS.keys())
def test_bound_matches_quadrature_mode(m, tau):
    """The closed-form bound against quadrature mode, which integrates the
    trajectory at its own time by adaptive Simpson."""
    value, _ = expectation_at_tau(make_extremal_process(m, tau), "quadrature")
    assert abs(expectation_bound(m, tau) - value) <= 1e-8


@given(bijections(), _TAU_SAMPLES, st.integers(0, 3))
@example(  # m^{-1} is flat to the last bit on the cell: G's quotient rounds past it
    MonotoneMap1D.piecewise_linear([(0, 0), (0.78125, 5e-324), (0.875, 0.5), (1, 1)]),
    [1e-300], 0)
@settings(max_examples=200, deadline=None)
def test_cell_means_lie_between_cell_ends(m, xs, repeat):
    """Each cell mean lies between m^{-1} at its cell's ends, so the Monte
    Carlo weights never decrease with rank, ties and subnormals included."""
    proc = make_extremal_process(m, EmpiricalRV.from_samples(xs + xs[:repeat]))
    means = process._cell_means(proc)
    ends = m.inverse_many(proc._csum / proc.sample_count)
    assert (ends[:-1] <= means).all() and (means <= ends[1:]).all()
    assert abs(float(means.mean()) - expectation_bound(m, proc.tau)) <= 1e-15


class TestLowerBoundProperty:
    def test_random_members_dominate_bound(self):
        # members of the class built as extremal processes for other random
        # times (membership depends on m alone, checked by cell counting);
        # coupled with our tau by rank, their expectation at tau must
        # dominate the bound.  The member built from tau itself pins the
        # sharp end.
        import random

        rng = random.Random(7)
        m_samples = 2000
        tau = EmpiricalRV.uniform_grid(m_samples)
        bound = expectation_bound(ID, tau)
        others = [tau]
        for _ in range(19):
            kind = rng.randrange(3)
            if kind == 0:
                others.append(
                    EmpiricalRV.from_samples(
                        rng.random() for _ in range(rng.randint(50, 400))
                    )
                )
            elif kind == 1:
                others.append(
                    EmpiricalRV.two_point(
                        rng.uniform(0, 0.5), rng.uniform(0.5, 1), 100
                    )
                )
            else:
                others.append(EmpiricalRV.constant(rng.random(), 100))
        for other in others:
            member = make_extremal_process(ID, other)
            assert verify_process_membership(member, 80, 80).ok
            total = 0.0
            for i in range(1, m_samples + 1):
                total += eval_extremal_process(
                    member, tau.samples[i - 1], i / m_samples
                )
            assert total / m_samples >= bound - 1e-3


class TestRowsGridCrossCheck:
    def test_identity_exact(self):
        res = rows_grid_cross_check(ID, 2, [1, 2])
        assert res["bound"] == res["closed_form"] == 1

    def test_square_map_close(self):
        res = rows_grid_cross_check(SQ, 3, [1, 2, 2])
        assert abs(float(res["bound"]) - res["closed_form"]) <= 1e-12

    def test_matches_brute_force(self):
        res = rows_grid_cross_check(ID, 3, [1, 1, 3])
        bmin, _, _ = brute_min_max(res["poset"], res["scale"], res["query"])
        assert bmin.objective == res["bound"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            rows_grid_cross_check(ID, 3, [2, 1, 3])
        with pytest.raises(ValidationError):
            rows_grid_cross_check(ID, 3, [1, 2])
