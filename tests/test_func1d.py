import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoext import (
    EmpiricalRV,
    MonotoneMap1D,
    StepFunction1D,
    integrate,
)
from monoext.errors import (
    NotIncreasing,
    OutOfDomain,
    ToleranceNotMet,
    ValidationError,
)


class TestMonotoneMap:
    def test_identity_inverse_passthrough(self):
        m = MonotoneMap1D.identity()
        assert m.inverse(0.3) == 0.3
        assert m.inverse(Fraction(1, 3)) == Fraction(1, 3)

    def test_power_inverse(self):
        m = MonotoneMap1D.power(2)
        assert m.inverse(0.25) == 0.5
        assert abs(m.eval(m.inverse(0.37)) - 0.37) < 1e-15

    def test_pwl_inverse_on_a_piece(self):
        m = MonotoneMap1D.piecewise_linear([(0, 0), (0.5, 0.25), (1, 1)])
        assert m.inverse(0.25) == 0.5
        assert m.inverse(0.125) == 0.25

    def test_out_of_domain(self):
        m = MonotoneMap1D.identity()
        with pytest.raises(OutOfDomain):
            m.eval(1.5)
        with pytest.raises(OutOfDomain):
            m.inverse(-0.5)

    def test_nan_rejected(self):
        m = MonotoneMap1D.power(2)
        with pytest.raises(OutOfDomain):
            m.eval(math.nan)
        with pytest.raises(OutOfDomain):
            m.inverse(math.nan)

    def test_clamp_keeps_in_range_values(self):
        m = MonotoneMap1D.identity()
        assert m.eval(Fraction(1, 3)) == Fraction(1, 3)
        assert m.eval(1 + 1e-12) == 1.0 and m.inverse(-1e-12) == 0.0

    def test_flat_pwl_has_no_inverse(self):
        t = MonotoneMap1D.constant(0.5)
        assert not t.is_increasing_bijection
        with pytest.raises(NotIncreasing):
            t.inverse(0.5)

    def test_pwl_validation(self):
        with pytest.raises(ValidationError):
            MonotoneMap1D.piecewise_linear([(0, 0)])
        with pytest.raises(NotIncreasing):
            MonotoneMap1D.piecewise_linear([(0, 0), (0, 1), (1, 1)])
        with pytest.raises(NotIncreasing):
            MonotoneMap1D.piecewise_linear([(0, 0.5), (0.5, 0.2), (1, 1)])
        with pytest.raises(ValidationError):
            MonotoneMap1D.power(0)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValidationError):
            MonotoneMap1D.power(math.inf)
        with pytest.raises(ValidationError):
            MonotoneMap1D.power(math.nan)
        with pytest.raises(NotIncreasing):
            MonotoneMap1D.piecewise_linear([(0, 0), (math.nan, 0.5), (1, 1)])

    def test_roundtrip_on_grid(self):
        maps = [
            MonotoneMap1D.identity(),
            MonotoneMap1D.power(2),
            MonotoneMap1D.power(0.7),
            MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.6), (1, 1)]),
        ]
        for m in maps:
            for i in range(1001):
                x = i / 1000
                assert abs(m.inverse(m.eval(x)) - x) < 1e-11


def _reference_pwl(knots, images, u):
    """Interpolation on the piece bisect_right(knots, u) - 1, kept within
    the first and last piece and clamped into that piece's image range."""
    i = min(max(bisect.bisect_right(knots, u) - 1, 0), len(knots) - 2)
    k0, k1 = knots[i], knots[i + 1]
    v0, v1 = images[i], images[i + 1]
    v = v0 + (u - k0) * (v1 - v0) / (k1 - k0)
    return min(max(v, v0), v1)


def reference_eval(m, x):
    """m(x) in plain Python, written out as a reference for the array
    evaluator: Python pow for power maps, a bisection for pwl maps."""
    if m.kind == "identity":
        return x
    if m.kind == "power":
        return x**m.p
    return _reference_pwl([a for a, _ in m.points], [b for _, b in m.points], x)


def reference_inverse(m, y):
    """m^{-1}(y) in plain Python, as :func:`reference_eval`."""
    if m.kind == "identity":
        return y
    if m.kind == "power":
        return math.sqrt(y) if m.p == 2.0 else y ** (1.0 / m.p)
    return _reference_pwl([b for _, b in m.points], [a for a, _ in m.points], y)


REFERENCE_MAPS = [
    MonotoneMap1D.identity(),
    MonotoneMap1D.power(2),
    MonotoneMap1D.power(0.3),
    MonotoneMap1D.power(1.7),
    MonotoneMap1D.power(3),
    MonotoneMap1D.piecewise_linear([(0, 0), (0.4, 0.1), (1, 1)]),
    MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.5), (0.6, 0.7), (1, 1)]),
    MonotoneMap1D.piecewise_linear([(0, 0.2), (0.3, 0.2), (0.6, 0.5), (1, 0.9)]),
]


@pytest.mark.parametrize("m", REFERENCE_MAPS, ids=[
    "identity", "power-2", "power-0.3", "power-1.7", "power-3",
    "pwl-kink", "pwl-three-pieces", "pwl-flat",
])
def test_maps_match_plain_python_reference(m):
    """eval, inverse and eval_many against the plain-Python formulas:
    exactly for identity and pwl, within 1 ulp for power (numpy's pow and
    the C library's may round differently)."""

    def close(got, want):
        if m.kind == "power":
            return abs(got - want) <= math.ulp(want)
        return got == want

    knots = [v for point in m.points for v in point]
    us = np.random.default_rng(3).random(2000).tolist() + [0.0, 1.0] + knots
    many = m.eval_many(np.array(us)).tolist()
    for u, v in zip(us, many):
        want = reference_eval(m, u)
        assert close(m.eval(u), want), u
        assert close(v, want), u
    if m.is_increasing_bijection:
        for u in us:
            assert close(m.inverse(u), reference_inverse(m, u)), u


DOMAIN_MAPS = {
    "identity": MonotoneMap1D.identity(),
    "power": MonotoneMap1D.power(2),
    "pwl": MonotoneMap1D.piecewise_linear([(0, 0), (0.4, 0.1), (1, 1)]),
    "pwl-flat": MonotoneMap1D.constant(0.5),
}
ARRAY_METHODS = ["eval_many", "inverse_many", "lower_inverse_many"]


# inverse_many on a map with a flat piece raises NotIncreasing whatever
# the input, so that pair is left out.
ARRAY_CASES = [
    pytest.param(m, method, id=f"{kind}-{method}")
    for kind, m in DOMAIN_MAPS.items()
    for method in ARRAY_METHODS
    if m.is_increasing_bijection or method != "inverse_many"
]


@pytest.mark.parametrize("m, method", ARRAY_CASES)
class TestArrayDomain:
    @pytest.mark.parametrize("bad", [
        [math.nan, 2.0], [0.2, math.nan], [0.5, 1 + 1e-6], [-1e-6, 0.5], [math.inf],
    ])
    def test_rejects_nan_and_out_of_range(self, m, method, bad):
        with pytest.raises(OutOfDomain):
            getattr(m, method)(np.array(bad))

    def test_in_range_entries_pass_unchanged(self, m, method):
        # Entries in [0, 1], -0.0 included, are not clamped: the result
        # equals the formula applied to the array as given.
        xs = np.array([0.0, -0.0, 0.3, 1.0])
        got = getattr(m, method)(xs)
        assert got.shape == xs.shape
        if m.kind == "identity":
            assert got.view(np.int64).tolist() == xs.view(np.int64).tolist()
        elif m.kind == "power":
            want = xs**2 if method == "eval_many" else np.sqrt(xs)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert getattr(m, method)(np.array([])).size == 0

    @pytest.mark.parametrize("noise, end", [(-1e-10, 0.0), (1 + 1e-10, 1.0)])
    def test_float_noise_is_clamped(self, m, method, noise, end, recwarn):
        # An entry within float noise of [0, 1] is clamped to the nearest
        # end, as the scalar methods do: no NaN, no value outside [0, 1].
        got = getattr(m, method)(np.array([noise, 0.5]))
        assert got.tolist() == getattr(m, method)(np.array([end, 0.5])).tolist()
        scalar = {"eval_many": m.eval, "inverse_many": m.inverse}.get(method)
        if scalar is not None:
            assert got[0] == scalar(noise)
        assert not recwarn.list


@st.composite
def paths(draw):
    """Identity, power p in [0.3, 4], or pwl with abscissae on the 1/100
    grid (slopes at most 100) and ordinates often tied (flat pieces)."""
    kind = draw(st.sampled_from(["identity", "power", "pwl"]))
    if kind == "identity":
        return MonotoneMap1D.identity()
    if kind == "power":
        return MonotoneMap1D.power(draw(st.floats(0.3, 4.0)))
    inner = draw(st.lists(st.integers(1, 99), max_size=5, unique=True))
    xs = [0.0] + [k / 100 for k in sorted(inner)] + [1.0]
    level = st.one_of(st.sampled_from([0.0, 0.2, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))
    ys = sorted(draw(st.lists(level, min_size=len(xs), max_size=len(xs))))
    return MonotoneMap1D.piecewise_linear(zip(xs, ys))


@given(paths(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_lower_inverse_is_least_preimage(t, us):
    """s = t.lower_inverse_many(x) is the least s with t(s) >= x."""
    t1 = t.eval(1.0)
    xs = [u * t1 for u in us] + [t1, t.eval(0.0)] + [y for _, y in t.points]
    xs = np.sort(np.array(xs))
    ss = t.lower_inverse_many(xs)
    for x, s in zip(xs.tolist(), ss.tolist()):
        assert 0.0 <= s <= 1.0
        assert t.eval(s) >= x - 1e-12
        assert s == 0 or t.eval(max(s - 1e-9, 0.0)) < x + 1e-12
    assert (np.diff(ss) >= 0).all()


def test_lower_inverse_flat_pieces():
    t = MonotoneMap1D.piecewise_linear(
        [(0, 0.2), (0.3, 0.2), (0.6, 0.5), (0.8, 0.5), (1, 1)]
    )
    got = t.lower_inverse_many([0.0, 0.1, 0.2, 0.35, 0.5, 1.0]).tolist()
    assert got == pytest.approx([0.0, 0.0, 0.0, 0.45, 0.6, 1.0], abs=1e-15)
    # A flat piece's level maps exactly to its left end.
    assert got[2] == 0.0 and got[4] == 0.6
    const = MonotoneMap1D.constant(0.5)
    assert const.lower_inverse_many([0.0, 0.5]).tolist() == [0.0, 0.0]


def test_pwl_chunks_match_one_pass(monkeypatch):
    """A pwl map evaluates a large array a chunk at a time; every entry,
    and the shape, must be what one pass over the whole array gives."""
    from monoext import func1d

    m = MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.1), (0.6, 0.7), (1, 1)])
    t = MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.3), (0.6, 0.3), (1, 1)])
    u = np.random.default_rng(3).random((300, 700))  # 210000 entries
    u[0, :4] = [0.0, 0.3, 0.6, 1.0]
    assert u.size > 3 * func1d._INTERP_CHUNK

    def results():
        return [m.inverse_many(u), m.eval_many(u), t.eval_many(u),
                t.lower_inverse_many(u), m.inverse_integral_many(u)]

    chunked = results()
    monkeypatch.setattr(func1d, "_INTERP_CHUNK", u.size)
    for got, want in zip(chunked, results()):
        assert got.shape == u.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert m.inverse(0.3) == float(m.inverse_many(0.3))


def exact_inverse_integral(m, y):
    """G(y) = integral of m^{-1} over [0, y] in exact rationals, for the
    identity and pwl maps: the trapezoid under each piece of the inverse
    up to y."""
    y = Fraction(y)
    if m.kind == "identity":
        return y * y / 2
    total = Fraction(0)
    pts = [(Fraction(a), Fraction(b)) for a, b in m.points]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y <= y0:
            break
        top = min(y, y1)
        x_top = x0 + (top - y0) * (x1 - x0) / (y1 - y0)
        total += (top - y0) * (x0 + x_top) / 2
    return total


INTEGRAL_MAPS = [
    MonotoneMap1D.identity(),
    MonotoneMap1D.piecewise_linear([(0, 0), (0.4, 0.1), (1, 1)]),
    MonotoneMap1D.piecewise_linear([(0, 0), (0.3, 0.5), (0.6, 0.7), (1, 1)]),
    MonotoneMap1D.piecewise_linear([(0, 0), (1e-3, 0.9), (1, 1)]),
]
INTEGRAL_POINTS = (np.random.default_rng(5).random(300).tolist()
                   + [0.0, 1.0, 0.1, 0.5, 0.7, 0.9, 5e-324, 1e-300, 1 - 2**-53])


class TestInverseIntegral:
    @pytest.mark.parametrize("m", INTEGRAL_MAPS,
                             ids=["identity", "pwl-kink", "pwl-three", "pwl-steep"])
    def test_matches_exact_antiderivative(self, m):
        got = m.inverse_integral_many(np.array(INTEGRAL_POINTS)).tolist()
        for y, g in zip(INTEGRAL_POINTS, got):
            want = exact_inverse_integral(m, y)
            assert abs(Fraction(g) - want) <= 4 * math.ulp(float(want)) + 5e-324, y

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    def test_power_matches_quadrature(self, p):
        # By parts, G(y) = y x - integral of m over [0, x] with x = m^{-1}(y):
        # the quadrature runs over the map itself, whose endpoint behaviour
        # the engine resolves for every p here (that of y^(1/3) it does not).
        from monoext.func1d import _integrate_nodes

        m = MonotoneMap1D.power(p)
        ys = [0.05, 0.3, 0.5, 0.77, 1.0]
        got = m.inverse_integral_many(np.array(ys)).tolist()
        for y, g in zip(ys, got):
            x = m.inverse(y)
            want = y * x - _integrate_nodes(m.eval_many, 0.0, x, 1e-13)
            assert abs(g - want) <= 1e-12, (p, y)
        assert m.inverse_integral_many(np.array([0.0, 1.0])).tolist() == [
            0.0, 1.0 / (1.0 + 1.0 / p)]

    @pytest.mark.parametrize("m", [MonotoneMap1D.power(2), *INTEGRAL_MAPS[:2]],
                             ids=["power", "identity", "pwl"])
    def test_domain_as_inverse_many(self, m):
        for bad in ([math.nan, 0.5], [0.5, 1 + 1e-6], [-1e-6], [math.inf]):
            with pytest.raises(OutOfDomain):
                m.inverse_integral_many(np.array(bad))
        got = m.inverse_integral_many(np.array([-1e-10, 1 + 1e-10]))
        assert got.tolist() == m.inverse_integral_many(np.array([0.0, 1.0])).tolist()
        assert m.inverse_integral_many(np.array([])).size == 0
        assert m.inverse_integral_many(np.zeros((2, 3))).shape == (2, 3)

    def test_non_bijection_rejected(self):
        for m in (MonotoneMap1D.constant(0.5),
                  MonotoneMap1D.piecewise_linear([(0, 0), (0.5, 0.5), (0.7, 0.5), (1, 1)])):
            with pytest.raises(NotIncreasing):
                m.inverse_integral_many(np.array([0.3]))


class TestStepFunction:
    def test_right_continuity(self):
        f = StepFunction1D((0, Fraction(1, 2), 1), (1, 0))
        assert f.eval(0.5) == 0
        assert f.eval(0.499999) == 1
        assert f.eval(1) == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            StepFunction1D((0, 1), (0.2, 0.4))
        with pytest.raises(ValidationError):
            StepFunction1D((0, 0.5, 1), (0.2, 0.4), "non-increasing")

    def test_exact_integral(self):
        f = StepFunction1D((0, Fraction(1, 2), 1), (Fraction(4, 5), Fraction(1, 5)))
        assert f.integral() == Fraction(1, 2)
        assert f.integral(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 4)


def recursive_simpson(g, a, b, tol, max_depth=40):
    """(integral, integrand calls): the recursive adaptive Simpson rule,
    written out as a reference for the batched engine."""
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return g(x)

    def estimate(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def refine(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = estimate(a, fa, m, fm)
        rm, frm, right = estimate(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth <= 0:
            raise ToleranceNotMet(f"quadrature did not reach tolerance on [{a}, {b}]")
        tol *= 0.7071067811865476
        return refine(a, fa, m, fm, lm, flm, left, tol, depth - 1) + refine(
            m, fm, b, fb, rm, frm, right, tol, depth - 1
        )

    fa, fb = f(a), f(b)
    m, fm, whole = estimate(a, fa, b, fb)
    return refine(a, fa, b, fb, m, fm, whole, tol, max_depth), calls


class TestIntegrate:
    @pytest.mark.parametrize("g", [
        lambda s: s,
        lambda s: 3 * s**3 - 2 * s + 1,
        lambda s: s**7 - s**4,
        lambda s: (1 - s) * s,
        math.sqrt,
        lambda s: math.sqrt(1 - s) + math.sqrt(s / 3),
    ])
    @pytest.mark.parametrize("a, b, tol", [
        (0.0, 1.0, 1e-9), (0.0, 1.0, 1e-13), (0.25, 0.8, 1e-11)
    ])
    def test_matches_recursive_reference(self, g, a, b, tol):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return g(x)

        want, want_calls = recursive_simpson(g, a, b, tol)
        assert integrate(counted, a, b, tol) == want
        assert calls == want_calls

    def test_failure_names_leftmost_unresolved_interval(self, monkeypatch):
        import monoext.func1d as f1

        def g(s):
            return math.sin(1e3 * s) * (s > 0.3)

        monkeypatch.setattr(f1, "MAX_QUAD_DEPTH", 7)
        with pytest.raises(ToleranceNotMet) as want:
            recursive_simpson(g, 0.0, 1.0, 1e-12, 7)
        with pytest.raises(ToleranceNotMet) as got:
            f1.integrate(g, 0.0, 1.0, 1e-12)
        assert str(got.value) == str(want.value)

    def test_non_converging_memory_is_bounded(self, monkeypatch):
        # Depth-first refinement keeps O(batch x depth) intervals pending;
        # refining level by level would hold 2**16 of them here.
        import tracemalloc

        import monoext.func1d as f1

        monkeypatch.setattr(f1, "MAX_QUAD_DEPTH", 16)
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMet):
                f1.integrate(lambda s: math.sin(1e9 * s), 0.0, 1.0, 1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_linear(self):
        assert abs(integrate(lambda s: s, 0, 1) - 0.5) <= 1e-9

    def test_quadratic(self):
        assert abs(integrate(lambda s: (1 - s) * s, 0, 1) - 1 / 6) <= 1e-9

    def test_sqrt_singularity(self):
        assert abs(integrate(lambda s: math.sqrt(s), 0, 1) - 2 / 3) <= 1e-8

    def test_step_is_exact(self):
        f = StepFunction1D((0, Fraction(1, 3), 1), (Fraction(1, 2), Fraction(1, 4)))
        assert integrate(f) == Fraction(1, 3)

    def test_tolerance_not_met(self, monkeypatch):
        import monoext.func1d as f1

        monkeypatch.setattr(f1, "MAX_QUAD_DEPTH", 3)
        with pytest.raises(ToleranceNotMet):
            f1.integrate(lambda s: math.sin(1e6 * s), 0, 1, 1e-12)

    def test_empty_interval(self):
        assert integrate(lambda s: s, 0.5, 0.5) == 0.0
        with pytest.raises(ValidationError):
            integrate(lambda s: s, 0.7, 0.3)


class TestEmpiricalRV:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EmpiricalRV(())
        with pytest.raises(OutOfDomain):
            EmpiricalRV((1.5,))
        with pytest.raises(ValidationError):
            EmpiricalRV((0.5, 0.2))

    @pytest.mark.parametrize("samples, error, message", [
        ((0.5, 0.2, 1.5), OutOfDomain, "sample 1.5 outside"),
        ((0.5, 0.2), ValidationError, "must be sorted ascending"),
        ((0.2, float("nan"), 0.1), OutOfDomain, "sample nan outside"),
        ((-0.0, -0.1), OutOfDomain, "sample -0.1 outside"),
    ])
    def test_domain_before_order(self, samples, error, message):
        with pytest.raises(error, match=message) as info:
            EmpiricalRV(samples)
        if error is ValidationError:
            assert not isinstance(info.value, OutOfDomain)

    def test_samples_become_floats(self):
        rv = EmpiricalRV(("0.25", 0.5, 1))
        assert rv.samples == (0.25, 0.5, 1.0)
        assert all(type(x) is float for x in rv.samples)

    def test_from_samples_sorts(self):
        rv = EmpiricalRV.from_samples([0.5, 0.2])
        assert rv.samples == (0.2, 0.5)

    def test_uniform_grid_mean(self):
        assert abs(float(EmpiricalRV.uniform_grid(10).mean) - 0.5) < 1e-15

    def test_two_point_split(self):
        rv = EmpiricalRV.two_point(0.8, 0.2, 4)
        assert rv.samples == (0.2, 0.2, 0.8, 0.8)
