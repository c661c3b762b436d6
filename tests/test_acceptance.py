"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output); `monoext selftest` prints the same table from the CLI.
The heavy corpus results are cached inside monoext.selftest, so the
oracle-equivalence, witness and fast-path criteria share one solve/brute
pass.
"""

from monoext import selftest


def _run(criterion, *args, **kwargs):
    result = criterion(*args, **kwargs)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_oracle_equivalence():
    # >= 500 posets with N <= 8 (random DAGs plus the fixed grids under
    # both orders), random queries; exact rational equality; < 60 s.
    result = _run(selftest.criterion_oracle_equivalence, count=500)
    assert result.seconds < 60.0


def test_criterion_2_witness_validity():
    # every solver witness passes the membership checker and attains the
    # per-position closed-form values exactly, on the same corpus.
    _run(selftest.criterion_witness_validity, count=500)


def test_criterion_3_fast_paths():
    # chain and disjoint closed forms agree with the solver whenever their
    # preconditions hold; the grid column formula s(n+1)/(2n) is exact for
    # all 1 <= s <= n <= 6.
    _run(selftest.criterion_fast_paths, count=500, grid_max=6)


def test_criterion_4_swap_and_prefix():
    # swap closure and the minimizing-witness prefix property over 10^4
    # randomized instances with N <= 7.
    _run(selftest.criterion_swap_and_prefix, instances=10**4)


def test_criterion_5_surface_sharpness():
    # |line integral on the surface - closed-form bound| <= 1e-6 for the
    # eight (m, t) pairs; identity/constant bound equals alpha/2 to 1e-9;
    # < 5 s.
    result = _run(selftest.criterion_surface_sharpness)
    assert result.seconds < 5.0


def test_criterion_6_surface_membership():
    # grid 400 with distribution deviation within 2/400 + 1e-9.
    _run(selftest.criterion_surface_membership, grid_n=400)


def test_criterion_7_grid_convergence():
    # alpha = 0.5, k = 10, n in {20, 40, 80, 160}: error decreasing and
    # <= C/n with C reported; bound column ties to the chain closed form
    # exactly.
    _run(selftest.criterion_grid_convergence, ns=(20, 40, 80, 160))


def test_criterion_8_process_bound():
    # uniform tau with 10^4 samples: bound = 1/6 +- 2e-3; order-of-
    # integration deviation <= 1e-8; constant tau ties to the line-integral
    # bound within 1e-8; Monte Carlo within 3 standard errors at 10^6
    # trials, seed-reproducible; < 30 s.
    result = _run(selftest.criterion_process_bound, m_samples=10**4, trials=10**6)
    assert result.seconds < 30.0


def test_criterion_9_process_membership():
    # 400 x 400 for uniform, two-point and constant times, deviation
    # <= 0.02; the constant time is 100 raw tied samples.
    _run(selftest.criterion_process_membership, grid=400)


def test_criterion_10_rows_grid_closed_form():
    # n in {2, 3, 4}, identity and square maps, all non-decreasing index
    # vectors: closed form exact (rational) or within 1e-12 (float), and
    # equal to brute force for n <= 3.
    _run(selftest.criterion_rows_grid_cross_check, max_brute_n=3)
