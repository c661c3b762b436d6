"""Acceptance checks runnable from the CLI and from the test suite.

Each criterion function returns a :class:`CriterionResult`; `run_all`
executes the lot and is what `monoext selftest` prints.  The corpus and
the heavy solve/brute results are cached per process so the suite and the
CLI do not pay for them twice.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .continuous import (
    line_integral_bound,
    line_integral_on_surface,
    verify_membership,
)
from .discretize import (
    column_chain_bound,
    grid_experiment,
    rows_grid_cross_check,
)
from .errors import MembershipViolation, NotAChain, PreconditionViolated
from .func1d import EmpiricalRV, MonotoneMap1D
from .oracle import brute_min_max, check_monotone_bijection, swap_adjacent
from .poset import QuerySet, _grid_poset, _query_below, build_poset, grid_poset
from .process import (
    expectation_at_tau,
    expectation_bound,
    fubini_check,
    make_extremal_process,
    verify_process_membership,
)
from .solver import (
    build_witness,
    chain_bounds,
    disjoint_bound,
    solve_max,
    solve_min,
)
from .values import ValueScale

CORPUS_SEED = 20260810
PROPERTY_SEED = 977101
MC_SEED = 1


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.seconds:.1f}s]"


def _random_scale(rng: random.Random, n: int) -> ValueScale:
    kind = rng.randrange(3)
    if kind == 0:
        return ValueScale(range(1, n + 1))
    if kind == 1:
        return ValueScale(Fraction(i, n * n) for i in range(1, n * n + 1, n))
    vals = []
    cur = Fraction(rng.randint(-12, 0))
    for _ in range(n):
        cur += Fraction(rng.randint(1, 9), rng.randint(1, 9))
        vals.append(cur)
    return ValueScale(vals)


def _random_dag(rng: random.Random, n: int):
    labels = list(range(n))
    p = rng.uniform(0.1, 0.6)
    covers = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_poset(labels, covers)


def build_corpus(count: int = 500, seed: int = CORPUS_SEED, max_n: int = 8):
    """(poset, scale, query) triples: fixed small grids plus random DAGs."""
    rng = random.Random(seed)
    instances = []

    fixed = []
    for kind in ("product", "rows"):
        fixed.append(grid_poset(2, kind))
        fixed.append(_grid_poset(2, 3, kind))
        fixed.append(grid_poset(3, kind))
    for poset in fixed:
        for _ in range(3):
            k = rng.randint(1, poset.n)
            labs = rng.sample(poset.labels, k)
            instances.append(
                (poset, _random_scale(rng, poset.n), QuerySet(poset, labs))
            )

    while len(instances) < count:
        n = rng.randint(1, max_n)
        poset = _random_dag(rng, n)
        k = rng.randint(1, n)
        labs = rng.sample(poset.labels, k)
        instances.append((poset, _random_scale(rng, n), QuerySet(poset, labs)))
    return instances


_RESULTS_CACHE: dict = {}


def corpus_results(count: int = 500, seed: int = CORPUS_SEED, max_n: int = 8):
    """Corpus plus solver and oracle results for every instance."""
    key = (count, seed, max_n)
    if key not in _RESULTS_CACHE:
        rows = []
        for poset, scale, query in build_corpus(count, seed, max_n):
            mn = solve_min(poset, scale, query)
            mx = solve_max(poset, scale, query)
            bmin, bmax, ext_count = brute_min_max(poset, scale, query)
            rows.append((poset, scale, query, mn, mx, bmin, bmax, ext_count))
        _RESULTS_CACHE[key] = rows
    return _RESULTS_CACHE[key]


def criterion_oracle_equivalence(count: int = 500) -> CriterionResult:
    t0 = time.time()
    rows = corpus_results(count)
    bad = 0
    total_ext = 0
    for _, _, _, mn, mx, bmin, bmax, ext_count in rows:
        total_ext += ext_count
        if mn.objective != bmin.objective or mx.objective != bmax.objective:
            bad += 1
    dt = time.time() - t0
    return CriterionResult(
        "oracle equivalence",
        bad == 0 and dt < 60.0,
        f"{len(rows)} instances, {total_ext} extensions counted, "
        f"{bad} mismatches",
        dt,
    )


def _attained_values(poset, scale, query, perm, fn, mode) -> bool:
    """Whether ``fn`` takes, at each query element, the value the closed
    form of ``perm`` gives it.  Written out here, apart from the solver:
    the minimum reads ``perm`` from the bottom, ranking by the size of the
    union of down-sets so far; the maximum reads it from the top, ranking
    by N + 1 minus the size of the union of up-sets so far."""
    if mode == "min":
        sets, order, rank = poset.down, perm, lambda k: k
    else:
        sets, order, rank = poset.up, perm[::-1], lambda k: poset.n + 1 - k
    mask = 0
    for p in order:
        mask |= sets[query.indices[p]]
        if fn.value(query.labels[p]) != scale.value(rank(mask.bit_count())):
            return False
    return True


def criterion_witness_validity(count: int = 500) -> CriterionResult:
    t0 = time.time()
    rows = corpus_results(count)
    bad = 0
    for poset, scale, query, mn, mx, _, _, _ in rows:
        if not all(
            check_monotone_bijection(poset, scale, res.witness_fn)
            and _attained_values(
                poset, scale, query, res.witness_perm, res.witness_fn, mode
            )
            for res, mode in ((mn, "min"), (mx, "max"))
        ):
            bad += 1
    return CriterionResult(
        "witness validity",
        bad == 0,
        f"{2 * len(rows)} witnesses checked, {bad} failures",
        time.time() - t0,
    )


def criterion_fast_paths(count: int = 500, grid_max: int = 6) -> CriterionResult:
    t0 = time.time()
    rows = corpus_results(count)
    bad = 0
    chain_hits = disjoint_hits = 0
    for poset, scale, query, mn, mx, _, _, _ in rows:
        try:
            cmin, cmax = chain_bounds(poset, scale, query)
            chain_hits += 1
            if cmin != mn.objective or cmax != mx.objective:
                bad += 1
        except NotAChain:
            pass
        try:
            if disjoint_bound(poset, scale, query, "min") != mn.objective:
                bad += 1
            disjoint_hits += 1
        except PreconditionViolated:
            pass
        try:
            if disjoint_bound(poset, scale, query, "max") != mx.objective:
                bad += 1
            disjoint_hits += 1
        except PreconditionViolated:
            pass
    column_checks = 0
    for n in range(1, grid_max + 1):
        for s in range(1, n + 1):
            column_checks += 1
            if column_chain_bound(n, s) != Fraction(s * (n + 1), 2 * n):
                bad += 1
    return CriterionResult(
        "closed-form fast paths",
        bad == 0,
        f"{chain_hits} chain / {disjoint_hits} disjoint applications, "
        f"{column_checks} grid column formulas, {bad} mismatches",
        time.time() - t0,
    )


def _random_order(rng: random.Random, below) -> list:
    """Random linear extension of the elements 0..k-1 by randomized greedy
    choice; ``below[i]`` is the bitmask of the elements strictly below i.
    Each step draws among the minimal remaining elements in ascending
    order."""
    remaining = (1 << len(below)) - 1
    out = []
    while remaining:
        minimal = [
            i for i, strict in enumerate(below)
            if remaining >> i & 1 and not strict & remaining
        ]
        pick = rng.choice(minimal)
        out.append(pick)
        remaining ^= 1 << pick
    return out


def criterion_swap_and_prefix(instances: int = 10**4) -> CriterionResult:
    """Swap closure and prefix property on randomized small instances."""
    t0 = time.time()
    rng = random.Random(PROPERTY_SEED)
    swap_checked = prefix_checked = bad = 0
    from .values import MonotoneBijection

    for _ in range(instances):
        n = rng.randint(2, 7)
        poset = _random_dag(rng, n)
        scale = ValueScale(range(1, n + 1))

        ext = _random_order(rng, [d ^ 1 << i for i, d in enumerate(poset.down)])
        ranks = [0] * n
        for pos, e in enumerate(ext):
            ranks[e] = pos + 1
        fn = MonotoneBijection(poset, scale, ranks)
        by_rank = sorted(range(n), key=lambda e: ranks[e])
        candidates = [
            k
            for k in range(n - 1)
            if not poset.comparable_idx(by_rank[k], by_rank[k + 1])
        ]
        if candidates:
            k = rng.choice(candidates)
            swapped = swap_adjacent(
                fn, poset.labels[by_rank[k]], poset.labels[by_rank[k + 1]]
            )
            swap_checked += 1
            if not check_monotone_bijection(poset, scale, swapped):
                bad += 1

        k = rng.randint(1, n)
        query = QuerySet(poset, rng.sample(poset.labels, k))
        perm = tuple(_random_order(rng, _query_below(poset.down, query.indices)))
        witness = build_witness(poset, scale, query, perm, "min")
        prefix_checked += 1
        mask = 0
        for p in perm:
            mask |= poset.down[query.indices[p]]
            size = mask.bit_count()
            filled = 0
            for e in range(n):
                if witness.ranks[e] <= size:
                    filled |= 1 << e
            if filled != mask:
                bad += 1
                break
    return CriterionResult(
        "swap closure and prefix property",
        bad == 0,
        f"{swap_checked} swaps, {prefix_checked} prefix checks, {bad} failures",
        time.time() - t0,
    )


_SURFACE_PAIRS = [
    (MonotoneMap1D.identity(), MonotoneMap1D.constant(0.25)),
    (MonotoneMap1D.identity(), MonotoneMap1D.constant(0.5)),
    (MonotoneMap1D.identity(), MonotoneMap1D.constant(0.75)),
    (MonotoneMap1D.identity(), MonotoneMap1D.identity()),
    (MonotoneMap1D.power(2), MonotoneMap1D.constant(0.25)),
    (MonotoneMap1D.power(2), MonotoneMap1D.constant(0.5)),
    (MonotoneMap1D.power(2), MonotoneMap1D.constant(0.75)),
    (MonotoneMap1D.power(2), MonotoneMap1D.identity()),
]


def criterion_surface_sharpness() -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    for m, t in _SURFACE_PAIRS:
        gap = abs(line_integral_bound(m, t) - line_integral_on_surface(m, t))
        worst = max(worst, gap)
    half_alpha_ok = True
    for alpha in (0.25, 0.5, 0.75):
        b = line_integral_bound(
            MonotoneMap1D.identity(), MonotoneMap1D.constant(alpha)
        )
        if abs(b - alpha / 2) > 1e-9:
            half_alpha_ok = False
    dt = time.time() - t0
    return CriterionResult(
        "surface sharpness",
        worst <= 1e-6 and half_alpha_ok and dt < 5.0,
        f"worst bound/integral gap {worst:.2e}, alpha/2 identity "
        f"{'exact' if half_alpha_ok else 'violated'}",
        dt,
    )


def criterion_surface_membership(grid_n: int = 400) -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    ok = True
    for m, t in _SURFACE_PAIRS:
        try:
            report = verify_membership(m, t, grid_n)
            worst = max(worst, report.max_distribution_deviation)
        except MembershipViolation:
            ok = False
    return CriterionResult(
        "surface membership",
        ok and worst <= 2.0 / grid_n + 1e-9,
        f"grid {grid_n}, worst distribution deviation {worst:.2e} "
        f"(budget {2.0 / grid_n:.2e})",
        time.time() - t0,
    )


def criterion_grid_convergence(ns=(20, 40, 80, 160)) -> CriterionResult:
    t0 = time.time()
    errors = []
    ok = True
    for n in ns:
        rec = grid_experiment(0.5, n, 10)
        errors.append(float(rec.abs_error))
        if column_chain_bound(n, rec.column) != rec.discrete_bound:
            ok = False
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    c_fit = max(e * n for e, n in zip(errors, ns))
    within = all(e <= c_fit / n + 1e-15 for e, n in zip(errors, ns))
    return CriterionResult(
        "grid discretization convergence",
        ok and decreasing and within,
        f"errors {['%.5f' % e for e in errors]} decreasing={decreasing}, "
        f"C={c_fit:.3f}, column bound ties exact={ok}",
        time.time() - t0,
    )


def criterion_process_bound(
    m_samples: int = 10**4, trials: int = 10**6
) -> CriterionResult:
    t0 = time.time()
    uniform = EmpiricalRV.uniform_grid(m_samples)
    identity = MonotoneMap1D.identity()
    checks = []

    bound = expectation_bound(identity, uniform)
    checks.append(abs(bound - 1 / 6) <= 2e-3)
    fubini = fubini_check(uniform)
    checks.append(fubini <= 1e-8)

    for alpha in (0.25, 0.5, 0.75):
        tau = EmpiricalRV.constant(alpha, 7)
        for m in (identity, MonotoneMap1D.power(2)):
            gap = abs(
                expectation_bound(m, tau)
                - line_integral_bound(m, MonotoneMap1D.constant(alpha))
            )
            checks.append(gap <= 1e-8)

    # The Monte Carlo estimate is weighted by the same closed-form cell
    # means as the bound, so the bound is checked here against quadrature
    # mode, which integrates the process at tau by adaptive Simpson.
    two_point = EmpiricalRV.two_point(0.2, 0.8, m_samples)
    quad_gap = max(
        abs(
            expectation_bound(m, tau)
            - expectation_at_tau(make_extremal_process(m, tau), "quadrature")[0]
        )
        for tau in (uniform, two_point)
        for m in (identity, MonotoneMap1D.power(2))
    )
    checks.append(quad_gap <= 1e-8)

    proc = make_extremal_process(identity, uniform)
    mc, stderr = expectation_at_tau(proc, "montecarlo", trials=trials, seed=MC_SEED)
    z = abs(mc - bound) / stderr if stderr > 0 else 0.0
    checks.append(z <= 3.0)
    mc2, _ = expectation_at_tau(proc, "montecarlo", trials=trials, seed=MC_SEED)
    checks.append(mc2 == mc)

    dt = time.time() - t0
    return CriterionResult(
        "process expectation bound",
        all(checks) and dt < 30.0,
        f"bound {bound:.6f} (target 1/6), fubini {fubini:.1e}, "
        f"closed form vs quadrature {quad_gap:.1e}, "
        f"monte carlo z={z:.2f} at {trials} trials",
        dt,
    )


def criterion_process_membership(grid: int = 400) -> CriterionResult:
    t0 = time.time()
    identity = MonotoneMap1D.identity()
    taus = {
        "uniform": EmpiricalRV.uniform_grid(10**4),
        "two-point": EmpiricalRV.two_point(0.2, 0.8, 100),
        "constant": EmpiricalRV.constant(0.5, 100),
    }
    worst = 0.0
    ok = True
    for tau in taus.values():
        try:
            report = verify_process_membership(
                make_extremal_process(identity, tau), grid, grid
            )
            worst = max(worst, report.max_deviation)
        except MembershipViolation:
            ok = False
    return CriterionResult(
        "process membership",
        ok and worst <= 0.02,
        f"{len(taus)} processes at {grid}x{grid}, worst deviation {worst:.4f}",
        time.time() - t0,
    )


def criterion_rows_grid_cross_check(max_brute_n: int = 3) -> CriterionResult:
    t0 = time.time()
    bad = 0
    checked = 0
    for n in (2, 3, 4):
        vectors = list(combinations_with_replacement(range(1, n + 1), n))
        for m, exact in ((MonotoneMap1D.identity(), True), (MonotoneMap1D.power(2), False)):
            for s_vec in vectors:
                checked += 1
                res = rows_grid_cross_check(m, n, s_vec)
                if exact:
                    if res["bound"] != res["closed_form"]:
                        bad += 1
                else:
                    if abs(float(res["bound"]) - res["closed_form"]) > 1e-12:
                        bad += 1
                if n <= max_brute_n:
                    bmin, _, _ = brute_min_max(
                        res["poset"], res["scale"], res["query"]
                    )
                    if bmin.objective != res["bound"]:
                        bad += 1
    return CriterionResult(
        "rows-grid closed form",
        bad == 0,
        f"{checked} index vectors checked, {bad} mismatches",
        time.time() - t0,
    )


def run_all(quick: bool = False) -> list[CriterionResult]:
    if quick:
        return [
            criterion_oracle_equivalence(count=60),
            criterion_witness_validity(count=60),
            criterion_fast_paths(count=60, grid_max=4),
            criterion_swap_and_prefix(instances=800),
            criterion_surface_sharpness(),
            criterion_surface_membership(grid_n=120),
            criterion_grid_convergence(ns=(20, 40)),
            criterion_process_bound(trials=10**5),
            criterion_process_membership(grid=120),
            criterion_rows_grid_cross_check(max_brute_n=2),
        ]
    return [
        criterion_oracle_equivalence(),
        criterion_witness_validity(),
        criterion_fast_paths(),
        criterion_swap_and_prefix(),
        criterion_surface_sharpness(),
        criterion_surface_membership(),
        criterion_grid_convergence(),
        criterion_process_bound(),
        criterion_process_membership(),
        criterion_rows_grid_cross_check(),
    ]
