"""The four benchmark workloads: inputs made from a seed, the timed
operations, and the checks each operation's output must pass.

``build(workload, seed)`` writes the input files into the current directory
and returns the operations.  An :class:`Op` has a ``call`` (timed) and a
``check`` (run afterwards, untimed) that returns a list of problems; an
operation with a problem or an exception counts as failed.

The expensive instances of ``wide-query`` and ``grid-scale`` and all of
``continuum`` are fixed, so that the cost of a pass does not depend on the
seed; there the seed changes the presentation (order of query labels,
covers, samples and operations) and, for ``grid-scale``, which of eight
recorded positions the queries take.  ``small-corpus`` draws its whole corpus
from the seed: it has thousands of instances, so their total cost is steady.
Objectives of the fixed instances are compared with ``reference.json``,
recorded from the seed code of the package.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import monoext
import monoext.cli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SMALL_CORPUS_SIZE = 1500
SMALL_GRID_QUERIES = 20      # instances per fixed grid in small-corpus
GRID_VARIANTS = 8            # recorded query positions in grid-scale
MC_TRIALS = 10**7
TAU_SAMPLES = 10**4


class Faults:
    """Deliberate faults for the negative controls; each is applied once."""

    def __init__(self, names=()):
        self.pending = set(names)

    def take(self, name: str) -> bool:
        if name in self.pending:
            self.pending.discard(name)
            return True
        return False


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict, Faults], list]
    # For CLI operations: stdout + files written, in bytes.
    bytes_out: Callable[[Any], int] = field(default=lambda out: 0)


# ----------------------------------------------------------------- helpers

def _frac_json(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _label_key(lab):
    return tuple(_label_key(x) for x in lab) if isinstance(lab, list) else lab


def _scale_values(rng: random.Random, n: int, kind: str) -> list:
    """n strictly increasing exact values of one of three kinds."""
    if kind == "integer":
        cur, out = rng.randint(-10, 10), []
        for _ in range(n):
            cur += rng.randint(1, 4)
            out.append(Fraction(cur))
        return out
    if kind == "fraction":
        den, start = rng.randint(2, 12), rng.randint(-n, n)
        return [Fraction(start + i, den) for i in range(n)]
    cur, out = Fraction(rng.randint(-12, 0)), []
    for _ in range(n):
        cur += Fraction(rng.randint(1, 9), rng.randint(1, 9))
        out.append(cur)
    return out


SCALE_KINDS = ("integer", "fraction", "rational")


def _random_dag(rng: random.Random, n: int, p: float):
    labels = list(range(n))
    covers = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return labels, covers


def _grid_covers(nx: int, ny: int, order: str):
    labels = [[i, j] for i in range(1, nx + 1) for j in range(1, ny + 1)]
    covers = []
    for i in range(1, nx + 1):
        for j in range(1, ny + 1):
            if i < nx:
                covers.append([[i, j], [i + 1, j]])
            if order == "product" and j < ny:
                covers.append([[i, j], [i, j + 1]])
    return labels, covers


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = monoext.cli.main(argv, stdout=out, stderr=err)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_bytes(out_files):
    def count(out):
        n = len(out["stdout"].encode())
        return n + sum(os.path.getsize(f) for f in out_files if os.path.exists(f))
    return count


def _cli_payload(out, problems):
    if out["rc"] != 0:
        problems.append(f"exit code {out['rc']}: {out['stderr'][:200]}")
        return None
    return json.loads(out["stdout"])


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------ solve (CLI) checks

class _Loaded:
    """Check-side cache of posets, scales and queries loaded from the input
    files, so that instances sharing a poset load it once."""

    def __init__(self):
        self.cache = {}

    def get(self, kind, path, *extra):
        key = (kind, path)
        if key not in self.cache:
            loader = getattr(monoext.cli, f"load_{kind}")
            self.cache[key] = loader(path, *extra)
        return self.cache[key]


def _solve_op(name, files, ref, loaded):
    poset_f, scale_f, query_f = files
    argv = ["solve", "--poset", poset_f, "--scale", scale_f, "--query", query_f,
            "--mode", "both", "--witness"]

    def check(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is None:
            return problems
        poset = loaded.get("poset", poset_f)
        scale = loaded.get("scale", scale_f)
        query = loaded.get("query", query_f, poset)
        rank_of = {v: r for r, v in enumerate(scale.values, start=1)}
        for mode, cond in (("min", monoext.conditional_min),
                           ("max", monoext.conditional_max)):
            res = payload[mode]
            objective = Fraction(res["objective"])
            if mode == "min" and faults.take("objective"):
                objective += Fraction(1, objective.denominator)
            if objective != Fraction(ref[mode]):
                problems.append(f"{mode} objective {objective} != reference {ref[mode]}")
            ranks = {}
            for lab, val in res["witness_fn"]:
                r = rank_of.get(Fraction(val))
                if r is None:
                    problems.append(f"{mode} witness value {val} not in the scale")
                    return problems
                ranks[_label_key(lab)] = r
            if not monoext.check_monotone_bijection(poset, scale, ranks).ok:
                problems.append(f"{mode} witness is not a monotone bijection")
            perm = [p - 1 for p in res["witness_perm"]]
            if cond(poset, scale, query, perm) != objective:
                problems.append(f"conditional_{mode} of witness_perm != objective")
        return problems

    return Op(name, lambda: _run_cli(argv), check, bytes_out=_cli_bytes(()))


# ---------------------------------------------------------------- wide-query

# (generator seed, N, scale kind); query size 10, edge probability 2/N.
WIDE_DAGS = ((1000, 40, "integer"), (1001, 50, "fraction"), (1002, 60, "rational"))
WIDE_GRIDS = (10, 11)
WIDE_DAG_K = 10


def wide_instances():
    """name -> (poset doc, scale doc, query labels), in canonical form."""
    out = {}
    for n in WIDE_GRIDS:
        out[f"grid{n}-antidiag"] = (
            {"grid": {"n": n, "order": "product"}},
            {"from_m": {"m": "id", "n": n}},
            [[i, n + 1 - i] for i in range(1, n + 1)],
        )
    for gen_seed, n, kind in WIDE_DAGS:
        rng = random.Random(gen_seed)
        labels, covers = _random_dag(rng, n, 2.0 / n)
        query = rng.sample(labels, WIDE_DAG_K)
        values = _scale_values(rng, n, kind)
        out[f"dag{n}-{kind}"] = (
            {"labels": labels, "covers": covers},
            {"values": [_frac_json(v) for v in values]},
            query,
        )
    return out


def _write_solve_inputs(name, poset, scale, query, rng):
    """Write one instance with its covers and query shuffled by ``rng``."""
    poset = dict(poset)
    if "covers" in poset:
        poset["covers"] = rng.sample(poset["covers"], len(poset["covers"]))
    query = rng.sample(query, len(query))
    return (_write_json(f"poset-{name}.json", poset),
            _write_json(f"scale-{name}.json", scale),
            _write_json(f"query-{name}.json", {"query": query}))


def build_wide_query(seed: int):
    rng = random.Random(seed)
    ref = load_reference()["wide-query"]
    loaded = _Loaded()
    ops = [_solve_op(name, _write_solve_inputs(name, *inst, rng), ref[name], loaded)
           for name, inst in wide_instances().items()]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- grid-scale

GRID_EXP_N = 160


def grid_instances(variant: int):
    """name -> (poset doc, scale doc, query labels) for one recorded variant.

    Column chains and 8-element antichains on product grids, and 6-element
    queries with pairwise disjoint down-sets (one per row) on rows grids.
    """
    v = variant
    out = {}
    for n, m in ((60, "id"), (50, "power:2")):
        poset = {"grid": {"n": n, "order": "product"}}
        scale = {"from_m": {"m": m, "n": n}}
        c = n // 2 - 2 + v
        out[f"product{n}-{m}-column"] = (poset, scale, [[c, j] for j in range(1, n + 1)])
        out[f"product{n}-{m}-antichain"] = (
            poset, scale, [[c - 3 + i, c + 4 - i] for i in range(8)])
    for n, m, step in ((60, "id", 8), (40, "power:2", 5)):
        poset = {"grid": {"n": n, "order": "rows"}}
        scale = {"from_m": {"m": m, "n": n}}
        out[f"rows{n}-{m}-disjoint"] = (
            poset, scale, [[3 + step * r + v, 3 + (n // 6) * r] for r in range(6)])
    return out


def build_grid_scale(seed: int):
    rng = random.Random(seed)
    variant = seed % GRID_VARIANTS
    ref = load_reference()["grid-scale"][str(variant)]
    loaded = _Loaded()
    ops = [_solve_op(name, _write_solve_inputs(name, *inst, rng), ref[name], loaded)
           for name, inst in grid_instances(variant).items()]

    alpha = (variant + 4) / 16
    column = math.ceil(Fraction(alpha) * GRID_EXP_N)
    argv = ["grid-exp", "--alpha", repr(alpha), "--n", str(GRID_EXP_N), "--k", "10"]

    def check_grid_exp(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is not None and payload["column"] != column:
            problems.append(f"grid-exp column {payload['column']} != {column}")
        return problems

    def check_chain(out, results, faults):
        grid_out = results["grid-exp"]
        if grid_out is None or grid_out["rc"] != 0:
            return ["grid-exp failed, nothing to tie to"]
        bound = Fraction(json.loads(grid_out["stdout"])["discrete_bound"])
        if out != bound:
            return [f"column_chain_bound {out} != grid-exp discrete_bound {bound}"]
        return []

    ops.append(Op("grid-exp", lambda: _run_cli(argv), check_grid_exp,
                  bytes_out=_cli_bytes(())))
    ops.append(Op("column-chain-bound",
                  lambda: monoext.column_chain_bound(GRID_EXP_N, column), check_chain))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- small-corpus

def small_instances(seed: int, count: int = SMALL_CORPUS_SIZE):
    """(labels, covers, scale values, query labels) drawn from ``seed``:
    the 2x2, 2x3 and 3x3 grids under both orders, then random DAGs with
    N <= 8; random query sizes; integer, regular-fraction and irregular
    rational scales.

    The DAGs are stratified: each N from 1 to 8 gets the same number of
    instances, whose edge counts sweep 0%..60% of the possible pairs while
    the query size cycles through 1..N; which pairs are edges and which
    elements are queried is random.  Cost is dominated by the sparsest
    posets, so drawing edge counts and query sizes at random would make the
    corpus's total cost swing by about 20% from seed to seed.  The first
    instance of each N is an antichain, and the 8-element one (8! linear
    extensions) is the slowest operation of every corpus.
    """
    rng = random.Random(seed)
    out = []
    for nx, ny in ((2, 2), (2, 3), (3, 3)):
        for order in ("product", "rows"):
            labels, covers = _grid_covers(nx, ny, order)
            labels = [tuple(x) for x in labels]
            covers = [(tuple(a), tuple(b)) for a, b in covers]
            for _ in range(SMALL_GRID_QUERIES):
                k = rng.randint(1, len(labels))
                out.append((labels, covers,
                            _scale_values(rng, len(labels), rng.choice(SCALE_KINDS)),
                            rng.sample(labels, k)))
    per_n = (count - len(out)) // 8
    for n in range(1, 9):
        labels = list(range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i in range(per_n):
            share = 0.6 * i / per_n
            covers = rng.sample(pairs, round(share * len(pairs)))
            k = 1 + i % n
            out.append((labels, covers,
                        _scale_values(rng, n, rng.choice(SCALE_KINDS)),
                        rng.sample(labels, k)))
    rng.shuffle(out)
    return out


def _small_call(labels, covers, scale, query):
    def call():
        poset = monoext.build_poset(labels, covers)
        q = monoext.QuerySet(poset, query)
        smin = monoext.solve_min(poset, scale, q)
        smax = monoext.solve_max(poset, scale, q)
        bmin, bmax, _count = monoext.brute_min_max(poset, scale, q)
        return poset, smin, smax, bmin, bmax
    return call


def _small_check(scale):
    def check(out, results, faults):
        poset, smin, smax, bmin, bmax = out
        problems = []
        solver_min = smin.objective
        if faults.take("objective"):
            solver_min += Fraction(1, solver_min.denominator)
        if solver_min != bmin.objective:
            problems.append(f"solver min {solver_min} != oracle {bmin.objective}")
        if smax.objective != bmax.objective:
            problems.append(f"solver max {smax.objective} != oracle {bmax.objective}")
        for which, res in (("min", smin), ("max", smax)):
            if not monoext.check_monotone_bijection(poset, scale, res.witness_fn).ok:
                problems.append(f"solver {which} witness is not a monotone bijection")
        return problems
    return check


def build_small_corpus(seed: int):
    ops = []
    for i, (labels, covers, values, query) in enumerate(small_instances(seed)):
        scale = monoext.ValueScale(values)
        ops.append(Op(f"instance-{i}", _small_call(labels, covers, scale, query),
                      _small_check(scale)))
    return ops


# ----------------------------------------------------------------- continuum

EXTREMAL = (
    ("extremal-id-id", "id", "id", 400),
    ("extremal-power2-const", "power:2", "const:0.5", 400),
    ("extremal-power2-pwlflat", "power:2", "pwl:0,0;0.3,0.3;0.6,0.3;1,1", 200),
)
SURFACE_PAIRS = tuple(
    (m, t) for m in ("id", "power:2")
    for t in ("const:0.25", "const:0.5", "const:0.75", "id")
)
CONT_TOL = 1e-12
PROC_SIM = (("sim-uniform", "id", "tau-uniform.csv"),
            ("sim-twopoint", "power:2", "tau-twopoint.csv"))
MC_SEED = 1
SAMPLE_POINTS = 64


def m_inverse(spec: str, u: np.ndarray) -> np.ndarray:
    """Inverse of the value maps used here, written independently."""
    if spec == "id":
        return u
    if spec == "power:2":
        return np.sqrt(u)
    raise ValueError(spec)


def sample_cells(grid: int):
    """The fixed cells whose values are compared with the reference."""
    rng = np.random.default_rng(0)
    return rng.integers(0, grid, size=(SAMPLE_POINTS, 2))


def read_surface_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _break_one_row(path: str, grid: int) -> None:
    """Negative control: raise one value so the surface stops being monotone."""
    with open(path) as fh:
        lines = fh.readlines()
    row = 1 + (grid // 2) * grid + grid // 2
    x, y, value = lines[row].rstrip("\n").split(",")
    lines[row] = f"{x},{y},{float(value) + 1.0!r}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _extremal_op(name, m, t, grid, ref):
    out_file = f"{name}.csv"
    argv = ["cont-extremal", "--m", m, "--t", t, "--grid", str(grid), "--out", out_file]

    def check(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is None:
            return problems
        if not payload["membership"]["ok"]:
            problems.append("membership.ok is false")
        if faults.take("csv"):
            _break_one_row(out_file, grid)
        data = read_surface_csv(out_file)
        if data.shape != (grid * grid, 3):
            return problems + [f"CSV has shape {data.shape}, want {(grid * grid, 3)}"]
        centers = (np.arange(grid) + 0.5) / grid
        if not (np.array_equal(data[:, 0], np.repeat(centers, grid))
                and np.array_equal(data[:, 1], np.tile(centers, grid))):
            problems.append("CSV coordinates are not the cell centers")
        values = data[:, 2].reshape(grid, grid)
        if not (np.diff(values, axis=0) >= 0).all():
            problems.append("surface decreases in x")
        if not (np.diff(values, axis=1) >= 0).all():
            problems.append("surface decreases in y")
        flat = np.sort(values.ravel())
        levels = np.linspace(0.0, 1.0, 101)
        above = flat.size - np.searchsorted(flat, m_inverse(m, levels), side="right")
        worst = float(np.abs(above / flat.size - (1.0 - levels)).max())
        if worst > 2.0 / grid + 1e-9:
            problems.append(f"level-set deviation {worst} > {2.0 / grid + 1e-9}")
        cells = sample_cells(grid)
        got = values[cells[:, 0], cells[:, 1]]
        if not np.all(np.abs(got - np.array(ref)) <= 1e-9):
            problems.append("sampled surface values differ from the reference")
        return problems

    return Op(name, lambda: _run_cli(argv), check, bytes_out=_cli_bytes((out_file,)))


def _cont_bound_op(m, t):
    argv = ["cont-bound", "--m", m, "--t", t, "--tol", repr(CONT_TOL)]

    def check(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is None:
            return problems
        bound = payload["bound"]
        if not abs(bound - payload["surface_integral"]) <= 2 * CONT_TOL:
            problems.append(f"|bound - surface_integral| > 2 tol for {m} {t}")
        if m == "id" and t.startswith("const:"):
            alpha = float(t.split(":")[1])
            if not abs(bound - alpha / 2) <= 1e-9:
                problems.append(f"bound {bound} != alpha/2 for {t}")
        return problems

    return Op(f"bound-{m}-{t}", lambda: _run_cli(argv), check, bytes_out=_cli_bytes(()))


def _proc_bound_op(tau_file):
    argv = ["proc-bound", "--m", "id", "--tau", tau_file, "--simplified"]

    def check(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is not None:
            gap = abs(payload["bound"] - float(Fraction(payload["simplified"])))
            if not gap <= 2e-9:
                problems.append(f"quadrature bound and simplified bound differ by {gap}")
        return problems

    return Op(f"proc-bound-{tau_file}", lambda: _run_cli(argv), check,
              bytes_out=_cli_bytes(()))


def _proc_sim_op(name, m, tau_file):
    def argv(s):
        return ["proc-sim", "--m", m, "--tau", tau_file, "--trials", str(MC_TRIALS),
                "--seed", str(s), "--verify", "400,400"]

    def check(out, results, faults):
        problems = []
        payload = _cli_payload(out, problems)
        if payload is None:
            return problems
        if not payload["membership_report"]["ok"]:
            problems.append("membership_report.ok is false")
        gap = abs(payload["expectation"] - payload["bound"])
        if not gap <= 3 * payload["stderr"]:
            problems.append(f"Monte Carlo estimate {gap / payload['stderr']:.2f} "
                            "standard errors from the bound")
        again = _run_cli(argv(MC_SEED + 1 if faults.take("mc-seed") else MC_SEED))
        if again["rc"] != 0 or json.loads(again["stdout"])["expectation"] != payload["expectation"]:
            problems.append("Monte Carlo estimate does not repeat for the same seed")
        return problems

    return Op(name, lambda: _run_cli(argv(MC_SEED)), check, bytes_out=_cli_bytes(()))


def _write_tau(path: str, samples, rng: random.Random) -> None:
    samples = list(samples)
    rng.shuffle(samples)
    with open(path, "w") as fh:
        fh.writelines(f"{x!r}\n" for x in samples)


def build_continuum(seed: int):
    rng = random.Random(seed)
    ref = load_reference()["continuum"]
    _write_tau("tau-uniform.csv",
               ((i + 0.5) / TAU_SAMPLES for i in range(TAU_SAMPLES)), rng)
    half = TAU_SAMPLES // 2
    _write_tau("tau-twopoint.csv", [0.2] * half + [0.8] * (TAU_SAMPLES - half), rng)
    ops = [_extremal_op(name, m, t, grid, ref[name]) for name, m, t, grid in EXTREMAL]
    ops += [_cont_bound_op(m, t) for m, t in SURFACE_PAIRS]
    ops += [_proc_bound_op(f) for f in ("tau-uniform.csv", "tau-twopoint.csv")]
    ops += [_proc_sim_op(*spec) for spec in PROC_SIM]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "wide-query": build_wide_query,
    "small-corpus": build_small_corpus,
    "grid-scale": build_grid_scale,
    "continuum": build_continuum,
}


def build(workload: str, seed: int):
    return BUILDERS[workload](seed)
