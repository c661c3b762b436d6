"""monoext benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload for about S seconds, each pass in a fresh child
interpreter (one at a time), and prints as its last stdout line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over passes);
with ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones.  The line before it records the environment.  Details
of every pass go to ``perfbench/.work/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import EXACT_COUNTS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("wide-query", "small-corpus", "grid-scale", "continuum")
HARD_LIMIT_S = 170.0
SETUP_ONLY_CHILDREN = 6
MIN_PASSES = 2          # of each kind: untraced, and traced when tracing

END_TO_END = {"run_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_UNITS = {"cli.bytes_out": "bytes"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, args, run_dir: Path, start: float):
        self.args = args
        self.run_dir = run_dir
        self.start = start
        self.env = child_env()
        self.children = 0

    def child(self, trace: bool, setup_only: bool = False) -> dict:
        self.children += 1
        cwd = self.run_dir / f"pass{self.children}"
        cwd.mkdir()
        result = cwd / "result.json"
        remaining = HARD_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 1:
            raise BenchError("out of time before the pass started")
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(BENCH / "passrun.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(int(trace)), "--spawned-at", repr(spawned_at),
               "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        for fault in self.args.inject:
            cmd += ["--inject", fault]
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result) as fh:
            out = json.load(fh)
        out["wall_s"] = time.monotonic() - spawned_at
        if trace and (cwd / "spans.npz").exists():
            os.replace(cwd / "spans.npz", self.run_dir / "spans-last.npz")
        shutil.rmtree(cwd)
        return out


def run_passes(runner: Runner, seconds: float, trace: bool):
    """Alternate untraced and (when tracing) traced passes until the next
    pass would end after ``seconds``, but run at least MIN_PASSES of each."""
    setups = [runner.child(False, setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY_CHILDREN)]
    kinds = (False, True) if trace else (False,)
    passes = {k: [] for k in kinds}
    while True:
        for kind in kinds:
            passes[kind].append(runner.child(kind))
        done = all(len(p) >= MIN_PASSES for p in passes.values())
        elapsed = time.monotonic() - runner.start
        round_s = sum(p[-1]["wall_s"] for p in passes.values())
        if done and elapsed + round_s > seconds:
            return setups, passes


def op_medians(passes) -> dict:
    """Each operation's median time over the passes, which all run the
    same operations (same seed)."""
    return {name: median([p["op_s"][name] for p in passes])
            for name in passes[0]["op_s"]}


def end_to_end(setups, untraced) -> dict:
    return {
        "run_s": median([p["run_s"] for p in untraced]),
        # The slowest operation by its median time: the maximum over one
        # pass would pick up whichever operation a transient stall hit.
        "slowest_op_s": max(op_medians(untraced).values()),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        "setup_s": median(setups + [p["setup_s"] for p in untraced]),
    }


def per_layer(untraced, traced) -> dict:
    reports = [p["trace"] for p in traced]
    counts = reports[0]["counts"]
    for r in reports[1:]:
        if r["counts"] != counts:
            raise BenchError(f"exact counts differ between passes: {counts} vs {r['counts']}")
    out = {}
    for layer in LAYERS:
        out[layer + "_s"] = (median([r["layer_self_s"][layer] for r in reports]), "s")
    for name in EXACT_COUNTS:
        out[name] = (counts[name], COUNT_UNITS.get(name, "count"))
    enum_s = out["oracle.enum_s"][0]
    out["oracle.extensions_per_s"] = (
        counts["oracle.extensions"] / enum_s if enum_s > 0 else 0.0, "1/s")
    traced_run_s = median([p["run_s"] for p in traced])
    out["harness_s"] = (median([r["harness_s"] for r in reports]), "s")
    out["trace.run_s"] = (traced_run_s, "s")
    out["trace.overhead_s"] = (traced_run_s - median([p["run_s"] for p in untraced]), "s")
    out["trace.spans"] = (reports[0]["spans"], "count")
    return out


def check_counts_repeat(workload: str, seed: int, counts: dict) -> None:
    """Fail loudly if the exact counts differ from an earlier run of the
    same code on the same inputs."""
    path = WORK / "counts.json"
    key = f"{source_hash()}:{workload}:{seed}"
    known = {}
    if path.exists():
        with open(path) as fh:
            known = json.load(fh)
    if key in known and known[key] != counts:
        raise BenchError(f"exact counts changed for the same code and seed: "
                         f"{known[key]} then {counts}")
    known[key] = counts
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        choices=("objective", "csv", "mc-seed"),
                        help="negative control: plant a fault the checks must catch")
    args = parser.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "monoext" / "__init__.py").is_file():
        print("error: no monoext package under src/ next to perfbench/", file=sys.stderr)
        return 2
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(args, run_dir, start)
        setups, passes = run_passes(runner, args.seconds, bool(args.trace))
        untraced, traced = passes[False], passes.get(True, [])
        if args.trace:
            layer = per_layer(untraced, traced)
            check_counts_repeat(args.workload, args.seed,
                                {k: layer[k][0] for k in EXACT_COUNTS})
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            if (run_dir / "spans-last.npz").exists():
                os.replace(run_dir / "spans-last.npz", results_dir / f"{tag}-spans.npz")
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in end_to_end(setups, untraced).items()}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_passes = untraced + traced
    slowest = sorted(op_medians(untraced).items(), key=lambda item: -item[1])[:10]
    for p in all_passes:
        del p["op_s"]
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    env = environment()
    env["numpy"] = all_passes[0]["numpy"]
    with open(results_dir / f"{tag}.json", "w") as fh:
        json.dump({"environment": env, "setup_only_s": setups,
                   "slowest_ops_median_s": dict(slowest),
                   "untraced": untraced, "traced": traced, "metrics": metrics},
                  fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
