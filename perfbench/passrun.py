"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` with the working directory set to an empty scratch
directory.  Set-up (``import monoext``, generating and writing the inputs)
is timed from the parent's spawn time; then the operations run back to back
in the timed region; then, untimed, every output is checked.  The pass
writes its figures as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", action="append", default=[],
                        choices=("objective", "csv", "mc-seed"))
    args = parser.parse_args()

    import numpy
    import monoext
    import workloads
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.setup_only:
        return _write(args.result, result)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(monoext)
        tracer.start()
    outputs, op_s, errors = {}, [], {}
    t0 = time.perf_counter()
    for op in ops:
        a = time.perf_counter()
        try:
            outputs[op.name] = op.call()
        except Exception as e:  # an operation that raises counts as failed
            outputs[op.name] = None
            errors[op.name] = f"{type(e).__name__}: {e}"
        op_s.append(time.perf_counter() - a)
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.stop()

    faults = workloads.Faults(args.inject)
    failures = dict(errors)
    bytes_out = 0
    for op in ops:
        out = outputs[op.name]
        if out is None:
            continue
        bytes_out += op.bytes_out(out)
        problems = op.check(out, outputs, faults)
        if problems:
            failures[op.name] = "; ".join(problems)
    if faults.pending:
        raise RuntimeError(f"faults not applied: {sorted(faults.pending)}")

    result.update({
        "run_s": t1 - t0,
        "op_s": {op.name: t for op, t in zip(ops, op_s)},
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": dict(list(failures.items())[:20]),
    })
    if tracer:
        report = tracer.report(t0, t1)
        report["counts"]["cli.bytes_out"] = bytes_out
        result["trace"] = report
        numpy.savez("spans.npz", names=numpy.array([n for _, n in tracer.funcs]),
                    **{k: numpy.asarray(v) for k, v in tracer.span_arrays().items()})
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
