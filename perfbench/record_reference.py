"""Record ``reference.json``: the exact objectives of the fixed
``wide-query`` and ``grid-scale`` instances and sampled values of the
``continuum`` surfaces.

The reference was recorded once from the seed code of the package.  A change
to the program must never re-record it: a wrong answer has to show up as a
failed operation.  Re-record only when the benchmark's instances change.

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from pathlib import Path

import workloads as W


def _objectives(instances, rng):
    out = {}
    for name, inst in instances.items():
        files = W._write_solve_inputs(name, *inst, rng)
        payload = json.loads(W._run_cli(
            ["solve", "--poset", files[0], "--scale", files[1], "--query", files[2],
             "--mode", "both"])["stdout"])
        out[name] = {mode: payload[mode]["objective"] for mode in ("min", "max")}
    return out


def main() -> int:
    work = Path(__file__).resolve().parent / ".work"
    work.mkdir(exist_ok=True)
    rng = random.Random(0)
    ref = {}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.chdir(tmp)
        ref["wide-query"] = _objectives(W.wide_instances(), rng)
        ref["grid-scale"] = {
            str(v): _objectives(W.grid_instances(v), rng) for v in range(W.GRID_VARIANTS)
        }
        ref["continuum"] = {}
        for name, m, t, grid in W.EXTREMAL:
            W._run_cli(["cont-extremal", "--m", m, "--t", t, "--grid", str(grid),
                        "--out", "surface.csv"])
            values = W.read_surface_csv("surface.csv")[:, 2].reshape(grid, grid)
            cells = W.sample_cells(grid)
            ref["continuum"][name] = [float(x) for x in values[cells[:, 0], cells[:, 1]]]
        os.chdir(work)
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
