"""Command-line entry point.

Subcommands: solve, oracle, grid-exp, cont-bound, cont-extremal,
proc-bound, proc-sim, selftest.  Results are printed as JSON with sorted
keys; exact rationals are serialized as "p/q" strings (grid-exp writes
str(Fraction), so "2" for 2/1).  Exit codes: 0 success, 2 validation
error, 3 enumeration cap exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import add

import numpy as np

from .continuous import (
    MAX_SURFACE_GRID,
    _surface_rows,
    line_integral_bound,
    line_integral_on_surface,
    verify_membership,
)
from .discretize import grid_experiment, scale_from_m
from .errors import CapExceeded, MonoextError, ValidationError
from .func1d import EmpiricalRV, MonotoneMap1D
from .grid import _GridLabels
from .oracle import brute_min_max
from .poset import DEFAULT_CAP, Poset, QuerySet, build_poset, grid_poset
from .process import (
    check_trials,
    expectation_at_tau,
    expectation_bound,
    make_extremal_process,
    simplified_bound,
    verify_process_membership,
)
from .solver import solve_max, solve_min
from .values import BoundResult, MonotoneBijection, ValueScale, _is_int

USAGE_EXIT = 64
VALIDATION_EXIT = 2
CAP_EXIT = 3
# Error messages are cut to this many characters of JSON text.
MAX_MESSAGE = 1000
# grid-exp fills an n x n numpy table of int64 (about 55 MB peak resident at
# the maximum in a fresh process, 31 MB of it the interpreter with numpy;
# ru_maxrss, Python 3.11, numpy 2.4).
MAX_GRID_EXP_N = 1000
# A {"grid": {"n": n}} poset holds no per-element object and computes the
# down-set and up-set of an element only when they are read, and a from_m
# scale holds integers, but a witness holds n**2 ranks and its output n**2
# printed values: a column-chain `solve --mode both --witness` peaks at
# 86 MB resident at the maximum for the scale id, 115 MB for power:2
# (108 MB and 143 MB at n = 400; Python 3.11, numpy 2.4, glibc malloc).
MAX_POSET_GRID = 350
# The seed keys proc-sim's Monte Carlo Philox generator, whose key is 128
# bits.
MAX_SEED = 2**128


@dataclass
class RunConfig:
    tol: float = 1e-9
    cap: int = DEFAULT_CAP
    seed: int = 0

    def validate(self) -> "RunConfig":
        tol_is_number = _is_int(self.tol) or isinstance(self.tol, float)
        if not (tol_is_number and 0 < self.tol <= sys.float_info.max):
            raise ValidationError(f"tol must be a finite number > 0, got {self.tol!r}")
        if not (_is_int(self.cap) and self.cap >= 1):
            raise ValidationError(f"cap must be an integer >= 1, got {self.cap!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < MAX_SEED):
            raise ValidationError(
                f"seed must be an integer in [0, 2**128), got {self.seed!r}"
            )
        return self


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _frac(v) -> str:
    f = v if isinstance(v, Fraction) else Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _labelize(obj):
    """JSON labels to internal labels: lists become tuples, recursively."""
    if isinstance(obj, list):
        return tuple(_labelize(x) for x in obj)
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # json raises RecursionError for arrays or objects nested past the
        # interpreter's recursion limit.
        raise ValidationError(f"{path} is not valid JSON: {e}") from e


@contextmanager
def _malformed(what: str):
    """Report a missing key, wrong type or bad number in ``what`` as a
    :class:`ValidationError` instead of a traceback; so is a label nested
    too deep to be read."""
    try:
        yield
    except (ArithmeticError, KeyError, TypeError, ValueError, RecursionError) as e:
        raise ValidationError(f"malformed {what}: {type(e).__name__}: {e}") from e


def _array(v, what: str) -> list:
    """``v`` if it is a JSON array; a string or object, which would be
    read character by character or key by key, is rejected."""
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be an array, got {type(v).__name__}")
    return v


def _grid_side(n, what: str) -> int:
    """``n`` if it is a JSON integer; a float, string or bool is rejected
    rather than truncated."""
    if not _is_int(n):
        raise ValidationError(f"{what} must be an integer, got {n!r}")
    return n


def load_poset(path: str) -> Poset:
    doc = _load_json(path)
    with _malformed(f"poset {path}"):
        if "grid" in doc:
            g = doc["grid"]
            n = _grid_side(g["n"], "grid n")
            if n > MAX_POSET_GRID:
                raise ValidationError(f"grid n must be at most {MAX_POSET_GRID}")
            return grid_poset(n, g.get("order", "product"))
        if "labels" not in doc or "covers" not in doc:
            raise ValidationError("poset JSON needs 'labels'+'covers' or 'grid'")
        labels = [_labelize(x) for x in _array(doc["labels"], "labels")]
        covers = [_array(c, "cover") for c in _array(doc["covers"], "covers")]
        covers = [(_labelize(a), _labelize(b)) for a, b in covers]
        return build_poset(labels, covers)


def _spec_number(v) -> float:
    """A map-spec number: a JSON number or a numeric string.  A bool is
    refused rather than read as 1 or 0."""
    if isinstance(v, bool):
        raise ValidationError(f"map spec number must not be a bool, got {v!r}")
    return float(v)


def parse_map_spec(spec) -> MonotoneMap1D:
    """The map of a JSON map spec: ``{"kind": "identity"}``, ``{"kind":
    "power", "p": p}``, ``{"kind": "const", "alpha": a}`` or ``{"kind":
    "pwl", "points": [[x, y], ...]}``."""
    if not isinstance(spec, dict):
        raise ValidationError(f"map spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    with _malformed(f"{kind!r} map spec"):
        if kind == "identity":
            return MonotoneMap1D.identity()
        if kind == "power":
            return MonotoneMap1D.power(_spec_number(spec["p"]))
        if kind == "pwl":
            points = [_array(pt, "pwl point")
                      for pt in _array(spec["points"], "pwl points")]
            return MonotoneMap1D.piecewise_linear(
                [(_spec_number(x), _spec_number(y)) for x, y in points]
            )
        if kind == "const":
            return MonotoneMap1D.constant(_spec_number(spec["alpha"]))
    raise ValidationError(f"unknown map kind {kind!r}")


def load_map(arg) -> MonotoneMap1D:
    """A map spec object, a shorthand ("id", "power:2", "const:0.5",
    "pwl:x,y;x,y;...") or a path to a map-spec JSON file.

    A shorthand is a spelling of the JSON spec: "power:2" is read as
    {"kind": "power", "p": "2"} and "pwl:0,0;1,1" as {"kind": "pwl",
    "points": [["0", "0"], ["1", "1"]]}, and every spec goes through
    :func:`parse_map_spec`.
    """
    if not isinstance(arg, str):
        return parse_map_spec(arg)
    kind, colon, rest = arg.partition(":")
    if arg in ("id", "identity"):
        spec = {"kind": "identity"}
    elif colon and kind == "power":
        spec = {"kind": kind, "p": rest}
    elif colon and kind == "const":
        spec = {"kind": kind, "alpha": rest}
    elif colon and kind == "pwl":
        spec = {"kind": kind, "points": [c.split(",") for c in rest.split(";")]}
    else:
        spec = _load_json(arg)
    return parse_map_spec(spec)


def load_scale(path: str, size: int | None = None) -> ValueScale:
    """Load a scale document.  Given the poset's ``size``, a ``from_m``
    scale whose ``n * n`` values would not match it is rejected before it
    is built."""
    doc = _load_json(path)
    with _malformed(f"scale {path}"):
        if "values" in doc:
            vals = []
            for v in _array(doc["values"], "values"):
                vals.append(Fraction(v) if isinstance(v, str) else v)
            return ValueScale(vals)
        if "from_m" in doc:
            sub = doc["from_m"]
            n = _grid_side(sub["n"], "from_m n")
            if size is not None and n * n != size:
                raise ValidationError(
                    f"scale has {n * n} values for a poset of {size} elements"
                )
            return scale_from_m(load_map(sub["m"]), n)
    raise ValidationError("scale JSON needs 'values' or 'from_m'")


def load_query(path: str, poset: Poset) -> QuerySet:
    doc = _load_json(path)
    with _malformed(f"query {path}"):
        if "query" not in doc:
            raise ValidationError("query JSON needs a 'query' list")
        return QuerySet(poset, [_labelize(x) for x in _array(doc["query"], "query")])


def load_samples(path: str) -> EmpiricalRV:
    """The samples of a text file holding one number per line; blank lines
    are skipped and the samples may come in any order."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot decode {path}: {e}") from e
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    try:
        samples = list(map(float, lines))
    except ValueError as e:
        raise ValidationError(f"{path}: non-numeric sample line ({e})") from e
    return EmpiricalRV.from_samples(samples)


class _JSONText(str):
    """Text that :func:`_json_chunks` writes as it is, already JSON."""


def _json_chunks(obj):
    """The text of ``json.dumps(obj, sort_keys=True)``, in chunks, for an
    ``obj`` whose dicts have string keys; a :class:`_JSONText` value is
    written as the text it holds."""
    if isinstance(obj, _JSONText):
        yield obj
    elif isinstance(obj, dict):
        sep = "{"
        for key in sorted(obj):
            yield f"{sep}{json.dumps(key)}: "
            yield from _json_chunks(obj[key])
            sep = ", "
        yield "}" if obj else "{}"
    else:
        yield json.dumps(obj, sort_keys=True)


def _witness_writer(poset: Poset, scale: ValueScale):
    """The function that writes the ``witness_fn`` JSON of a bijection of
    ``poset`` onto ``scale``: ``[[label, "p/q"], ...]`` in element order.

    Each element's opening text ``[label, `` and each rank's closing text
    ``"p/q"]`` are formatted once, here; a witness joins the two along its
    ranks.  A grid's labels are formatted from (i, j) arithmetic, any
    other label by the json encoder.
    """
    closing = [""]  # ranks count from 1
    closing += [f'"{p}/{q}"]' for p, q in scale.ratios()]
    labels = poset.labels
    if isinstance(labels, _GridLabels):
        nx, ny = labels.key
        columns = [f"{j}], " for j in range(1, ny + 1)]
        opening = [f"[[{i}, {c}" for i in range(1, nx + 1) for c in columns]
    else:
        opening = [f"[{text}, " for text in map(json.dumps, labels)]

    def write(fn: MonotoneBijection) -> _JSONText:
        entries = map(add, opening, map(closing.__getitem__, fn.ranks))
        return _JSONText(f"[{', '.join(entries)}]")

    return write


def _bound_result_json(res: BoundResult, witness) -> dict:
    """The JSON of ``res``; with ``witness``, a :func:`_witness_writer` for
    its poset and scale, it includes the witness."""
    out = {
        "objective": _frac(res.objective),
        "witness_perm": [p + 1 for p in res.witness_perm],
    }
    if witness is not None:
        out["witness_fn"] = witness(res.witness_fn)
        out["per_node_values"] = [_frac(v) for v in res.per_node_values]
    return out


def _emit(payload: dict, stream) -> None:
    print("".join(_json_chunks(payload)), file=stream)


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="monoext")
    parser.add_argument("--config", help="JSON file with RunConfig overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="extremal query sums via the solver")
    p.add_argument("--poset", required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--mode", choices=["min", "max", "both"], default="both")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("oracle", help="brute-force extremal query sums")
    p.add_argument("--poset", required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("grid-exp", help="square-grid discretization record")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("cont-bound", help="line-integral lower bound")
    p.add_argument("--m", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--tol", type=float)

    p = sub.add_parser("cont-extremal", help="extremal surface CSV + membership")
    p.add_argument("--m", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("proc-bound", help="expected-value lower bound")
    p.add_argument("--m", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--simplified", action="store_true")

    p = sub.add_parser("proc-sim", help="extremal process simulation")
    p.add_argument("--m", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, help="key of the Monte Carlo generator")
    p.add_argument("--verify", help="grid_t,grid_y for the membership check")

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true")
    return parser


def _make_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise ValidationError(f"config {args.config} must be a JSON object")
        for key in ("tol", "cap", "seed"):
            if key in doc:
                setattr(config, key, doc[key])
    env_seed = os.environ.get("MONOEXT_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise ValidationError("MONOEXT_SEED must be an integer") from None
    if getattr(args, "cap", None) is not None:
        config.cap = args.cap
    if getattr(args, "tol", None) is not None:
        config.tol = args.tol
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config.validate()


def _cmd_solve(args, config, stdout) -> int:
    poset = load_poset(args.poset)
    scale = load_scale(args.scale, poset.n)
    query = load_query(args.query, poset)
    witness = _witness_writer(poset, scale) if args.witness else None
    payload = {}
    for mode, solve in (("min", solve_min), ("max", solve_max)):
        if args.mode in (mode, "both"):
            result = solve(poset, scale, query, cap=config.cap)
            payload[mode] = _bound_result_json(result, witness)
    if args.mode != "both":
        payload = payload[args.mode]
    _emit(payload, stdout)
    return 0


def _cmd_oracle(args, config, stdout) -> int:
    poset = load_poset(args.poset)
    scale = load_scale(args.scale, poset.n)
    query = load_query(args.query, poset)
    bmin, bmax, count = brute_min_max(poset, scale, query, cap=config.cap)
    witness = _witness_writer(poset, scale) if args.witness else None
    payload = {
        "min": _bound_result_json(bmin, witness),
        "max": _bound_result_json(bmax, witness),
        "count": count,
    }
    _emit(payload, stdout)
    return 0


def _cmd_grid_exp(args, config, stdout) -> int:
    if args.n > MAX_GRID_EXP_N:
        raise ValidationError(f"--n must be at most {MAX_GRID_EXP_N}")
    record = grid_experiment(args.alpha, args.n, args.k)
    _emit(record.as_dict(), stdout)
    return 0


def _cmd_cont_bound(args, config, stdout) -> int:
    m = load_map(args.m)
    t = load_map(args.t)
    payload = {
        "bound": line_integral_bound(m, t, config.tol),
        "surface_integral": line_integral_on_surface(m, t, config.tol),
    }
    _emit(payload, stdout)
    return 0


def _write_surface_csv(fh, coords, rows) -> None:
    """Write the surface held as rows (``continuous._SurfaceRows``), with
    ``coords`` the text of each abscissa and ordinate, as the CSV lines
    ``x,y,value`` under a header, row by row.

    Each column's cell text, ``,y,G(y)\\n`` and ``,y,R(y)\\n``, is
    formatted once, and a line is ``x`` followed by a cell text.  A row
    right of t(1) is ``x + x.join(R cells)``.  Any other row is its
    constant stretch, ``x,y,T\\n`` over its first ``cut`` ordinates with T
    its one value formatted once, then ``x + x.join(G cells past the
    cut)``.  So a row takes at most two ``str.join`` calls, and no Python
    work is done per cell.  Each value is written as ``repr`` writes it,
    so 0.0 and -0.0 keep their own text.
    """
    tail = [f",{y},{v!r}\n" for y, v in zip(coords, rows.tail.tolist())]
    right_row = [f",{y},{v!r}\n" for y, v in zip(coords, rows.right_row.tolist())]
    fh.write("x,y,value\n")
    for x, value, cut, right in zip(coords, rows.stretch.tolist(),
                                    rows.cut.tolist(), rows.right.tolist()):
        if right:
            fh.write(x + x.join(right_row))
            continue
        if cut:
            end = f",{value!r}\n"
            fh.write(x + "," + (end + x + ",").join(coords[:cut]) + end)
        if cut < len(tail):
            fh.write(x + x.join(tail[cut:]))


def _cmd_cont_extremal(args, config, stdout) -> int:
    if not 2 <= args.grid <= MAX_SURFACE_GRID:
        raise ValidationError(f"--grid must be between 2 and {MAX_SURFACE_GRID}")
    m = load_map(args.m)
    t = load_map(args.t)
    centers = (np.arange(args.grid) + 0.5) / args.grid
    rows = _surface_rows(m, t, centers, centers)
    coords = [repr(c) for c in centers.tolist()]
    try:
        with open(args.out, "w") as fh:
            _write_surface_csv(fh, coords, rows)
    except OSError as e:
        raise ValidationError(f"cannot write {args.out}: {e}") from e
    report = verify_membership(m, t, args.grid, surface=rows.grid())
    _emit(
        {
            "out": args.out,
            "grid": args.grid,
            "membership": {
                "ok": report.ok,
                "max_distribution_deviation": report.max_distribution_deviation,
                "worst_u": report.worst_u,
                "budget": report.budget,
            },
        },
        stdout,
    )
    return 0


def _cmd_proc_bound(args, config, stdout) -> int:
    m = load_map(args.m)
    tau = load_samples(args.tau)
    payload = {"bound": expectation_bound(m, tau)}
    if args.simplified:
        payload["simplified"] = _frac(simplified_bound(tau))
    _emit(payload, stdout)
    return 0


def _cmd_proc_sim(args, config, stdout) -> int:
    if args.verify is not None:
        try:
            gt, gy = (int(x) for x in args.verify.split(","))
        except ValueError:
            raise ValidationError("--verify expects 'grid_t,grid_y'") from None
        if not (2 <= gt <= MAX_SURFACE_GRID and 2 <= gy <= MAX_SURFACE_GRID):
            raise ValidationError(
                f"--verify grid sizes must be between 2 and {MAX_SURFACE_GRID}"
            )
    check_trials(args.trials)
    m = load_map(args.m)
    tau = load_samples(args.tau)
    proc = make_extremal_process(m, tau)
    bound = expectation_bound(m, tau)
    value, stderr = expectation_at_tau(
        proc, "montecarlo", trials=args.trials, seed=config.seed
    )
    payload = {"bound": bound, "expectation": value, "stderr": stderr}
    if args.verify is not None:
        report = verify_process_membership(proc, gt, gy)
        payload["membership_report"] = {
            "ok": report.ok,
            "max_deviation": report.max_deviation,
            "worst_level": report.worst_level,
            "budget": report.budget,
        }
    _emit(payload, stdout)
    return 0


def _cmd_selftest(args, config, stdout) -> int:
    from .selftest import run_all  # here, so that no other command loads it

    results = run_all(quick=args.quick)
    for r in results:
        print(r.line(), file=stdout)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "grid-exp": _cmd_grid_exp,
    "cont-bound": _cmd_cont_bound,
    "cont-extremal": _cmd_cont_extremal,
    "proc-bound": _cmd_proc_bound,
    "proc-sim": _cmd_proc_sim,
    "selftest": _cmd_selftest,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        # argparse writes usage errors and --help to sys.stderr and sys.stdout.
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    try:
        config = _make_config(args)
        return _COMMANDS[args.command](args, config, stdout)
    except CapExceeded as e:
        _emit({"error": {"type": "CapExceeded", "message": str(e), "cap": e.cap}},
              stderr)
        return CAP_EXIT
    except MonoextError as e:
        # A message may quote a rejected value, which can be any size.  It is
        # cut on its JSON text, where a non-ASCII character takes 6 or 12.
        message = str(e)
        if len(json.dumps(message)) > MAX_MESSAGE + 2:
            widths = accumulate(len(json.dumps(c)) - 2 for c in message)
            cut = next(k for k, w in enumerate(widths) if w > MAX_MESSAGE)
            message = f"{message[:cut]}... ({len(message)} characters)"
        _emit({"error": {"type": type(e).__name__, "message": message}}, stderr)
        return VALIDATION_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
