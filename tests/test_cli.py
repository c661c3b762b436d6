import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoext
from monoext import (
    QuerySet,
    ValueScale,
    build_poset,
    cli,
    errors,
    eval_extremal_surface,
    solve_max,
    solve_min,
)
from monoext.cli import (
    MAX_GRID_EXP_N,
    MAX_POSET_GRID,
    MAX_SEED,
    MAX_SURFACE_GRID,
    RunConfig,
    load_map,
    main,
)
from monoext.continuous import _surface_grid
from monoext.poset import _grid_poset
from monoext.process import MAX_TRIALS

GRID_POSET = {"grid": {"n": 2, "order": "product"}}
SCALE = {"values": [1, 2, 3, 4]}
QUERY = {"query": [[1, 2]]}


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, doc in [("poset", GRID_POSET), ("scale", SCALE), ("query", QUERY)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    tau = tmp_path / "tau.csv"
    tau.write_text("".join(f"{(i + 0.5) / 50}\n" for i in range(50)))
    paths["tau"] = str(tau)
    paths["dir"] = tmp_path
    return paths


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def solve_argv(tmp_path, poset, query, command="solve"):
    """``solve`` (or ``oracle``) arguments for an explicit poset, the scale
    1..N and a query."""
    docs = {
        "poset": poset,
        "scale": {"values": list(range(1, len(poset["labels"]) + 1))},
        "query": {"query": query},
    }
    argv = [command]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    return argv


class TestSolve:
    def test_min_objective_fixture(self, fixtures):
        code, out, _ = run_cli(
            ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
             "--query", fixtures["query"], "--mode", "min"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == "2/1"

    def test_both_modes_with_witness(self, fixtures):
        code, out, _ = run_cli(
            ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
             "--query", fixtures["query"], "--witness"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min"]["objective"] == "2/1"
        assert payload["max"]["objective"] == "3/1"
        assert payload["min"]["per_node_values"] == ["2/1"]
        assert [[1, 2], "2/1"] in payload["min"]["witness_fn"]

    def test_byte_stable(self, fixtures):
        argv = ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
                "--query", fixtures["query"], "--witness"]
        assert run_cli(argv) == run_cli(argv)

    def test_deep_chain_query(self, tmp_path):
        n = 1500
        argv = solve_argv(
            tmp_path,
            {"labels": list(range(n)), "covers": [[i, i + 1] for i in range(n - 1)]},
            list(range(n)),
        )
        code, out, err = run_cli(argv)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["min"]["objective"] == payload["max"]["objective"] == (
            f"{n * (n + 1) // 2}/1"
        )

    def test_cap_bounds_dp_states(self, tmp_path):
        # A 10-element antichain query has 2**10 = 1024 order ideals.
        argv = solve_argv(
            tmp_path, {"labels": list(range(10)), "covers": []}, list(range(10))
        )
        code, _, err = run_cli(argv + ["--cap", "100"])
        assert code == 3
        error = json.loads(err)["error"]
        assert error["type"] == "CapExceeded"
        assert error["cap"] == 100
        assert run_cli(argv + ["--cap", "1024"])[0] == 0


@pytest.mark.parametrize("m", ["id", "power:2", "pwl:0,0;0.5,0.25;1,1"])
@pytest.mark.parametrize(
    "command, n, order, query",
    [
        ("solve", 9, "product", [[3, j] for j in range(1, 10)]),
        ("solve", 9, "product", [[1, 9], [4, 4], [9, 1], [6, 7]]),
        ("solve", 8, "rows", [[i, i] for i in range(1, 9)]),
        ("oracle", 3, "product", [[1, 2], [2, 1], [3, 3]]),
    ],
)
def test_from_m_witness_matches_explicit_values(tmp_path, m, command, n, order, query):
    """A ``from_m`` scale and the same values written out as explicit
    "p/q" strings print the same bytes, witnesses included."""
    n2 = n * n
    if m == "id":
        values = [Fraction(i, n2) for i in range(1, n2 + 1)]
    else:
        grid = np.arange(1, n2 + 1) / n2
        values = [Fraction(v) for v in load_map(m).inverse_many(grid).tolist()]
    docs = {
        "poset": {"grid": {"n": n, "order": order}},
        "query": {"query": query},
        "lazy": {"from_m": {"m": m, "n": n}},
        "eager": {"values": [f"{v.numerator}/{v.denominator}" for v in values]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    outs = []
    for scale in ("lazy", "eager"):
        argv = [command, "--poset", str(paths["poset"]), "--scale",
                str(paths[scale]), "--query", str(paths["query"]), "--witness"]
        code, out, err = run_cli(argv)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    texts = {f"{v.numerator}/{v.denominator}" for v in values}
    for mode in ("min", "max"):
        assert {val for _, val in payload[mode]["witness_fn"]} == texts


class TestOracle:
    def test_count_and_agreement(self, fixtures):
        code, out, _ = run_cli(
            ["oracle", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
             "--query", fixtures["query"]]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["min"]["objective"] == "2/1"
        assert payload["max"]["objective"] == "3/1"

    def test_cap_exit_code(self, fixtures):
        code, _, err = run_cli(
            ["oracle", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
             "--query", fixtures["query"], "--cap", "1"]
        )
        assert code == 3
        assert json.loads(err)["error"]["type"] == "CapExceeded"

    def test_deep_chain(self, tmp_path):
        n = 1500
        argv = solve_argv(
            tmp_path,
            {"labels": list(range(n)), "covers": [[i, i + 1] for i in range(n - 1)]},
            list(range(n)),
            command="oracle",
        )
        code, out, err = run_cli(argv)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["min"]["objective"] == f"{n * (n + 1) // 2}/1"


class TestContinuous:
    def test_cont_bound_constant_path(self):
        code, out, _ = run_cli(["cont-bound", "--m", "id", "--t", "const:0.5"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["bound"] - 0.25) <= 1e-9

    def test_cont_extremal_writes_csv(self, fixtures):
        out_path = str(fixtures["dir"] / "surface.csv")
        code, out, _ = run_cli(
            ["cont-extremal", "--m", "id", "--t", "const:0.5",
             "--grid", "20", "--out", out_path]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["membership"]["ok"] is True
        lines = Path(out_path).read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 20 * 20

    @pytest.mark.parametrize("m", ["id", "power:2"])
    @pytest.mark.parametrize("t", ["const:0.5", "pwl:0,0;0.3,0.3;0.6,0.3;1,1"])
    def test_cont_extremal_csv_is_the_surface(self, fixtures, m, t):
        out_path = str(fixtures["dir"] / "surface.csv")
        code, _, _ = run_cli(
            ["cont-extremal", "--m", m, "--t", t, "--grid", "20", "--out", out_path]
        )
        assert code == 0
        mm, tt = load_map(m), load_map(t)
        rows = Path(out_path).read_text().splitlines()[1:]
        for k, line in enumerate(rows):
            x, y, value = map(float, line.split(","))
            assert (x, y) == ((k // 20 + 0.5) / 20, (k % 20 + 0.5) / 20)
            assert value == eval_extremal_surface(mm, tt, x, y)

    def test_cont_extremal_grid_limit(self, fixtures):
        out_path = fixtures["dir"] / "surface.csv"
        code, _, err = run_cli(
            ["cont-extremal", "--m", "id", "--t", "const:0.5",
             "--grid", str(MAX_SURFACE_GRID + 1), "--out", str(out_path)]
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"
        assert not out_path.exists()

    @pytest.mark.parametrize("target", ["missing/surface.csv", "."],
                             ids=["missing-directory", "directory"])
    def test_cont_extremal_unwritable_out(self, fixtures, target):
        code, out, err = run_cli(
            ["cont-extremal", "--m", "id", "--t", "const:0.5", "--grid", "4",
             "--out", str(fixtures["dir"] / target)]
        )
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("cannot write")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_cont_extremal_failed_write(self):
        code, out, err = run_cli(
            ["cont-extremal", "--m", "id", "--t", "id", "--grid", "50",
             "--out", "/dev/full"]
        )
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("cannot write /dev/full: ")

    def test_grid_exp_n_limit(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("grid_experiment ran")

        monkeypatch.setattr("monoext.cli.grid_experiment", unreachable)
        code, out, err = run_cli(
            ["grid-exp", "--alpha", "0.5", "--n", str(MAX_GRID_EXP_N + 1), "--k", "1"]
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_grid_exp(self):
        code, out, _ = run_cli(["grid-exp", "--alpha", "0.5", "--n", "20", "--k", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["discrete_bound"] == "21/4"
        assert payload["column"] == 10


def _pwl_text(draw, strict: bool) -> str:
    """A pwl map shorthand; ``strict`` gives an increasing bijection,
    otherwise flat pieces and any end ordinates are allowed."""
    k = draw(st.integers(0, 3))
    xs = sorted(draw(st.lists(st.integers(1, 999), min_size=k, max_size=k,
                              unique=True)))
    if strict:
        ys = [0] + sorted(draw(st.lists(st.integers(1, 999), min_size=k,
                                        max_size=k, unique=True))) + [1000]
    else:
        ys = sorted(draw(st.lists(st.integers(0, 1000), min_size=k + 2,
                                  max_size=k + 2)))
    pts = zip([0] + xs + [1000], ys)
    return "pwl:" + ";".join(f"{x / 1000!r},{y / 1000!r}" for x, y in pts)


@st.composite
def _surface_maps(draw, strict):
    kind = draw(st.sampled_from(["id", "power", "pwl"]))
    if kind == "id":
        return "id"
    if kind == "power":
        return f"power:{draw(st.sampled_from([0.3, 0.5, 1.5, 2.0, 3.7]))!r}"
    return _pwl_text(draw, strict)


@given(_surface_maps(strict=True), _surface_maps(strict=False), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_cont_extremal_csv_matches_per_cell_writer(m, t, grid):
    """The CSV formats each distinct value once; its bytes equal those of a
    plain per-cell writer over the same surface array."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = f"{tmp}/surface.csv"
        code, _, err = run_cli(
            ["cont-extremal", "--m", m, "--t", t, "--grid", str(grid), "--out", out_path]
        )
        assert code == 0, err
        with open(out_path) as fh:
            got = fh.read()
    centers = [(i + 0.5) / grid for i in range(grid)]
    values = _surface_grid(load_map(m), load_map(t), np.array(centers),
                           np.array(centers)).tolist()
    want = ["x,y,value"] + [
        f"{x!r},{y!r},{v!r}"
        for x, row in zip(centers, values) for y, v in zip(centers, row)
    ]
    assert got.endswith("\n")
    got = got.splitlines()
    assert len(got) == len(want)
    # First differing line only: a diff of the whole file is slow to build.
    assert next((pair for pair in zip(got, want) if pair[0] != pair[1]), None) is None


def _per_cell_csv(coords, grid) -> str:
    return "x,y,value\n" + "".join(
        f"{x},{y},{v!r}\n"
        for x, row in zip(coords, grid.tolist()) for y, v in zip(coords, row)
    )


def _written_csv(coords, grid) -> str:
    fh = io.StringIO()
    cli._write_surface_csv(fh, coords, grid)
    return fh.getvalue()


@pytest.mark.parametrize("kind", ["every-cell-changes", "constant", "signed-zeros",
                                  "two-by-two"])
def test_surface_writer_matches_per_cell_writer(kind):
    rng = np.random.default_rng(7)
    n = 2 if kind == "two-by-two" else 37
    coords = [repr((i + 0.5) / n) for i in range(n)]
    if kind == "constant":
        grid = np.full((n, n), 0.375)
    elif kind == "signed-zeros":
        # 0.0 and -0.0 compare equal but print differently, side by side
        # along both axes.
        grid = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
        grid[::3] = 1 / 3
    else:
        # Strictly increasing along both axes, so every cell differs from
        # the one above it.
        grid = np.cumsum(np.cumsum(rng.random((n, n)) + 1e-3, axis=0), axis=1)
    assert _written_csv(coords, grid) == _per_cell_csv(coords, grid)


class TestSampleFile:
    def _bound(self, tmp_path, data: bytes):
        tau = tmp_path / "tau.csv"
        tau.write_bytes(data)
        return run_cli(["proc-bound", "--m", "id", "--tau", str(tau), "--simplified"])

    @pytest.mark.parametrize("data", [b"0.5\n\n   \n0.25\n\t\n",
                                      b"0.5\r\n0.25\r\n\r\n", b"  0.25 \n0.5"],
                             ids=["blank-lines", "crlf", "padded"])
    def test_blank_lines_and_line_ends(self, tmp_path, data):
        assert self._bound(tmp_path, data) == self._bound(tmp_path, b"0.25\n0.5\n")

    def test_any_order(self, tmp_path):
        want = self._bound(tmp_path, b"0.1\n0.5\n0.9\n")
        assert want[0] == 0
        assert self._bound(tmp_path, b"0.9\n0.1\n0.5\n") == want

    @pytest.mark.parametrize("data, kind, message", [
        (b"0.5\n abc \n", "ValidationError",
         "non-numeric sample line (could not convert string to float: 'abc')"),
        (b"0.1 0.2\n", "ValidationError",
         "non-numeric sample line (could not convert string to float: '0.1 0.2')"),
        (b"0.5\nnan\n", "OutOfDomain", "sample nan outside [0, 1]"),
        (b"", "ValidationError", "need at least one sample"),
        (b" \n\n", "ValidationError", "need at least one sample"),
        (b"0.5\n\xff\n", "ValidationError", "cannot decode "),
    ], ids=["word", "two-per-line", "nan", "empty", "blank", "not-utf8"])
    def test_bad_files(self, tmp_path, data, kind, message):
        code, out, err = self._bound(tmp_path, data)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == kind
        assert message in error["message"]


class TestProcess:
    def test_proc_bound(self, fixtures):
        code, out, _ = run_cli(
            ["proc-bound", "--m", "id", "--tau", fixtures["tau"], "--simplified"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["bound"] - 1 / 6) <= 5e-3
        assert "/" in payload["simplified"]

    def test_proc_bound_takes_no_tol(self, fixtures):
        # The bound is a closed form; a tolerance would be silently ignored.
        code, _, _ = run_cli(
            ["proc-bound", "--m", "id", "--tau", fixtures["tau"], "--tol", "1e-3"]
        )
        assert code == 64

    def test_proc_sim_reproducible(self, fixtures):
        argv = ["proc-sim", "--m", "id", "--tau", fixtures["tau"],
                "--trials", "2000", "--seed", "4", "--verify", "60,60"]
        first = run_cli(argv)
        assert first[0] == 0
        assert run_cli(argv) == first
        payload = json.loads(first[1])
        assert payload["membership_report"]["ok"] is True
        assert payload["stderr"] > 0

    @pytest.mark.parametrize("verify", ["abc", "1,5", f"{MAX_SURFACE_GRID + 1},10",
                                        "10", "10,10,10", ""])
    def test_proc_sim_bad_verify_before_simulating(self, fixtures, monkeypatch, verify):
        def unreachable(*args, **kwargs):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr("monoext.cli.expectation_at_tau", unreachable)
        code, out, err = run_cli(
            ["proc-sim", "--m", "id", "--tau", fixtures["tau"],
             "--trials", "1000", "--verify", verify]
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**30, 0, -5])
    def test_proc_sim_trials_checked_before_loading(self, fixtures, monkeypatch,
                                                    trials):
        def unreachable(*args, **kwargs):
            raise AssertionError("tau was loaded")

        monkeypatch.setattr("monoext.cli.load_samples", unreachable)
        code, out, err = run_cli(
            ["proc-sim", "--m", "id", "--tau", fixtures["tau"],
             "--trials", str(trials)]
        )
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert str(MAX_TRIALS) in error["message"]

    def test_proc_sim_largest_trial_count(self, fixtures):
        code, out, _ = run_cli(["proc-sim", "--m", "id", "--tau", fixtures["tau"],
                                "--trials", str(MAX_TRIALS)])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["expectation"] - payload["bound"]) <= 3 * payload["stderr"]

    def test_proc_sim_inseparable_ties(self, tmp_path):
        # Ties no float can separate are taken as they are.
        tau = tmp_path / "tied.csv"
        tau.write_text("0.0\n0.0\n0.0\n5e-324\n")
        argv = ["proc-sim", "--m", "id", "--tau", str(tau), "--trials", "100",
                "--seed", "3"]
        first = run_cli(argv)
        assert first[0] == 0 and first[2] == ""
        assert run_cli(argv) == first
        payload = json.loads(first[1])
        assert payload["bound"] == payload["expectation"] == payload["stderr"] == 0.0

    def test_env_seed_override(self, fixtures, monkeypatch):
        argv = ["proc-sim", "--m", "id", "--tau", fixtures["tau"], "--trials", "500"]
        monkeypatch.setenv("MONOEXT_SEED", "11")
        a = run_cli(argv)
        monkeypatch.setenv("MONOEXT_SEED", "12")
        b = run_cli(argv)
        assert a[0] == b[0] == 0
        assert a[1] != b[1]


class TestErrorsAndConfig:
    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli(["solve", "--unknown-flag"])
        assert code == 64

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli([])
        assert code == 64

    def test_validation_error_exit(self, fixtures, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"query": [[9, 9]]}')
        code, _, err = run_cli(
            ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
             "--query", str(bad)]
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UnknownElement"

    def test_config_file_merges(self, fixtures, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cap": 1}')
        code, _, _ = run_cli(
            ["--config", str(cfg), "oracle", "--poset", fixtures["poset"],
             "--scale", fixtures["scale"], "--query", fixtures["query"]]
        )
        assert code == 3

    def test_config_file_ignores_unread_keys(self, fixtures, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cap": 1, "verbosity": 2, "format": "csv"}')
        code, _, _ = run_cli(
            ["--config", str(cfg), "oracle", "--poset", fixtures["poset"],
             "--scale", fixtures["scale"], "--query", fixtures["query"]]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid-exp", "--alpha", "nan", "--n", "20", "--k", "10"],
            ["cont-bound", "--m", "power:abc", "--t", "id"],
            ["cont-bound", "--m", "pwl:0,0;bad", "--t", "id"],
        ],
        ids=["alpha-nan", "power-abc", "pwl-bad-point"],
    )
    def test_malformed_argument_is_validation_error(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2
        assert issubclass(
            getattr(errors, json.loads(err)["error"]["type"]), errors.ValidationError
        )

    @pytest.mark.parametrize(
        "name, doc, error",
        [
            ("poset", '{"labels": ["a", "b", "c"], "covers": [["a", "b", "c"]]}',
             "ValidationError"),
            ("poset", '{"grid": {}}', "ValidationError"),
            ("poset", json.dumps({"grid": {"n": MAX_POSET_GRID + 1}}), "ValidationError"),
            # A string or object where an array belongs used to be read
            # character by character or key by key ("ab" as the cover
            # a < b, the point "00" as (0, 0)) and exit 0.
            ("poset", '{"labels": "abc", "covers": []}', "ValidationError"),
            ("poset", '{"labels": ["a", "b"], "covers": ["ab"]}', "ValidationError"),
            ("scale", '{"values": "1234"}', "ValidationError"),
            ("query", '{"query": {"a": 1, "c": 2}}', "ValidationError"),
            ("m", '{"kind": "pwl", "points": ["00", "11"]}', "ValidationError"),
            # Within json's nesting limit, but too deep to turn into a tuple.
            ("poset", '{"labels": [%s1%s], "covers": []}' % ("[" * 800, "]" * 800),
             "ValidationError"),
            # The message quotes a rejected value that is a long list; it
            # used to be written whole, 0.7 to 1.5 MB of stderr.
            ("poset", json.dumps({"grid": {"n": list(range(100_000))}}),
             "ValidationError"),
            ("m", json.dumps(list(range(200_000))), "ValidationError"),
            ("scale", json.dumps({"values": [list(range(100_000)), 2, 3, 4]}),
             "ValidationError"),
            ("query", json.dumps({"query": [list(range(100_000))]}), "UnknownElement"),
            # Each 'é' is written as the six characters \u00e9.
            ("query", json.dumps({"query": ["\u00e9" * 100_000]}), "UnknownElement"),
        ],
        ids=["cover-not-a-pair", "grid-without-n", "grid-over-limit",
             "labels-string", "cover-string", "values-string", "query-object",
             "pwl-points-strings", "label-nested-too-deep", "grid-n-long-list",
             "map-long-list", "scale-value-long-list", "query-label-long-list",
             "query-label-non-ascii"],
    )
    def test_malformed_poset_is_validation_error(self, fixtures, tmp_path, name,
                                                 doc, error):
        """A malformed poset document, or (``name``) scale, query or
        ``cont-bound`` map document."""
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        if name == "m":
            argv = ["cont-bound", "--m", str(bad), "--t", "id"]
        else:
            files = {**fixtures, name: str(bad)}
            argv = ["solve", "--poset", files["poset"], "--scale", files["scale"],
                    "--query", files["query"]]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == error
        assert len(err.encode()) < 2000

    @pytest.mark.parametrize("flag", ["--poset", "--scale", "--query", "--m",
                                      "--config"])
    def test_deeply_nested_json_is_validation_error(self, fixtures, tmp_path, flag):
        # Nested past the recursion limit, json raises RecursionError.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
                "--query", fixtures["query"]]
        if flag == "--m":
            argv = ["cont-bound", "--m", str(deep), "--t", "id"]
        elif flag == "--config":
            argv = ["--config", str(deep), *argv]
        else:
            argv[argv.index(flag) + 1] = str(deep)
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith(f"{deep} is not valid JSON")

    @pytest.mark.parametrize("values", [[True, 2, 3, 4], [0, 1, 2, False]],
                             ids=["true", "false"])
    def test_boolean_scale_value_is_validation_error(self, fixtures, tmp_path,
                                                     values):
        # JSON true is not the value 1, as it is not the rank 1.
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps({"values": values}))
        code, out, err = run_cli(
            ["solve", "--poset", fixtures["poset"], "--scale", str(scale),
             "--query", fixtures["query"]]
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("side, code", [(2, 0), (3, 2), (10**6, 2)])
    def test_from_m_scale_length(self, fixtures, tmp_path, side, code):
        # The 2x2 grid takes side 2 (four values); a wrong side is rejected
        # before its side**2 values are built.
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps({"from_m": {"m": "id", "n": side}}))
        got, _, err = run_cli(
            ["oracle", "--poset", fixtures["poset"], "--scale", str(scale),
             "--query", fixtures["query"]]
        )
        assert got == code
        if code:
            assert json.loads(err)["error"]["type"] == "ValidationError"

    @staticmethod
    def _grid_solve(tmp_path, grid_n, scale_n):
        argv = ["solve"]
        for name, doc in (("poset", {"grid": {"n": grid_n}}),
                          ("scale", {"from_m": {"m": "id", "n": scale_n}}),
                          ("query", {"query": [[1, 2]]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv += [f"--{name}", str(path)]
        return run_cli(argv)

    def test_integer_grid_side_runs(self, tmp_path):
        code, out, _ = self._grid_solve(tmp_path, 3, 3)
        assert code == 0 and json.loads(out)["min"]["objective"] == "2/9"

    @pytest.mark.parametrize("side", [3.9, 3.0, "3", True, None, [3]],
                             ids=["float", "integral-float", "string", "bool",
                                  "null", "list"])
    @pytest.mark.parametrize("where", ["grid", "from_m"])
    def test_grid_side_must_be_an_integer(self, tmp_path, where, side):
        # Each side converts to 3 (or to 1, for true) and used to be
        # truncated to it; it is rejected instead.
        grid_n, scale_n = (side, 3) if where == "grid" else (3, side)
        code, out, err = self._grid_solve(tmp_path, grid_n, scale_n)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"{where} n must be an integer, got {side!r}"

    @pytest.mark.parametrize(
        "config, flags, env_seed",
        [
            ('{"tol": "abc"}', [], None),
            ('{"cap": "x"}', [], None),
            ('{"seed": "x"}', [], None),
            ("5", [], None),
            (None, ["--seed", "-1"], None),
            (None, [], "-5"),
        ],
        ids=["tol-string", "cap-string", "seed-string", "bare-number",
             "negative-seed-flag", "negative-env-seed"],
    )
    def test_bad_run_configuration(self, fixtures, tmp_path, monkeypatch,
                                   config, flags, env_seed):
        argv = ["proc-sim", "--m", "id", "--tau", fixtures["tau"],
                "--trials", "10", *flags]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv = ["--config", str(cfg), *argv]
        monkeypatch.delenv("MONOEXT_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("MONOEXT_SEED", env_seed)
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_run_configuration_bounds(self):
        RunConfig(tol=1, cap=1, seed=MAX_SEED - 1).validate()
        for bad in ({"tol": 0.0}, {"tol": float("inf")}, {"tol": float("nan")},
                    {"tol": 10**400}, {"tol": True}, {"cap": 0}, {"cap": 2.0},
                    {"cap": True}, {"seed": -1}, {"seed": MAX_SEED},
                    {"seed": 1.0}):
            with pytest.raises(errors.ValidationError):
                RunConfig(**bad).validate()

    def test_bad_env_seed(self, fixtures, monkeypatch):
        monkeypatch.setenv("MONOEXT_SEED", "not-a-number")
        code, _, err = run_cli(
            ["proc-bound", "--m", "id", "--tau", fixtures["tau"]]
        )
        assert code == 2


class TestMapShorthand:
    @pytest.mark.parametrize(
        "spec,x,expected",
        [
            ("id", 0.3, 0.3),
            ("power:2", 0.5, 0.25),
            ("const:0.7", 0.2, 0.7),
            ("pwl:0,0;0.5,0.25;1,1", 0.5, 0.25),
        ],
    )
    def test_shorthand(self, spec, x, expected):
        from monoext.cli import load_map

        assert abs(load_map(spec).eval(x) - expected) <= 1e-12

    @pytest.mark.parametrize(
        "shorthand, spec",
        [
            ("id", {"kind": "identity"}),
            ("identity", {"kind": "identity"}),
            ("power:2", {"kind": "power", "p": 2}),
            ("power:0.37", {"kind": "power", "p": 0.37}),
            ("const:0.5", {"kind": "const", "alpha": 0.5}),
            ("pwl:0,0;0.5,0.25;1,1",
             {"kind": "pwl", "points": [[0, 0], [0.5, 0.25], [1, 1]]}),
            ("pwl:0,0.2;0.5,0.2;0.75,0.6;1,0.6",
             {"kind": "pwl", "points": [[0, 0.2], [0.5, 0.2], [0.75, 0.6], [1, 0.6]]}),
        ],
        ids=["id", "identity", "power", "power-fraction", "const", "pwl",
             "pwl-flat"],
    )
    def test_shorthand_is_its_json_spec(self, shorthand, spec):
        assert load_map(shorthand) == cli.parse_map_spec(spec)

    def test_map_json_file(self, tmp_path):
        from monoext.cli import load_map

        p = tmp_path / "m.json"
        p.write_text('{"kind": "power", "p": 2.0}')
        assert load_map(str(p)).p == 2.0

    # Each spec is a legal map when true is read as 1 and false as 0, and
    # used to run as one; with numeric strings in their place it still
    # runs.  The constant is a path, not an m.
    BOOLEAN_SPECS = {
        "power-p": ("--m", lambda one, zero: {"kind": "power", "p": one}),
        "const-alpha": ("--t", lambda one, zero: {"kind": "const", "alpha": zero}),
        "pwl-x": ("--m", lambda one, zero: {"kind": "pwl",
                                            "points": [[zero, 0], [1, 1]]}),
        "pwl-y": ("--m", lambda one, zero: {"kind": "pwl",
                                            "points": [[0, 0], [1, one]]}),
    }

    @pytest.mark.parametrize("name", BOOLEAN_SPECS)
    @pytest.mark.parametrize("one, zero, code", [(True, False, 2), ("1", "0", 0)],
                             ids=["bool", "string"])
    def test_boolean_map_number_is_validation_error(self, tmp_path, name,
                                                    one, zero, code):
        flag, spec = self.BOOLEAN_SPECS[name]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec(one, zero)))
        maps = {"--m": "id", "--t": "id", flag: str(path)}
        got, out, err = run_cli(["cont-bound", "--m", maps["--m"], "--t", maps["--t"]])
        assert got == code, err
        if code:
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "ValidationError"
            assert "must not be a bool" in error["message"]

    @pytest.mark.parametrize("p, code", [(True, 2), ("2", 0)], ids=["bool", "string"])
    def test_boolean_map_number_in_from_m_scale(self, fixtures, tmp_path, p, code):
        scale = tmp_path / "scale.json"
        scale.write_text(json.dumps(
            {"from_m": {"m": {"kind": "power", "p": p}, "n": 2}}))
        got, out, err = run_cli(
            ["solve", "--poset", fixtures["poset"], "--scale", str(scale),
             "--query", fixtures["query"]]
        )
        assert got == code, err
        if code:
            assert out == ""
            assert json.loads(err)["error"]["type"] == "ValidationError"


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "-0", "2", "0.5", "abc", ""]),
    st.integers(-3, 3).map(str),
)
_POINTS = st.lists(
    st.tuples(_NUMBERS, _NUMBERS).map(",".join) | st.text(max_size=6),
    max_size=5,
)
_MAP_SPECS = st.one_of(
    st.sampled_from(["id", "identity"]),
    _NUMBERS.map("power:{}".format),
    _NUMBERS.map("const:{}".format),
    _POINTS.map(lambda pts: "pwl:" + ";".join(pts)),
    st.text(alphabet=st.characters(exclude_characters="/\x00"), max_size=12),
)


@given(st.sampled_from(["cont-bound", "cont-extremal"]), _MAP_SPECS, _MAP_SPECS)
@settings(max_examples=150, deadline=None)
def test_map_shorthand_fuzz(command, m, t):
    """Any --m/--t text ends in a documented exit code, and whatever reaches
    stderr is one JSON error object, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, f"--m={m}", f"--t={t}"]
        if command == "cont-extremal":
            argv += ["--grid", "8", "--out", f"{tmp}/surface.csv"]
        code, _, err = run_cli(argv)
    assert code in (0, 2, 3, 64)
    if err:
        assert isinstance(json.loads(err)["error"], dict)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["a", "b", "1/2", "1/0", "nan", "inf", "", "x/y"]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "order", "m", "kind", "p", "points"]),
                      inner, max_size=2),
    max_leaves=6,
)
_LABELS = st.one_of(
    st.integers(0, 5), st.sampled_from(["a", "b", "c"]),
    st.lists(st.integers(1, 3), min_size=2, max_size=2),
)
# Strings and objects where arrays belong, which must not be read
# character by character or key by key.
_NOT_ARRAYS = st.text(alphabet="abc0123", max_size=4) | st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.integers(0, 3), max_size=3)
_POSET_DOCS = st.one_of(
    st.fixed_dictionaries({
        "labels": st.lists(_LABELS, max_size=6) | _NOT_ARRAYS,
        "covers": st.lists(st.lists(_LABELS, min_size=1, max_size=3) | _NOT_ARRAYS,
                           max_size=6) | _NOT_ARRAYS,
    }),
    st.fixed_dictionaries({"grid": st.fixed_dictionaries({
        "n": st.one_of(st.integers(-1, 3), _JSON_SCALARS),
        "order": st.sampled_from(["product", "rows", "diagonal"]),
    })}),
    st.dictionaries(st.sampled_from(["labels", "covers", "grid"]), _JSON, max_size=3),
    _JSON,
)
_SCALE_DOCS = st.one_of(
    st.fixed_dictionaries({"values": st.lists(
        st.one_of(st.integers(-9, 9), st.fractions(max_denominator=5).map(str),
                  _JSON_SCALARS),
        max_size=9,
    ) | _NOT_ARRAYS}),
    st.fixed_dictionaries({"from_m": st.fixed_dictionaries({
        "m": st.one_of(st.sampled_from(["id", "power:2", "const:0.5"]), _JSON),
        "n": st.one_of(st.integers(-1, 9), _JSON_SCALARS),
    })}),
    st.dictionaries(st.sampled_from(["values", "from_m"]), _JSON, max_size=2),
    _JSON,
)
_QUERY_DOCS = st.one_of(
    st.fixed_dictionaries({"query": st.lists(_LABELS, max_size=6) | _NOT_ARRAYS}),
    st.dictionaries(st.sampled_from(["query"]), _JSON, max_size=1),
    _JSON,
)


@st.composite
def _documents(draw):
    """Poset, scale and query documents: each is either well formed for one
    shared element count or drawn from the malformed strategies above."""
    n = draw(st.integers(1, 6))
    labels = list(range(n))
    pairs = [[a, b] for a in labels for b in labels if a != b]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    values = draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=n,
                           max_size=n, unique=True))
    scale = st.sampled_from([
        {"values": [str(v) for v in sorted(values)]},
        # n side**2 values: the right length when n is a square.
        {"from_m": {"m": "power:2", "n": isqrt(n)}},
    ])
    query = st.lists(st.sampled_from(labels), min_size=1, max_size=n, unique=True)
    # Two in three documents are well formed.
    return tuple(
        draw(good if draw(st.integers(0, 2)) else bad)
        for good, bad in (
            (st.just({"labels": labels, "covers": covers}), _POSET_DOCS),
            (scale, _SCALE_DOCS),
            (query.map(lambda q: {"query": q}), _QUERY_DOCS),
        )
    )


@given(st.sampled_from(["solve", "oracle"]), _documents())
@settings(max_examples=300, deadline=None)
def test_document_fuzz(command, documents):
    """Any poset, scale and query document ends in a documented exit code,
    and a failure writes one JSON error object to stderr, never a traceback."""
    poset, scale, query = documents
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for name, doc in (("poset", poset), ("scale", scale), ("query", query)):
            path = f"{tmp}/{name}.json"
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv += [f"--{name}", path]
        code, _, err = run_cli(argv)
    assert code in (0, 2, 3, 64)
    if code != 0:
        assert isinstance(json.loads(err)["error"], dict)


def test_one_parser_per_process(fixtures, capsys):
    cli._build_parser.cache_clear()
    argv = ["solve", "--poset", fixtures["poset"], "--scale", fixtures["scale"],
            "--query", fixtures["query"]]
    assert run_cli(argv)[0] == 0
    assert run_cli(argv)[0] == 0
    assert cli._build_parser.cache_info().misses == 1
    # Usage errors on the shared parser keep their exit code and message.
    errors = []
    for _ in range(2):
        assert run_cli(["solve", "--mode", "sideways"])[0] == 64
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "invalid choice: 'sideways'" in errors[0]
    assert cli._build_parser.cache_info().misses == 1


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.text(max_size=4), kids, max_size=4),
    max_leaves=20,
)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(payload):
    assert "".join(cli._json_chunks(payload)) == json.dumps(payload, sort_keys=True)


_LABELS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3).map(tuple),
    max_leaves=6,
)


def _old_result_json(res):
    """The result JSON as a dict of lists, the way it was built before the
    witness text was joined from per-label and per-rank texts."""
    texts = [f"{v.numerator}/{v.denominator}" for v in res.witness_fn.scale.values]
    fn = res.witness_fn
    return {
        "objective": f"{res.objective.numerator}/{res.objective.denominator}",
        "witness_perm": [p + 1 for p in res.witness_perm],
        "witness_fn": [[lab, texts[r - 1]] for lab, r in zip(fn.poset.labels, fn.ranks)],
        "per_node_values": [f"{v.numerator}/{v.denominator}"
                            for v in res.per_node_values],
    }


@given(st.lists(_LABELS, min_size=1, max_size=8), st.randoms(use_true_random=False),
       st.sampled_from(["explicit", "product", "rows"]))
@settings(max_examples=200, deadline=None)
def test_witness_writer_matches_old_dict(labels, rng, kind):
    if kind == "explicit":
        labels = list(dict.fromkeys(labels))
        covers = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                  if rng.random() < 0.3]
        poset = build_poset(labels, covers)
    else:
        poset = _grid_poset(rng.randint(1, 4), rng.randint(1, 4), kind)
    values, v = [], Fraction(rng.randint(-5, 5))
    for _ in range(poset.n):
        v += Fraction(rng.randint(1, 9), rng.randint(1, 9))
        values.append(rng.choice([v, float(v)]))
    scale = ValueScale(values)
    query = QuerySet(poset, rng.sample(list(poset.labels), rng.randint(1, poset.n)))
    witness = cli._witness_writer(poset, scale)
    for solve in (solve_min, solve_max):
        res = solve(poset, scale, query)
        payload = {"min": cli._bound_result_json(res, witness)}
        assert "".join(cli._json_chunks(payload)) == json.dumps(
            {"min": _old_result_json(res)}, sort_keys=True)


class TestSelftest:
    def test_quick_selftest_passes(self):
        code, out, _ = run_cli(["selftest", "--quick"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 10
        assert all(ln.startswith("PASS") for ln in lines)


def run_child(*args):
    """``python *args`` in a fresh interpreter.  The child inherits no
    sys.path from pytest, so it is pointed at the directory that holds the
    package under test."""
    src = os.path.dirname(os.path.dirname(monoext.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_child("-m", "monoext.cli", "cont-bound", "--m", "id",
                     "--t", "const:0.25")
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["bound"] - 0.125) <= 1e-9


def test_cli_import_does_not_load_selftest():
    proc = run_child("-c", "import sys, monoext.cli; "
                           "print('monoext.selftest' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")
