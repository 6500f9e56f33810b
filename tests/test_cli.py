from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from multiflow import cli, simulate
from multiflow.config import ConfigError, load_experiment, parse_experiment
from multiflow.distributions import Weibull
from helpers import dispatch_note

SMALL_SPEC = {
    "systems": {
        "demo": {
            "beta_a": 0.25,
            "beta_b": 0.25,
            "load_a": {"kind": "uniform", "min": 20, "max": 40},
            "load_b": {"kind": "uniform", "min": 20, "max": 40},
            "free_a": {"kind": "uniform", "min": 25, "max": 75},
            "free_b": {"kind": "uniform", "min": 25, "max": 75},
        }
    },
    "p_grid": [0.1, 0.25, 0.5],
    "mode": "analytic",
}


# Solves on this system take up to a few hundred rounds near its critical
# attack size, 0.3039; on the SMALL_SPEC system they take at most 12.
SLOW_SYSTEM = {
    "beta_a": 0.3,
    "beta_b": 0.3,
    "load_a": {"kind": "uniform", "min": 20, "max": 40},
    "load_b": {"kind": "uniform", "min": 20, "max": 40},
    "free_a": {"kind": "uniform", "min": 10, "max": 200},
    "free_b": {"kind": "uniform", "min": 10, "max": 200},
}


def write_spec(tmp_path: Path, document: dict, name: str = "spec.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def read_table(path: Path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestCurveCommand:
    def test_analytic_curve(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 0
        comments, header, rows = read_table(out / "curve_demo.csv")
        assert header == ["p", "n_inf_analytic"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.25
        assert float(rows[1][1]) == 0.75
        assert any("config_sha256=" in c for c in comments)

    def test_both_mode_adds_simulation_columns(self, tmp_path):
        document = dict(SMALL_SPEC, mode="both",
                        sim={"n": 2000, "runs": 2, "seed_base": 5},
                        p_grid=[0.25])
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out),
                         "--threads", "1"]) == 0
        _, header, rows = read_table(out / "curve_demo.csv")
        assert header == ["p", "n_inf_analytic", "sim_mean", "sim_std"]
        assert float(rows[0][2]) == pytest.approx(0.75, abs=0.01)

    def test_byte_identical_reruns(self, tmp_path):
        document = dict(SMALL_SPEC, mode="both",
                        sim={"n": 1000, "runs": 2, "seed_base": 5})
        spec = write_spec(tmp_path, document)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["curve", "--config", spec, "--out", str(out_a)]) == 0
        assert cli.main(["curve", "--config", spec, "--out", str(out_b)]) == 0
        assert (out_a / "curve_demo.csv").read_bytes() == \
            (out_b / "curve_demo.csv").read_bytes()

    def test_json_format(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out),
                         "--format", "json"]) == 0
        payload = json.loads((out / "curve_demo.json").read_text())
        assert payload["config_sha256"]
        assert payload["config"]["systems"]["demo"]["beta_a"] == 0.25
        assert payload["rows"][1]["n_inf_analytic"] == 0.75

    def test_missing_p_grid_is_usage_error(self, tmp_path, capsys):
        document = {k: v for k, v in SMALL_SPEC.items() if k != "p_grid"}
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path)]) == 2
        assert "p_grid" in capsys.readouterr().err

    def test_empty_p_grid_is_config_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(SMALL_SPEC, p_grid=[]))
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path)]) == 2
        assert "p_grid" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        import multiflow.meanfield as meanfield
        from multiflow.meanfield import SteadyState

        monkeypatch.setattr(cli.meanfield, "iterate_to_steady_state",
                            lambda p, cfg: SteadyState(0.5, 1.0, 1.0, 10, False))
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 3
        comments, _, _ = read_table(out / "curve_demo.csv")
        assert any("nonconverged" in c for c in comments)

    def test_nonconvergence_is_recorded_in_json(self, tmp_path, monkeypatch):
        from multiflow.meanfield import SteadyState

        monkeypatch.setattr(cli.meanfield, "iterate_to_steady_state",
                            lambda p, cfg: SteadyState(0.5, 1.0, 1.0, 10, p != 0.25))
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out),
                         "--format", "json"]) == 3
        payload = json.loads((out / "curve_demo.json").read_text())
        assert payload["nonconverged_p"] == [0.25]
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 3
        comments, _, _ = read_table(out / "curve_demo.csv")
        assert comments[-1] == "# nonconverged_p=[0.25]"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_solve_cut_at_max_iter_is_noted(self, tmp_path, monkeypatch, fmt):
        # At full budget p = 0.1 takes 1 round, 0.25 takes 44 and 0.3 takes 150.
        spec = write_spec(tmp_path, {"systems": {"slow": SLOW_SYSTEM},
                                     "p_grid": [0.1, 0.25, 0.3]})
        out = tmp_path / "out"
        argv = ["curve", "--config", spec, "--out", str(out), "--format", fmt]
        table = out / f"curve_slow.{fmt}"

        def read():
            """The table's rows, and its notes: the JSON keys or the CSV comments."""
            if fmt == "json":
                payload = json.loads(table.read_text())
                return payload.pop("rows"), payload
            comments, _, rows = read_table(table)
            return rows, comments

        assert cli.main(argv) == 0
        clean_rows, clean_notes = read()
        monkeypatch.setattr(cli.meanfield, "MAX_ITER", 40)
        assert cli.main(argv) == 3
        rows, notes = read()
        if fmt == "json":
            assert notes == {**clean_notes, "nonconverged_p": [0.25, 0.3]}
        else:
            assert notes == clean_notes + ["# nonconverged_p=[0.25, 0.3]"]
        assert rows[0] == clean_rows[0] and rows[1:] != clean_rows[1:]


class TestConfigErrors:
    def test_invalid_distribution_names_field(self, tmp_path, capsys):
        document = json.loads(json.dumps(SMALL_SPEC))
        document["systems"]["demo"]["load_a"] = {"kind": "pareto", "min": 5, "b": 0.5}
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "load_a" in err

    def test_missing_config_file(self, capsys):
        assert cli.main(["curve", "--config", "/nonexistent/spec.json"]) == 2
        assert "config not found" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"systems": "\xff"}'),
    ], ids=["directory", "not-utf-8"])
    def test_unreadable_config_names_the_path(self, tmp_path, capsys, make):
        path = tmp_path / "spec.json"
        make(path)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["curve", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_simulate_mode_requires_sim_block(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(SMALL_SPEC, mode="both"))
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path)]) == 2
        assert "sim" in capsys.readouterr().err

    def test_duplicate_system_names_rejected(self, tmp_path, capsys):
        system = json.dumps(SMALL_SPEC["systems"]["demo"])
        raw = ('{"systems": {"demo": %s, "demo": %s}, "p_grid": [0.25]}'
               % (system, system))
        path = tmp_path / "dup.json"
        path.write_text(raw)
        assert cli.main(["curve", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_system_selector_required_for_multi_system_specs(self, tmp_path, capsys):
        document = json.loads(json.dumps(SMALL_SPEC))
        document["systems"]["other"] = document["systems"]["demo"]
        spec = write_spec(tmp_path, document)
        assert cli.main(["stable-set", "--config", spec, "--out", str(tmp_path),
                         "--p", "0.25"]) == 2
        assert "--system" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert cli.main(["curve"]) == 2  # --config is required

    # One rejection per path: the command line, the edits to SMALL_SPEC (a
    # value of None deletes the key) and the message on stderr.
    REJECTIONS = [
        ("unknown-system", ["stable-set", "--p", "0.25", "--system", "other"], [],
         "error: --system: unknown system 'other'; spec defines ['demo']"),
        ("simulate-without-p_grid", ["simulate"],
         [((), "p_grid", None), ((), "sim", {"n": 100, "runs": 1, "seed_base": 1})],
         "error: spec.p_grid: required for the simulate command"),
        ("simulate-without-sim", ["simulate"], [],
         "error: spec.sim: required for the simulate command"),
        ("threads-not-an-integer", ["curve", "--threads", "abc"], [],
         "argument --threads: expected an integer, got 'abc'"),
        ("samples-not-an-array", ["curve"],
         [(("systems",), "demo", {"samples": "samples.npy"})],
         "error: spec.systems.demo: could not read samples: "),
        ("negative-beta_a", ["curve"], [(("systems", "demo"), "beta_a", -0.1)],
         "error: spec.systems.demo: beta_a must be finite and >= 0, got -0.1"),
        ("p_grid-count-0", ["curve"],
         [((), "p_grid", {"min": 0.1, "max": 0.5, "count": 0})],
         "error: spec.p_grid.count: must be >= 1, got 0"),
        ("p_grid-value-1.5", ["curve"], [((), "p_grid", [0.25, 1.5])],
         "error: spec.p_grid: values must lie strictly in (0, 1), got 1.5"),
        ("no-systems", ["curve"], [((), "systems", {})],
         "error: spec.systems: expected a non-empty object of named systems"),
    ]

    @pytest.mark.parametrize("argv, edits, message", [r[1:] for r in REJECTIONS],
                             ids=[r[0] for r in REJECTIONS])
    def test_rejection_exits_2_naming_the_field(self, tmp_path, capsys, argv, edits,
                                                message):
        (tmp_path / "samples.npy").write_text("30,30,30,30\n")  # text, not an array
        document = json.loads(json.dumps(SMALL_SPEC))
        for path, key, value in edits:
            record = document
            for name in path:
                record = record[name]
            if value is None:
                del record[key]
            else:
                record[key] = value
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main([*argv, "--config", spec, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # A system name is part of file names and a cell of critical.csv: "a,b"
    # wrote an 8-field row under the 7-field header, and "x/../../escaped"
    # wrote curve's table two directories above --out.
    BAD_NAMES = {"empty": "", "slash": "a/b", "escape": "x/../../escaped",
                 "backslash": "a\\b", "comma": "a,b", "quote": 'a"b', "newline": "a\nb",
                 "tab": "a\tb", "nul": "a\x00b", "del": "a\x7fb", "c1": "a\x85b"}

    @pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES)
    def test_system_name_that_reaches_files_is_refused(self, tmp_path, capsys, name):
        document = dict(SMALL_SPEC, systems={name: SMALL_SPEC["systems"]["demo"]})
        message = (f"spec.systems: system name {name!r} must be non-empty and hold no "
                   '/, \\, comma, " or control character')
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_experiment(document)
        out = tmp_path / "run" / "out"
        for command in ("curve", "critical"):
            assert cli.main([command, "--config", write_spec(tmp_path, document),
                             "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_system_name_must_be_a_string(self):
        with pytest.raises(ConfigError, match="^spec.systems: system name 1 must be"):
            parse_experiment(dict(SMALL_SPEC, systems={1: SMALL_SPEC["systems"]["demo"]}))

    TYPOS = [
        ((), {"p_grd": [0.2]}, "spec.p_grd"),
        (("systems", "demo"), {"beta_aa": 0.3}, "spec.systems.demo.beta_aa"),
        (("systems", "demo"), {"alpha": 2.0}, "spec.systems.demo.alpha"),
        (("systems", "alloc", "allocation"), {"sample_count": 20_000},
         "spec.systems.alloc.allocation.sample_count"),
        (("systems", "alloc"), {"free_a": {"kind": "dirac", "value": 1}},
         "spec.systems.alloc.free_a"),
        (("systems", "emp"), {"load_a": {"kind": "dirac", "value": 1}},
         "spec.systems.emp.load_a"),
        (("p_grid",), {"cnt": 3}, "spec.p_grid.cnt"),
        (("sim",), {"resample": False}, "spec.sim.resample"),
        (("output",), {"fmt": ["csv"]}, "spec.output.fmt"),
    ]

    @pytest.mark.parametrize("path, value, field", TYPOS, ids=[t[2] for t in TYPOS])
    def test_unknown_field_is_named(self, tmp_path, path, value, field):
        import numpy as np
        np.save(tmp_path / "samples.npy", np.full((20_000, 4), 30.0))
        document = dict(json.loads(json.dumps(SMALL_SPEC)),
                        p_grid={"min": 0.1, "max": 0.5, "count": 3},
                        sim={"n": 100, "runs": 1, "seed_base": 1},
                        output={"directory": "out"})
        document["systems"]["alloc"] = {
            "load_a": {"kind": "pareto", "min": 100, "b": 5},
            "load_b": {"kind": "uniform", "min": 150, "max": 200},
            "allocation": {"strategy": "equal_tolerance_factor", "s_total": 720}}
        document["systems"]["emp"] = {"samples": "samples.npy"}
        parse_experiment(document, base_dir=tmp_path)  # valid without the typo
        record = document
        for key in path:
            record = record[key]
        record.update(value)
        with pytest.raises(ConfigError, match=f"^{field}: unknown field"):
            parse_experiment(document, base_dir=tmp_path)

    WRONG_TYPES = [
        ((), "mode", 1, "spec.mode"),
        (("systems", "demo"), "beta_a", "0.25", "spec.systems.demo.beta_a"),
        (("systems", "demo"), "load_a", [20, 40], "spec.systems.demo.load_a"),
        (("systems", "emp"), "samples", 7, "spec.systems.emp.samples"),
        (("systems", "alloc", "allocation"), "s_total", "720",
         "spec.systems.alloc.allocation.s_total"),
        (("systems", "alloc", "allocation"), "strategy", ["equal_free_space"],
         "spec.systems.alloc.allocation.strategy"),
        (("p_grid",), "count", 2.5, "spec.p_grid.count"),
        ((), "p_grid", [0.1, True], "spec.p_grid[1]"),
        ((), "p_grid", None, "spec.p_grid"),
        (("sim",), "n", True, "spec.sim.n"),
        (("sim",), "n", np.bool_(True), "spec.sim.n"),
        (("systems", "demo"), "beta_a", np.bool_(True), "spec.systems.demo.beta_a"),
        (("p_grid",), "count", np.float64(3.0), "spec.p_grid.count"),
        (("sim",), "resample_population", 1, "spec.sim.resample_population"),
        (("output",), "directory", None, "spec.output.directory"),
        (("output",), "directory", 5, "spec.output.directory"),
        (("output",), "directory", ["out"], "spec.output.directory"),
        (("output",), "formats", "csv", "spec.output.formats"),
        ((), "sim", None, "spec.sim"),
        ((), "output", "out", "spec.output"),
    ]

    @pytest.mark.parametrize("path, key, value, field", WRONG_TYPES,
                             ids=[f"{t[3]}={t[2]!r}" for t in WRONG_TYPES])
    def test_wrong_type_is_named(self, tmp_path, path, key, value, field):
        np.save(tmp_path / "samples.npy", np.full((20_000, 4), 30.0))
        document = dict(json.loads(json.dumps(SMALL_SPEC)),
                        p_grid={"min": 0.1, "max": 0.5, "count": 3},
                        sim={"n": 100, "runs": 1, "seed_base": 1},
                        output={"directory": "out"})
        document["systems"]["alloc"] = {
            "load_a": {"kind": "pareto", "min": 100, "b": 5},
            "load_b": {"kind": "uniform", "min": 150, "max": 200},
            "allocation": {"strategy": "equal_tolerance_factor", "s_total": 720}}
        document["systems"]["emp"] = {"samples": "samples.npy"}
        parse_experiment(document, base_dir=tmp_path)  # valid as it is
        record = document
        for name in path:
            record = record[name]
        record[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected"):
            parse_experiment(document, base_dir=tmp_path)

    # Numpy scalars equal to the Python values of the base document below.
    NUMPY_SCALARS = [
        (("p_grid",), "count", np.int64(3)),
        (("p_grid",), "min", np.float32(0.25)),
        (("systems", "demo"), "beta_a", np.float32(0.25)),
        (("sim",), "n", np.int64(100)),
        (("sim",), "seed_base", np.uint8(1)),
        (("systems", "alloc", "allocation"), "s_total", np.float32(720.0)),
        (("systems", "alloc", "allocation"), "s_total", np.int64(720)),
    ]

    @pytest.mark.parametrize("path, key, value", NUMPY_SCALARS,
                             ids=[f"{t[1]}={t[2]!r}" for t in NUMPY_SCALARS])
    def test_numpy_scalars_are_accepted(self, path, key, value):
        document = dict(json.loads(json.dumps(SMALL_SPEC)),
                        p_grid={"min": 0.25, "max": 0.5, "count": 3},
                        sim={"n": 100, "runs": 1, "seed_base": 1})
        document["systems"]["alloc"] = {
            "load_a": {"kind": "pareto", "min": 100, "b": 5},
            "load_b": {"kind": "uniform", "min": 150, "max": 200},
            "allocation": {"strategy": "equal_tolerance_factor", "s_total": 720.0}}
        record = document
        for name in path:
            record = record[name]
        if isinstance(value, np.integer):
            record[key] = int(value)
        expected = parse_experiment(document).canonical
        record[key] = value
        assert parse_experiment(document).canonical == expected

    def test_numpy_scalars_in_a_p_grid_list(self):
        document = dict(SMALL_SPEC, p_grid=[np.float32(0.25), np.float64(0.5)])
        spec = parse_experiment(document)
        assert spec.p_grid == [0.25, 0.5]
        assert all(type(p) is float for p in spec.p_grid)
        assert spec.canonical == parse_experiment(dict(SMALL_SPEC, p_grid=[0.25, 0.5])).canonical

    @pytest.mark.parametrize("grid", [
        (0.1, 0.3, 0.5), np.array([0.1, 0.3, 0.5]), np.linspace(0.1, 0.5, 3),
        np.array([0.1, 0.3, 0.5], dtype=np.float32)], ids=repr)
    def test_any_1d_sequence_is_a_p_grid(self, grid):
        listed = parse_experiment(dict(SMALL_SPEC, p_grid=[float(p) for p in grid]))
        spec = parse_experiment(dict(SMALL_SPEC, p_grid=grid))
        assert spec.p_grid == listed.p_grid and all(type(p) is float for p in spec.p_grid)
        assert spec.canonical == listed.canonical and spec.checksum == listed.checksum

    @pytest.mark.parametrize("grid, message", [
        (np.array([[0.1, 0.3]]), r"^spec.p_grid: expected a 1-D array, got shape \(1, 2\)$"),
        (np.array(0.3), r"^spec.p_grid: expected a 1-D array, got shape \(\)$"),
        (np.array([], dtype=float), "^spec.p_grid: must not be empty$"),
        ((0.1, "0.3"), r"^spec.p_grid\[1\]: expected a number, got '0.3'$"),
        ("0.3", "^spec.p_grid: expected a list, a tuple, a 1-D array or a min/max/count "),
    ])
    def test_bad_p_grid_sequences_name_the_field(self, grid, message):
        with pytest.raises(ConfigError, match=message):
            parse_experiment(dict(SMALL_SPEC, p_grid=grid))

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="^spec: expected an object"):
            parse_experiment([SMALL_SPEC])


class TestCriticalCommand:
    def test_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["critical", "--config", spec, "--out", str(out),
                         "--tol-p", "1e-3"]) == 0
        _, header, rows = read_table(out / "critical.csv")
        record = dict(zip(header, rows[0]))
        assert record["system"] == "demo"
        assert float(record["p_hat"]) == pytest.approx(0.4, abs=2e-3)
        # the budget bound is an upper bound for any allocation of this budget
        assert float(record["budget_bound"]) >= float(record["p_hat"]) - 1e-9
        assert "p_hat" in capsys.readouterr().out

    def test_degenerate_system_flagged(self, tmp_path):
        document = json.loads(json.dumps(SMALL_SPEC))
        for layer in ("free_a", "free_b"):
            document["systems"]["demo"][layer] = {"kind": "dirac", "value": 1e-3}
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["critical", "--config", spec, "--out", str(out)]) == 0
        _, header, rows = read_table(out / "critical.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["p_hat"]) == 0.0
        assert record["degenerate"] == "1"

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        solve = cli.meanfield.iterate_to_steady_state
        solves = []

        def flaky(p, cfg):
            solves.append(p)
            steady = solve(p, cfg)
            return dataclasses.replace(steady, converged=len(solves) != 3)

        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        argv = ["critical", "--config", spec, "--out", str(out), "--tol-p", "1e-3"]
        assert cli.main(argv) == 0
        clean_stdout, clean_table = capsys.readouterr().out, (out / "critical.csv").read_bytes()
        assert "nonconverged" not in clean_stdout
        monkeypatch.setattr(cli.meanfield, "iterate_to_steady_state", flaky)
        assert cli.main(argv) == 3
        stdout = capsys.readouterr().out
        assert stdout == clean_stdout.replace("\n", " [1 nonconverged solves]\n")
        assert (out / "critical.csv").read_bytes() == clean_table

    @pytest.mark.parametrize("max_iter, cut", [(150, 2), (200, 1)])
    def test_solves_cut_at_max_iter_are_counted(self, tmp_path, capsys, monkeypatch,
                                                max_iter, cut):
        # At full budget the bisection's solves take at most 129 rounds but
        # two, which take 187 and 398.  Both survive, and so do their cut
        # solves, so the bracket does not move.
        spec = write_spec(tmp_path, {"systems": {"slow": SLOW_SYSTEM}})
        out = tmp_path / "out"
        argv = ["critical", "--config", spec, "--out", str(out), "--tol-p", "1e-3"]
        assert cli.main(argv) == 0
        clean_stdout, clean_table = capsys.readouterr().out, (out / "critical.csv").read_bytes()
        assert "nonconverged" not in clean_stdout
        monkeypatch.setattr(cli.meanfield, "MAX_ITER", max_iter)
        assert cli.main(argv) == 3
        stdout = capsys.readouterr().out
        assert stdout == clean_stdout.replace("\n", f" [{cut} nonconverged solves]\n")
        assert (out / "critical.csv").read_bytes() == clean_table

    def test_non_finite_tol_p_names_the_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["critical", "--config", spec, "--out", str(out),
                         "--tol-p", "nan"]) == 2
        assert "tol_p" in capsys.readouterr().err
        assert not out.exists()


class TestStableSetCommand:
    def test_region_files(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                         "--p", "0.25", "--resolution", "60"]) == 0
        sidecar = json.loads((out / "stable_set_demo.json").read_text())
        assert not sidecar["empty"]
        cell = 90.0 * 1.2 / 60  # extent is 1.2x the free-space maximum of 75
        assert sidecar["x_star"] == pytest.approx(10.0, abs=cell)
        assert sidecar["threshold"] == pytest.approx(1 / 0.75)
        _, header, rows = read_table(out / "stable_set_demo.csv")
        assert header == ["x", "y", "lhs_a", "lhs_b", "stable"]
        assert len(rows) == 60 * 60

    def test_json_format_puts_the_grid_in_the_summary(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        for out, fmt in ((csv_out, "csv"), (json_out, "json")):
            assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                             "--p", "0.25", "--resolution", "12", "--format", fmt]) == 0
        assert not (json_out / "stable_set_demo.csv").exists()
        summary = json.loads((json_out / "stable_set_demo.json").read_text())
        assert len(summary["rows"]) == 12 * 12
        # the rows are the CSV grid, keyed by its header
        _, header, rows = read_table(csv_out / "stable_set_demo.csv")
        assert [[str(row[key]) for key in header] for row in summary["rows"]] == rows
        csv_summary = json.loads((csv_out / "stable_set_demo.json").read_text())
        assert "rows" not in csv_summary
        assert {k: v for k, v in summary.items() if k != "rows"} == csv_summary

    def test_collapse_gives_empty_flag(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                         "--p", "0.95", "--resolution", "40"]) == 0
        sidecar = json.loads((out / "stable_set_demo.json").read_text())
        assert sidecar["empty"] is True
        assert sidecar["x_star"] is None
        assert capsys.readouterr().out == "demo: no stable points at p=0.95 (total collapse)\n"

    def test_an_empty_grid_is_no_collapse_while_the_solver_survives(self, tmp_path, capsys):
        # The default extent is 1.2x the free-space cap, which the Pareto(5, 2)
        # load tail puts so far out that the cells step over the stable region
        # at p = 0.05, where n_inf is 0.95.
        from multiflow.meanfield import iterate_to_steady_state

        out = tmp_path / "out"
        argv = ["stable-set", "--config", "alloc_weibull_pareto", "--system",
                "equal_tolerance_factor", "--p", "0.05", "--resolution", "40"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "stable_set_equal_tolerance_factor.json").read_text())["empty"]
        printed = capsys.readouterr().out
        assert "collapse" not in printed
        cfg = load_experiment(cli._resolve_config_path("alloc_weibull_pareto")).systems[
            "equal_tolerance_factor"]
        steady = iterate_to_steady_state(0.05, cfg)
        assert steady.n_inf > 0.9
        assert printed == (
            f"equal_tolerance_factor: the grid holds no stable cell at p=0.05, but the "
            f"steady state ({steady.x_star:.6g}, {steady.y_star:.6g}) survives; narrow it "
            f"with --x-max/--y-max or refine it with --resolution\n")
        # framed around that steady state, the grid finds it
        assert cli.main(argv + ["--out", str(out), "--x-max", repr(4 * steady.x_star),
                                "--y-max", repr(4 * steady.y_star)]) == 0
        sidecar = json.loads((out / "stable_set_equal_tolerance_factor.json").read_text())
        assert not sidecar["empty"]
        cell = 4 * steady.x_star / 40
        assert sidecar["x_star"] == pytest.approx(steady.x_star, abs=cell)

    def test_small_attack_minimum_near_origin(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                         "--p", "0.001", "--resolution", "200"]) == 0
        sidecar = json.loads((out / "stable_set_demo.json").read_text())
        assert sidecar["x_star"] == pytest.approx(0.0, abs=1.0)

    def test_invalid_p(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "o2"
        assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                         "--p", "1.5"]) == 2
        assert "--p" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--x-max", "x_max"), ("--y-max", "y_max")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_extent_is_rejected(self, tmp_path, capsys, flag, field, value):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["stable-set", "--config", spec, "--out", str(out),
                         "--p", "0.25", "--resolution", "4", f"{flag}={value}"]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestOptimizeCommand:
    SPEC = {
        "systems": {
            "budget": {
                "beta_a": 0.2,
                "beta_b": 0.2,
                "load_a": {"kind": "pareto", "min": 100, "b": 5},
                "load_b": {"kind": "uniform", "min": 150, "max": 200},
                "allocation": {"strategy": "layer_weighted_equal", "s_total": 720},
            }
        }
    }

    def test_allocation_table(self, tmp_path, capsys):
        spec = write_spec(tmp_path, self.SPEC)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", spec, "--out", str(out)]) == 0
        _, header, rows = read_table(out / "optimize_budget.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        assert float(table["layer_weighted_equal"]["s_a"]) == pytest.approx(320.0)
        assert float(table["layer_weighted_equal"]["s_b"]) == pytest.approx(400.0)
        assert float(table["layer_weighted_equal"]["predicted_critical"]) == \
            pytest.approx(2 / 3, abs=1e-9)
        assert float(table["equal_tolerance_factor"]["alpha"]) == pytest.approx(2.4)
        text = capsys.readouterr().out
        assert "layer_weighted_equal" in text

    @pytest.mark.parametrize("config", ["alloc_pareto_uniform", "alloc_uniform_weibull",
                                        "alloc_weibull_pareto"])
    def test_tolerance_factor_reads_exact_means(self, tmp_path, capsys, monkeypatch,
                                                config):
        # alpha = S / (E[L_A] + E[L_B]) from the exact means, the alpha the
        # spec resolved to; the stored sample is never built
        from multiflow.distributions import EmpiricalJoint

        def refuse(*args, **kwargs):
            raise AssertionError("the stored sample was built")

        monkeypatch.setattr(EmpiricalJoint, "_adopt", refuse)
        alpha = load_experiment(cli._resolve_config_path(config)).resolved[
            "systems"]["equal_tolerance_factor"]["alpha"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["optimize", "--config", config, "--system",
                         "equal_tolerance_factor", "--out", str(out)]) == 0
        assert f"alpha={alpha:.6g}  p_opt=-" in capsys.readouterr().out
        _, header, rows = read_table(out / "optimize_equal_tolerance_factor.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        assert table["equal_tolerance_factor"]["alpha"] == repr(alpha)

    def test_budget_of_each_record_kind(self, tmp_path):
        np.save(tmp_path / "samples.npy", np.full((10_000, 4), 30.0))
        loads = {"load_a": {"kind": "uniform", "min": 20, "max": 40},
                 "load_b": {"kind": "pareto", "min": 5, "b": 2}}
        document = {"systems": {
            "s_total": {**loads, "allocation": {"strategy": "equal_free_space",
                                                "s_total": 720}},
            "alpha_s_total": {**loads, "allocation": {"strategy": "equal_tolerance_factor",
                                                      "s_total": np.int64(300)}},
            "marginals": {**loads, "free_a": {"kind": "uniform", "min": 25, "max": 75},
                          "free_b": {"kind": "weibull", "min": 10, "lambda": 30, "k": 2}},
            "per_layer": {**loads, "allocation": {"strategy": "per_layer_equal",
                                                  "mu_a": 50, "mu_b": 60}},
            "alpha_only": {**loads, "allocation": {"strategy": "equal_tolerance_factor",
                                                   "alpha": 2.4}},
            "samples": {"samples": "samples.npy"},
        }}
        spec = parse_experiment(document, base_dir=tmp_path)
        budgets = {name: spec.budget(name) for name in spec.systems}
        assert budgets == {"s_total": 720.0, "alpha_s_total": 300.0,
                           "marginals": 50.0 + Weibull(10, 30, 2).mean(),
                           "per_layer": None, "alpha_only": None, "samples": None}
        assert all(type(budgets[name]) is float for name in ("s_total", "marginals"))

    def test_missing_budget_is_usage_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        # explicit marginals give a budget via their means, so strip them
        document = json.loads(json.dumps(SMALL_SPEC))
        del document["systems"]["demo"]["free_a"]
        del document["systems"]["demo"]["free_b"]
        document["systems"]["demo"]["allocation"] = {
            "strategy": "per_layer_equal", "mu_a": 50, "mu_b": 50}
        spec = write_spec(tmp_path, document, name="nobudget.json")
        assert cli.main(["optimize", "--config", spec, "--out", str(tmp_path)]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
    def test_invalid_budget_names_the_flag(self, tmp_path, capsys, budget):
        spec = write_spec(tmp_path, self.SPEC)
        assert cli.main(["optimize", "--config", spec, "--out", str(tmp_path),
                         f"--budget={budget}"]) == 2
        assert capsys.readouterr().err == \
            f"error: --budget: expected a positive finite number, got {budget}\n"

    def test_per_layer_row_with_mu_flags(self, tmp_path):
        spec = write_spec(tmp_path, self.SPEC)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", spec, "--out", str(out),
                         "--mu-a", "200", "--mu-b", "300"]) == 0
        _, header, rows = read_table(out / "optimize_budget.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        assert float(table["per_layer_equal"]["predicted_critical"]) == \
            pytest.approx(200.0 / (200.0 + 125.0 + 0.2 * 175.0), abs=1e-9)

    def test_mu_flags_must_come_in_pairs(self, tmp_path, capsys):
        spec = write_spec(tmp_path, self.SPEC)
        assert cli.main(["optimize", "--config", spec, "--out", str(tmp_path),
                         "--mu-a", "200"]) == 2
        assert "--mu-b" in capsys.readouterr().err

    def test_symmetric_inputs_split_evenly(self, tmp_path):
        document = json.loads(json.dumps(SMALL_SPEC))
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", spec, "--out", str(out),
                         "--budget", "100"]) == 0
        _, header, rows = read_table(out / "optimize_demo.csv")
        table = {row[0]: dict(zip(header, row)) for row in rows}
        assert float(table["layer_weighted_equal"]["s_a"]) == pytest.approx(50.0)
        assert float(table["layer_weighted_equal"]["s_b"]) == pytest.approx(50.0)


class TestSimulateCommand:
    def test_curve_and_raw_output(self, tmp_path):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25, 0.5],
                        sim={"n": 1000, "runs": 3, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", spec, "--out", str(out), "--raw"]) == 0
        _, header, rows = read_table(out / "simulate_demo.csv")
        assert header == ["p", "mean_n_inf", "std_n_inf", "runs", "n"]
        assert len(rows) == 2
        _, raw_header, raw_rows = read_table(out / "simulate_demo_runs.csv")
        assert raw_header == ["p", "run", "n_inf"]
        assert len(raw_rows) == 6

    def test_truncated_cascades_are_counted_on_stderr(self, tmp_path, capsys, monkeypatch):
        document = dict(SMALL_SPEC, mode="both", p_grid=[0.25, 0.5, 0.6],
                        sim={"n": 1000, "runs": 3, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        runs = {}
        for cap in (None, 0):
            if cap is not None:
                monkeypatch.setattr(simulate, "MAX_TRAJECTORY_ROUNDS", cap)
            for command in ("curve", "simulate"):
                out = tmp_path / f"{command}_{cap}"
                raw = ["--raw"] if command == "simulate" else []
                assert cli.main([command, "--config", spec, "--out", str(out), "--threads", "1",
                                 *raw]) == 0
                runs[command, cap] = (capsys.readouterr(),
                                      {path.name: path.read_bytes() for path in out.iterdir()})
        cfg = load_experiment(Path(spec)).systems["demo"]
        truncated = int(simulate.monte_carlo_curve(cfg, 1000, [0.25, 0.5, 0.6], 3, 7)
                        .truncated.sum())
        assert 0 < truncated < 9
        for command in ("curve", "simulate"):
            (clean, clean_tables), (warned, tables) = runs[command, None], runs[command, 0]
            assert clean.err == "" and warned.out == clean.out
            assert warned.err == (f"warning: demo: {truncated} of 9 Monte Carlo cascades "
                                  "truncated their trajectory\n")
            assert tables == clean_tables

    def test_raw_runs_follow_the_format(self, tmp_path):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25, 0.5],
                        sim={"n": 1000, "runs": 3, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        for out, fmt in ((csv_out, "csv"), (json_out, "json")):
            assert cli.main(["simulate", "--config", spec, "--out", str(out), "--raw",
                             "--threads", "1", "--format", fmt]) == 0
        assert sorted(p.name for p in json_out.iterdir()) == [
            "simulate_demo.json", "simulate_demo_runs.json"]
        runs = json.loads((json_out / "simulate_demo_runs.json").read_text())
        summary = json.loads((json_out / "simulate_demo.json").read_text())
        assert runs["schema"] == "multiflow.simulate_runs/1"
        assert runs["system"] == "demo"
        assert runs["config_sha256"] == summary["config_sha256"]
        _, header, rows = read_table(csv_out / "simulate_demo_runs.csv")
        assert [[str(row[key]) for key in header] for row in runs["rows"]] == rows

    def test_table_cells_are_plain_numbers(self, tmp_path):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25, 0.5],
                        sim={"n": 1000, "runs": 2, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", spec, "--out", str(out), "--raw",
                         "--threads", "1"]) == 0
        for name in ("simulate_demo.csv", "simulate_demo_runs.csv"):
            _, _, rows = read_table(out / name)
            assert rows and all(float(cell) >= 0.0 for row in rows for cell in row)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25],
                        sim={"n": 100, "runs": 1, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", spec, "--out", str(out),
                         "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25],
                        sim={"n": 100, "runs": 1, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", spec, "--out", str(out),
                         "--seed", "-3"]) == 2
        assert "--seed: must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_base_in_spec_names_the_field(self, tmp_path, capsys):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.25],
                        sim={"n": 100, "runs": 1, "seed_base": -1})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", spec, "--out", str(out)]) == 2
        assert "error: spec.sim.seed_base: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_keeps_the_other_sim_fields(self, tmp_path):
        document = dict(SMALL_SPEC, mode="simulate",
                        sim={"n": 500, "runs": 2, "seed_base": 7,
                             "resample_population": False})
        spec = load_experiment(write_spec(tmp_path, document))
        overridden = cli._apply_seed_override(spec, 99)
        assert overridden.sim == type(spec.sim)(n=500, runs=2, seed_base=99,
                                                resample_population=False)
        assert overridden.resolved["sim"] == dict(spec.resolved["sim"], seed_base=99)
        assert overridden.systems is spec.systems and overridden.output == spec.output
        assert spec.sim.seed_base == 7  # the parsed spec is left as it was

    def test_seed_override_changes_output(self, tmp_path):
        document = dict(SMALL_SPEC, mode="simulate", p_grid=[0.45],
                        sim={"n": 500, "runs": 2, "seed_base": 7})
        spec = write_spec(tmp_path, document)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", spec, "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", spec, "--out", str(out_b),
                         "--seed", "99"]) == 0
        assert (out_a / "simulate_demo.csv").read_bytes() != \
            (out_b / "simulate_demo.csv").read_bytes()


class TestBundledConfigs:
    # sha256 of each bundled config's resolved spec, the `config_sha256` its
    # output files embed; a change here moves every table's header.  The
    # alloc_* and asymmetric_beta values were captured again when the
    # tolerance-factor record dropped its stored sample's size and seed and
    # allocation numbers became floats ("s_total": 720 reads as 720.0).
    BUNDLED = [
        ("uniform_symmetric", "89f1e1177bec52e0647f33c205ce098ff6e5dcb3a59bb6a6ee021d431941b07d"),
        ("mixed_families", "37497e849cef85e5d6548ccd500dd00d0962894242626fe8aedd91c07309e66f"),
        ("beta_sweep", "6b5bbc5a0f39902e17734a133fa01678240aac472d80431d3b8c9a57d4311ac2"),
        ("alloc_weibull_pareto",
         "c1b0129650afb3d699c64125a6f09dfded60608fe019f23d99d8b81b9ec98463"),
        ("alloc_pareto_uniform",
         "495b887e105fa469cd97ded359706aa94abd040f101650fd32981fa57c74e852"),
        ("alloc_uniform_weibull",
         "b1a07d356d84d9c3303389a576288939538debdc0afce66362e6ed95e4ebfdf8"),
        ("asymmetric_beta", "ba9bf9f6c695061ff8263ea6b8415e737b737034c7f2870cad34c1d84b3570e5"),
    ]

    @pytest.mark.parametrize("name, checksum", BUNDLED, ids=[name for name, _ in BUNDLED])
    def test_bundled_specs_parse(self, name, checksum):
        path = cli._resolve_config_path(name)
        spec = load_experiment(path)
        assert spec.systems
        assert spec.checksum == checksum

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            cli._resolve_config_path("no_such_config")

    def test_uncoupled_layers_are_most_robust(self, tmp_path):
        # analytic curves of the coupling sweep: the beta = 0 system keeps a
        # positive final size the longest
        path = cli._resolve_config_path("beta_sweep")
        document = json.loads(Path(path).read_text())
        document["mode"] = "analytic"
        document.pop("sim")
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 0
        collapse_points = {}
        for name in document["systems"]:
            _, _, rows = read_table(out / f"curve_{name}.csv")
            alive = [float(p) for p, n in rows if float(n) > 0]
            collapse_points[name] = max(alive)
        assert collapse_points["beta_0.00"] == max(collapse_points.values())
        ordered = [collapse_points[k] for k in
                   ("beta_0.00", "beta_0.25", "beta_0.50", "beta_1.00")]
        assert ordered == sorted(ordered, reverse=True)

    def test_bundled_config_runs(self, tmp_path):
        # analytic-only run of a bundled allocation comparison, tiny grid
        path = cli._resolve_config_path("alloc_pareto_uniform")
        document = json.loads(Path(path).read_text())
        document["p_grid"] = [0.3]
        document["systems"].pop("equal_tolerance_factor")  # keep the test fast
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 0
        _, _, rows = read_table(out / "curve_layer_weighted_equal.csv")
        assert float(rows[0][1]) == pytest.approx(0.7)


class TestResolvedGolden:
    """A resolved spec holding the records no bundled config has: Dirac
    input marginals, a per-layer allocation, an alpha-only tolerance factor,
    a sample file, and numpy scalars in the records.  Captured before the
    resolved records moved from the joints to the spec reader, and again
    when the tolerance-factor record dropped ``sample_count``/``sample_seed``
    and allocation numbers became floats (``mu_b`` 60 to 60.0)."""

    DOCUMENT = {
        "systems": {
            "points": {"beta_a": 0.25, "beta_b": np.float64(0.5),
                       "load_a": {"kind": "dirac", "value": np.int64(30)},
                       "free_a": {"kind": "uniform", "min": 25, "max": 75},
                       "load_b": {"kind": "weibull", "min": 10, "lambda": 10.78, "k": 6},
                       "free_b": {"kind": "dirac", "value": 40.5}},
            "per_layer": {"beta_a": 0.2, "beta_b": 0.3,
                          "load_a": {"kind": "pareto", "min": 5, "b": 3},
                          "load_b": {"kind": "dirac", "value": 20},
                          "allocation": {"strategy": "per_layer_equal",
                                         "mu_a": np.float64(50.5), "mu_b": np.int64(60)}},
            "alpha_only": {"load_a": {"kind": "uniform", "min": 20, "max": 40},
                           "load_b": {"kind": "pareto", "min": 5, "b": 2},
                           "allocation": {"strategy": "equal_tolerance_factor",
                                          "alpha": np.float32(2.4)}},
            "measured": {"beta_a": 0.1, "samples": "samples.npy"},
        },
        "p_grid": [0.1, 0.2],
    }
    CANONICAL = (
        '{"mode":"analytic","p_grid":[0.1,0.2],"systems":{"alpha_only":{"allocation":'
        '{"alpha":2.4000000953674316,"strategy":"equal_tolerance_factor"},'
        '"alpha":2.4000000953674316,"beta_a":0.0,"beta_b":0.0,'
        '"load_a":{"kind":"uniform","max":40.0,"min":20.0},'
        '"load_b":{"b":2.0,"kind":"pareto","min":5.0}},'
        '"measured":{"beta_a":0.1,"beta_b":0.0,"count":10000,"samples":"samples.npy"},'
        '"per_layer":{"allocation":{"mu_a":50.5,"mu_b":60.0,"strategy":"per_layer_equal"},'
        '"beta_a":0.2,"beta_b":0.3,"free_a":{"kind":"dirac","value":50.5},'
        '"free_b":{"kind":"dirac","value":60.0},"load_a":{"b":3.0,"kind":"pareto","min":5.0},'
        '"load_b":{"kind":"dirac","value":20.0}},'
        '"points":{"beta_a":0.25,"beta_b":0.5,"free_a":{"kind":"uniform","max":75.0,"min":25.0},'
        '"free_b":{"kind":"dirac","value":40.5},"load_a":{"kind":"dirac","value":30.0},'
        '"load_b":{"k":6.0,"kind":"weibull","lambda":10.78,"min":10.0}}}}')
    CHECKSUM = "fe52c587a80de0049b98969e34c2fa9b437dc360940996351582be5d667d2108"

    def test_resolved_records_are_pinned(self, tmp_path):
        samples = np.random.default_rng(5).uniform(20.0, 75.0, (10_000, 4))
        np.save(tmp_path / "samples.npy", samples)
        spec = parse_experiment(self.DOCUMENT, base_dir=tmp_path)
        assert spec.canonical == self.CANONICAL
        assert spec.checksum == self.CHECKSUM


class TestOutputBlock:
    def test_spec_output_defaults(self, tmp_path, monkeypatch):
        document = dict(SMALL_SPEC,
                        output={"directory": str(tmp_path / "spec_out"),
                                "formats": ["csv", "json"]})
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec]) == 0
        assert (tmp_path / "spec_out" / "curve_demo.csv").exists()
        assert (tmp_path / "spec_out" / "curve_demo.json").exists()

    def test_flags_override_spec_output(self, tmp_path):
        document = dict(SMALL_SPEC, output={"directory": str(tmp_path / "ignored"),
                                            "formats": ["json"]})
        spec = write_spec(tmp_path, document)
        out = tmp_path / "flag_out"
        assert cli.main(["curve", "--config", spec, "--out", str(out),
                         "--format", "csv"]) == 0
        assert (out / "curve_demo.csv").exists()
        assert not (out / "curve_demo.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_invalid_format_rejected(self, tmp_path, capsys):
        document = dict(SMALL_SPEC, output={"formats": ["xml"]})
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec]) == 2
        assert "formats" in capsys.readouterr().err

    def test_csv_embeds_resolved_config(self, tmp_path):
        spec = write_spec(tmp_path, SMALL_SPEC)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 0
        comments, _, _ = read_table(out / "curve_demo.csv")
        config_line = next(c for c in comments if c.startswith("# config="))
        embedded = json.loads(config_line[len("# config="):])
        assert embedded["systems"]["demo"]["load_a"]["kind"] == "uniform"


class TestEmpiricalSamples:
    def test_samples_from_file(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(0)
        samples = np.column_stack([
            rng.uniform(20, 40, 20_000), rng.uniform(25, 75, 20_000),
            rng.uniform(20, 40, 20_000), rng.uniform(25, 75, 20_000)])
        np.save(tmp_path / "samples.npy", samples)
        document = {
            "systems": {"measured": {"beta_a": 0.25, "beta_b": 0.25,
                                     "samples": "samples.npy"}},
            "p_grid": [0.25],
            "mode": "analytic",
        }
        spec = write_spec(tmp_path, document)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", spec, "--out", str(out)]) == 0
        _, _, rows = read_table(out / "curve_measured.csv")
        assert float(rows[0][1]) == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize("name", ["scalar.csv", "scalar.npy"])
    def test_scalar_sample_file_is_a_config_error(self, tmp_path, capsys, name):
        if name.endswith(".npy"):
            np.save(tmp_path / name, np.float64(5.0))
        else:
            (tmp_path / name).write_text("5.0\n")
        document = {"systems": {"measured": {"samples": name}}, "p_grid": [0.25]}
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spec.systems.measured: ")
        assert "shape (m, 4)" in err

    def test_a_sample_file_that_does_not_convert_names_its_system(self, tmp_path, capsys):
        np.save(tmp_path / "strings.npy", np.full((20_000, 4), "x", dtype="<U3"))
        spec = write_spec(tmp_path, {"systems": {"s": {"samples": "strings.npy"}}})
        assert cli.main(["critical", "--config", spec, "--out", str(tmp_path / "out")]) == 2
        # numpy's own words follow the system's path
        assert capsys.readouterr().err.startswith(
            "error: spec.systems.s: could not convert string to float: ")
        assert not (tmp_path / "out").exists()

    def test_resolved_source_counts_the_rows(self, tmp_path):
        samples = np.column_stack([np.full(20_000, 30.0), np.full(20_000, 50.0)] * 2)
        np.savetxt(tmp_path / "samples.csv", samples, delimiter=",")
        document = {"systems": {"measured": {"samples": "samples.csv"}}, "p_grid": [0.25]}
        spec = load_experiment(write_spec(tmp_path, document))
        assert spec.resolved["systems"]["measured"] == {
            "beta_a": 0.0, "beta_b": 0.0, "samples": "samples.csv", "count": 20_000}

    def test_sample_file_is_held_once(self, tmp_path, monkeypatch):
        from multiflow.distributions import EmpiricalJoint
        held = []
        hold = EmpiricalJoint._hold
        monkeypatch.setattr(EmpiricalJoint, "_hold",
                            lambda joint, samples: held.append(1) or hold(joint, samples))
        np.save(tmp_path / "samples.npy", np.full((20_000, 4), 30.0))
        document = {"systems": {"measured": {"samples": "samples.npy"}}, "p_grid": [0.25]}
        load_experiment(write_spec(tmp_path, document))
        assert len(held) == 1

    def test_sample_file_is_not_copied(self, tmp_path):
        import tracemalloc

        samples = np.full((200_000, 4), 30.0)  # 6.4 MB
        np.save(tmp_path / "samples.npy", samples)
        document = {"systems": {"measured": {"samples": "samples.npy"}}, "p_grid": [0.25]}
        path = write_spec(tmp_path, document)
        tracemalloc.start()
        try:
            spec = load_experiment(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * samples.nbytes
        assert spec.systems["measured"].joint.samples.tobytes() == samples.tobytes()
        assert spec.resolved["systems"]["measured"]["samples"] == "samples.npy"

    def test_missing_sample_file(self, tmp_path, capsys):
        document = {
            "systems": {"measured": {"samples": "missing.npy"}},
            "p_grid": [0.25],
        }
        spec = write_spec(tmp_path, document)
        assert cli.main(["curve", "--config", spec, "--out", str(tmp_path)]) == 2
        assert "sample file not found" in capsys.readouterr().err


def _row_fmt(value) -> str:
    """Cell text of the row-based writer the column writer replaced."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


class TestColumnWriter:
    """The column writer gives, cell for cell, the bytes of the row writer."""

    FLOATS = [-0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
              5e-324, -5e-324, 1e16, 0.1, 0.1 + 0.2, -0.0, 1e16, 2.5, 0.0]

    @staticmethod
    def _written(tmp_path, columns) -> list[str]:
        path = tmp_path / "table.csv"
        cli._write_csv(path, ["comment"], [f"c{i}" for i in range(len(columns))], columns)
        return path.read_text(encoding="utf-8").splitlines()[2:]

    @staticmethod
    def _reference(rows) -> list[str]:
        return [",".join(_row_fmt(v) for v in row) for row in rows]

    def test_float_cells(self, tmp_path):
        array = np.array(self.FLOATS)
        scalars = [np.float64(v) for v in self.FLOATS]
        columns = [array, self.FLOATS, scalars, array[::-1].copy()]
        lines = self._written(tmp_path, columns)
        assert lines == self._reference(zip(*columns))
        assert lines[0].split(",")[:2] == ["-0.0", "-0.0"]
        assert lines[1].split(",")[:2] == ["0.0", "0.0"]

    def test_numeric_cells(self, tmp_path):
        python = [0, -3, 7, 2**70, 7]
        numpy = [np.int64(0), np.int32(-3), np.uint8(7), np.int64(-2**62), np.uint64(2**63)]
        arrays = [np.array([0, -3, 7, -3, 0]), np.array([1, 2**63, 5, 0, 1], dtype=np.uint64),
                  np.array([4, 4, 4, 4, 4], dtype=np.int32)]
        columns = [python, numpy, *arrays]
        assert self._written(tmp_path, columns) == self._reference(zip(*columns))

    def test_bool_array_prints_zero_and_one(self, tmp_path):
        stable = np.array([True, False, False, True])
        lines = self._written(tmp_path, [stable, [1.5, -0.0, 0.0, 2.0]])
        assert lines == self._reference(zip([int(v) for v in stable], [1.5, -0.0, 0.0, 2.0]))
        assert [line.split(",")[0] for line in lines] == ["1", "0", "0", "1"]

    def test_string_cells(self, tmp_path):
        # the optimize table: labels, and blanks where a strategy has no value
        columns = [["layer_weighted_equal", "equal_tolerance_factor"],
                   [320.0, ""], [np.float64(400.0), ""], ["", 2.4], [0.6, ""]]
        lines = self._written(tmp_path, columns)
        assert lines == self._reference(zip(*columns))
        assert lines[1] == "equal_tolerance_factor,,,2.4,"

    @staticmethod
    def _json_written(tmp_path, payload, header, columns) -> str:
        path = tmp_path / "table.json"
        cli._write_json(path, payload, rows=(header, columns))
        return path.read_text(encoding="utf-8")

    @staticmethod
    def _json_reference(payload, header, columns) -> str:
        """The dump of the row objects the JSON writer replaced."""
        def values(column):
            if isinstance(column, np.ndarray):
                return (column.astype(int) if column.dtype == bool else column).tolist()
            return column
        rows = [dict(zip(header, row)) for row in zip(*map(values, columns))]
        return json.dumps({**payload, "rows": rows}, indent=2, sort_keys=True) + "\n"

    def test_json_rows_hold_python_values(self, tmp_path):
        stable = np.array([True, False])
        grid = np.array([-0.0, 1e16])
        header, columns = ["x", "stable", "label"], [grid, stable, ["a", ""]]
        text = self._json_written(tmp_path, {}, header, columns)
        assert text == self._json_reference({}, header, columns)
        rows = json.loads(text)["rows"]
        assert rows == [{"x": -0.0, "stable": 1, "label": "a"},
                        {"x": 1e16, "stable": 0, "label": ""}]
        assert all(type(row["stable"]) is int for row in rows)

    @pytest.mark.parametrize("count", [0, 1, 2, 15])
    def test_json_rows_are_the_bytes_of_json_dumps(self, tmp_path, count):
        floats = np.array(self.FLOATS[:count])
        columns = [floats, np.arange(count) - 3, floats[::-1].copy() > 0,
                   list(self.FLOATS[:count]), [np.float64(v) for v in self.FLOATS[:count]],
                   [True, None, "x\"y\n\u00e9", 2**70, -5, ""] * 3][:6]
        columns[5] = columns[5][:count]
        header = ["z", "a_int", "stable", "m", "b\u00e9", "label"]
        payload = {"schema": "multiflow.test/1", "config": {"b": [1, {"c": -0.0}], "a": []},
                   "p": 0.25, "empty": False, "x_star": None, "nested": {}}
        text = self._json_written(tmp_path, payload, header, columns)
        assert text == self._json_reference(payload, header, columns)
        assert ("Infinity" in text and "NaN" in text) == (count > 4)
        cli._write_json(tmp_path / "payload.json", payload)
        assert (tmp_path / "payload.json").read_text(encoding="utf-8") == \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"

    # two NaNs that differ only in their payload bits
    NANS = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    # tables whose columns hold equal values of different dtypes or bit patterns
    SHARED = {
        "int_and_float": ([np.array([1, 2, 1]), np.array([1.0, 2.0, 0.5])],
                          ["1,1.0", "2,2.0", "1,0.5"]),
        "bool_and_int": ([np.array([True, False, True]), np.array([1, 0, 2])],
                         ["1,1", "0,0", "1,2"]),
        "signed_zeros_and_nans": ([np.array([-0.0, NANS[0], 0.0, NANS[1]]),
                                   np.array([0.0, NANS[1], -0.0, NANS[0]])],
                                  ["-0.0,0.0", "nan,nan", "0.0,-0.0", "nan,nan"]),
    }

    @pytest.mark.parametrize("case", sorted(SHARED))
    def test_columns_sharing_values(self, tmp_path, case):
        columns, expected = self.SHARED[case]
        lines = self._written(tmp_path, columns)
        assert lines == expected
        assert lines == self._reference(zip(*(cli._values(c) for c in columns)))

    @pytest.mark.parametrize("case", sorted(SHARED))
    def test_json_columns_sharing_values(self, tmp_path, case):
        columns, _ = self.SHARED[case]
        # a key's own % signs are not format directives
        header = ["b%s", "a%"]
        text = self._json_written(tmp_path, {}, header, columns)
        assert text == self._json_reference({}, header, columns)
        rows = json.loads(text)["rows"]
        types = {name: {type(row[name]) for row in rows} for name in header}
        assert types == {name: {float if column.dtype.kind == "f" else int}
                         for name, column in zip(header, columns)}

    def _counted_table(self):
        """Array columns and the number of distinct bit patterns in each of
        their dtype groups: float64 6, int64 2, int32 1 and bool 2."""
        columns = [np.array([-0.0, self.NANS[0], 0.0, self.NANS[1], 1.0]),
                   np.array([0.0, self.NANS[1], -0.0, 1.0, 2.5]),
                   np.array([1, 2, 1, 1, 2]), np.array([1, 1, 1, 1, 1], dtype=np.int32),
                   np.array([True, False, True, True, True])]
        return columns, 6 + 2 + 1 + 2

    def test_number_called_once_per_distinct_bit_pattern(self):
        columns, distinct = self._counted_table()
        calls = []

        def number(value):
            calls.append(value)
            return repr(value)
        # a list column goes through text, never number
        assert cli._cells([*columns, [1.0] * 5], number=number) == \
            cli._cells([*columns, [1.0] * 5])
        assert len(calls) == distinct

    def test_json_value_called_once_per_distinct_bit_pattern(self, tmp_path, monkeypatch):
        columns, distinct = self._counted_table()
        header = [f"c{i}" for i in range(len(columns))]
        calls = []

        def counted(value, json_value=cli._json_value):
            calls.append(value)
            return json_value(value)
        monkeypatch.setattr(cli, "_json_value", counted)
        text = self._json_written(tmp_path, {}, header, columns)
        assert len(calls) == distinct
        assert text == self._json_reference({}, header, columns)


def _correlated_samples(m: int, seed: int) -> np.ndarray:
    """m rows (L_A, S_A, L_B, S_B) whose free spaces grow with their own
    layer's load and whose loads share a common factor, which no closed-form
    joint expresses."""
    rng = np.random.default_rng(seed)
    common = rng.uniform(0.0, 10.0, m)
    load_a, load_b = common + rng.uniform(20.0, 30.0, (2, m))
    free_a = load_a * rng.uniform(1.0, 2.5, m)
    free_b = load_b * rng.uniform(1.0, 2.5, m)
    return np.column_stack([load_a, free_a, load_b, free_b])


def _digests(out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


class TestArtifactDigests:
    """Exact bytes of CLI artifacts and stdout, captured from the row-based
    writer before the column writer replaced it.  The sample-backed ``curve``
    digest was captured before the joints' layer moments became pairs, and
    both ``critical`` digests when the critical search became one bisection.
    The sample-backed ``critical`` digests were captured again when the
    tolerance-factor joint's ``mean_loads`` became the exact load means:
    its ``budget_bound`` went from 0.666680100084148, computed from the
    stored sample's load means, to 0.6666666666666666, the bound of its two
    sibling systems; every other byte is unchanged.  The ``curve`` digest
    was captured again when Monte Carlo stopped drawing attacks and attacked
    a fixed prefix of each population instead: only the row p = 0.4, next
    to p* and bimodal over its 20 runs, moved, its ``sim_mean`` from
    0.209999 to 0.1499995.  The reuse-mode ``simulate`` digest, a run that
    resumes each cascade along its p grid, was captured before Monte Carlo
    attacked the identity prefix by slice.  The sample-backed ``stable-set``
    CSV digest went from 953f6b3b... to b4a52cf0... when the tolerance-factor
    joint's stability sides became exact instead of a sweep over its stored
    sample: ``lhs_a``/``lhs_b`` moved by at most 1.4e-3, and the ``stable``
    column, the JSON sidecar and stdout kept their bytes.

    Every file digest of the ``alloc_pareto_uniform`` and ``asymmetric_beta``
    runs was captured again when the tolerance-factor cursor became exact:
    the resolved config in each file's header lost its stored sample's
    ``sample_count``/``sample_seed`` and reads ``s_total`` as 720.0, so
    ``config_sha256`` moved too.  Apart from that header, one row moved: the
    ``critical`` row of ``equal_tolerance_factor`` (and so that stdout), whose
    bracket went from [0.6000156, 0.6000766], the stored sample's, to
    [0.5999546, 0.6000156], which holds the exact p* = 0.6.

    A change that means to move these bytes states it and updates them here.
    """

    @pytest.mark.parametrize("argv, stdout, files", [
        (["stable-set", "--config", "uniform_symmetric", "--p", "0.2"],
         "6b3c21b1902392d2300ea7aa7a502ae5366432403245c48f22d2e99b3d4a02fe",
         {"stable_set_uniform_symmetric.csv":
          "5d629e7d863af68141c51731b09175a0cc865d063a0fd060efe979c0c00d7664",
          "stable_set_uniform_symmetric.json":
          "4740bd5eb49e33473ad860609321811a181ee36e6887f655daedaeb4f35e3612"}),
        (["stable-set", "--config", "mixed_families", "--system", "uniform_uniform",
          "--p", "0.2", "--resolution", "60", "--format", "json"],
         "b48b9ec994061893b49e92187d693c4dc7f0563b5e5046087f44c411fd486478",
         {"stable_set_uniform_uniform.json":
          "bc35970b853d7aae8b48763028951cac19e8ae3015753e84cf49e5fe09ab3d78"}),
        pytest.param(
            ["stable-set", "--config", "alloc_pareto_uniform", "--system",
             "equal_tolerance_factor", "--p", "0.2", "--resolution", "16"],
            "dabe6aedf31ffcf4e7c4a10c4061fe47f35456094c7bb606a53644fa2110d120",
            {"stable_set_equal_tolerance_factor.csv":
             "cd0eb7316f0bb7a543115695a73ea46ddea890b1b80e935412676040075caf59",
             "stable_set_equal_tolerance_factor.json":
             "a2cd1a232e645b7784bee76833e3f744d434caec3c999b9356a73b828d8d53e0"},
            marks=pytest.mark.dispatch_bound),
        (["curve", "--config", "uniform_symmetric"],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         {"curve_uniform_symmetric.csv":
          "ff2a0012cce4ce38f2778584146fbcef5e23bcd75644434e7f8c2a1036733d9b"}),
        (["critical", "--config", "mixed_families"],
         "a7eabf5e79cf5b52270c4d4fd14faca925e5b6164fae2e68c6b105db9a8eba88",
         {"critical.csv":
          "34023957cbe06264559780c57797f0886133b18b782949cfc53bcb17318fc76c"}),
        (["critical", "--config", "alloc_pareto_uniform"],
         "2b56b9fe2a2269549c5d2b533f7c13748e3650a8a9e3afdfdd4c19ac54c54d3d",
         {"critical.csv":
          "498659625fc9c2d0c9a43b12a38048b89c69f667a5f31b397f04594c2e09ddc8"}),
        (["curve", "--config", "alloc_pareto_uniform"],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         {"curve_equal_free_space.csv":
          "5ce620bd7ee6463d763762eab5df48a75b7732f97ee531d80f9bcf6e8f088965",
          "curve_equal_tolerance_factor.csv":
          "2c5697971ed0ae749cfafc32eb1c96e562316a71b1337e88f91b927cd2868845",
          "curve_layer_weighted_equal.csv":
          "38e72c74e0f66ea23f6b4a8e57363154e63ac7612d263fdd6f6b1fe6d9507b3a"}),
        (["optimize", "--config", "alloc_pareto_uniform", "--system",
          "layer_weighted_equal", "--budget", "720"],
         "a1df6dd596ef0764d6acb494be1704b825b0c05cbaf420d0c5b44b559a5142da",
         {"optimize_layer_weighted_equal.csv":
          "591d9e1ca2b7f12e59763743f6538373a7fc1836106447368dcf2f6ef7bb8023"}),
        (["optimize", "--config", "asymmetric_beta", "--system",
          "layer_weighted_equal", "--budget", "720"],
         "813d4d353a5d0139c69e7b4aee7f4d49a42af3b3fbb3fed721056b99a50f3e1a",
         {"optimize_layer_weighted_equal.csv":
          "496c406780fcc91aff5afaaf763acd5cffafeb8a527a55c9ea97a4790ff919d9"}),
        (["simulate", "--config", "SMALL_SIMULATE", "--raw"],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         {"simulate_demo.csv":
          "2c1d80d1ba30101d274d3a61f03b0f5f5c74364d4880fff9b2df06e8a4995af1",
          "simulate_demo_runs.csv":
          "744591b6528eaa94d6f6897a3bd95499c2286162b44c6937969a8f30dc8061f5"}),
        (["simulate", "--config", "SMALL_SIMULATE_REUSE", "--raw"],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         {"simulate_demo.csv":
          "0e1a36b9f2933654b39c5c7fe45868492ad6a54e2633b85fbe227099b6a9bfd6",
          "simulate_demo_runs.csv":
          "9c5ab27e7653117b2c86fc3ca2cc0dabf73a9ae5e08c6f2efcf4b332be39ec9f"}),
        (["critical", "--config", "alloc_uniform_weibull"],
         "7ba967baaf5a513e9acfcd842354ede27e3a9a4709c8fc56d2e342397591157e",
         {"critical.csv":
          "9aae8d8356879b3a143df25ce5960c08309643440088f4df32e65456abd1aa4e"}),
        (["curve", "--config", "alloc_uniform_weibull"],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         {"curve_equal_free_space.csv":
          "8ca7a74b8e04334dc1f68bff01e400ac46d24ebe4bf4ee594d1c9a5152e13079",
          "curve_equal_tolerance_factor.csv":
          "93a6d7d7b566de8360c103fba2b7d064f44a4f3005a05dbe61e0cc322c4aba99",
          "curve_layer_weighted_equal.csv":
          "223b17511f8dc071e83d9e8b6091f6582ecb845f86baebab35ceecaae552a53c"}),
        (["critical", "--config", "SAMPLES"],
         "401431d5da43fb443aa55cfe3fc07906b53cb9aa30eb0cb69f1b96b167343237",
         {"critical.csv":
          "82d5c6c72328569df66167efa7c7701732e804eaf471c7c3e6867cd0d8b4805a"}),
    ], ids=["stable_set", "stable_set_json", "stable_set_sample_backed", "curve",
            "critical", "critical_sample_backed", "curve_sample_backed", "optimize",
            "optimize_asymmetric_beta", "simulate_raw", "simulate_raw_reuse",
            "critical_weibull_tolerance_factor", "curve_weibull_tolerance_factor",
            "critical_samples"])
    def test_digest(self, tmp_path, capsys, argv, stdout, files):
        if "SAMPLES" in argv:
            np.save(tmp_path / "samples.npy", _correlated_samples(20_000, seed=23))
        documents = {
            "SMALL_SIMULATE": dict(SMALL_SPEC, mode="simulate",
                                   sim={"n": 1000, "runs": 2, "seed_base": 7}),
            # p = 0.4 lies next to the jump: one of the three runs survives
            "SMALL_SIMULATE_REUSE": dict(
                SMALL_SPEC, mode="simulate", p_grid=[0.1, 0.25, 0.38, 0.4, 0.42, 0.5],
                sim={"n": 1000, "runs": 3, "seed_base": 7, "resample_population": False}),
            # a relative sample path, so the header's config_sha256 does not
            # depend on where the test runs
            "SAMPLES": {"systems": {"measured": {"beta_a": 0.2, "beta_b": 0.1,
                                                 "samples": "samples.npy"}}},
        }
        argv = [write_spec(tmp_path, documents[a]) if a in documents else a for a in argv]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(out), "--threads", "1"]) == 0, dispatch_note()
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout, \
            dispatch_note()
        assert _digests(out) == files, dispatch_note()
