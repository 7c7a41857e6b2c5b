import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import plapminres
from plapminres import cli, driver
from plapminres.cli import ConfigError, config_from_dict, main
from plapminres.driver import ProblemConfig
from plapminres.estimate import StudyRecord
from plapminres.newton import NewtonResult, SolverOptions

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def assert_input_error(argv, capsys, needle):
    """``main`` returns 2 with a message on stderr and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err


def message_after(path: Path, capsys) -> str:
    """stderr without the config path: pytest names ``tmp_path`` after the
    test id, so the path alone can hold the field a test looks for."""
    return capsys.readouterr().err.replace(str(path), "")


def write_two_row_csv(path: Path):
    main(["case1", "--p", "2.0", "--levels", "2",
          "--out", str(path.parent / "study")])
    path.write_text((path.parent / "study" / "case1_p2" / "records.csv")
                    .read_text())


def strip_wall(csv_text: str) -> str:
    lines = []
    for line in csv_text.strip().splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


class TestConfigParsing:
    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigError, match="p_tarjet"):
            config_from_dict({"p_target": 2.0, "p_tarjet": 3.0})

    def test_unknown_solver_field(self):
        with pytest.raises(ConfigError, match="dampen"):
            config_from_dict({"p_target": 2.0, "solver": {"dampen": True}})

    def test_invalid_value_reported(self):
        with pytest.raises(ConfigError, match="theta"):
            config_from_dict({"p_target": 2.0, "theta": 1.5})

    @pytest.mark.parametrize("raw,field", [
        pytest.param({"p_target": float("inf")}, "p_target", id="p_target-inf"),
        pytest.param({"p_target": 2.0, "x0": [0.5]}, "x0", id="x0-short"),
        pytest.param({"p_target": 2.0, "x0": 0.5}, "x0", id="x0-scalar"),
        pytest.param({"p_target": 2.0, "x0": [0.0, float("nan")]}, "x0",
                     id="x0-nan"),
        pytest.param({"p_target": 2.0, "max_levels": 2.5}, "max_levels",
                     id="max_levels-float"),
        pytest.param({"p_target": 2.0, "max_levels": True}, "max_levels",
                     id="max_levels-bool"),
        pytest.param({"p_target": 2.0, "initial_n": 2.5}, "initial_n",
                     id="initial_n-float"),
        # settings fixed in the program: their keys are unknown
        pytest.param({"p_target": 2.0, "pre_adapt_steps": 2.5},
                     "pre_adapt_steps", id="pre_adapt_steps-float"),
        pytest.param({"p_target": 2.0, "pre_adapt_steps": -3},
                     "pre_adapt_steps", id="pre_adapt_steps-negative"),
        pytest.param({"p_target": 2.0, "snapshot_levels": 3},
                     "snapshot_levels", id="snapshot_levels-int"),
        pytest.param({"p_target": 2.0, "load_quad_degree": 0},
                     "load_quad_degree", id="load_quad_degree-zero"),
        pytest.param({"p_target": 2.0, "error_quad_degree": 0},
                     "error_quad_degree", id="error_quad_degree-zero"),
        pytest.param({"p_target": 2.0, "load_quad_degree": 41},
                     "load_quad_degree", id="load_quad_degree-above-bound"),
        pytest.param({"p_target": 2.0, "error_quad_degree": 400},
                     "error_quad_degree", id="error_quad_degree-above-bound"),
        pytest.param({"p_target": 2.0, "solver": {"max_backtracks": True}},
                     "max_backtracks", id="solver-max_backtracks-bool"),
        pytest.param({"p_target": 2.0, "solver": {"linear_rel_tol": float("inf")}},
                     "linear_rel_tol", id="solver-linear_rel_tol-inf"),
        pytest.param({"p_target": 2.0, "solver": {"backtrack_factor": 1.0}},
                     "backtrack_factor", id="solver-backtrack_factor-one"),
        pytest.param({"p_target": 2.0, "solver": {"linear_method": "minres"}},
                     "linear_method", id="solver-linear_method"),
        pytest.param({"p_target": 2.0, "solver": {"damping_enabled": False}},
                     "damping_enabled", id="solver-damping_enabled"),
        pytest.param({"p_target": 2.0, "sigma": float("-inf")}, "sigma",
                     id="sigma-neginf"),
        pytest.param({"p_target": 2.0, "solver": {"max_newton": 2.5}},
                     "max_newton", id="solver-max_newton-float"),
        pytest.param({"p_target": 2.0, "solver": {"newton_tol": float("nan")}},
                     "newton_tol", id="solver-newton_tol-nan"),
        pytest.param({"p_target": 2.0, "theta": True}, "theta", id="theta-bool"),
        pytest.param({"p_target": 2.0, "output_dir": 5}, "output_dir",
                     id="output_dir-int"),
        pytest.param({"p_target": 1.5, "sigma": 1.5}, "sigma",
                     id="sigma-equals-p_target"),
        pytest.param({"p_target": 1.5, "sigma": 1.9}, "sigma",
                     id="sigma-on-continuation-path"),
        pytest.param({"p_target": 1.5, "sigma": 1.65, "x0": [0, 0]}, "sigma",
                     id="sigma-above-p_target"),
    ])
    def test_bad_value_names_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)

    def test_solver_options_forwarded(self):
        cfg = config_from_dict({"p_target": 2.0,
                                "solver": {"max_newton": 7}})
        assert cfg.solver.max_newton == 7


class TestSchemaDocs:
    """README documents exactly the keys a config file accepts, and the
    columns and keys of the artifacts a study writes."""

    def test_config_table_lists_every_field(self):
        keys = re.findall(r"^\| `(\w+)`", README.read_text(encoding="utf-8"),
                          re.MULTILINE)
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(ProblemConfig)}

    def test_solver_list_names_every_option(self):
        text = README.read_text(encoding="utf-8")
        [listing] = re.findall(r"^`solver` accepts (.*?)\.\s", text,
                               re.MULTILINE | re.DOTALL)
        keys = re.findall(r"`(\w+)` \(", listing)
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(SolverOptions)}

    def test_telemetry_bullet_names_every_key(self):
        text = README.read_text(encoding="utf-8")
        [bullet] = re.findall(r"^\* `telemetry\.jsonl`(.*?)^\* ", text,
                              re.MULTILINE | re.DOTALL)
        result = NewtonResult(2.0, None, 0, 0, True, None, [], 0)
        keys = json.loads(result.as_json(level=0))
        assert set(keys) <= set(re.findall(r"`(\w+)`", bullet))

    def test_records_header_matches_csv(self):
        text = README.read_text(encoding="utf-8")
        [header] = re.findall(r"^\* `records\.csv` with header\s+`([^`]*)`",
                              text, re.MULTILINE)
        assert header == StudyRecord.CSV_HEADER


class TestEntryPoint:
    def test_script_target_imports_and_runs(self, capsys):
        # the installed ``plapminres`` command calls this target
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(
            encoding="utf-8"))["project"]
        module, _, attr = project["scripts"]["plapminres"].partition(":")
        target = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as info:
            target(["--help"])
        assert info.value.code == 0
        assert "usage: plapminres" in capsys.readouterr().out


class TestRunCommand:
    def test_run_from_config_file(self, tmp_path, capsys):
        config = {"p_target": 2.0, "initial_n": 2, "max_levels": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path)])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1  # one record row

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p_target": 2.0, "bogus": 1}))
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_infinite_p_target_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"p_target": 1e400, "max_levels": 1}')
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "p_target" in message_after(path, capsys)

    @pytest.mark.parametrize("text,field", [
        ('{"p_target": 2.0, "snapshot_levels": 3}', "snapshot_levels"),
        ('{"p_target": 2.0, "sigma": -1e400}', "sigma"),
        ('{"p_target": 2.0, "solver": {"max_newton": 2.5}}', "max_newton"),
        ('{"p_target": 2.0, "solver": {"newton_tol": NaN}}', "newton_tol"),
        ('{"p_target": 1.5, "sigma": 1.5}', "sigma"),
        ('{"p_target": 1.5, "sigma": 1.9}', "sigma"),
        ('{"p_target": 1.5, "sigma": 1.65, "x0": [0, 0]}', "sigma"),
        ('{"p_target": 1.0000001, "sigma": 0.5}', "p_target"),
        # x0 on a point of the load rule in a level-0 triangle
        ('{"p_target": 2.0, "x0": [0.2361984521286302, 0.07403929983424218],'
         ' "initial_n": 2, "max_levels": 1}', "x0"),
    ], ids=["snapshot_levels", "sigma", "max_newton", "newton_tol",
            "sigma-equals-p_target", "sigma-on-continuation-path",
            "sigma-above-p_target", "p_target-near-one",
            "x0-on-load-quadrature-point"])
    def test_bad_value_exits_2(self, tmp_path, capsys, text, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main(["run", "--config", str(path), "--levels", "1"])
        assert code == 2
        assert field in message_after(path, capsys)

    @pytest.mark.parametrize("raw", [
        {"load_quad_degree": 10}, {"error_quad_degree": 10},
        {"solver": {"continuation_step": 0.1}}, {"solver": {"min_step": 1e-3}},
        {"solver": {"backtrack_factor": 0.5}},
        {"solver": {"max_backtracks": 12}},
        {"solver": {"linear_rel_tol": 1e-10}},
        {"pre_adapt_steps": 8}, {"snapshot_levels": [0, 2, 6]},
    ], ids=lambda raw: "".join(raw.get("solver", raw)))
    def test_removed_key_exits_2(self, tmp_path, capsys, raw):
        # these settings are fixed in the program; a config that sets one,
        # even to its fixed value, is refused
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p_target": 2.0, **raw}))
        code = main(["run", "--config", str(path), "--levels", "1"])
        assert code == 2
        [key] = raw.get("solver", raw)
        assert f"field {key!r}" in message_after(path, capsys)


class TestBadInputExits2:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"p_target": 2.0,')
        assert_input_error(["run", "--config", str(path)], capsys,
                           "malformed JSON")

    def test_utf8_config_under_ascii_locale(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"p_target": 2.0, "gr\u00f6\u00dfe": 1}',
                        encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(plapminres.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "plapminres.cli", "run", "--config",
             str(path)], env=env, capture_output=True, text=True,
            errors="replace", timeout=120)
        assert done.returncode == 2, done.stderr
        assert "unknown field" in done.stderr
        assert "Traceback" not in done.stderr

    def test_json_array(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[2.0]")
        assert_input_error(["run", "--config", str(path)], capsys,
                           "JSON object")

    def test_out_below_regular_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"p_target": 2.0, "max_levels": 1}')
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert_input_error(["run", "--config", str(path),
                            "--out", str(blocker / "study")], capsys,
                           "Not a directory")

    def test_out_is_a_file_before_pre_adaptation(self, tmp_path, capsys,
                                                 monkeypatch):
        def refused(*args):
            raise AssertionError("the pre-adaptation ran")

        monkeypatch.setattr(driver, "pre_adapt_mesh", refused)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"p_target": 1.5, "x0": [0, 0], "initial_n": 8, "max_levels": 1,
             "strategy": "pre_adapted_then_uniform"}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert_input_error(["run", "--config", str(path),
                            "--out", str(blocker)], capsys, "File exists")

    @pytest.mark.parametrize("argv,field", [
        (["case1", "--levels", "0"], "max_levels"),
        (["case1", "--p", "1.0"], "p_target"),
        (["case2", "--steps", "0"], "max_levels"),
        (["case2", "--initial-n", "0"], "initial_n"),
        (["case2", "--theta", "0"], "theta"),
    ], ids=["case1-levels-0", "case1-p-1", "case2-steps-0",
            "case2-initial-n-0", "case2-theta-0"])
    def test_case_options(self, tmp_path, capsys, argv, field):
        assert_input_error(argv + ["--out", str(tmp_path / "out")], capsys,
                           field)
        assert not (tmp_path / "out").exists()

    def test_empty_csv(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("")
        assert_input_error(["rates", "--csv", str(path)], capsys, "header")

    def test_rates_non_utf8_csv(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_bytes(b"\xff\xfelevel,n_free_trial\n")
        assert_input_error(["rates", "--csv", str(path)], capsys,
                           f"{path}: 'utf-8' codec")

    @pytest.mark.parametrize("window,needle", [
        ("1", "at least two levels"), ("3", "window of 3 levels")])
    def test_rates_window(self, tmp_path, capsys, window, needle):
        path = tmp_path / "records.csv"
        write_two_row_csv(path)
        capsys.readouterr()
        assert_input_error(["rates", "--csv", str(path), "--window", window],
                           capsys, needle)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rates_non_finite_error(self, tmp_path, capsys, value):
        path = tmp_path / "records.csv"
        write_two_row_csv(path)
        capsys.readouterr()
        header, first, last = path.read_text().strip().splitlines()
        cells = last.split(",")
        cells[5] = value  # the error column
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        assert_input_error(["rates", "--csv", str(path), "--window", "2"],
                           capsys, f"{path}: rate fit requires finite")

    @pytest.mark.parametrize("argv,needle", [
        (["--n", "0"], "--n 0"), (["--refine", "-1"], "--refine")],
        ids=["n-0", "refine-negative"])
    def test_export_mesh_options(self, tmp_path, capsys, argv, needle):
        out = tmp_path / "mesh.svg"
        assert_input_error(["export-mesh", "--out", str(out)] + argv, capsys,
                           needle)
        assert not out.exists()


class TestCase1Command:
    def test_single_level_single_row(self, tmp_path):
        code = main(["case1", "--p", "2.0", "--levels", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "case1_p2" / "records.csv").read_text()
        assert len(csv.strip().splitlines()) == 2  # header + one data row
        summary = json.loads((tmp_path / "rates_summary.json").read_text())
        assert "p=2" in summary

    def test_deterministic_csv_bytes(self, tmp_path):
        main(["case1", "--p", "1.5", "--levels", "2",
              "--out", str(tmp_path / "a")])
        main(["case1", "--p", "1.5", "--levels", "2",
              "--out", str(tmp_path / "b")])
        a = strip_wall((tmp_path / "a" / "case1_p1.5" / "records.csv").read_text())
        b = strip_wall((tmp_path / "b" / "case1_p1.5" / "records.csv").read_text())
        assert a == b


class TestCase2Command:
    def test_adaptive_snapshots_exist(self, tmp_path):
        code = main(["case2", "--strategy", "adaptive", "--steps", "3",
                     "--initial-n", "4", "--out", str(tmp_path)])
        assert code == 0
        study = tmp_path / "case2_adaptive"
        assert (study / "mesh_step_0.svg").exists()
        assert (study / "mesh_step_2.svg").exists()
        assert (study / "records.csv").exists()

    def test_uniform_reports_rates(self, tmp_path, capsys):
        code = main(["case2", "--strategy", "uniform", "--steps", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "rates_uniform.json").read_text())
        assert "slope_error" in summary["uniform"]
        assert "slope_eta" in summary["uniform"]


class TestRatesCommand:
    def test_fits_from_csv(self, tmp_path, capsys):
        main(["case1", "--p", "2.0", "--levels", "3", "--out", str(tmp_path)])
        csv_path = tmp_path / "case1_p2" / "records.csv"
        code = main(["rates", "--csv", str(csv_path), "--window", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope(error)" in out and "slope(eta)" in out

    def test_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        code = main(["rates", "--csv", str(bad), "--window", "2"])
        assert code == 2


class TestExportMesh:
    def test_svg(self, tmp_path):
        out = tmp_path / "mesh.svg"
        code = main(["export-mesh", "--n", "2", "--refine", "1",
                     "--format", "svg", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_vtk(self, tmp_path):
        out = tmp_path / "mesh.vtk"
        code = main(["export-mesh", "--n", "3", "--format", "vtk",
                     "--out", str(out)])
        assert code == 0
        assert "UNSTRUCTURED_GRID" in out.read_text()


class TestOutOfMemory:
    """A problem too large for memory ends with one line on stderr and
    exit 2.  The tests raise MemoryError where the program would allocate
    instead of allocating."""

    NUMPY_MESSAGE = "Unable to allocate 74.5 GiB for an array"

    @classmethod
    def exhausted(cls, *args):
        raise MemoryError(cls.NUMPY_MESSAGE)

    @pytest.mark.parametrize("target,argv,needle", [
        ("unit_square_mesh", ["--n", "100000"], "--n 100000"),
        ("refine_uniform", ["--n", "2", "--refine", "14"], "--refine 14"),
    ], ids=["n", "refine"])
    def test_export_mesh_names_the_option(self, tmp_path, capsys,
                                          monkeypatch, target, argv, needle):
        monkeypatch.setattr(cli, target, self.exhausted)
        out = tmp_path / "mesh.svg"
        assert_input_error(["export-mesh", "--out", str(out)] + argv, capsys,
                           needle)
        assert not out.exists()

    @pytest.mark.parametrize("message", [NUMPY_MESSAGE, ""],
                             ids=["numpy", "bare"])
    def test_study_reports_one_line(self, tmp_path, capsys, monkeypatch,
                                    message):
        def exhausted(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_study", exhausted)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"p_target": 3.0, "initial_n": 100000, "max_levels": 1}))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestInterrupt:
    def test_study_exits_130_with_one_line(self, tmp_path, capsys,
                                           monkeypatch):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_study", interrupted)
        path = tmp_path / "config.json"
        path.write_text('{"p_target": 3.0, "max_levels": 1}')
        assert main(["run", "--config", str(path)]) == 130
        err = capsys.readouterr().err
        assert err == "error: interrupted\n"


class TestNonFiniteNewton:
    """A study whose Newton values overflow ends with its diagnostic."""

    CONFIG = {"p_target": 3.0, "sigma": -400, "max_levels": 1}
    # the load's norm overflows, so no p = 2 trial has a finite residual
    DIAGNOSTIC = "level 0: linear stage p = 2 did not converge"

    def check_artifacts(self, out: Path):
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["diagnostic"] == self.DIAGNOSTIC
        assert (out / "records.csv").read_text().count("\n") == 1
        lines = (out / "telemetry.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["level"] == 0
        assert json.loads(lines[0])["increments"] == [None]

    def test_main_exits_1(self, tmp_path, capsys):
        out = tmp_path / "study"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "output_dir": str(out)}))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        self.check_artifacts(out)

    def test_warnings_as_errors(self, tmp_path):
        out = tmp_path / "study"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "output_dir": str(out)}))
        env = {**os.environ,
               "PYTHONPATH": str(Path(plapminres.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "plapminres.cli", "run",
             "--config", str(path)], env=env, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert self.DIAGNOSTIC in done.stderr
        self.check_artifacts(out)
