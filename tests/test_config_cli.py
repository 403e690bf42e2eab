import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgglmc import ConfigError, ExperimentConfig, InitSpec, max_step_size
from pgglmc import cli, lmc
from pgglmc.cli import main


def base_doc(**overrides):
    doc = {
        "potential": {"name": "quadratic", "d": 2, "lambda": 0.5, "params": {}},
        "smoothing": {"mu": 0.1, "n": 2, "p": 2.0},
        "lmc": {"eta": 0.05, "steps": 20, "chains": 5,
                "init": {"kind": "point", "value": 0.0}, "seed": 1234},
        "report": {"thinning": "auto", "resamples": 2,
                   "csv": "samples.csv", "json": "report.json"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """``pgglmc`` in a fresh interpreter, so stderr holds exactly what it printed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "pgglmc.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def load_strict_json(path):
    """Parse a report, rejecting the non-standard Infinity and NaN constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def far_init_doc(name):
    """Zero steps from an init so far out that squaring it overflows."""
    doc = base_doc(potential={"name": name, "d": 2, "lambda": 0.5, "params": {}})
    doc["lmc"].update(eta="auto", steps=0, init={"kind": "point", "value": 1e300})
    return doc


# a smoothing radius or regularization weight so large that the bounds
# overflow a float; "auto" keeps the step size below the cap
_OVERFLOWS = [("smoothing", "mu", 1e200), ("potential", "lambda", 1e300)]


def overflow_doc(section, key, value):
    doc = base_doc()
    doc[section][key] = value
    doc["lmc"]["eta"] = "auto"
    return doc


class TestConfigParsing:
    def test_happy_path(self):
        cfg = ExperimentConfig.from_dict(base_doc())
        assert cfg.potential_name == "quadratic"
        assert cfg.d == 2 and cfg.lam == 0.5
        assert cfg.mu == 0.1 and cfg.n == 2 and cfg.p == 2.0
        assert cfg.eta == 0.05 and cfg.steps == 20 and cfg.chains == 5
        assert cfg.seed == 1234

    def test_echo_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_doc())
        assert ExperimentConfig.from_dict(cfg.echo()) == cfg

    @pytest.mark.parametrize("section,key", [
        ("potential", "curvature"), ("smoothing", "sigma"),
        ("lmc", "step_size"), ("report", "format"),
    ])
    def test_unknown_key_rejected(self, section, key):
        doc = base_doc()
        doc[section][key] = 1.0
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(doc)

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            ExperimentConfig.from_dict(doc)

    def test_missing_mu_named(self):
        doc = base_doc()
        del doc["smoothing"]["mu"]
        with pytest.raises(ConfigError, match="mu"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("patch,field", [
        ({"mu": -0.1}, "mu"), ({"n": 0}, "n"), ({"p": 2.5}, "p"), ({"p": 0.5}, "p"),
    ])
    def test_smoothing_ranges(self, patch, field):
        doc = base_doc()
        doc["smoothing"].update(patch)
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(doc)

    def test_eta_strings_other_than_auto_rejected(self):
        doc = base_doc()
        doc["lmc"]["eta"] = "fast"
        with pytest.raises(ConfigError, match="eta"):
            ExperimentConfig.from_dict(doc)

    def test_bool_is_not_a_number(self):
        doc = base_doc()
        doc["smoothing"]["n"] = True
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_gaussian_init(self):
        doc = base_doc()
        doc["lmc"]["init"] = {"kind": "gaussian", "mean": 1.0, "scale": 2.0}
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.init == InitSpec(center=1.0, scale=2.0)
        # a Gaussian init without a scale has scale 1, and the echo says so
        del doc["lmc"]["init"]["scale"]
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.init == InitSpec(center=1.0, scale=1.0)
        assert cfg.echo()["lmc"]["init"] == {"kind": "gaussian", "mean": 1.0, "scale": 1.0}

    def test_bad_init_kind(self):
        doc = base_doc()
        doc["lmc"]["init"] = {"kind": "uniform"}
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict(doc)

    def test_eta_auto_resolution(self):
        doc = base_doc()
        doc["lmc"]["eta"] = "auto"
        cfg = ExperimentConfig.from_dict(doc)
        pot = cfg.build_potential()
        cap = max_step_size(pot, cfg.mu, cfg.p)
        assert cfg.resolve_eta(pot) == pytest.approx(0.9 * cap, rel=1e-12)

    @pytest.mark.parametrize("key", ["thinning", "resamples"])
    @pytest.mark.parametrize("value", [True, "2", 0, 2.5])
    def test_report_counts_are_positive_integers(self, key, value):
        doc = base_doc()
        doc["report"][key] = value
        with pytest.raises(ConfigError, match=f"report.{key}"):
            ExperimentConfig.from_dict(doc)

    def test_integral_float_report_counts_accepted(self):
        # the integer rule of lmc.steps, lmc.chains, potential.d and smoothing.n
        doc = base_doc()
        doc["report"].update(thinning=2.0, resamples=2.0)
        report = ExperimentConfig.from_dict(doc).report
        assert (report.thinning, report.resamples) == (2, 2)
        assert type(report.thinning) is int and type(report.resamples) is int

    def test_json_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"potential": }', encoding="utf-8")
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_file(path)


class TestCliSample:
    def test_smoke(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_doc())
        code = main(["sample", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        csv_lines = (tmp_path / "samples.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "chain,coordinate_0,coordinate_1"
        assert len(csv_lines) == 6  # header + 5 chains
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["lmc"]["seed"] == 1234
        assert report["metrics"]["evals_total"] == 5 * 20 * 3
        assert "empirical_w2_to_target" in report["metrics"]

    def test_eta_auto_reported(self, tmp_path):
        doc = base_doc()
        doc["lmc"]["eta"] = "auto"
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["resolved"]["eta"] == pytest.approx(
            0.9 * report["resolved"]["eta_cap"], rel=1e-12)
        assert report["config"]["lmc"]["eta"] == "auto"

    def test_corrupt_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_mu_exits_2(self, tmp_path, capsys):
        doc = base_doc()
        del doc["smoothing"]["mu"]
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "mu" in capsys.readouterr().err

    def test_step_cap_violation_exits_4(self, tmp_path, capsys):
        doc = base_doc()
        doc["lmc"]["eta"] = 100.0
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path)]) == 4
        assert "cap" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        doc = base_doc()
        doc["lmc"]["init"] = {"kind": "point", "value": 1e9}
        doc["lmc"]["steps"] = 3
        doc["lmc"]["chains"] = 2
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_seed_override_changes_states(self, tmp_path):
        cfg_path = write_config(tmp_path, base_doc())
        main(["sample", "--config", cfg_path, "--out", str(tmp_path / "a"), "--quiet"])
        main(["sample", "--config", cfg_path, "--out", str(tmp_path / "b"), "--quiet",
              "--seed", "999"])
        a = (tmp_path / "a" / "samples.csv").read_bytes()
        b = (tmp_path / "b" / "samples.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_byte_identical_across_runs_and_threads(self, tmp_path, p):
        doc = base_doc()
        doc["smoothing"]["p"] = p
        cfg_path = write_config(tmp_path, doc)
        outs = []
        for sub, threads in (("r1", "1"), ("r2", "1"), ("r3", "3")):
            main(["sample", "--config", cfg_path, "--out", str(tmp_path / sub),
                  "--quiet", "--threads", threads])
            outs.append((tmp_path / sub / "samples.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("chains,cores,groups", [(3, 8, 1), (256, 2, 2)])
    def test_report_gives_the_groups_that_ran(self, tmp_path, monkeypatch, chains, cores,
                                              groups):
        # a group holds at least two chains and there is at most one per core
        monkeypatch.setattr(lmc, "_cores", lambda: cores)
        doc = base_doc()
        doc["lmc"].update(steps=2, chains=chains)
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path), "--quiet",
                     "--threads", "2"]) == 0
        resolved = load_strict_json(tmp_path / "report.json")["resolved"]
        assert (resolved["threads"], resolved["chain_groups"]) == (2, groups)

    def test_threads_env_is_not_read(self, tmp_path, monkeypatch):
        # $PGGLMC_THREADS was a second way to set --threads; "abc" used to exit 2
        monkeypatch.setenv("PGGLMC_THREADS", "abc")
        cfg_path = write_config(tmp_path, base_doc())
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path), "--quiet"]) == 0
        assert load_strict_json(tmp_path / "report.json")["resolved"]["threads"] == 1

    def test_far_init_report_is_strict_json_with_quiet_stderr(self, tmp_path):
        cfg_path = write_config(tmp_path, far_init_doc("l1"))
        proc = run_cli("sample", "--config", cfg_path, "--out", tmp_path, "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = load_strict_json(tmp_path / "report.json")
        assert report["metrics"]["final_mean_sq_norm"] is None

    def test_far_init_on_known_law_skips_w2(self, tmp_path):
        cfg_path = write_config(tmp_path, far_init_doc("quadratic"))
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        assert (tmp_path / "samples.csv").exists()
        metrics = load_strict_json(tmp_path / "report.json")["metrics"]
        assert "empirical_w2_to_target" not in metrics
        assert "empirical_w2_to_target_skipped" in metrics

    def test_single_chain_on_known_law_says_why_w2_is_skipped(self, tmp_path):
        doc = base_doc()
        doc["lmc"].update(steps=50, chains=1)
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        metrics = load_strict_json(tmp_path / "report.json")["metrics"]
        assert "empirical_w2_to_target" not in metrics
        assert metrics["empirical_w2_to_target_skipped"] == "a single chain"

    def test_known_law_above_assignment_cap_is_subsampled(self, tmp_path):
        # 2,100 chains exceed the 2,048-point exact-assignment cap, so W2 is
        # measured on a subsample; a spread-out init keeps the solve fast
        doc = base_doc()
        doc["lmc"].update(steps=1, chains=2100,
                          init={"kind": "gaussian", "mean": 0.0, "scale": 1.0})
        doc["report"]["resamples"] = 1
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        w2 = load_strict_json(tmp_path / "report.json")["metrics"]["empirical_w2_to_target"]
        assert w2["n"] == 2048
        assert "subsampled" in w2["note"]
        assert math.isfinite(w2["mean"])

    def test_report_config_echo_is_lossless(self, tmp_path):
        doc = base_doc()
        doc["lmc"]["eta"] = "auto"
        doc["lmc"]["init"] = {"kind": "gaussian", "mean": 0.25, "scale": 1.5}
        cfg_path = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        reparsed = ExperimentConfig.from_dict(report["config"])
        assert reparsed == ExperimentConfig.from_dict(doc)


class TestCliBounds:
    def test_prints_itemized_terms(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_doc())
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for term in ("geometric", "discretization", "smoothing_bias", "smoothing_w2",
                     "variance_mu", "variance_grad", "regularization_m2", "total"):
            assert term in out
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["bounds"]["theorem1"]["C"] == 0.0

    def test_cap_violation_exits_4(self, tmp_path):
        doc = base_doc()
        doc["lmc"]["eta"] = 100.0
        cfg_path = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path)]) == 4

    def test_general_smoothing_w2_note_names_no_minimizer(self, tmp_path):
        # x* is fixed at 0, so the general Lemma-3 form is sqrt(4 d/lam (a + e^a - 1))
        d, lam = 4, 1.0
        doc = base_doc(potential={"name": "power", "d": d, "lambda": lam, "params": {}},
                       smoothing={"mu": 2.0, "n": 2, "p": 1.0})
        doc["lmc"]["eta"] = "auto"
        cfg_path = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path), "--quiet"]) == 0
        bounds = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["bounds"]
        a, theorem1 = bounds["a"], bounds["theorem1"]
        assert a > 0.1
        assert "x*" not in theorem1["notes"]["smoothing_w2"]
        assert theorem1["notes"]["smoothing_w2"].startswith("sqrt(4 d/lam (a + e^a - 1))")
        assert theorem1["terms"]["smoothing_w2"] == math.sqrt(4 * d / lam * (a + math.expm1(a)))

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--threads", "2"]])
    def test_run_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # bounds runs no chain; these flags used to be accepted and change nothing
        cfg_path = write_config(tmp_path, base_doc())
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg_path, "--out", str(out), *flag]) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_mu_sweep_monotone_a(self, tmp_path):
        values = []
        for i, mu in enumerate((0.1, 0.01, 0.001)):
            doc = base_doc()
            doc["smoothing"]["mu"] = mu
            cfg_path = write_config(tmp_path, doc, name=f"cfg{i}.json")
            main(["bounds", "--config", cfg_path, "--out", str(tmp_path / str(i)),
                  "--quiet"])
            report = json.loads((tmp_path / str(i) / "report.json").read_text())
            values.append(report["bounds"]["a"])
        assert values[0] > values[1] > values[2]


class TestCliVerify:
    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        assert main(["verify", "nonsense", "--out", str(tmp_path)]) == 2

    def test_transport_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "transport", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "verify_transport.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for s in report["suites"] for c in s["checks"]}
        assert "assignment_equals_bruteforce" in names


class TestCliExitCodes:
    """Malformed inputs exit 2 with one ``error:`` line, never a traceback."""

    def assert_config_error(self, code, capsys, needle):
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_doc())
        code = main(["sample", "--config", cfg_path, "--out", str(tmp_path), "--seed", "-1"])
        self.assert_config_error(code, capsys, "--seed")

    def test_init_value_wrong_length_exits_2(self, tmp_path, capsys):
        doc = base_doc()
        doc["lmc"]["init"] = {"kind": "point", "value": [1.0, 2.0, 3.0]}
        cfg_path = write_config(tmp_path, doc)
        code = main(["sample", "--config", cfg_path, "--out", str(tmp_path)])
        self.assert_config_error(code, capsys, "lmc.init.value")

    @pytest.mark.parametrize("key, init", [
        ("value", {"kind": "point", "value": math.nan}),
        ("value", {"kind": "point", "value": [0.0, math.inf]}),
        ("mean", {"kind": "gaussian", "mean": -math.inf, "scale": 1.0}),
        ("mean", {"kind": "gaussian", "mean": [math.nan, 0.0], "scale": 1.0}),
        ("scale", {"kind": "gaussian", "mean": 0.0, "scale": math.inf}),
        ("scale", {"kind": "gaussian", "mean": 0.0, "scale": math.nan}),
    ])
    def test_non_finite_init_exits_2_naming_the_key(self, tmp_path, capsys, key, init):
        # json writes and reads NaN and Infinity; they used to reach the
        # bounds and fail there as "w2_init must be finite"
        doc = base_doc()
        doc["lmc"]["init"] = init
        cfg_path = write_config(tmp_path, doc)
        for command in ("sample", "bounds"):
            out = tmp_path / command
            code = main([command, "--config", cfg_path, "--out", str(out)])
            self.assert_config_error(code, capsys, f"lmc.init.{key}")
            assert not out.exists()

    def test_overflowing_initial_distance_exits_2(self, tmp_path, capsys):
        # every coordinate is finite, but the distance from the init to the
        # target is past the float range
        doc = base_doc()
        doc["lmc"]["init"] = {"kind": "point", "value": [1.7e308, 1.7e308]}
        cfg_path = write_config(tmp_path, doc)
        for command in ("sample", "bounds"):
            out = tmp_path / command
            code = main([command, "--config", cfg_path, "--out", str(out)])
            self.assert_config_error(code, capsys, "init center")
            assert not out.exists()

    @pytest.mark.parametrize("init", [{"kind": "point", "value": 1e308},
                                      {"kind": "gaussian", "mean": 0.0, "scale": 1e308}])
    def test_far_init_names_the_init_center(self, tmp_path, capsys, init):
        # the README quickstart config at d = 4: sqrt(d) times a huge scalar
        # center or scale overflows, and the error used to name w2_init
        doc = base_doc(potential={"name": "quadratic", "d": 4, "lambda": 1.0, "params": {}},
                       smoothing={"mu": 0.05, "n": 16, "p": 1.5})
        doc["lmc"].update(eta="auto", steps=2000, chains=256, init=init, seed=7)
        code = main(["bounds", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
        self.assert_config_error(code, capsys, "error: init center ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("section, key, text, needle", [
        ("potential", "lambda", "1e309", "potential.lambda"),
        ("potential", "params", '{"curvature": 1e309}', "potential.params.curvature"),
        ("potential", "params", '{"curvature": 1' + "0" * 400 + "}",
         "potential.params.curvature"),
        ("smoothing", "mu", "1e309", "smoothing.mu"),
        ("lmc", "eta", "1e309", "lmc.eta"),
        ("lmc", "eta", "1" + "0" * 400, "lmc.eta"),
        ("lmc", "init", '{"kind": "point", "value": -1' + "0" * 400 + "}", "lmc.init.value"),
        ("potential", "params", '{"delta": 1e-320}', "huber delta"),
    ])
    def test_non_finite_number_exits_2_naming_the_key(self, tmp_path, capsys,
                                                      section, key, text, needle):
        # JSON reads 1e309 as inf, and a 401-digit integer is past the float
        # range; they used to exit 2 as a zero step size, or 4, or 1
        doc = base_doc()
        if key == "params":
            doc["potential"]["name"] = "huber" if "delta" in text else "quadratic"
        doc[section][key] = "@"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc).replace('"@"', text), encoding="utf-8")
        for command in ("sample", "bounds"):
            out = tmp_path / command
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            self.assert_config_error(code, capsys, needle)
            assert not out.exists()

    def test_unknown_param_names_the_allowed_ones(self, tmp_path, capsys):
        doc = base_doc()
        doc["potential"]["params"] = {"L": 2.0}
        cfg_path = write_config(tmp_path, doc)
        for command in ("sample", "bounds"):
            code = main([command, "--config", cfg_path, "--out", str(tmp_path / command)])
            self.assert_config_error(
                code, capsys, "unknown parameter(s) ['L'] for 'quadratic'; allowed: ['curvature']")

    def test_non_numeric_param_exits_2(self, tmp_path, capsys):
        doc = base_doc()
        doc["potential"] = {"name": "power", "d": 2, "lambda": 0.5, "params": {"alpha": "x"}}
        cfg_path = write_config(tmp_path, doc)
        code = main(["sample", "--config", cfg_path, "--out", str(tmp_path)])
        self.assert_config_error(code, capsys, "potential.params.alpha")

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_doc())
        code = main(["sample", "--config", cfg_path, "--out", str(tmp_path), "--threads", "0"])
        self.assert_config_error(code, capsys, "--threads")
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("section, key, value", _OVERFLOWS)
    def test_overflowing_bounds_exit_2_and_write_nothing(self, tmp_path, capsys,
                                                         section, key, value):
        cfg_path = write_config(tmp_path, overflow_doc(section, key, value))
        for command in ("sample", "bounds"):
            out = tmp_path / command
            code = main([command, "--config", cfg_path, "--out", str(out)])
            self.assert_config_error(code, capsys, "overflow")
            assert not out.exists()


    @pytest.mark.parametrize("key", ["csv", "json"])
    @pytest.mark.parametrize("name", ["", ".", "..", "sub/", "sub/..", "a\0b"])
    def test_report_name_that_is_no_file_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                    key, name):
        # "csv": "" used to exit 1 with FileExistsError, "json": "" with
        # IsADirectoryError after the CSV was written
        doc = base_doc()
        doc["report"][key] = name
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["sample", "--config", cfg_path, "--out", str(out)])
        self.assert_config_error(code, capsys, f"report.{key}")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["csv", "json"])
    @pytest.mark.parametrize("name", ["ABS", "../escaped.txt", "sub/../../escaped.txt"])
    def test_report_name_outside_out_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                 key, name):
        # an absolute name used to exit 0 after writing that file outside --out
        if name == "ABS":
            name = str(tmp_path / "elsewhere" / "escaped.txt")
        doc = base_doc()
        doc["report"][key] = name
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["sample", "--config", cfg_path, "--out", str(out)])
        self.assert_config_error(code, capsys, f"report.{key}")
        assert not out.exists()
        assert not (tmp_path / "escaped.txt").exists()
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("under_file", [False, True])
    @pytest.mark.parametrize("command", ["sample", "bounds", "verify"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, under_file):
        # an --out naming a file, or a path under one, used to end in a
        # FileExistsError or NotADirectoryError traceback, and sample only
        # failed after running every chain
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was created")

        monkeypatch.setattr(cli, "run_chain", no_work)
        monkeypatch.setattr(cli, "run_suites", no_work)
        argv = (["verify", "transport"] if command == "verify"
                else [command, "--config", write_config(tmp_path, base_doc())])
        out = afile / "x" if under_file else afile
        code = main(argv + ["--out", str(out), "--quiet"])
        self.assert_config_error(code, capsys, "afile")
        assert afile.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("key", ["csv", "json"])
    @pytest.mark.parametrize("command", ["sample", "bounds"])
    def test_report_path_that_is_a_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, key):
        # sample used to run every chain and then fail on "Is a directory"
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the report paths were checked")

        monkeypatch.setattr(cli, "run_chain", no_work)
        out = tmp_path / "out"
        (out / "taken").mkdir(parents=True)
        doc = base_doc()
        doc["report"][key] = "taken"
        code = main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
        self.assert_config_error(code, capsys, f"report.{key}")
        assert [path.name for path in out.iterdir()] == ["taken"]
        assert not any((out / "taken").iterdir())

    def test_interrupted_sample_exits_130_and_writes_nothing(self, tmp_path):
        # Ctrl-C used to end in a KeyboardInterrupt traceback and death by the signal
        doc = base_doc(potential={"name": "l1", "d": 16, "lambda": 1.0, "params": {}})
        doc["smoothing"].update(n=32, p=1.0)
        doc["lmc"].update(eta="auto", steps=1_000_000, chains=64)
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = ("import sys; from pgglmc.cli import main; print('ready', flush=True); "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "sample", "--config", cfg_path, "--out", str(out),
             "--threads", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(1.0)  # into the chains
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 130
        assert err.splitlines() == ["error: interrupted"]
        assert not (out / "report.json").exists() and not (out / "samples.csv").exists()

    def test_allocation_failure_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        # a run too large for memory (smoothing.n = 1e12, say) used to end in
        # a MemoryError traceback and exit 1
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run_chain", no_memory)
        out = tmp_path / "out"
        code = main(["sample", "--config", write_config(tmp_path, base_doc()), "--out", str(out)])
        self.assert_config_error(code, capsys, "out of memory")
        assert not (out / "report.json").exists() and not (out / "samples.csv").exists()

    def test_batch_size_past_numpy_largest_array_exits_2(self, tmp_path, capsys):
        # smoothing.n = 2^62 used to end in numpy's ValueError traceback and exit 1
        doc = base_doc()
        doc["smoothing"]["n"] = 2 ** 62
        out = tmp_path / "out"
        code = main(["sample", "--config", write_config(tmp_path, doc), "--out", str(out)])
        self.assert_config_error(code, capsys, "out of memory")
        assert not (out / "report.json").exists() and not (out / "samples.csv").exists()

    @pytest.mark.parametrize("csv, json_name", [
        ("report.json", "report.json"), ("./out.txt", "out.txt"), ("sub", "sub/report.json"),
        ("sub/samples.csv", "sub"),
    ])
    def test_report_names_that_collide_exit_2_and_write_nothing(self, tmp_path, capsys,
                                                                csv, json_name):
        # the same name for both used to exit 0, the JSON report silently
        # overwriting the CSV of states
        doc = base_doc()
        doc["report"].update(csv=csv, json=json_name)
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["sample", "--config", cfg_path, "--out", str(out)])
        self.assert_config_error(code, capsys, "separate files")
        assert not out.exists()


# Config documents for the exit-code fuzz test: valid documents at tiny sizes,
# then a few leaves replaced by out-of-range or extreme floats, wrong types or
# init points of the wrong length.  Sizes stay tiny whatever the mutation, so
# every example runs in milliseconds.
_EXTREME_FLOATS = (0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-12, 1e12, 1e200, 1e300,
                   1.7976931348623157e308, -1e300, math.inf, -math.inf, math.nan)
_PARAMS = {
    "quadratic": {"curvature": st.floats(0.1, 10.0)},
    "power": {"alpha": st.floats(0.05, 0.95)},
    "l1": {},
    "huber": {"delta": st.floats(0.1, 2.0)},
    "zero": {"L": st.floats(0.1, 10.0), "alpha": st.floats(0.0, 1.0)},
}
_LEAVES = (
    ("potential", "name"), ("potential", "lambda"), ("potential", "params"),
    ("smoothing", "mu"), ("smoothing", "p"), ("lmc", "eta"), ("lmc", "seed"), ("lmc", "init"),
)
# report file names are drawn from a fixed list; the ones that escape --out
# stay inside the system's temporary directory, should they ever be written
_NAME_LEAVES = (("report", "csv"), ("report", "json"))
_ESCAPING_NAME = os.path.join(tempfile.gettempdir(), "pgglmc-fuzz", "escaped.txt")
_BAD_NAMES = st.one_of(
    st.sampled_from(["", ".", "..", "/", "sub/", "sub/..", "a\0b", "sub", "sub/x.json",
                     "samples.csv", "report.json", "./report.json", "../escaped.txt",
                     "sub/../../escaped.txt", _ESCAPING_NAME]),
    st.none(), st.booleans(), st.integers(-3, 4), st.just({}),
)
# sizes never get a large integral value, which would be a valid but huge run
_SIZE_LEAVES = (
    ("potential", "d"), ("smoothing", "n"), ("lmc", "steps"), ("lmc", "chains"),
    ("report", "thinning"), ("report", "resamples"),
)


@st.composite
def _valid_documents(draw):
    name = draw(st.sampled_from(sorted(_PARAMS)))
    d = draw(st.integers(1, 3))
    coordinate = st.floats(-2.0, 2.0)
    point = st.one_of(coordinate, st.lists(coordinate, min_size=d, max_size=d))
    init = draw(st.one_of(
        st.fixed_dictionaries({"kind": st.just("point"), "value": point}),
        st.fixed_dictionaries({"kind": st.just("gaussian"), "mean": point,
                               "scale": st.floats(0.1, 2.0)}),
    ))
    return {
        "potential": {"name": name, "d": d, "lambda": draw(st.floats(0.1, 10.0)),
                      "params": draw(st.fixed_dictionaries(_PARAMS[name]))},
        "smoothing": {"mu": draw(st.floats(1e-3, 1.0)), "n": draw(st.integers(1, 3)),
                      "p": draw(st.floats(1.0, 2.0))},
        "lmc": {"eta": draw(st.one_of(st.just("auto"), st.floats(1e-4, 0.1))),
                "steps": draw(st.integers(0, 3)), "chains": draw(st.integers(1, 3)),
                "init": init, "seed": draw(st.integers(0, 2**32))},
        "report": {"thinning": draw(st.one_of(st.just("auto"), st.integers(1, 3))),
                   "resamples": draw(st.integers(1, 2)),
                   "csv": "samples.csv", "json": "report.json"},
    }


_WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}))
_BAD_SIZES = st.one_of(
    st.sampled_from((-1e300, -1, 0, 0.5, 2.5, 1e-300, math.inf, -math.inf, math.nan)),
    st.integers(-3, 4), _WRONG_TYPES,
)
_BAD_VALUES = st.one_of(
    st.sampled_from(_EXTREME_FLOATS),
    st.floats(),
    st.integers(-3, 4),
    _WRONG_TYPES,
    st.lists(st.floats(-2.0, 2.0), max_size=4),
    st.fixed_dictionaries({"kind": st.sampled_from(["point", "gaussian", "delta"]),
                           "value": st.lists(st.floats(-2.0, 2.0), max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("point"),
                           "value": st.sampled_from(_EXTREME_FLOATS)}),
    st.fixed_dictionaries({"kind": st.just("gaussian"),
                           "mean": st.lists(st.sampled_from(_EXTREME_FLOATS), max_size=3),
                           "scale": st.sampled_from(_EXTREME_FLOATS)}),
    st.dictionaries(st.sampled_from(["curvature", "alpha", "delta", "L", "beta"]),
                    st.one_of(st.sampled_from(_EXTREME_FLOATS), st.text(max_size=2)),
                    max_size=2),
)


@st.composite
def config_documents(draw):
    doc = draw(_valid_documents())
    leaves = _LEAVES + _SIZE_LEAVES + _NAME_LEAVES
    for section, key in draw(st.lists(st.sampled_from(leaves), max_size=3)):
        doc[section][key] = draw(_BAD_SIZES if (section, key) in _SIZE_LEAVES
                                 else _BAD_NAMES if (section, key) in _NAME_LEAVES
                                 else _BAD_VALUES)
    return doc


def _run_both_commands(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("sample", "bounds"):
            code = main([command, "--config", str(cfg_path), "--out",
                         str(Path(tmp) / command), "--quiet"])
            assert code in (0, 2, 3, 4), (command, code, doc)


class TestCliExitCodeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(doc=config_documents())
    @example(doc=overflow_doc(*_OVERFLOWS[0]))
    @example(doc=overflow_doc(*_OVERFLOWS[1]))
    @example(doc=base_doc(report={"csv": ""}))
    @example(doc=base_doc(report={"json": ""}))
    def test_exit_code_is_documented(self, doc):
        _run_both_commands(doc)
