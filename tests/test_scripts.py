"""Smoke tests for the experiment scripts, each run as a subprocess."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pgglmc.cli import main

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=ENV, timeout=300)


def config_doc(potential, **params):
    return {
        "potential": {"name": potential, "d": 2, "lambda": 1.0, "params": params},
        "smoothing": {"mu": 0.1, "n": 4, "p": 1.5},
        "lmc": {"eta": "auto", "steps": 10, "chains": 8,
                "init": {"kind": "point", "value": 0.0}, "seed": 3},
        "report": {"resamples": 3},
    }


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cli_report(tmp_path, command, doc, mu, name):
    """Run ``pgglmc <command>`` on ``doc`` with ``smoothing.mu`` replaced; its report."""
    doc = json.loads(json.dumps(doc))
    doc["smoothing"]["mu"] = mu
    cfg = write_doc(tmp_path / f"{name}.json", doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]) == 0
    return json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("potential", ["quadratic", "l1"])
def test_mu_sweep_totals_match_bounds_command(tmp_path, potential):
    doc = config_doc(potential)
    cfg, out = write_doc(tmp_path / "cfg.json", doc), tmp_path / "sweep.csv"
    proc = run_script("mu_sweep.py", "--config", cfg, "--mus", 0.2, 0.05, "--run-chains",
                      "--csv", out)
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out)
    assert [float(row["mu"]) for row in rows] == [0.2, 0.05]
    # only the known-law potential has a measured W2
    assert all(("measured_w2" in row) == (potential == "quadratic") for row in rows)
    for i, row in enumerate(rows):
        report = cli_report(tmp_path, "bounds", doc, float(row["mu"]), f"b{i}")
        assert float(row["eta"]) == report["resolved"]["eta"]
        assert float(row["cap"]) == report["bounds"]["max_step_size"]
        assert float(row["theorem1_total"]) == report["bounds"]["theorem1"]["w2_mixing"]


def test_mu_sweep_measured_w2_is_the_sample_report(tmp_path):
    doc = config_doc("quadratic")
    cfg, out = write_doc(tmp_path / "cfg.json", doc), tmp_path / "sweep.csv"
    proc = run_script("mu_sweep.py", "--config", cfg, "--mus", 0.05, "--run-chains",
                      "--csv", out)
    assert proc.returncode == 0, proc.stderr
    (row,) = read_rows(out)
    w2 = cli_report(tmp_path, "sample", doc, 0.05, "s")["metrics"]["empirical_w2_to_target"]
    assert float(row["measured_w2"]) == w2["mean"]
    assert float(row["measured_w2_std"]) == w2["std"]


def test_mu_sweep_skips_w2_where_the_sample_report_does(tmp_path):
    # one chain is no sample of a law: the row's W2 is blank, with sample's reason
    doc = config_doc("quadratic")
    doc["lmc"]["chains"] = 1
    cfg, out = write_doc(tmp_path / "cfg.json", doc), tmp_path / "sweep.csv"
    proc = run_script("mu_sweep.py", "--config", cfg, "--mus", 0.05, "--run-chains",
                      "--csv", out)
    assert proc.returncode == 0, proc.stderr
    (row,) = read_rows(out)
    assert (row["measured_w2"], row["measured_w2_std"]) == ("", "")
    metrics = cli_report(tmp_path, "sample", doc, 0.05, "s")["metrics"]
    assert "empirical_w2_to_target" not in metrics
    reason = metrics["empirical_w2_to_target_skipped"]
    assert f"mu=0.05: W2 not measured: {reason}" in proc.stderr


def test_mu_sweep_skips_a_mu_the_bounds_reject(tmp_path):
    doc = config_doc("l1")
    doc["lmc"]["eta"] = 0.05
    cfg, out = write_doc(tmp_path / "cfg.json", doc), tmp_path / "sweep.csv"
    # l1 at d = 2, p = 1.5: the cap is 0.082 at mu = 0.2 and 0.022 at mu = 0.05
    proc = run_script("mu_sweep.py", "--config", cfg, "--mus", 0.2, 0.05, -0.1, "--csv", out)
    assert proc.returncode == 0, proc.stderr
    assert "mu=0.05: step size 0.05 violates the stability cap" in proc.stderr
    assert "mu=-0.1: " in proc.stderr
    assert [float(row["mu"]) for row in read_rows(out)] == [0.2]


def test_variance_vs_n_runs(tmp_path):
    cfg = write_doc(tmp_path / "cfg.json", config_doc("power", alpha=0.5))
    proc = run_script("variance_vs_n.py", "--config", cfg, "--ns", 1, 4, "--trials", 50)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("potential=power d=2 p=1.5 mu=0.1 lam=1.0 trials=50 ")
    assert "log-log slope" in proc.stdout


@pytest.mark.parametrize("script", ["mu_sweep.py", "variance_vs_n.py"])
def test_potential_parameter_the_config_does_not_take_fails(tmp_path, script):
    # l1 has no Hölder exponent to set: alpha is an error, not a silent no-op
    cfg = write_doc(tmp_path / "cfg.json", config_doc("l1", alpha=0.3))
    proc = run_script(script, "--config", cfg)
    assert proc.returncode == 2
    assert "unknown parameter(s) ['alpha']" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("script, potential, args", [
    ("variance_vs_n.py", "quadratic", ["--ns", 0]),
    ("variance_vs_n.py", "quadratic", ["--trials", 1]),
    ("variance_vs_n.py", "quadratic", ["--trials", 0]),
    # past numpy's largest array: the quadratic's trial draws, the power
    # potential's reference draws first; both used to exit 1 with a traceback
    ("variance_vs_n.py", "quadratic", ["--trials", 10 ** 17]),
    ("variance_vs_n.py", "power", ["--trials", 10 ** 17]),
    ("mu_sweep.py", "quadratic", ["--run-chains", "--csv", "{file}/x.csv"]),
    ("mu_sweep.py", "quadratic", ["--run-chains", "--csv", "{dir}"]),
], ids=["ns=0", "trials=1", "trials=0", "trials=1e17", "trials=1e17-power",
        "csv-under-a-file", "csv-is-a-directory"])
def test_bad_run_argument_exits_2_before_any_output(tmp_path, script, potential, args):
    cfg = write_doc(tmp_path / "cfg.json", config_doc(potential))
    blocker = write_doc(tmp_path / "file", {})
    proc = run_script(script, "--config", cfg,
                      *(str(arg).format(file=blocker, dir=tmp_path) for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_readme_experiment_commands_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1]
    doc = re.search(r"```json\n(.*?)```", quickstart, re.S).group(1)
    (tmp_path / "cfg.json").write_text(doc, encoding="utf-8")
    section = readme.split("## Experiment scripts", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("python scripts/")]
    assert len(commands) == 2
    for argv in commands:
        proc = subprocess.run([sys.executable, str(ROOT / argv[1]), *argv[2:]],
                              capture_output=True, text=True, env=ENV, cwd=tmp_path,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
    mu_sweep = next(argv for argv in commands if argv[1] == "scripts/mu_sweep.py")
    mus = []
    for arg in mu_sweep[mu_sweep.index("--mus") + 1:]:
        if arg.startswith("--"):
            break
        mus.append(float(arg))
    assert [float(row["mu"]) for row in read_rows(tmp_path / "sweep.csv")] == mus
