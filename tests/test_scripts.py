"""Smoke tests for the experiment scripts, each run as a subprocess."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pgglmc.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("potential", ["quadratic", "l1"])
def test_mu_sweep_totals_match_bounds_command(tmp_path, potential):
    d, lam, p, n, steps, chains = 2, 1.0, 1.5, 4, 10, 8
    out = tmp_path / "sweep.csv"
    proc = run_script("mu_sweep.py", "--potential", potential, "--d", d, "--lam", lam,
                      "--p", p, "--n", n, "--mus", 0.2, 0.05, "--steps", steps,
                      "--chains", chains, "--run-chains", "--csv", out)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    # only the known-law potential has a measured W2
    assert all(("measured_w2" in row) == (potential == "quadratic") for row in rows)
    for i, row in enumerate(rows):
        doc = {
            "potential": {"name": potential, "d": d, "lambda": lam, "params": {}},
            "smoothing": {"mu": float(row["mu"]), "n": n, "p": p},
            "lmc": {"eta": float(row["eta"]), "steps": steps, "chains": chains,
                    "init": {"kind": "point", "value": 0.0}, "seed": 0},
        }
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / f"b{i}"),
                     "--quiet"]) == 0
        report = json.loads((tmp_path / f"b{i}" / "report.json").read_text(encoding="utf-8"))
        assert float(row["theorem1_total"]) == report["bounds"]["theorem1"]["w2_mixing"]


def test_variance_vs_n_runs():
    proc = run_script("variance_vs_n.py", "--potential", "power", "--d", 2,
                      "--ns", 1, 4, "--trials", 50)
    assert proc.returncode == 0, proc.stderr
    assert "log-log slope" in proc.stdout
