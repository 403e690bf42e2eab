"""The package loads no scipy module until it solves an assignment at d >= 2.

Every command is a fresh process that pays for its imports, and importing
scipy costs more than a short run's own work.  The one thing the package
takes from scipy is the compiled assignment solver, which ``transport``
loads by file path on first use, without the ``scipy.optimize`` package.
Each check runs in a fresh interpreter, as a command does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def scipy_modules(tmp_path, code):
    """The scipy module names in sys.modules after running code in a fresh interpreter."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def sample_code(tmp_path, potential, smoothing, chains, threads=1):
    """A short ``pgglmc sample`` run through ``cli.main``, as the command line makes it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {**potential, "lambda": 1.0, "params": {}},
        "smoothing": smoothing,
        "lmc": {"eta": "auto", "steps": 20, "chains": chains,
                "init": {"kind": "point", "value": 0.0}, "seed": 7},
        "report": {"thinning": "auto", "resamples": 2,
                   "csv": "samples.csv", "json": "report.json"},
    }), encoding="utf-8")
    argv = ["sample", "--config", str(cfg), "--out", str(tmp_path), "--quiet",
            "--threads", str(threads)]
    return f"from pgglmc import cli\nassert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("module", ["pgglmc", "pgglmc.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_modules(tmp_path, f"import {module}") == []


def test_1d_known_law_sample_loads_no_scipy(tmp_path):
    # shaped like the benchmark's w2_1d: the W2 check is the sorted matching
    code = sample_code(tmp_path, {"name": "quadratic", "d": 1},
                       {"mu": 0.05, "n": 16, "p": 2.0}, chains=64)
    assert scipy_modules(tmp_path, code) == []


def test_l1_two_thread_sample_loads_no_scipy(tmp_path):
    # shaped like the benchmark's l1_d16_t2: no known law, so no W2 at all
    code = sample_code(tmp_path, {"name": "l1", "d": 16},
                       {"mu": 0.05, "n": 32, "p": 1.0}, chains=16, threads=2)
    assert scipy_modules(tmp_path, code) == []


def test_verify_moments_loads_no_scipy(tmp_path):
    # the moments suite draws at p = 1.5, so it builds the ziggurat's tail mass
    code = "from pgglmc import cli\nassert cli.main(['verify', 'moments', '--quiet']) == 0"
    assert scipy_modules(tmp_path, code) == []


def test_2d_known_law_sample_loads_only_the_solver(tmp_path):
    # the d = 2 W2 check solves assignments with the extension loaded by path
    code = sample_code(tmp_path, {"name": "quadratic", "d": 2},
                       {"mu": 0.05, "n": 16, "p": 1.5}, chains=64)
    assert scipy_modules(tmp_path, code) == ["scipy.optimize._lsap"]
