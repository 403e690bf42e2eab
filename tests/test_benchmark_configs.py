"""The benchmark's workloads take only what the package accepts.

``perfbench/workloads.json`` holds the configs and suite names the benchmark
runs.  A schema change that would make one of them fail shows up here, not
only as a failed benchmark run.  The file is read, never changed.
"""

import json
from pathlib import Path

import pytest

from pgglmc import ExperimentConfig
from pgglmc.cli import main
from pgglmc.suites import SUITE_NAMES

WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json")
                       .read_text(encoding="utf-8"))["workloads"]
CONFIGS = {name: spec["config"] for name, spec in WORKLOADS.items() if "config" in spec}
VERIFY = {name: spec for name, spec in WORKLOADS.items() if spec["command"] == "verify"}


def test_every_workload_is_covered():
    assert CONFIGS and VERIFY and set(CONFIGS) | set(VERIFY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_workload_config_parses_echoes_and_bounds(name, tmp_path):
    doc = CONFIGS[name]
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.echo() == doc
    assert ExperimentConfig.from_dict(cfg.echo()) == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_workload_suites_exist(name):
    spec = VERIFY[name]
    assert set(spec["suites"]) | set(spec.get("evals_suites", ())) <= set(SUITE_NAMES)
