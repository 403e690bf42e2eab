"""The set of public names the package exports is pinned: adding or removing one is a
deliberate API change that must update this list.  The chain driver's keywords and
the command-line options are pinned the same way.  The internal names that the
benchmark's tracer wraps must stay importable too."""

import argparse
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pgglmc
from pgglmc.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # errors
    "ConfigError", "ParameterError", "StepSizeError",
    # pgg
    "PggSpec", "kappa", "log_density", "log_kappa", "pgg_norm_moment",
    "pgg_sq_norm_moment_bound", "sample_pgg",
    # potentials
    "Potential", "RegularizedPotential", "certify_holder", "get_potential",
    "lemma1_gap_bound", "lemma1_gap_envelope", "make_potential", "max_step_size",
    "perturbation_scale_a", "regularize", "smoothness_constant_M",
    # smoothing
    "BiasVarianceReport", "SmoothingConfig", "grad_estimate_from_draws", "hadamard_weight",
    "measure_bias_variance", "smoothed_gradient_reference", "smoothed_value_mc",
    # lmc
    "ChainResult", "InitSpec", "LmcConfig", "bounds_table", "check_step_size",
    "geometric_factor", "initial_w2", "outside_guard", "run_chain",
    # transport
    "W2GaussianResult", "w2_exact_1d", "w2_exact_assignment", "w2_to_gaussian",
    # config
    "ExperimentConfig", "ReportConfig",
}


def test_exported_names_are_pinned():
    # submodules show up as attributes once imported, so they are not counted
    exported = {name for name in dir(pgglmc) if not name.startswith("_")
                and not isinstance(getattr(pgglmc, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_run_surface_is_pinned():
    # a new chain knob or stored record is a deliberate API change too
    params = inspect.signature(pgglmc.run_chain).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == [
        "exact_gradient", "thin", "threads"]
    assert [f.name for f in dataclasses.fields(pgglmc.ChainResult)] == [
        "final_states", "trajectory", "evals_total", "divergence_step"]


def test_run_inputs_are_pinned():
    # each run input is stated once: the potential owns d, so no record or
    # reference takes a second one, and the initial law is (center, scale)
    fields = {record: [f.name for f in dataclasses.fields(getattr(pgglmc, record))]
              for record in ("SmoothingConfig", "InitSpec", "LmcConfig")}
    assert fields == {
        "SmoothingConfig": ["mu", "n", "p"],
        "InitSpec": ["center", "scale"],
        "LmcConfig": ["eta", "steps", "chains", "init", "seed"],
    }
    signatures = {name: list(inspect.signature(getattr(pgglmc, name)).parameters)
                  for name in ("smoothed_value_mc", "smoothed_gradient_reference",
                               "measure_bias_variance")}
    assert signatures == {
        "smoothed_value_mc": ["pot", "mu", "p", "x", "m", "rng"],
        "smoothed_gradient_reference": ["pot", "mu", "p", "x", "m", "rng"],
        "measure_bias_variance": ["pot", "mu", "p", "x", "ns", "trials", "rng"],
    }


def test_bound_record_is_pinned():
    # bounds_table is the one Theorem-1 composition; sample and bounds write
    # it as is, and the benchmark reads bounds.theorem1.w2_mixing
    pot = pgglmc.regularize(pgglmc.get_potential("quadratic", 2), 0.5)
    table = pgglmc.bounds_table(pot, pgglmc.SmoothingConfig(mu=0.1, n=4, p=1.5),
                                pgglmc.LmcConfig(eta=0.05, steps=10, chains=1))
    assert list(table) == ["M", "a", "max_step_size", "lemma1_gap_bound", "lemma3",
                           "theorem1"]
    assert list(table["lemma3"]) == ["a", "w2_sq_general", "w2_general", "w2_simplified",
                                     "simplified_applicable"]
    theorem = table["theorem1"]
    assert list(theorem) == ["w2_mixing", "w2_init", "w2_init_kind", "C", "terms", "notes",
                             "geometric_alt_exponent_K"]
    terms = ["geometric", "discretization", "smoothing_bias", "smoothing_w2", "variance_mu",
             "variance_grad", "regularization_m2"]
    assert list(theorem["terms"]) == terms
    assert list(theorem["notes"]) == terms + ["batch_size_gate"]


def cli_surface():
    """Each subcommand's options and positionals, in the order the parser declares them."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for a in sp._actions for opt in a.option_strings or [a.dest]]
            for name, sp in commands.choices.items()}


def test_cli_surface_is_pinned():
    # a new flag is a deliberate change too; verify takes no --config, and
    # bounds, which runs no chain, takes no --seed or --threads
    surface = cli_surface()
    assert surface == {
        "sample": ["-h", "--help", "--config", "--out", "--seed", "--threads", "--quiet"],
        "bounds": ["-h", "--help", "--config", "--out", "--quiet"],
        "verify": ["-h", "--help", "suite", "--out", "--seed", "--threads", "--quiet"],
    }


def test_readme_names_every_cli_flag_on_its_subcommand():
    # README's "Quickstart (CLI)" section names a flag for a subcommand in its
    # flag table (a "yes" in that subcommand's column) or on a `pgglmc <command>`
    # line; a flag named in prose must exist on some subcommand
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart (CLI)", 1)[1].split("\n## ", 1)[0]
    surface = {name: {opt for opt in opts if opt.startswith("--") and opt != "--help"}
               for name, opts in cli_surface().items()}
    named = {name: set() for name in surface}
    columns = None
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if cells[0] == "flag":
            columns = cells
        elif columns and line.startswith("| `--"):
            flag = cells[0].split()[0]
            for name, cell in zip(columns[1:], cells[1:]):
                if cell == "yes":
                    named[name].add(flag)
        for name, rest in re.findall(r"pgglmc (\w+)([^`\n]*)", line):
            named[name] |= set(re.findall(r"--[a-z][\w-]*", rest))
    assert named == surface
    everywhere = set().union(*surface.values()) | {"--version"}
    assert set(re.findall(r"--[a-z][\w-]*", section)) <= everywhere

def test_benchmark_tracer_installs(tmp_path):
    # perfbench/spans.py wraps module-level names such as suites.sample_pgg and
    # smoothing.grad_estimate_from_draws; a fresh process sees the package as
    # the benchmark does.  A traced known-law sample must pass through the
    # wrapped cli bindings, or the benchmark's lmc and transport layers read 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"name": "quadratic", "d": 2, "lambda": 1.0, "params": {}},
        "smoothing": {"mu": 0.1, "n": 4, "p": 2.0},
        "lmc": {"eta": 0.05, "steps": 20, "chains": 8,
                "init": {"kind": "point", "value": 0.0}, "seed": 1},
    }), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def traced_sample(*args):
        """The span names, layer metrics and report of one traced ``sample`` run."""
        out = tmp_path / "-".join(("run",) + args)
        argv = ["sample", "--config", str(cfg), "--out", str(out), "--quiet", *args]
        code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
                "from spans import Tracer, layer_metrics; tracer = Tracer('t'); "
                "tracer.install(); from pgglmc import cli; "
                f"assert cli.main({argv!r}) == 0; spans = tracer.records(); "
                "print(json.dumps([sorted({s['name'] for s in spans}), "
                "layer_metrics(spans)]))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names, metrics = json.loads(proc.stdout)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return set(names), metrics, report

    spans, _, _ = traced_sample()
    assert {"lmc.run_chain", "transport.w2_to_gaussian"} <= spans, spans
    # run_chain draws each group's smoothing blocks through the wrapped
    # lmc.sample_pgg, or the benchmark's pgg layer reads 0
    assert "pgg.sample_pgg" in spans, spans
    # at d = 2 the W2 check builds a cost matrix and solves it through the
    # wrapped transport names, or transport.cost_matrix_s and solve_s read 0
    assert {"transport.cdist", "transport.linear_sum_assignment"} <= spans, spans
    # the benchmark checks its traced counts exactly: on two thread groups too,
    # every chain step's estimate and evaluations must be recorded under run_chain
    _, metrics, report = traced_sample("--threads", "2")
    assert metrics["lmc.evals"] == report["metrics"]["evals_total"] == 8 * 20 * (4 + 1)
    assert metrics["lmc.chain_steps"] == 8 * 20
