"""Command-line harness: ``pgglmc {sample, verify, bounds}``.

``sample`` and ``bounds`` read ``--config``; ``verify`` runs its suites at
their own seeds or at ``--seed``.  Only ``sample`` and ``verify``, which run
chains, take ``--seed`` and ``--threads``.  Each checks its output paths and
creates ``--out`` before any work.

Exit codes: 0 success, 1 a ``verify`` check failed, 2 config or usage
problem (parse error, unknown key, flag or potential parameter, a number that
is not finite, unknown suite, bad --seed or --threads, report file names
outside --out, not two separate files or naming an existing directory, a
config whose bounds overflow a float, an --out or report path that cannot be
created or written, a run whose arrays cannot be allocated), 3 a ``sample``
chain diverged (its state became non-finite, a non-finite black-box value
included, or its norm passed 1e8), 4 theory-gate violation (step-size cap),
130 interrupted (Ctrl-C; no report is written).

Reports are JSON with full config echo; final states go to CSV with the
fixed header ``chain,coordinate_0,...`` (UTF-8, LF).  Floats are written in
shortest round-trip form, so two runs with the same config and seed produce
byte-identical CSV files regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, ParameterError, StepSizeError
from .lmc import _chain_groups, _w2_skip_reason, bounds_table, run_chain
from .potentials import _sq_norm
from .suites import SUITE_NAMES, run_suites
from .transport import w2_to_gaussian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_GATE = 4
EXIT_INTERRUPT = 130  # 128 + SIGINT, as a shell reports a process it interrupted


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no Infinity or NaN
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _not_a_directory(label: str, path: Path) -> None:
    """ConfigError if ``path``, an output file, is an existing directory."""
    if path.is_dir():
        raise ConfigError(f"{label}: {str(path)!r} is an existing directory, not a file")


def _report_paths(out: str, **names: str) -> list[Path]:
    """The ``report.<key>`` files under ``out``, checked and with their
    directories created before any work."""
    for key, name in names.items():
        if os.path.basename(name) in ("", ".", "..") or "\0" in name:
            raise ConfigError(f"report.{key}: expected a file name, got {name!r}")
        # the reports are written inside --out, never next to or above it
        if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == "..":
            raise ConfigError(f"report.{key}: expected a relative path inside --out, "
                              f"got {name!r}")
    if "csv" in names:
        # the JSON report must neither overwrite the CSV nor need it as a directory
        csv, js = os.path.normpath(names["csv"]), os.path.normpath(names["json"])
        if csv == js or csv.startswith(js + os.sep) or js.startswith(csv + os.sep):
            raise ConfigError(f"report.csv and report.json must name two separate files, "
                              f"got {names['csv']!r} and {names['json']!r}")
    paths = [Path(out) / name for name in names.values()]
    for key, path in zip(names, paths):
        _not_a_directory(f"report.{key}", path)
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    return paths


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_states_csv(path: Path, states: np.ndarray) -> None:
    d = states.shape[1]
    header = "chain," + ",".join(f"coordinate_{j}" for j in range(d))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(states):
            fh.write(str(i) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _known_law_w2(pot, lcfg, res, resamples: int) -> dict:
    """``sample``'s known-law W2 metric for a run: empty, skipped with a reason, or measured."""
    if pot.target_variance is None:
        return {}
    skipped = _w2_skip_reason(res)
    if skipped:
        return {"empirical_w2_to_target_skipped": skipped}
    w2 = w2_to_gaussian(res.final_states, pot.target_variance, resamples=resamples,
                        rng=np.random.default_rng(lcfg.seed + 1))
    return {"empirical_w2_to_target": {
        "mean": w2.mean, "std": w2.std, "values": w2.values,
        "n": w2.n, "resamples": resamples,
        "note": "exact W2 against the known Gaussian target"
                + (f" (subsampled to {w2.n})" if w2.n < lcfg.chains else ""),
    }}


def cmd_sample(args) -> int:
    _check_run_flags(args)
    cfg = ExperimentConfig.from_file(args.config)
    pot = cfg.build_potential()
    scfg = cfg.build_smoothing()
    lcfg = cfg.build_lmc(pot, seed_override=args.seed)
    # the bounds go first, so a config they reject writes nothing
    bounds = bounds_table(pot, scfg, lcfg)
    csv_path, json_path = _report_paths(args.out, csv=cfg.report.csv,
                                        json=cfg.report.json_path)

    t0 = time.perf_counter()
    res = run_chain(pot, scfg, lcfg, threads=args.threads)
    runtime = time.perf_counter() - t0

    _write_states_csv(csv_path, res.final_states)

    finals = res.final_states
    # states far enough out to overflow these statistics are reported as null
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = {
            "evals_total": res.evals_total,
            "runtime_seconds": runtime,
            "chains": lcfg.chains,
            "diverged_chains": int(res.diverged.sum()),
            "divergence_steps": res.divergence_step[res.diverged].tolist(),
            "final_mean": finals.mean(axis=0),
            "final_coordinate_variance": finals.var(axis=0, ddof=1) if lcfg.chains > 1 else None,
            "final_mean_sq_norm": float(np.mean(_sq_norm(finals))),
        }
    metrics.update(_known_law_w2(pot, lcfg, res, cfg.report.resamples))

    report = {
        "tool": "pgglmc",
        "version": __version__,
        "command": "sample",
        "config": cfg.echo(),
        "resolved": {"eta": lcfg.eta, "seed": lcfg.seed, "threads": args.threads,
                     "chain_groups": _chain_groups(args.threads, lcfg.chains),
                     "thin": cfg.resolve_thinning(), "eta_cap": bounds["max_step_size"]},
        "metrics": metrics,
        "bounds": bounds,
    }
    _write_json(json_path, report)

    if not args.quiet:
        print(f"wrote {csv_path} ({lcfg.chains} chains, d = {pot.d}) and {json_path}")
    if res.diverged.any():
        bad = np.flatnonzero(res.diverged)
        for c in bad:
            print(f"chain {c} diverged at step {res.divergence_step[c]}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    pot = cfg.build_potential()
    scfg = cfg.build_smoothing()
    lcfg = cfg.build_lmc(pot)
    payload = bounds_table(pot, scfg, lcfg)
    # report.csv is checked as under sample, so a config passes or fails both alike
    _, json_path = _report_paths(args.out, csv=cfg.report.csv, json=cfg.report.json_path)

    if not args.quiet:
        print(f"M = {payload['M']:.9g}   a = {payload['a']:.9g}   "
              f"eta cap = {payload['max_step_size']:.9g}   eta = {lcfg.eta:.9g}")
        print(f"lemma1 gap bound     {payload['lemma1_gap_bound']:.9g}")
        lemma3 = payload["lemma3"]
        print(f"lemma3 W2^2 general  {lemma3['w2_sq_general']:.9g}")
        print(f"lemma3 W2 simplified {lemma3['w2_simplified']:.9g} "
              f"(applicable: {lemma3['simplified_applicable']})")
        print("theorem 1 terms:")
        for name, value in payload["theorem1"]["terms"].items():
            print(f"  {name:20s} {value:.9g}")
        print(f"  {'total':20s} {payload['theorem1']['w2_mixing']:.9g}")
        print(f"note: {payload['theorem1']['notes']['batch_size_gate']}")

    report = {"tool": "pgglmc", "version": __version__, "command": "bounds",
              "config": cfg.echo(),
              "resolved": {"eta": lcfg.eta, "seed": lcfg.seed},
              "bounds": payload}
    _write_json(json_path, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_run_flags(args)
    (json_path,) = _report_paths(args.out, json=f"verify_{args.suite}.json")
    results = run_suites(args.suite, seed=args.seed, threads=args.threads)

    all_passed = all(r.passed for r in results)
    if not args.quiet:
        for res in results:
            for check in res.checks:
                status = "PASS" if check.passed else "FAIL"
                limit = "" if check.limit is None else f"  limit={check.limit:.9g}"
                print(f"{status}  {res.suite}.{check.name}  "
                      f"observed={check.observed:.9g}{limit}")
            print(f"-- suite {res.suite}: {'PASS' if res.passed else 'FAIL'} "
                  f"({len(res.checks)} checks, {res.seconds:.1f}s)")
        print(f"== verify {args.suite}: {'PASS' if all_passed else 'FAIL'}")

    report = {"tool": "pgglmc", "version": __version__, "command": "verify",
              "suite": args.suite, "seed": args.seed, "all_passed": all_passed,
              "suites": [r.to_dict() for r in results]}
    _write_json(json_path, report)
    return EXIT_OK if all_passed else 1


def _check_run_flags(args) -> None:
    """``--seed`` and ``--threads``, which ``sample`` and ``verify`` take."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    if args.threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {args.threads}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgglmc",
        description="Black-box Langevin Monte Carlo with p-generalized Gaussian "
                    "smoothing: run chains, verify bounds, print bound tables.",
    )
    parser.add_argument("--version", action="version", version=f"pgglmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in (
            ("sample", cmd_sample, "run LMC chains, write CSV states + JSON report"),
            ("bounds", cmd_bounds, "print itemized Theorem-1 / Lemma-3 bounds, no chains"),
            ("verify", cmd_verify, "run a bound-verification suite")):
        sp = sub.add_parser(name, help=help_)
        if name == "verify":
            sp.add_argument("suite", choices=sorted(SUITE_NAMES) + ["all"])
        else:
            sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        if name != "bounds":  # the commands that run chains
            sp.add_argument("--seed", type=int, default=None,
                            help="override the seed (the config's, or each suite's own)")
            sp.add_argument("--threads", type=int, default=1,
                            help="chain groups to run in parallel, at most one per two "
                                 "chains and per usable core, as suits a CPU-bound "
                                 "potential (default: 1)")
        sp.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
        sp.set_defaults(func=func)

    return parser


def _exit_code(command) -> int:
    """``command()``'s exit code, a failure mapped as listed above; the scripts end here too."""
    try:
        return command()
    except SystemExit as exc:  # argparse exits with 2 on bad usage, 0 after --help
        return int(exc.code or 0)
    except StepSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # config reads raise ConfigError, so this is --out or a report
        print(f"error: cannot write the reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a config whose run does not fit in memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


def main(argv=None) -> int:
    def dispatch():
        args = build_parser().parse_args(argv)
        return args.func(args)

    return _exit_code(dispatch)


if __name__ == "__main__":
    sys.exit(main())
