"""End-to-end and per-layer benchmark of the pgglmc command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 28 --trace 0

Each workload (``workloads.json``) runs through the real entry point,
``pgglmc.cli.main``, in a fresh process per repetition (``child.py``).
Repetitions run back to back (a closed loop with one client) until the next
one would overrun ``--seconds``, with at least three.  A run is a pure
function of the workload seed.  Sample repetition i passes ``--seed`` as
``1000 * seed + max(i - 1, 0)``: the second repetition repeats the first
seed, so its CSV must match byte for byte, and the others vary the input,
because the assignment solver's time depends on the sampled points and each
run's median should span several inputs.  Verify repetitions pass no
``--seed``: the suites' stochastic checks are calibrated at their own fixed
seeds (4-SE tolerances have a small false-alarm rate at any other seed, e.g.
``verify moments --seed 108``), so that workload's inputs do not depend on
the workload seed, and each repetition re-checks that the suites' results
repeat exactly.

``--trace 0`` reports the end-to-end metrics over the repetitions of one
run, each a median unless said otherwise:

- ``setup_s``: process start to the point where the command can start,
  i.e. interpreter start and importing ``pgglmc.cli`` with numpy and scipy
  (loading and building the config is inside the command, so in ``wall_s``);
- ``wall_s``: the ``cli.main`` call(s);
- ``evals_per_s``: potential evaluations per second of the program's own
  work timer; ``evals_total / runtime_seconds`` from the ``sample`` report,
  and for ``verify`` the evaluations counted at ``RegularizedPotential.value``
  over the seconds the evaluating suites report (a sample-only metric would
  read 0 there);
- ``peak_rss_mb``: ``ru_maxrss`` of the repetitions' processes, averaged.
  It is a mean, not a median: with two thread groups the peak takes one of
  a few discrete values, depending on whether the groups' draw chunks happen
  to be live together, and a median jumps between them.

The three times are given at a fixed reference speed.  Each process also
times ``child.reference_work``, fixed work that does not touch pgglmc, right
after set-up and after its calls, and each repetition's times are multiplied
by ``REFERENCE_S`` over the reference time next to them (divided, for
``evals_per_s``) before the median is taken.  The shared machine the bounds
were set on changes speed by a quarter or more within minutes, for every
process alike; the scaling takes most of that out and leaves the changes of
the program.  The raw values are in the details.

Failed operations are the ``failed`` count of the result line, against
``attempted``: chains for ``sample`` (a diverged chain, or every chain of a
repetition that exits non-zero or fails a check) and checks for ``verify``.

``--trace 1`` runs the same untraced repetitions and then one traced
repetition (``spans.py``) on the first repetition's seed, and reports the
per-layer metrics from it, plus ``trace.overhead_frac`` (traced wall time
against the untraced median, both at the reference speed).  On a workload
with several thread groups it also traces a ``--threads 1`` run, the
baseline of ``lmc.parallel_efficiency``.

Every run checks the outputs: exit code 0, no diverged chains, the exact
evaluation count, byte-identical CSVs for one seed (the second repetition,
a ``--threads 1`` run on a workload with several thread groups, and the
traced run), identical verify checks for one seed, the measured W2
below the Theorem-1 bound on known-law targets, and every verify check
passing.  The last line of standard output is the JSON result; the line
before it, and ``details.json`` in the run's directory under ``.bench_out/``,
hold the details and provenance.  A traced run also leaves its spans there,
in ``spans.json``.

``--smoke`` shortens every sample workload to 1/40 of its steps and runs two
repetitions, for the schema test in ``test_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
EXIT_NO_PACKAGE = 97  # same value as in child.py: pgglmc cannot be imported
RUN_LIMIT_S = 150.0   # launch no timed repetition after this
KILL_AFTER_S = 175.0  # kill a repetition still running then: a run ends within 180 s
MIN_REPS = 3
REFERENCE_S = 0.30    # median of child.reference_work on the 2-core Xeon the bounds were set on
SMOKE_REPS = 2
SMOKE_STEP_DIVISOR = 40


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(seed: int) -> dict:
    cpu = llc = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and cpu is None:
                    cpu = val.strip()
                elif key.strip() == "cache size" and llc is None:
                    llc = val.strip()
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            git_sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgglmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
            "llc_size": llc, "python": platform.python_version(), **versions,
            "git_sha": git_sha, "source_sha256": digest.hexdigest(), "workload_seed": seed}


class Check:
    """Named pass/fail outcomes, kept in the run's details."""

    def __init__(self):
        self.items = []

    def __call__(self, name: str, ok: bool, detail="") -> bool:
        self.items.append({"name": name, "passed": bool(ok), "detail": str(detail)})
        return bool(ok)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.items)


class Runner:
    """Runs the repetitions of one workload and checks their outputs."""

    def __init__(self, name: str, workload: dict, seed: int, run_dir: Path, smoke: bool,
                 t_start: float):
        self.name, self.w, self.seed, self.smoke = name, workload, seed, smoke
        self.run_dir, self.t_start = run_dir, t_start
        self.checks = Check()
        self.attempted = self.failed = 0
        self.reps = 0
        self.output_by_seed = {}
        self.config = None
        if workload["command"] == "sample":
            self.config = json.loads(json.dumps(workload["config"]))
            if smoke:
                lmc = self.config["lmc"]
                lmc["steps"] = max(1, lmc["steps"] // SMOKE_STEP_DIVISOR)
            self.config_path = run_dir / "config.json"
            self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    # -- one process -------------------------------------------------------

    def calls(self, out: Path, threads: int, cli_seed: int | None) -> list[list[str]]:
        common = ["--out", str(out), "--threads", str(threads), "--quiet"]
        if self.w["command"] == "sample":
            return [["sample", "--config", str(self.config_path), "--seed", str(cli_seed)]
                    + common]
        return [["verify", suite] + common for suite in self.w["suites"]]

    def spawn(self, mode: str, threads: int, cli_seed: int | None) -> dict:
        """Run one child process; returns its timings, rusage and output dir."""
        self.reps += 1
        rep_dir = self.run_dir / f"rep{self.reps:03d}"
        rep_dir.mkdir()
        spec = {"src": str(SRC), "mode": mode, "run_id": f"{self.name}-{self.seed}-{self.reps}",
                "calls": self.calls(rep_dir, threads, cli_seed),
                "result": str(rep_dir / "child.json")}
        spec_path = rep_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ)
        env.pop("PGGLMC_THREADS", None)
        deadline = self.t_start + KILL_AFTER_S
        with open(rep_dir / "stderr.txt", "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err, env=env)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        t_end = time.perf_counter()
                        break
                    if time.perf_counter() > deadline:
                        raise BenchError(f"{self.name}: repetition {self.reps} ran past the "
                                         f"time limit")
                    time.sleep(0.02)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        if proc.returncode == EXIT_NO_PACKAGE:
            raise BenchError(stderr.strip() or "pgglmc cannot be imported")
        if proc.returncode != 0 or not (rep_dir / "child.json").exists():
            raise BenchError(f"{self.name}: benchmark process exited {proc.returncode}:\n"
                             f"{stderr[-2000:]}")
        res = load_json(rep_dir / "child.json")
        return {"dir": rep_dir, "mode": mode, "threads": threads, "cli_seed": cli_seed,
                "setup_s": res["t_ready"] - t_spawn, "elapsed_s": t_end - t_spawn,
                "wall_s": res["calls"][-1]["end"] - res["calls"][0]["start"],
                "rss_mb": usage.ru_maxrss / 1024.0, "calls": res["calls"],
                "reference_s": res["reference_s"],
                "evals_counted": res["evals_counted"], "spans": res["spans"]}

    # -- correctness -------------------------------------------------------

    def check_rep(self, rep: dict) -> dict:
        """Check one repetition's outputs; adds to attempted/failed."""
        tag = (f"rep{self.reps:03d}[{rep['mode']},threads={rep['threads']},"
               f"seed={rep['cli_seed']}]")
        if self.w["command"] == "sample":
            return self._check_sample(rep, tag)
        return self._check_verify(rep, tag)

    def same_output(self, name: str, cli_seed: int | None, digest: str) -> bool:
        """Record the first output digest of a seed; later ones must equal it."""
        if cli_seed not in self.output_by_seed:
            self.output_by_seed[cli_seed] = digest
            return True
        return self.checks(name, digest == self.output_by_seed[cli_seed], digest)

    def _check_sample(self, rep: dict, tag: str) -> dict:
        chk, cfg = self.checks, self.config
        chains = cfg["lmc"]["chains"]
        self.attempted += chains
        ok = chk(f"{tag}.exit_code", rep["calls"][0]["code"] == 0, rep["calls"][0]["code"])
        report_path = rep["dir"] / cfg["report"]["json"]
        csv_path = rep["dir"] / cfg["report"]["csv"]
        if not (report_path.exists() and csv_path.exists()):
            chk(f"{tag}.outputs_written", False)
            self.failed += chains
            return {}
        report = load_json(report_path)
        m = report["metrics"]
        diverged = int(m["diverged_chains"])
        ok &= chk(f"{tag}.no_divergence", diverged == 0, diverged)
        expected = chains * cfg["lmc"]["steps"] * (cfg["smoothing"]["n"] + 1)
        ok &= chk(f"{tag}.evals_total", m["evals_total"] == expected,
                  f"{m['evals_total']} vs chains*steps*(n+1) = {expected}")
        if self.w["known_law"]:
            w2 = m["empirical_w2_to_target"]["mean"]
            bound = report["bounds"]["theorem1"]["w2_mixing"]
            ok &= chk(f"{tag}.w2_below_theorem1", w2 <= bound, f"{w2} <= {bound}")
        ok &= self.same_output(f"{tag}.csv_identical_for_seed", rep["cli_seed"],
                               sha256_file(csv_path))
        self.failed += diverged if ok else chains
        return {"report": report, "evals_per_s": m["evals_total"] / m["runtime_seconds"]}

    def _check_verify(self, rep: dict, tag: str) -> dict:
        chk = self.checks
        checks = failed = 0
        suite_seconds, outcomes = {}, []
        for call, suite in zip(rep["calls"], self.w["suites"]):
            chk(f"{tag}.{suite}.exit_code", call["code"] == 0, call["code"])
            path = rep["dir"] / f"verify_{suite}.json"
            if not path.exists():
                chk(f"{tag}.{suite}.report_written", False)
                checks, failed = checks + 1, failed + 1
                continue
            for res in load_json(path)["suites"]:
                suite_seconds[res["suite"]] = res["seconds"]
                n_failed = sum(not c["passed"] for c in res["checks"])
                outcomes.append([[c["name"], c["passed"], c["observed"], c["limit"]]
                                 for c in res["checks"]])
                chk(f"{tag}.{res['suite']}.all_checks_pass", n_failed == 0,
                    f"{n_failed} of {len(res['checks'])} failed")
                checks, failed = checks + len(res["checks"]), failed + n_failed
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        if not self.same_output(f"{tag}.checks_identical_for_seed", rep["cli_seed"], digest):
            failed = checks
        self.attempted += checks
        self.failed += failed
        evals_s = sum(suite_seconds.get(s, 0.0) for s in self.w["evals_suites"])
        return {"checks": checks, "checks_failed": failed,
                "evals_per_s": rep["evals_counted"] / evals_s if evals_s else 0.0}

    # -- loops -------------------------------------------------------------

    def measure(self, seconds: float) -> list[dict]:
        """Untraced repetitions until the next would overrun ``seconds``."""
        sample = self.w["command"] == "sample"
        mode = "plain" if sample else "count"
        min_reps = SMOKE_REPS if self.smoke else MIN_REPS
        reps = []
        deadline = self.t_start + seconds
        while True:
            cli_seed = 1000 * self.seed + max(len(reps) - 1, 0) if sample else None
            rep = self.spawn(mode, self.w["threads"], cli_seed)
            rep.update(self.check_rep(rep))
            reps.append(rep)
            now = time.perf_counter()
            est = statistics.median(r["elapsed_s"] for r in reps)
            if now - self.t_start > RUN_LIMIT_S or len(reps) == min_reps and self.smoke:
                break
            if len(reps) >= min_reps and now + est > deadline:
                break
        return reps

    def repeat(self, mode: str, threads: int, cli_seed: int | None) -> dict:
        """Another run of an earlier seed; its output must match exactly."""
        rep = self.spawn(mode, threads, cli_seed)
        rep.update(self.check_rep(rep))
        return rep


def median(values) -> float:
    return float(statistics.median(values))


def speed(rep: dict, part: str) -> float:
    """REFERENCE_S over the reference time next to one part of a repetition:
    the one right after set-up, or the mean of those before and after the
    calls."""
    before, after = rep["reference_s"]
    return REFERENCE_S / (before if part == "setup" else (before + after) / 2)


def end_to_end(reps: list[dict], extra: list[dict]) -> tuple[dict, dict]:
    """Metrics over the timed repetitions; ``extra`` repetitions add set-ups.

    Each repetition's times are scaled by its own ``speed`` before the median
    is taken; the raw values are kept in the samples.
    """
    raw = {
        "setup_s": [r["setup_s"] for r in reps + extra],
        "wall_s": [r["wall_s"] for r in reps],
        "evals_per_s": [r["evals_per_s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
        "reference_s": [r["reference_s"] for r in reps + extra],
    }
    metrics = {
        "setup_s": median(r["setup_s"] * speed(r, "setup") for r in reps + extra),
        "wall_s": median(r["wall_s"] * speed(r, "calls") for r in reps),
        "evals_per_s": median(r["evals_per_s"] / speed(r, "calls") for r in reps),
        "peak_rss_mb": statistics.fmean(raw["peak_rss_mb"]),
    }
    samples = {k: {"n": len(v), "median_raw": median(v), "values": v}
               for k, v in raw.items() if k != "reference_s"}
    samples["reference_s"] = raw["reference_s"]
    return metrics, samples


def iqr_frac(values) -> float:
    """Distance between the first and third quartiles over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def per_layer(runner: Runner, reps: list[dict], untraced_wall: float, traced: dict,
              traced_t1: dict | None) -> tuple[dict, dict | None]:
    """Per-layer metrics of the traced run, with its exact-count checks, and
    how its layers account for the chain time on one thread group.

    The traced run is compared with the untraced ones at the reference speed,
    as the end-to-end times are, so that the machine's speed changes between
    them do not read as trace overhead."""
    chk, w = runner.checks, runner.w
    m = layer_metrics(traced["spans"])
    traced_speed = speed(traced, "calls")
    m["trace.overhead_frac"] = traced["wall_s"] * traced_speed / untraced_wall - 1.0
    if w["command"] == "verify":
        m["suites.checks"] = traced["checks"]
        m["suites.checks_failed"] = traced["checks_failed"]
        m["lmc.parallel_efficiency"] = 0.0
        return m, None
    cfg = runner.config
    expected = cfg["lmc"]["chains"] * cfg["lmc"]["steps"] * (cfg["smoothing"]["n"] + 1)
    reported = traced["report"]["metrics"]["evals_total"]
    if not runner.smoke:
        chk("workload.expected_evals", expected == w["expected_evals"],
            f"chains*steps*(n+1) = {expected}, listed {w['expected_evals']}")
    chk("traced.lmc_evals_exact", m.get("lmc.evals") == expected == reported,
        f"trace {m.get('lmc.evals')}, report {reported}, expected {expected}")
    steps = cfg["lmc"]["chains"] * cfg["lmc"]["steps"]
    chk("traced.chain_steps_exact", m.get("lmc.chain_steps") == steps,
        f"{m.get('lmc.chain_steps')} vs {steps}")
    accounting = None
    if traced_t1 is None:
        m["lmc.parallel_efficiency"] = 1.0
        # How far the traced layers' self times are from the untraced chain
        # time (the report's runtime_seconds), against the trace overhead or
        # the untraced repetitions' own spread, whichever is larger.  Timing
        # noise can exceed either, so this is reported, not checked.
        parts = traced_speed * sum(m.get(k, 0.0) for k in (
            "pgg.self_s", "smoothing.self_s", "potentials.self_s", "lmc.self_s"))
        chain_s = [r["report"]["metrics"]["runtime_seconds"] * speed(r, "calls")
                   for r in reps if r.get("report")]
        untraced = median(chain_s)
        tolerance = max(abs(m["trace.overhead_frac"]), iqr_frac(chain_s))
        accounting = {"layer_self_s_at_reference_speed": parts,
                      "untraced_run_chain_s_at_reference_speed": untraced,
                      "residual_frac": parts / untraced - 1.0, "tolerance_frac": tolerance,
                      "within": abs(parts / untraced - 1.0) <= tolerance}
    else:
        t1 = layer_metrics(traced_t1["spans"])
        m["lmc.parallel_efficiency"] = (t1["lmc.run_chain_s"]
                                        / (w["threads"] * m["lmc.run_chain_s"]))
        m["lmc.run_chain_s_threads1"] = t1["lmc.run_chain_s"]
    return m, accounting


def run(args, bench: dict, workloads: dict) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    w = workloads["workloads"][args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, w, args.seed, run_dir, args.smoke, t_start)
        reps = runner.measure(args.seconds)
        first = reps[0]["cli_seed"]
        extra = []
        if w["threads"] > 1 and not args.trace:
            # The CSV must not depend on the thread count (a traced run
            # checks this with its own --threads 1 run).
            extra.append(runner.repeat("plain", 1, first))
        e2e, samples = end_to_end(reps, extra)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "smoke": args.smoke, "repetitions": len(reps),
                   "samples": samples, "end_to_end": e2e}
        if args.trace:
            traced = runner.repeat("trace", w["threads"], first)
            traced_t1 = runner.repeat("trace", 1, first) if w["threads"] > 1 else None
            metrics, accounting = per_layer(runner, reps, e2e["wall_s"], traced, traced_t1)
            spans = {"traced": traced["spans"],
                     "traced_threads1": traced_t1["spans"] if traced_t1 else None}
            (run_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
            details["per_layer"] = metrics
            details["accounting"] = accounting
            names = bench["per_layer"]
        else:
            metrics = e2e
            names = bench["end_to_end"]
    finally:
        for rep_dir in run_dir.glob("rep*"):
            shutil.rmtree(rep_dir)
    details["checks"] = runner.checks.items
    details["provenance"] = provenance(args.seed)
    result = {
        "correct": runner.checks.all_passed and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in names},
    }
    details["result"] = result
    (run_dir / "details.json").write_text(json.dumps(details, indent=1, default=str),
                                          encoding="utf-8")
    return result, details


def main(argv=None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(BENCH / "workloads.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/40 of the steps and two repetitions (schema test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it is passed to pgglmc --seed)")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "pgglmc").is_dir():
        print(f"error: no pgglmc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, details = run(args, bench, workloads)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: details[k] for k in ("provenance", "samples", "checks")}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
