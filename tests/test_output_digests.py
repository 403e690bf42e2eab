"""Output bits as a check: SHA-256 digests of what the command line writes.

``output_digests.json`` holds one digest per output of small runs:
- ``sample``'s CSV and ``report.json`` for configs spanning p in {1, 1.5, 2},
  d in {1, 2, 16} and ``--threads`` 1 and 2, the core count pinned to 8 so
  the chain groups depend on ``--threads`` alone;
- ``bounds``' ``report.json`` on each ``sample`` workload config in
  ``perfbench/workloads.json``;
- ``verify``'s ``report.json`` for the moments, lemma2 and transport suites.
Timing fields (``metrics.runtime_seconds``, each suite's ``seconds``) are
dropped before hashing; every other byte counts.

The rule: a change that moves a digest updates the table in the same commit
and says why in CHANGES.md.  ``python tests/test_output_digests.py``, with
``src`` on the import path, rewrites the table from the current tree.

``np.log``, ``np.exp`` and ``np.power`` may take CPU-specific SIMD paths, so
the table records the numpy and scipy versions and the SIMD extensions numpy
reports where it was made.  Where they differ these tests skip, naming the
difference; they never pass on outputs the table cannot speak for.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from pgglmc import lmc
from pgglmc.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("output_digests.json")
WORKLOADS = ROOT / "perfbench" / "workloads.json"


def _config(name, d, p, eta, steps, chains, init, n=4):
    return {
        "potential": {"name": name, "d": d, "lambda": 1.0, "params": {}},
        "smoothing": {"mu": 0.05, "n": n, "p": p},
        "lmc": {"eta": eta, "steps": steps, "chains": chains, "init": init, "seed": 7},
        "report": {"thinning": "auto", "resamples": 3,
                   "csv": "samples.csv", "json": "report.json"},
    }


# the d = 1 and d = 2 quadratics have a known law, so their reports measure W2
# by the sorted matching and by the assignment solver
SAMPLE_CONFIGS = {
    "quadratic_d1_p2": _config("quadratic", 1, 2.0, 0.05, 40, 64, {"kind": "point", "value": 0.0}),
    "quadratic_d2_p1.5": _config("quadratic", 2, 1.5, "auto", 40, 64,
                                 {"kind": "gaussian", "mean": 0.5, "scale": 1.0}),
    "l1_d16_p1": _config("l1", 16, 1.0, "auto", 20, 16, {"kind": "point", "value": 0.0}),
}
VERIFY_SUITES = ("moments", "lemma2", "transport")


def environment() -> dict:
    """What the digests depend on beyond the tree: library versions and SIMD paths."""
    simd = np.__config__.CONFIG["SIMD Extensions"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "simd": simd["baseline"] + simd["found"]}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def compute_digests(tmp: Path) -> dict:
    """Run every output of the table under ``tmp`` and return its digests by name."""
    digests = {}
    configs = {f"sample {name}": doc for name, doc in SAMPLE_CONFIGS.items()}
    workloads = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    configs.update({f"bounds {name}": spec["config"] for name, spec in workloads.items()
                    if spec["command"] == "sample"})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmc, "_cores", lambda: 8)
        for label, doc in configs.items():
            cfg = tmp / f"{label.replace(' ', '_')}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            command = label.split()[0]
            for threads in ((1, 2) if command == "sample" else (None,)):
                out = tmp / f"{cfg.stem}_{threads}"
                flags = [] if threads is None else ["--threads", str(threads)]
                code = main([command, "--config", str(cfg), "--out", str(out), "--quiet", *flags])
                assert code == 0, f"{label} exited {code}"
                report = _report(out / "report.json")
                key = label if threads is None else f"{label} threads={threads}"
                if command == "sample":
                    del report["metrics"]["runtime_seconds"]
                    csv = (out / "samples.csv").read_bytes()
                    digests[f"{key} csv"] = hashlib.sha256(csv).hexdigest()
                digests[f"{key} report"] = _digest(report)
        for suite in VERIFY_SUITES:
            out = tmp / f"verify_{suite}"
            assert main(["verify", suite, "--out", str(out), "--quiet"]) == 0, suite
            report = _report(out / f"verify_{suite}.json")
            for result in report["suites"]:
                del result["seconds"]
            digests[f"verify {suite} report"] = _digest(report)
    return digests


def _table() -> dict:
    """The committed table; before the first one is written, a table that matches nothing."""
    if not TABLE.exists():
        return {"environment": {}, "digests": {}}
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    made, here = _table()["environment"], environment()
    differ = [f"{key}: table {made[key]}, here {here[key]}"
              for key in made if made[key] != here[key]]
    if differ:
        pytest.skip("the digest table was made with other numerics: " + "; ".join(differ))
    return compute_digests(tmp_path_factory.mktemp("digests"))


def test_table_lists_every_output(digests):
    assert sorted(digests) == sorted(_table()["digests"])


@pytest.mark.parametrize("key", sorted(_table()["digests"]))
def test_output_matches_its_digest(digests, key):
    assert digests[key] == _table()["digests"][key], f"{key} moved: update the table and say why"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"environment": environment(), "digests": compute_digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table['digests'])} digests to {TABLE}", file=sys.stderr)
