"""One benchmark process: set up pgglmc, then call ``pgglmc.cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec (written by
``run.py``) names the source tree, the argument lists of one or more
``cli.main`` calls, a mode and a result path:

- ``plain``: no instrumentation;
- ``count``: count the points passed to ``RegularizedPotential.value``
  (a few dozen large calls on the verify workload, so the cost is nil);
- ``trace``: record spans around every layer boundary (see ``spans.py``).

Every process also times ``reference_work``, a fixed piece of numpy and
interpreter work that does not touch pgglmc, once before and once after its
calls.  ``run.py`` scales the run's times by it (see there).

Set-up ends once ``pgglmc.cli`` is imported: loading and building the config
is the command's own work, inside its ``cli.main`` call.  The result file
holds ``perf_counter`` stamps for the end of set-up and for each call, the
exit codes and, when traced, the spans.  ``perf_counter`` is CLOCK_MONOTONIC
on Linux, so the stamps compare with the parent's.
"""

import json
import sys
import time
from pathlib import Path

EXIT_NO_PACKAGE = 97


def reference_work() -> float:
    """Seconds taken by fixed work shaped like the sampler's and the imports'."""
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(500):  # (chains, n + 1, d) blocks, as drawn at each step
        x = rng.standard_normal((256, 17, 2))
        acc += float(np.sum(np.abs(x) ** 1.5 * x))
    pts = rng.standard_normal(1024)
    for _ in range(25):  # an (N, N) cost matrix, as in the W2 assignment
        cost = np.subtract.outer(pts, pts)
        cost *= cost
        acc += float(cost.sum())
    total = 0
    for i in range(1_500_000):  # bytecode, as in importing and argument handling
        total += i % 7
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    try:
        from pgglmc import cli
    except ImportError as exc:
        print(f"cannot import pgglmc from {spec['src']}: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    t_ready = time.perf_counter()

    tracer, counted = None, [0]
    if spec["mode"] == "trace":
        from spans import MAIN, Tracer

        tracer = Tracer(run_id=spec["run_id"])
        tracer.install()
    elif spec["mode"] == "count":
        from pgglmc.potentials import RegularizedPotential

        value = RegularizedPotential.value

        def counting_value(self, x):
            out = value(self, x)
            counted[0] += out.size
            return out

        RegularizedPotential.value = counting_value

    reference_s = [reference_work()]
    calls = []
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        if tracer is not None:
            code = tracer.call(MAIN, cli.main, (argv,), {})
        else:
            code = cli.main(argv)
        calls.append({"argv": argv, "code": code, "start": t0, "end": time.perf_counter()})
    reference_s.append(reference_work())

    result = {"t_ready": t_ready, "calls": calls, "reference_s": reference_s,
              "evals_counted": counted[0],
              "spans": tracer.records() if tracer is not None else None}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
