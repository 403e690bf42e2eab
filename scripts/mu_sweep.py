#!/usr/bin/env python3
"""Sweep the smoothing radius and tabulate every closed-form bound.

The run is the config that ``pgglmc sample`` and ``bounds`` read; each of
``--mus`` replaces its ``smoothing.mu`` for one row: M, eta and its cap, a,
both Lemma-3 forms and the Theorem-1 terms (C = 0), as ``pgglmc bounds``
reports them (``"eta": "auto"`` is 0.9 * cap at each mu).  A mu the bounds
reject is named on stderr and skipped.  ``--run-chains`` adds the exact W2
of the config's chains to the known Gaussian target (quadratic family
only), as ``pgglmc sample`` reports it; where ``sample`` skips that
measurement (a single chain, a diverged chain, a final state beyond the
step guard), the reason goes to stderr and the row's W2 is left blank.

Example:
    python scripts/mu_sweep.py --config cfg.json --mus 0.5 0.2 0.1 0.05 \
        --run-chains --csv sweep.csv
"""

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from pgglmc import ExperimentConfig, ParameterError, bounds_table, run_chain
from pgglmc.cli import _exit_code, _known_law_w2, _not_a_directory


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="experiment config JSON")
    ap.add_argument("--mus", type=float, nargs="+", default=[0.5, 0.2, 0.1, 0.05, 0.02])
    ap.add_argument("--run-chains", action="store_true",
                    help="also run chains and measure W2 to the known target")
    ap.add_argument("--csv", default=None, help="optional CSV output path")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    cfg = ExperimentConfig.from_file(args.config)
    pot = cfg.build_potential()
    if args.csv:  # a CSV path that cannot be made fails before any work
        _not_a_directory("--csv", Path(args.csv))
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for mu in args.mus:
        try:
            run = dataclasses.replace(cfg, mu=mu)
            scfg, lcfg = run.build_smoothing(), run.build_lmc(pot)
            table = bounds_table(pot, scfg, lcfg)
        except ParameterError as exc:
            print(f"mu={mu:g}: {exc}; skipping", file=sys.stderr)
            continue
        l3, t1 = table["lemma3"], table["theorem1"]
        row = {"mu": mu, "M": table["M"], "eta": lcfg.eta, "cap": table["max_step_size"],
               "a": table["a"], "lemma3_w2_general": l3["w2_general"],
               "lemma3_w2_simplified": (l3["w2_simplified"] if l3["simplified_applicable"]
                                        else float("nan")),
               "theorem1_total": t1["w2_mixing"]}
        row.update({f"term_{k}": v for k, v in t1["terms"].items()})
        if args.run_chains:
            if pot.target_variance is None:
                print("known-law W2 needs a quadratic-family potential; skipping "
                      "measurement", file=sys.stderr)
            else:
                w2 = _known_law_w2(pot, lcfg, run_chain(pot, scfg, lcfg), cfg.report.resamples)
                skipped = w2.get("empirical_w2_to_target_skipped")
                if skipped:
                    print(f"mu={mu:g}: W2 not measured: {skipped}", file=sys.stderr)
                    row["measured_w2"] = row["measured_w2_std"] = None
                else:
                    w2 = w2["empirical_w2_to_target"]
                    row["measured_w2"], row["measured_w2_std"] = w2["mean"], w2["std"]
        rows.append(row)

    if not rows:
        return 1
    cols = list(rows[0])
    widths = {c: max(len(c), 12) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for row in rows:
        # a W2 the sweep did not measure is blank, here and in the CSV
        print("  ".join(("" if row[c] is None else f"{row[c]:.6g}").ljust(widths[c])
                        for c in cols))

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(_exit_code(main))
