#!/usr/bin/env python3
"""Sweep the smoothing radius and tabulate every closed-form bound.

For each mu: the smoothness constant M, the step-size cap, the perturbation
scale a, both Lemma-3 forms, and the itemized Theorem-1 terms (at C = 0 and
eta = 0.9 * cap by default).  Optionally runs short chains per mu and appends
the measured exact-assignment W2 to the known Gaussian target, which is only
available for the quadratic-family potentials.

Example:
    python scripts/mu_sweep.py --potential quadratic --d 2 --lam 1.0 \
        --p 1.5 --n 32 --mus 0.5 0.2 0.1 0.05 --run-chains --csv sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from pgglmc import (
    InitSpec,
    LmcConfig,
    SmoothingConfig,
    bounds_table,
    get_potential,
    max_step_size,
    regularize,
    run_chain,
    w2_to_gaussian,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--potential", default="quadratic",
                    choices=["quadratic", "zero", "power", "l1", "huber"])
    ap.add_argument("--alpha", type=float, default=None,
                    help="Hölder exponent for zero/power potentials")
    ap.add_argument("--L", type=float, default=1.0, help="declared constant for zero")
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--mus", type=float, nargs="+", default=[0.5, 0.2, 0.1, 0.05, 0.02])
    ap.add_argument("--eta", type=float, default=None,
                    help="step size; default 0.9 * cap per mu")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--chains", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--run-chains", action="store_true",
                    help="also run chains and measure W2 to the known target")
    ap.add_argument("--csv", default=None, help="optional CSV output path")
    return ap.parse_args()


def build_potential(args):
    params = {}
    if args.potential == "zero":
        params = {"L": args.L, "alpha": args.alpha if args.alpha is not None else 1.0}
    elif args.potential == "power":
        params = {"alpha": args.alpha if args.alpha is not None else 0.5}
    return regularize(get_potential(args.potential, args.d, **params), args.lam)


def main() -> int:
    args = parse_args()
    pot = build_potential(args)
    rows = []
    for mu in args.mus:
        cap = max_step_size(pot, mu, args.p)
        eta = args.eta if args.eta is not None else 0.9 * cap
        if not eta < cap:
            print(f"mu={mu:g}: eta {eta:g} violates cap {cap:g}, skipping",
                  file=sys.stderr)
            continue
        scfg = SmoothingConfig(mu=mu, n=args.n, p=args.p)
        lcfg = LmcConfig(eta=eta, steps=args.steps, chains=args.chains,
                         init=InitSpec(), seed=args.seed)
        table = bounds_table(pot, scfg, lcfg)
        l3, t1 = table["lemma3"], table["theorem1"]
        row = {"mu": mu, "M": table["M"], "eta": eta, "cap": cap, "a": table["a"],
               "lemma3_w2_general": l3["w2_general"],
               "lemma3_w2_simplified": (l3["w2_simplified"] if l3["simplified_applicable"]
                                        else float("nan")),
               "theorem1_total": t1["w2_mixing"]}
        row.update({f"term_{k}": v for k, v in t1["terms"].items()})
        if args.run_chains:
            if pot.target_variance is None:
                print("known-law W2 needs a quadratic-family potential; skipping "
                      "measurement", file=sys.stderr)
            else:
                res = run_chain(pot, scfg, lcfg)
                w2 = w2_to_gaussian(res.final_states, pot.target_variance,
                                    resamples=3, rng=np.random.default_rng(args.seed + 1))
                row["measured_w2"] = w2.mean
                row["measured_w2_std"] = w2.std
        rows.append(row)

    if not rows:
        return 1
    cols = list(rows[0])
    widths = {c: max(len(c), 12) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for row in rows:
        print("  ".join(f"{row[c]:.6g}".ljust(widths[c]) for c in cols))

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
