#!/usr/bin/env python3
"""Measure estimator variance against batch size and the theory envelope.

Shows the 1/n decay: per batch size, the empirical variance of the gradient
estimate over independent trials, its standard error, the closed-form
envelope, and the fitted log-log slope (should sit near -1).

Example:
    python scripts/variance_vs_n.py --potential power --alpha 0.5 --d 4 \
        --p 1.5 --mu 0.1 --ns 1 4 16 64 256 --trials 4000
"""

import argparse
import sys

import numpy as np

from pgglmc import (
    SmoothingConfig,
    get_potential,
    measure_bias_variance,
    regularize,
    smoothed_gradient_reference,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--potential", default="quadratic",
                    choices=["quadratic", "zero", "power", "l1", "huber"])
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--mu", type=float, default=0.1)
    ap.add_argument("--ns", type=int, nargs="+", default=[1, 4, 16, 64, 256])
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    params = {"alpha": args.alpha} if args.potential in ("power",) else {}
    pot = regularize(get_potential(args.potential, args.d, **params), args.lam)
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=args.d)

    print(f"potential={args.potential} d={args.d} p={args.p} mu={args.mu} "
          f"lam={args.lam} trials={args.trials} x||={np.linalg.norm(x):.3f}")
    print(f"{'n':>6}  {'variance':>12}  {'4*SE':>10}  {'envelope':>12}  {'bias^2':>11}")
    # one reference serves every n
    reference = smoothed_gradient_reference(pot, args.mu, args.p, x, 100 * args.trials, rng)
    variances = []
    for n in args.ns:
        cfg = SmoothingConfig(mu=args.mu, n=n, p=args.p)
        rep = measure_bias_variance(pot, cfg, x, trials=args.trials, rng=rng,
                                    reference=reference)
        variances.append(rep.empirical_variance)
        print(f"{n:>6}  {rep.empirical_variance:>12.5g}  {4 * rep.variance_se:>10.3g}  "
              f"{rep.variance_bound:>12.5g}  {rep.empirical_bias_norm_sq:>11.3g}")

    if len(args.ns) > 1:
        slope = np.polyfit(np.log(args.ns), np.log(variances), 1)[0]
        print(f"log-log slope of variance vs n: {slope:.3f} (theory: -1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
