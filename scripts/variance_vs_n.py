#!/usr/bin/env python3
"""Measure estimator variance against batch size and the theory envelope.

Shows the 1/n decay: per batch size, the empirical variance of the gradient
estimate over independent trials, its standard error, the closed-form
envelope, and the fitted log-log slope (should sit near -1).  The potential,
``smoothing.mu``, ``smoothing.p`` and ``lmc.seed`` come from the config that
``pgglmc sample`` reads; ``--ns`` replaces its ``smoothing.n``.

Example:
    python scripts/variance_vs_n.py --config cfg.json --ns 1 4 16 64 256
"""

import argparse
import sys

import numpy as np

from pgglmc import ExperimentConfig, measure_bias_variance
from pgglmc.cli import _exit_code


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="experiment config JSON")
    ap.add_argument("--ns", type=int, nargs="+", default=[1, 4, 16, 64, 256])
    ap.add_argument("--trials", type=int, default=4000)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    cfg = ExperimentConfig.from_file(args.config)
    pot = cfg.build_potential()
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(size=cfg.d)
    reports = measure_bias_variance(pot, cfg.mu, cfg.p, x, args.ns, args.trials, rng)

    print(f"potential={cfg.potential_name} d={cfg.d} p={cfg.p} mu={cfg.mu} "
          f"lam={cfg.lam} trials={args.trials} x||={np.linalg.norm(x):.3f}")
    print(f"{'n':>6}  {'variance':>12}  {'4*SE':>10}  {'envelope':>12}  {'bias^2':>11}")
    for n, rep in zip(args.ns, reports):
        print(f"{n:>6}  {rep.empirical_variance:>12.5g}  {4 * rep.variance_se:>10.3g}  "
              f"{rep.variance_bound:>12.5g}  {rep.empirical_bias_norm_sq:>11.3g}")

    if len(args.ns) > 1:
        variances = [rep.empirical_variance for rep in reports]
        slope = np.polyfit(np.log(args.ns), np.log(variances), 1)[0]
        print(f"log-log slope of variance vs n: {slope:.3f} (theory: -1)")
    return 0


if __name__ == "__main__":
    sys.exit(_exit_code(main))
