#!/usr/bin/env python3
"""Demonstrate time inconsistency under hyperbolic discounting.

Prints, at a ladder of probe times, the consumption ratio the time-0 agent
committed to, the ratio a re-optimizing (naive) agent would pick on arrival,
and the equilibrium ratio. Under exponential discounting the three columns
coincide; under hyperbolic discounting the committed plan is abandoned.
"""

import argparse

import numpy as np

from eqmerton import (
    CrraUtility,
    ExponentialDiscount,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
    inconsistency_report,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--n-steps", type=int, default=1000)
    ap.add_argument("--k", type=float, default=1.0, help="hyperbolic curvature")
    ap.add_argument("--gamma", type=float, default=1.0, help="hyperbolic exponent")
    args = ap.parse_args()

    m = MarketParams(r=0.05, alpha=0.12, sigma=0.2)
    u = CrraUtility(p=0.5)
    g = TimeGrid(horizon=args.horizon, n_steps=args.n_steps)
    probes = np.linspace(0.1, 0.9, 5) * args.horizon

    for label, d in [
        ("exponential (rho=0.1)", ExponentialDiscount(rho=0.1)),
        (f"hyperbolic (k={args.k}, gamma={args.gamma})",
         HyperbolicDiscount(k=args.k, gamma=args.gamma)),
    ]:
        print(f"\n{label}")
        print(f"{'t':>6} {'committed':>12} {'naive':>12} {'equilibrium':>12} "
              f"{'gap naive':>12} {'gap equil':>12}")
        report = inconsistency_report(m, u, d, g, probes)
        for t, pre, naive, eq, gap_naive, gap_eq in zip(*report.values()):
            print(f"{t:>6.2f} {pre:>12.6f} {naive:>12.6f} {eq:>12.6f} "
                  f"{gap_naive:>12.3e} {gap_eq:>12.3e}")


if __name__ == "__main__":
    main()
