#!/usr/bin/env python3
"""Picard solves over the README's domain sweep.

Eight discounts, eight exponents p and five horizons T (320 cases) at the
shipped market, each solved with `picard_solve` at the default tol. One row per
case: the exit reason (`ok`, or the error the CLI would write to the manifest,
with its exit code), lam(0) and the sweep count; a last line counts the cases
that exit 0.
"""

import argparse
import itertools

from eqmerton import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    NonConvergenceError,
    ParameterError,
    TimeGrid,
    picard_solve,
)

DISCOUNTS = {
    "hyp(1,1)": HyperbolicDiscount(k=1.0, gamma=1.0),
    "hyp(20,3)": HyperbolicDiscount(k=20.0, gamma=3.0),
    "hyp(0.1,0.5)": HyperbolicDiscount(k=0.1, gamma=0.5),
    "hyp(5,0.2)": HyperbolicDiscount(k=5.0, gamma=0.2),
    "exp(0.1)": ExponentialDiscount(rho=0.1),
    "exp(2)": ExponentialDiscount(rho=2.0),
    "mix(0.4,0.6;0.05,0.5)": ExponentialMixtureDiscount(betas=(0.4, 0.6), rhos=(0.05, 0.5)),
    "mix(0.5,0.5;0.01,20)": ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.01, 20.0)),
}
EXPONENTS = (-10.0, -3.0, -1.0, 0.3, 0.5, 0.9, 0.95, 0.99)
HORIZONS = (1.0, 5.0, 20.0, 50.0, 100.0)
MARKET = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)


def cases():
    """(discount label, p, T) for every case, in the order the sweep prints them."""
    return list(itertools.product(DISCOUNTS, EXPONENTS, HORIZONS))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500, help="grid steps per solve")
    ap.add_argument("--limit", type=int, default=None,
                    help="solve only the first LIMIT cases")
    args = ap.parse_args()

    selected = cases()[:args.limit]
    print(f"{'discount':>22} {'p':>6} {'T':>6} {'exit':>20} {'lam(0)':>13} {'sweeps':>6}")
    n_ok = 0
    for label, p, horizon in selected:
        g = TimeGrid(horizon=horizon, n_steps=args.n)
        try:
            sol = picard_solve(MARKET, CrraUtility(p=p), DISCOUNTS[label], g)
        except NonConvergenceError as exc:
            exit_reason, lam0, sweeps = "3 non_convergence", "-", exc.iterations
        except ParameterError:
            exit_reason, lam0, sweeps = "2 parameter_error", "-", "-"
        else:
            exit_reason, lam0, sweeps = "ok", f"{sol.values[0]:.6g}", sol.sweeps
            n_ok += 1
        print(f"{label:>22} {p:>6g} {horizon:>6g} {exit_reason:>20} {lam0:>13} {sweeps:>6}")
    print(f"{n_ok} of {len(selected)} cases exit 0")


if __name__ == "__main__":
    main()
