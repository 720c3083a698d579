#!/usr/bin/env python3
"""Picard solve cost against grid size.

Solves the hyperbolic-discount problem on grids of increasing size and
tabulates the sweeps and wall time of one full solve, that time per sweep
(the bounds and the final derivative included) and the solve's tracemalloc
peak. The blocked-FFT kernel sum makes a sweep O(n log n) in time and O(n) in
memory, so the time per sweep should grow slightly faster than n and the peak
about like n.
"""

import argparse
import time
import tracemalloc

from eqmerton import CrraUtility, HyperbolicDiscount, MarketParams, TimeGrid, picard_solve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1_000, 10_000, 100_000])
    args = ap.parse_args()

    m = MarketParams(r=0.05, alpha=0.12, sigma=0.2)
    u = CrraUtility(p=0.5)
    d = HyperbolicDiscount(k=1.0, gamma=1.0)

    print(f"{'n':>8} {'sweeps':>6} {'time s':>9} {'ms/sweep':>9} {'peak MB':>9} "
          f"{'lam(0)':>14}")
    for n in args.sizes:
        g = TimeGrid(horizon=args.horizon, n_steps=n)
        start = time.perf_counter()
        sol = picard_solve(m, u, d, g)
        elapsed = time.perf_counter() - start
        # the peak is taken on a second, untimed solve so tracing costs no time
        tracemalloc.start()
        try:
            picard_solve(m, u, d, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"{n:>8} {sol.sweeps:>6} {elapsed:>9.3f} {1e3 * elapsed / sol.sweeps:>9.3f} "
              f"{peak / 1e6:>9.2f} {sol.values[0]:>14.10f}")


if __name__ == "__main__":
    main()
