#!/usr/bin/env python3
"""Time spent in each stage of one Monte Carlo block.

Runs the stages of one block of the equilibrium simulation (hyperbolic
discount, T = 1) on buffers that are already allocated, as every block after
a worker's first one sees them, and tabulates the best-of-k time of each. A
block of --paths paths is --paths / 2 antithetic pairs:

* rng           Philox normals for the first path of each pair, drawn into
                the reused buffer;
* running sum   W = cumsum(Z) on those paths, the running sum every
                log-wealth is affine in;
* mirror        -W written into the other half, the partner of each path;
* X^p           exp(p vol W) once per block, which is X^p up to per-node factors
                (the mirrored half as the reciprocal of its partners' half);
* wealth        exp(vol W) the same way, formed only for ``simulate``'s mean
                wealth;
* reductions    the utility functional J = Y @ weights and the per-node sums.

The last rows time the whole ``simulate`` and ``verify`` block functions on
the same draws, and the tracemalloc peak of one single-block
``simulate_equilibrium`` call, buffers included.
"""

import argparse
import time
import tracemalloc

import numpy as np

from eqmerton import (
    CrraUtility,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
    equilibrium_policy,
    picard_solve,
    solve_no_consumption,
)
from eqmerton.simulate import (
    Block,
    SimConfig,
    Spike,
    _Buffers,
    _exp_pairs,
    equilibrium_leg,
    martingale_estimator,
    perturbation_estimator,
    simulate_equilibrium,
    simulation_estimator,
    value_identity_estimator,
)


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def stages(n_paths: int, n_steps: int, repeats: int) -> dict:
    m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
    u = CrraUtility(p=0.5)
    d = HyperbolicDiscount(k=1.0, gamma=1.0)
    g = TimeGrid(horizon=1.0, n_steps=n_steps)
    sol = picard_solve(m, u, d, g)
    pol = equilibrium_policy(sol, m, u)
    cfg = SimConfig(n_paths=n_paths, seed=42, grid=g, x0=1.0, block_size=n_paths)
    leg = equilibrium_leg(pol, cfg, m, u, d)

    buffers = _Buffers()
    half = cfg.block_pairs
    W = buffers.get("w", (2 * half, n_steps + 1))
    Z = buffers.get("z", (half, n_steps), reserve=W.size)
    Y = buffers.get("y", W.shape)
    W[:half, 0] = 0.0

    def rng():
        np.random.Generator(np.random.Philox(key=[42, 0])).standard_normal(out=Z)

    def running_sum():
        np.cumsum(Z, axis=1, out=W[:half, 1:])

    def mirror():
        np.negative(W[:half], out=W[half:])

    def powers():
        _exp_pairs(W, u.p * leg.vol, Y)

    def wealth():
        _exp_pairs(W, leg.vol, buffers.get("z", W.shape))

    def reductions():
        J = Y @ leg.weights
        return (J.sum(), (J**2).sum(), Y.sum(axis=0))

    row = {}
    for name, fn in (("rng", rng), ("running sum", running_sum), ("mirror", mirror),
                     ("X^p", powers), ("wealth", wealth), ("reductions", reductions)):
        row[name] = best_ms(fn, repeats)

    rng()
    running_sum()
    mirror()
    nc = solve_no_consumption(m, u, d, g)
    sim_block = simulation_estimator(pol, g, leg, d, (u.p, 2 * u.p))[0]
    verify_blocks = [
        value_identity_estimator(sol, u, 0.0, cfg.x0)[0],
        martingale_estimator(nc, cfg, m, u, d)[0],
        perturbation_estimator(leg, 0.25, Spike(zeta=pol.stock_fraction + 1.0))[0],
        perturbation_estimator(leg, 0.1, Spike(zeta=pol.stock_fraction + 0.01))[0],
    ]
    # a fresh Block per call, as each block of a pass gets its own
    row["simulate block"] = best_ms(lambda: sim_block(Block(W, buffers, leg)), repeats)
    row["verify block"] = best_ms(
        lambda: [fn(blk) for blk in [Block(W, buffers, leg)] for fn in verify_blocks],
        repeats)

    tracemalloc.start()
    try:
        simulate_equilibrium(pol, cfg, m, u, d, moment_orders=(u.p, 2 * u.p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row["peak MB"] = peak / 1e6
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--paths", type=int, default=4096)
    ap.add_argument("--steps", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rows = {n: stages(args.paths, n, args.repeats) for n in args.steps}
    names = list(next(iter(rows.values())))
    print(f"{'stage (ms)':>16}" + "".join(f"{f'{args.paths}x{n}':>14}" for n in rows))
    for name in names:
        print(f"{name:>16}" + "".join(f"{rows[n][name]:>14.2f}" for n in rows))


if __name__ == "__main__":
    main()
