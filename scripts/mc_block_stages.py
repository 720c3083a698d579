#!/usr/bin/env python3
"""Time spent in each stage of one Monte Carlo block, and the memory of a pass.

Runs the stages of one block of the equilibrium simulation (hyperbolic
discount, T = 1) on buffers that are already allocated, as every tile after
a worker's first one sees them, and tabulates the best-of-k time of each. A
block of --paths paths (by default a pass's block, ``simulate._BLOCK_PAIRS``
antithetic pairs) is --paths / 2 pairs, of which it stores only the drawn
paths; each partner runs on -W. The stage rows hold the whole block at once,
so their times compare across grids and block sizes; a pass runs its rows
in tiles of at most ``simulate._TILE_ELEMENTS`` elements per buffer and
``simulate._BLOCK_PAIRS`` rows:

* coarse points W at the 16 coarse bridge nodes of each pair: the shift
                words of the block's replicates from its generator
                (``simulate._block_rng``), then each row's point of the
                shared Sobol net, its replicate's digital shift
                (``rqmc.shifted_points``), Phi^{-1} and the bridge's levels;
                no other random number is drawn;
* chords        each path's mean at every node given its coarse values
                (``rqmc.BrownianBridge.chords``), the array every log-wealth
                is affine in;
* X^p           exp(p vol W) of the chords, which is the conditional X^p up
                to per-node factors, into the scratch buffer, then its
                reciprocal, the partners';
* reductions    the utility functional, each row's sum over the nodes, and
                the per-node sums, once for each half of the pairs;
* control       the terminal control of J (``simulate._terminal_control``):
                two exponentials on the last column, then the sums of C,
                C^2 and J C that the finisher regresses on;
* wealth cosh   each pair's average E[X | coarse values] at every node
                (``simulate.PolicyLeg.pair_power``: cosh(vol W) times
                per-node factors), formed only for ``simulate``'s mean
                wealth;
* checkpoints   each pair's average E[X^p | coarse values] at the martingale
                check's five checkpoints, by the same expression.

Then come the whole ``simulate`` and ``verify`` block functions on the same
chords (the perturbation rows read their tails from the shared X^p); a whole
``simulate_equilibrium`` pass over --pass-blocks blocks of the library's
size on one worker thread and on the default count (``[sim] n_workers = 0``: one per CPU the
process may run on), with the tracemalloc peak of each pass; and the
tracemalloc peak of one ``simulate_equilibrium`` call of --paths paths,
buffers included.
"""

import argparse
import time
import tracemalloc
from dataclasses import replace

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
from eqmerton.rqmc import norm_ppf, shifted_points, sobol_net
from eqmerton.simulate import (
    SimConfig,
    Spike,
    _BLOCK_PAIRS,
    _block_rng,
    _bridge,
    _checkpoints,
    _dot,
    _fused_block,
    _sums,
    _terminal_control,
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


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def stages(n_paths: int, n_steps: int, repeats: int, pass_blocks: int) -> dict:
    m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
    u = CrraUtility(p=0.5)
    d = HyperbolicDiscount(k=1.0, gamma=1.0)
    g = TimeGrid(horizon=1.0, n_steps=n_steps)
    sol = picard_solve(m, u, d, g)
    pol = equilibrium_policy(sol, m, u)
    cfg = SimConfig(n_paths=n_paths, seed=42, grid=g, x0=1.0)
    leg = equilibrium_leg(pol, cfg, m, u, d)

    flat = np.empty(cfg.n_pairs * (n_steps + 1))  # the scratch buffer of a tile
    W = np.empty((cfg.n_pairs, n_steps + 1))
    scratch = flat.reshape(W.shape)
    checkpoints = _checkpoints(g, 5)
    bridge, rep = _bridge(n_steps), cfg.replicate_pairs
    net, rows = sobol_net(bridge.dim, rep.bit_length() - 1), np.arange(cfg.n_pairs)
    Wc = np.zeros((cfg.n_pairs, bridge.dim + 1))

    def coarse_points():
        words = _block_rng(42, 0).bit_generator.random_raw((cfg.n_pairs // rep, bridge.dim))
        Wc[:, 1:] = bridge.coarse(norm_ppf(shifted_points(net, words, rows)))

    def chords():
        bridge.chords(Wc, W, scratch)

    def powers():
        Y = np.multiply(W, u.p * leg.vol, out=scratch)
        np.exp(Y, out=Y)
        np.reciprocal(Y, out=Y)

    def reductions():
        return [(_dot(scratch, leg.weights), scratch.sum(axis=0)) for _ in range(2)]

    J = np.ones(cfg.n_pairs)  # the pairs' J; its values do not change the time

    def control():
        C = _terminal_control(W[:, -1], u.p * leg.vol, n_steps)
        return _sums("c", C), J @ C

    def wealth():
        leg.pair_power(W, 1.0, out=scratch)

    def checkpoint_columns():
        leg.pair_power(W, u.p, checkpoints)

    row = {}
    for name, fn in (("coarse points", coarse_points), ("chords", chords),
                     ("X^p", powers),
                     ("reductions", reductions), ("control", control),
                     ("wealth cosh", wealth), ("checkpoints", checkpoint_columns)):
        row[name] = best_ms(fn, repeats)

    coarse_points()
    chords()
    nc = solve_no_consumption(m, u, d, g)
    moments = (u.p, 2 * u.p)
    sim_block = _fused_block([simulation_estimator(pol, g, leg, d, moments)], leg,
                             cfg.n_replicates)
    verify_block = _fused_block([
        value_identity_estimator(sol, leg, 0.0),
        martingale_estimator(nc, cfg, m, u, d),
        perturbation_estimator(leg, 0.25, Spike(zeta=pol.stock_fraction + 1.0)),
        perturbation_estimator(leg, 0.1, Spike(zeta=pol.stock_fraction + 0.01)),
    ], leg, cfg.n_replicates)
    replicate = np.arange(cfg.n_pairs) // rep
    # each call builds a fresh Block, as each tile of a pass gets its own
    row["simulate block"] = best_ms(lambda: sim_block(W, flat, replicate), repeats)
    row["verify block"] = best_ms(lambda: verify_block(W, flat, replicate), repeats)
    passes = {label: replace(cfg, n_paths=pass_blocks * 2 * _BLOCK_PAIRS, n_workers=workers)
              for label, workers in (("1 worker", 1), ("default", 0))}
    for label, pass_cfg in passes.items():
        row[f"pass {label}"] = best_ms(lambda: simulate_equilibrium(
            pol, pass_cfg, m, u, d, moment_orders=moments), repeats)
    for label, pass_cfg in passes.items():
        row[f"pass {label} MB"] = traced_peak_mb(lambda: simulate_equilibrium(
            pol, pass_cfg, m, u, d, moment_orders=moments))
    row["peak MB"] = traced_peak_mb(lambda: simulate_equilibrium(
        pol, cfg, m, u, d, moment_orders=moments))
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--paths", type=int, default=2 * _BLOCK_PAIRS)
    ap.add_argument("--steps", type=int, nargs="+", default=[100, 1000])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--pass-blocks", type=int, default=10,
                    help="blocks in the whole-pass rows")
    args = ap.parse_args()

    rows = {n: stages(args.paths, n, args.repeats, args.pass_blocks) for n in args.steps}
    names = list(next(iter(rows.values())))
    print(f"{'stage (ms)':>16}" + "".join(f"{f'{args.paths}x{n}':>14}" for n in rows))
    for name in names:
        print(f"{name:>16}" + "".join(f"{rows[n][name]:>14.2f}" for n in rows))


if __name__ == "__main__":
    main()
