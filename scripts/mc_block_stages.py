#!/usr/bin/env python3
"""Time spent in each stage of one Monte Carlo block, and the memory of a pass.

Runs the stages of one block of the equilibrium simulation (hyperbolic
discount, T = 1) on buffers that are already allocated, as every tile after
a worker's first one sees them, and tabulates the best-of-k time of each. A
block of --paths paths (by default a pass's block, ``simulate._BLOCK_PAIRS``
antithetic pairs) is --paths / 2 pairs, of which it stores only the drawn
paths; each partner runs on -W. Every array is node-major, as in a pass: a
row per node, segment or degree, and the block's paths along the
contiguous last axis. The stage rows hold the whole block at once, so
their times compare across grids and block sizes; a pass runs its rows in
tiles, whose sizes the table's last three rows give:

* coarse points W at the 16 coarse bridge nodes of each pair: the shift
                words of the block's replicates from its generator
                (``simulate._block_rng``), then each row's point of the
                shared Sobol net, its replicate's digital shift
                (``rqmc.shifted_points``), Phi^{-1} and the bridge's levels;
                no other random number is drawn;
* chords        each path's mean at every node given its coarse values
                (``rqmc.BrownianBridge.chords``, into the block's buffer as
                a pass's tile fills its own), the array every log-wealth is
                affine in;
* X^p           exp(p vol W) of the chords, which is the conditional X^p up
                to per-node factors, into the scratch buffer, then its
                reciprocal, the partners';
* reductions    the utility functional, each row's sum over the nodes, once
                for each half of the pairs;
* control       the terminal control of J (``simulate._terminal_control``):
                two exponentials on the last column, then the sums of C,
                C^2 and J C that the finisher regresses on;
* wealth cosh   the per-node sums of cosh(vol W) over the pairs
                (``simulate.Block.pair_sums``), which ``simulate``'s mean
                wealth scales by per-node factors, as its mean value over
                the discount scales those of cosh(p vol W);
* checkpoints   each pair's average E[X^p | coarse values] at the martingale
                check's five checkpoints (``simulate.PolicyLeg.pair_power``).

The next three rows are the path of a leg that sums its segments from their
Taylor moments (``simulate.SegmentSeries``), timed at every grid, although
only a leg whose series degree D has D + 1 < s, the segments' length, takes
it in a pass (``simulate.PolicyLeg.takes_moments``; 1000 steps does, 100
does not):

* segment coefficients  each segment's midpoint and the powers slope^m,
                m = 0..D, from the coarse values;
* row dots      J and the two perturbation tails and heads of ``verify``,
                each path's sum of the weights against e^{+-a W}, from the
                segment moments of the weights;
* column sums   the per-node sums of e^{a W} and e^{-a W} (the X^p sums)
                and of e^{+-vol W} (mean wealth), from per-segment row sums
                (``simulate.Block.pair_sums``).

Then come the whole ``simulate`` and ``verify`` block functions on the same
paths, on the chords or the coarse values as a pass on the leg would take
them (the perturbation rows read their tails and heads from the shared
X^p); the perturbation heads alone, ``verify``'s two spikes on a block whose
``simulate.Block.powers`` (J, its control, the tails and the heads) are
already formed: each spike's window chords (read from the
chord matrix, or formed from the coarse values), one exponential of them
and its reciprocal, and the per-row sums of its loss; a whole
``simulate_equilibrium`` pass over --pass-blocks blocks of the library's
size on one worker thread and on the default count (``[sim] n_workers = 0``: one per CPU the
process may run on), with the tracemalloc peak of each pass; the
tracemalloc peak of one ``simulate_equilibrium`` call of --paths paths,
buffers included; and the rows of a pass's tile for each kind of pass
(``simulate._Pass``), at most ``simulate._TILE_ELEMENTS`` elements of the
widest array the tile forms and ``simulate._BLOCK_PAIRS`` rows: one that
forms the chords, n + 1 per row; one on segment moments, (D + 1) N per row
(N = 16 coarse segments from 16 steps on) or ``verify``'s widest
perturbation head, whichever is wider (on every grid, as if the leg took
moments); and one without a leg, the martingale and moment checks run
alone, which holds the N + 1 coarse values per row.
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
    Block,
    SegmentSeries,
    SimConfig,
    Spike,
    _BLOCK_PAIRS,
    _Pass,
    _block_rng,
    _bridge,
    _checkpoints,
    _fused_block,
    _per_row,
    _plan,
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
    W = np.empty((n_steps + 1, cfg.n_pairs))
    scratch = flat.reshape(W.shape)
    checkpoints = _checkpoints(g, 5)
    bridge, rep = _bridge(n_steps), cfg.replicate_pairs
    net, rows = sobol_net(bridge.dim, rep.bit_length() - 1), np.arange(cfg.n_pairs)
    Wc = np.zeros((bridge.dim + 1, cfg.n_pairs))

    def coarse_points():
        words = _block_rng(42, 0).bit_generator.random_raw((cfg.n_pairs // rep, bridge.dim))
        Wc[1:] = bridge.coarse(norm_ppf(shifted_points(net, words, rows)))

    def chords():
        bridge.chords(Wc, out=W)

    def powers():
        Y = np.multiply(W, u.p * leg.vol, out=scratch)
        np.exp(Y, out=Y)
        np.reciprocal(Y, out=Y)

    def reductions():
        return [_per_row("kr,k->r", scratch, leg.lifted_weights) for _ in range(2)]

    J = np.ones(cfg.n_pairs)  # the pairs' J; its values do not change the time

    def control():
        C = _terminal_control(W[-1], u.p * leg.vol, n_steps)
        return _sums("c", C), J @ C

    replicate = np.arange(cfg.n_pairs) // rep
    on_chords = _Pass(bridge=bridge, leg=leg, tails=(), n_replicates=cfg.n_replicates,
                      series=None, chords=True)

    def wealth():
        Block(W, flat, on_chords, replicate).pair_sums(leg.vol)

    factor = leg.power_factor(u.p, checkpoints)

    def checkpoint_rows():
        leg.pair_power(W[checkpoints], u.p, factor)

    spikes = ((0.25, pol.stock_fraction + 1.0), (0.1, pol.stock_fraction + 0.01))
    tails = tuple(perturbation_estimator(leg, eps, Spike(zeta))[0].tail for eps, zeta in spikes)
    series = SegmentSeries(leg, tails)
    a = u.p * leg.vol

    def segment_coefficients():
        return series.expand(Wc)

    def row_dots():
        mid, P = coefficients
        e = np.exp(a * mid)
        return [series.row_sums(P, e, 1.0 / e, M)
                for M in (series.moments[0], *(series.moments[s] for s in tails),
                          *(series.heads[s] for s in tails))]

    def column_sums():
        mid, P = coefficients
        out = []
        for b in (a, leg.vol):
            e = np.exp(b * mid)
            out.append(series.node_sums(P, e, 1.0 / e, b))
        return out

    coarse_points()
    coefficients = segment_coefficients()
    row = {}
    for name, fn in (("coarse points", coarse_points), ("chords", chords),
                     ("X^p", powers),
                     ("reductions", reductions), ("control", control),
                     ("wealth cosh", wealth), ("checkpoints", checkpoint_rows),
                     ("segment coefficients", segment_coefficients),
                     ("row dots", row_dots), ("column sums", column_sums)):
        row[name] = best_ms(fn, repeats)

    coarse_points()
    chords()
    nc = solve_no_consumption(m, u, d, g)
    moments = (u.p, 2 * u.p)
    sim = [simulation_estimator(pol, g, leg, d, moments)]
    verify = [
        value_identity_estimator(sol, leg, 0.0),
        martingale_estimator(nc, cfg, m, u, d),
        *(perturbation_estimator(leg, eps, Spike(zeta=zeta)) for eps, zeta in spikes),
    ]
    sim_block = _fused_block(sim, _plan(n_steps, leg, sim, cfg.n_replicates))
    verify_plan = _plan(n_steps, leg, verify, cfg.n_replicates)
    verify_block = _fused_block(verify, verify_plan)
    paths = W if verify_plan.chords else Wc
    # each call builds a fresh Block, as each tile of a pass gets its own
    row["simulate block"] = best_ms(lambda: sim_block(paths, flat, replicate), repeats)
    row["verify block"] = best_ms(lambda: verify_block(paths, flat, replicate), repeats)
    spike_blocks = [perturbation_estimator(leg, eps, Spike(zeta=zeta))[0] for eps, zeta in spikes]
    blk = Block(paths, flat, verify_plan, replicate)
    blk.powers  # J, its control, the tails and the heads, formed once as in a pass
    row["perturbation heads"] = best_ms(lambda: [fn(blk) for fn in spike_blocks], repeats)
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
    for kind, plan in (("chords", on_chords),
                       ("moments", _Pass(bridge=bridge, leg=leg, tails=tails,
                                         n_replicates=cfg.n_replicates, series=series,
                                         chords=False)),
                       ("no leg", _plan(n_steps, None, [], cfg.n_replicates))):
        row[f"tile rows {kind}"] = plan.rows
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
    print(f"{'stage (ms)':>20}" + "".join(f"{f'{args.paths}x{n}':>14}" for n in rows))
    for name in names:
        print(f"{name:>20}" + "".join(f"{rows[n][name]:>14.2f}" if isinstance(rows[n][name], float)
                                      else f"{rows[n][name]:>14}" for n in rows))


if __name__ == "__main__":
    main()
