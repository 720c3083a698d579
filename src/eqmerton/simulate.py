"""Monte Carlo simulation of the equilibrium wealth dynamics and statistical
verification of the identities that define the equilibrium.

Because the CRRA policies are linear in wealth, wealth is exactly log-normal
on the grid. Each step's drift takes the trapezoid average (c_k + c_{k+1})/2
of the consumption ratio, the quadrature the integral equation applies to
p c, and the utility integral is the trapezoid sum over the nodes; so the
expectation of the discrete utility functional equals lam(t) x^p / p of the
discrete solution (``PolicyLeg.j_exact`` gives it in closed form), and the
checks below sample no time-discretization bias.

The stream. The pass's antithetic pairs are keyed in blocks of
``_BLOCK_PAIRS`` = 2048. Block b's generator, ``SFC64(SeedSequence(seed,
spawn_key=(b,)))`` (``_block_rng``), draws one 64-bit word per coordinate for
each of the block's replicates, and nothing else; that is all a block does.
So every path is a deterministic function of (seed, its row of the pass),
however many workers process it. A path is drawn at its 16 coarse nodes only
(``rqmc.BrownianBridge``): the bridge construction, terminal node first, of
Phi^{-1}(u) of a point u of a randomized Sobol net (Glasserman, Monte Carlo
Methods in Financial Engineering, 2004, section 5.5). A replicate is
``replicate_pairs`` = 2^k consecutive pairs of a block, the points of the
one net that every replicate shares (``rqmc.sobol_net``), each XOR the
replicate's random digital shift (``rqmc.shifted_points``; L'Ecuyer and
Lemieux 2002). Each point of a shifted net is uniform, so each pair is, on
its own, an exact antithetic pair; within a replicate the points are
stratified, and replicates are independent.

The fine scale is integrated out (conditional Monte Carlo; Asmussen and
Glynn, Stochastic Simulation, 2007, chapter V). Given its coarse values Wc a
path is a Brownian bridge on each segment lo <= k <= hi between two coarse
nodes: W_k is normal with the chord L_k of Wc as its mean and variance
v_k = (k - lo)(hi - k) / (hi - lo), two nodes j <= k of one segment have
covariance (j - lo)(hi - k) / (hi - lo), and nodes of different segments are
independent. Every per-path quantity below is replaced by its exact
conditional expectation given Wc, which has the same mean and no more
variance. Each is a sum of exponentials of W, and
E[e^{b W_k} | Wc] = e^{b L_k + b^2 v_k / 2}, so the estimators read the
chords and fold e^{b^2 v_k / 2} into their per-node weights. The partner of
a path runs on -W, whose chords are -L.

Segment moments (``SegmentSeries``). On segment j the chord is linear,
L_k = mid_j + slope_j g_k with g_k = (k - lo) / (hi - lo) - 1/2 in
[-1/2, 1/2], so e^{b L_k} = e^{b mid_j} sum_m slope_j^m (b g_k)^m / m!, and
the partner's e^{-b L_k} is the same series with e^{-b mid_j} and the odd
terms negated (a pair's average takes cosh(b mid_j) on the even terms and
sinh(b mid_j) on the odd). A row dot over the nodes (J, a tail sum) is then
a sum over the 16 segments of slope^m times the weights' per-segment
moments sum_{k in j} w_k (b g_k)^m / m!, built once per pass, and a
per-node sum over the rows (X^p, mean wealth) is the nodes' (b g_k)^m / m!
times per-segment sums over the rows of slope^m e^{+-b mid}. The series
stops after the least degree D with h^{D+1} / (D+1)! e^{2h} < 2^-53,
h = |b| max|slope| / 2: the remainder of e^x after x^D is at most
h^{D+1} / (D+1)! e^h for |x| <= h, which relative to e^x >= e^-h is below
the unit roundoff. D depends on the leg alone, never on a tile's data: the
coarse normals are Phi^{-1} of points of ``rqmc.to_unit``, at most
|Phi^{-1}(2^-53)| = 8.21 in size, so every segment's rise is within the
bridge's ``slope_bound`` (143 at 1000 steps). A leg takes moments
(``PolicyLeg.takes_moments``) when every exponent, J's a = p vol and
wealth's vol, has D + 1 < s, the segments' length, so that a segment's
coefficients are fewer than its chords, and h at most ``_SERIES_H_CAP`` = 4,
which bounds the rounding growth e^{2h} of a series whose terms may cancel;
otherwise it takes the chords. On the benchmark's 1000-step, T = 1 leg
(s = 62) D is 17 for J and 22 for wealth, and its 100-step verify leg
(s = 6) keeps the chords. Nodes read singly (the terminal control and
moments, the martingale and moment checkpoints) and the perturbation's
window head take the chords of their own columns only (``Block.chords``),
the same bits, laid out alike, as those columns of the chord matrix; so a
pass without a leg, the martingale and moment checks alone, reads its
checkpoints from the coarse values and forms no chord matrix either.

A pass is one ordered map over tiles of consecutive rows; a tile may span
replicates and blocks. Each tile forms its rows' coarse values from their
points of the net and their replicates' shifts, then, on a leg that takes
the chords, their chords at every node of the leg, elementwise, into a
tile-sized buffer; on a leg that takes moments, its segment powers
((D + 1) x rows x 16, fewer elements than the chords). A tile holds at most
``_BLOCK_PAIRS`` rows and ``_TILE_ELEMENTS`` float64 elements of the widest
array it forms (``_Tiling``): the chords, n + 1 per row; on moments the
segment powers, (D + 1) 16 per row, or a perturbation's window head if that
is wider; without a leg the coarse values, 17 per row. On the benchmark's
1000-step leg that is 261 rows of chords, or 712 on moments. Every per-row
value (J, its control, a tail sum, a checkpoint term) is formed by
elementwise operations and per-row sums whose rounding does not depend on
the other rows, so it is the same bits whatever the tile size; only the
order in which an estimator's sums over rows are added depends on the
partition into tiles. Tile partials are combined by pairwise summation in
row order, so results are bit-identical across worker counts. A worker
thread holds two tile-sized buffers on the chords, the chords and a
scratch; on moments one scratch as wide as the widest window head, and
none without a window or without a leg.

Every policy simulated here holds a constant stock fraction zeta over the
steps it covers, so its log-wealth at node k is affine in W,
log X(t_k) = log x0 + drift[k] + sigma sqrt(dt) zeta W_k, and X^p =
(x0 e^{drift})^p Y with Y = exp(a W), a = p sigma sqrt(dt) zeta: with the
deterministic factor and e^{a^2 v_k / 2} folded into the per-node weights,
the utility functional's conditional mean is J = e^{a L} . weights, formed
once per tile for each half of the pairs (``Block.powers``). Each pair's
average of E[X^q | coarse values] at any nodes is one expression,
(x0 e^{drift})^q e^{(q vol)^2 v_k / 2} cosh(q vol L_k)
(``PolicyLeg.pair_power``), which gives the terminal moments and the
martingale and moment checks' checkpoint terms; mean wealth scales the
per-node sums of cosh(vol L) over the rows (``Block.pair_sums``) by the
per-node factor afterwards.

Standard errors. The two readers of the utility functional, ``simulate``'s
E[J] and the value identity, take theirs over the R replicates, and the
value identity's gate is the Student-t quantile at R - 1 degrees of freedom
with the two-sided rate of |z| > 3, 0.27 % (``_t_threshold``). Both subtract
the terminal control variate C = cosh(a W_n) e^{-a^2 n / 2} - 1, whose mean
is exactly 0 (Glasserman 2004, section 4.1; ``_controlled_mean_se``). Every
other check takes its standard error over the pairs, as if they were
independent: each pair is an exact antithetic pair, and the stratification
within a replicate only lowers the spread of a sum, so that standard error
is conservative. It must be, and those checks stay uncontrolled: the
first-order stationarity null holds only as eps -> 0, and a standard error
several times smaller would turn its O(eps) bias into false failures.

Every check is an estimator: a block function from one ``Block`` (a tile) to
a dict of sums, and a finisher from the sums over all paths to the result.
``run_estimators`` feeds any list of estimators from one pass over the
stream, so the checks share common random numbers and repeat no work. Each
public check below is that runner applied to one estimator.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .model import CrraUtility, DiscountSpec, MarketParams, ParameterError, TimeGrid
from .policy import EquilibriumPolicy, equilibrium_policy, stock_fraction
from .rqmc import BrownianBridge, norm_ppf, shifted_points, sobol_net
from .solver import ValueCurve

__all__ = [
    "SimSettings",
    "SimConfig",
    "SimBatch",
    "Spike",
    "Verdict",
    "PerturbationRow",
    "PolicyLeg",
    "Block",
    "SegmentSeries",
    "run_estimators",
    "equilibrium_leg",
    "simulation_estimator",
    "value_identity_estimator",
    "martingale_estimator",
    "moment_estimator",
    "perturbation_estimator",
    "simulate_equilibrium",
    "verify_value_identity",
    "martingale_check",
    "moment_check",
    "perturbation_test",
]

STAT_THRESHOLD = 3.0  # all statistical verdicts use three standard errors
# the two-sided rate at which a normal z exceeds the threshold, 0.27 %
_FALSE_ALARM_RATE = math.erfc(STAT_THRESHOLD / math.sqrt(2.0))
# antithetic pairs in a block, the partition of the random stream, and the
# most rows a tile holds
_BLOCK_PAIRS = 2048
# a replicate, one shifted Sobol net of pairs, holds at most this many
# pairs, and a pass aims for at least _MIN_REPLICATES of them
_REPLICATE_PAIRS = 512
_MIN_REPLICATES = 32
# and at least _MIN_REPLICATE_PAIRS: J is skewed, and in smaller replicates
# the value identity's gate fired on twice its nominal rate (0.53 % of seeds
# at 8 pairs)
_MIN_REPLICATE_PAIRS = 32
# the bridge of each leg length, built once
_bridge = lru_cache(maxsize=16)(BrownianBridge)
# float64 elements in the widest array a tile of the pass's rows forms,
# 2 MiB: a pass holds at most two tile-sized buffers per worker thread,
# whatever the grid
_TILE_ELEMENTS = 2**18
# the largest h = |b| max|slope| / 2 at which a leg sums its segments from
# their Taylor moments: the terms of the series of e^{b slope g} add up to at
# most e^h in size where the sum is at least e^-h, so rounding grows by at
# most e^{2h} = e^8, about 3000
_SERIES_H_CAP = 4.0


@dataclass(frozen=True)
class SimSettings:
    """Ensemble size, RNG seed, initial wealth and worker threads: the
    config's [sim] section, with its defaults.

    n_paths counts paths. They run as antithetic pairs, in replicates of
    ``replicate_pairs`` pairs, and n_paths rounds up to whole replicates
    (``n_pairs`` pairs in all), whose shifts are keyed in blocks of
    ``block_pairs``. n_workers = 0 runs one worker thread per CPU the
    process may run on (``SimConfig.worker_count``)."""

    n_paths: int = 100_000
    seed: int = 42
    x0: float = 1.0
    n_workers: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (self.x0 > 0):
            raise ParameterError(f"initial wealth must be > 0, got {self.x0}")
        if self.n_workers < 0:
            raise ParameterError(f"n_workers must be >= 0, got {self.n_workers}")
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 bits")

    @property
    def replicate_pairs(self) -> int:
        """Pairs in a replicate: the largest power of two that is at most
        ``_BLOCK_PAIRS`` and 1 / ``_MIN_REPLICATES`` of the pairs n_paths asks
        for, but at least ``_MIN_REPLICATE_PAIRS``; and never more than
        ``_REPLICATE_PAIRS`` or half those pairs (one at least), so that
        there are two replicates wherever there are two pairs."""
        pairs = (self.n_paths + 1) // 2
        size = max(_MIN_REPLICATE_PAIRS, min(_BLOCK_PAIRS, pairs // _MIN_REPLICATES))
        size = min(size, _REPLICATE_PAIRS, max(1, pairs // 2))
        return 1 << (size.bit_length() - 1)

    @property
    def block_pairs(self) -> int:
        """Pairs in a full block: ``_BLOCK_PAIRS`` rounded down to whole
        replicates, one replicate at least."""
        rep = self.replicate_pairs
        return max(rep, _BLOCK_PAIRS - _BLOCK_PAIRS % rep)

    @property
    def n_replicates(self) -> int:
        return -(-((self.n_paths + 1) // 2) // self.replicate_pairs)

    @property
    def n_pairs(self) -> int:
        return self.n_replicates * self.replicate_pairs

    @property
    def n_blocks(self) -> int:
        return -(-self.n_pairs // self.block_pairs)


@dataclass(frozen=True, kw_only=True)
class SimConfig(SimSettings):
    """``SimSettings`` with the grid the paths are simulated on (a
    keyword-only field)."""

    grid: TimeGrid

    def worker_count(self, tile_rows: Optional[int] = None) -> int:
        """Worker threads of a pass in tiles of tile_rows rows, by default
        those of a pass that forms the chords of the whole grid: n_workers,
        or for 0 the number of CPUs this process may run on, and never more
        than the pass's tiles."""
        n = self.n_workers
        if n == 0:
            try:
                n = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                n = os.cpu_count() or 1
        if tile_rows is None:
            tile_rows = _Tiling.chord_matrix(self.grid.n_steps).rows
        return min(n, -(-self.n_pairs // tile_rows))


@dataclass(frozen=True)
class SimBatch:
    """Summary of one simulated ensemble of n_pairs antithetic pairs. E[J]
    is estimated with the terminal control (``j_control_beta`` its slope) and
    its standard error taken over the n_replicates replicates;
    ``j_std_error_uncontrolled`` is that of the plain mean of J on the same
    paths, and ``j_exact`` the exact mean of J (``PolicyLeg.j_exact``). The
    terminal moments' standard errors are over the pairs."""

    j_estimate: float
    j_std_error: float
    j_control_beta: float
    j_std_error_uncontrolled: float
    terminal_moments: dict
    mean_wealth: np.ndarray
    mean_value_over_h: np.ndarray
    n_pairs: int
    n_replicates: int
    j_exact: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check. For a Monte Carlo check the statistic is a z-score
    against the three-standard-error threshold, taken with ``std_error`` over
    ``n_pairs`` antithetic pairs; a deterministic check leaves both None. A
    check taken with a control variate takes its standard error over
    ``n_replicates`` replicates instead, and its threshold is the Student-t
    quantile at n_replicates - 1 degrees of freedom with the same false-alarm
    rate; it records the control's slope ``control_beta``, the plain
    mean's ``std_error_uncontrolled`` and the exact mean ``j_exact`` of the
    functional it samples. Others leave these four None."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    details: str = ""
    n_pairs: Optional[int] = None
    std_error: Optional[float] = None
    control_beta: Optional[float] = None
    std_error_uncontrolled: Optional[float] = None
    n_replicates: Optional[int] = None
    j_exact: Optional[float] = None


@dataclass(frozen=True)
class Spike:
    """Constant deviation applied on a short window; None leaves the
    equilibrium component untouched."""

    zeta: Optional[float] = None
    consumption: Optional[float] = None


@dataclass(frozen=True)
class PerturbationRow:
    """D(eps), its standard error over n_pairs antithetic pairs, and its z."""

    epsilon: float
    d_estimate: float
    std_error: float
    z: float
    n_pairs: int


def _block_rng(seed: int, b: int) -> np.random.Generator:
    """The generator of block b's shift words: SFC64 seeded from the seed
    sequence of (seed, b), so each block's stream is keyed by its index alone."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def _dot(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v row by row, each row's sum rounded alike whatever the other rows
    (a BLAS product rounds by the shape of the call)."""
    return np.einsum("ij,j->i", M, v)


def _add(a: dict, b: dict) -> dict:
    return {k: a[k] + b[k] for k in a}


def _combine_in_order(partials) -> dict:
    """Pairwise tree sum of per-tile partials, consumed in row order.

    A binary counter holds at most one partial per level, the sum of 2^level
    consecutive tiles; a new tile merges with each full level below it,
    and at the end the levels fold from the right. That is the tree of
    pairing the whole list level by level, (0, 1), (2, 3), ... with an odd
    one out carried up, so every sum rounds alike, while memory holds
    O(log n_tiles) partials."""
    counter = []  # (level, partial), levels strictly decreasing
    for item in partials:
        level = 0
        while counter and counter[-1][0] == level:
            item = _add(counter.pop()[1], item)
            level += 1
        counter.append((level, item))
    total = counter.pop()[1]
    while counter:
        total = _add(counter.pop()[1], total)
    return total


@dataclass(frozen=True)
class _Tiling:
    """The tiles of a pass: whether each forms its rows' chord matrix
    (``chords``), the per-row element count of the widest array a tile forms
    (``width``), which sets the rows of a tile, and that of each worker's
    scratch buffer (``scratch``, 0 for none)."""

    chords: bool
    width: int
    scratch: int

    @classmethod
    def chord_matrix(cls, n_steps: int) -> "_Tiling":
        """A leg that takes the chords: the chord matrix, n_steps + 1 per
        row, and a scratch as wide."""
        return cls(True, n_steps + 1, n_steps + 1)

    @classmethod
    def segment_moments(cls, leg: "PolicyLeg", tails: tuple) -> "_Tiling":
        """A leg that takes moments: the powers of ``SegmentSeries.expand``,
        (D + 1) N per row, or the widest perturbation head, whose tail s
        covers nodes 0..s - 1, whichever is wider; a scratch as wide as that
        head, none without a tail."""
        head = max(tails, default=0)
        powers = (max(leg.series_degrees.values()) + 1) * _bridge(leg.n_steps).dim
        return cls(False, max(powers, head), head)

    @classmethod
    def coarse_values(cls, n_steps: int) -> "_Tiling":
        """A pass without a leg: the coarse values, N + 1 per row, and no
        scratch."""
        return cls(False, _bridge(n_steps).dim + 1, 0)

    @property
    def rows(self) -> int:
        """Rows in a tile: at most ``_TILE_ELEMENTS`` elements of its widest
        array and ``_BLOCK_PAIRS`` rows, one at least."""
        return min(_BLOCK_PAIRS, max(1, _TILE_ELEMENTS // self.width))


def _tiling(n_steps: int, leg: Optional["PolicyLeg"] = None, tails: tuple = ()) -> _Tiling:
    """The tiles of a pass over paths of n_steps steps, on the leg if one is
    given, whose estimators declare the tails."""
    if leg is None:
        return _Tiling.coarse_values(n_steps)
    if leg.takes_moments:
        return _Tiling.segment_moments(leg, tails)
    return _Tiling.chord_matrix(n_steps)


def _accumulate_blocks(cfg: SimConfig, n_sub_steps: int, block_fn: Callable,
                       tiling: Optional[_Tiling] = None) -> dict:
    """Run block_fn(W, scratch, replicate) over the pass's rows, tile by
    tile, and combine the sums.

    Block b's generator ``_block_rng(seed, b)`` draws the digital shifts of
    its replicates (``cfg.block_pairs`` pairs, fewer in the last block), one
    word per replicate and coordinate; every block's are drawn once, in
    block order, before any tile runs. The pass's ``cfg.n_pairs`` rows then
    run in tiles of ``tiling.rows`` consecutive rows, which may span
    replicates and blocks (``_tiling``; by default a pass that forms the
    chords). A tile forms its rows' coarse values Wc (rows x (N + 1),
    Wc[:, 0] = 0) from their points of the shared net, each XOR its
    replicate's shift (``rqmc.shifted_points``). With ``tiling.chords`` W
    (rows x (n_sub_steps + 1)) holds their chords, each path's mean at every
    node given its coarse values (``rqmc.BrownianBridge.chords``); without,
    W is Wc itself. The partner of row i runs on -W[i]. ``replicate`` holds
    each row's replicate, numbered over the whole pass, and ``scratch``, a
    flat buffer of rows x ``tiling.scratch`` elements, is free for block_fn.
    The tiles run on ``cfg.worker_count(tiling.rows)`` threads, each with
    its own buffers (the chords' and the scratch), and their sums are
    combined pairwise in row order as they arrive.
    """
    if tiling is None:
        tiling = _Tiling.chord_matrix(n_sub_steps)
    bridge = _bridge(n_sub_steps)
    rep, per_block = cfg.replicate_pairs, cfg.block_pairs // cfg.replicate_pairs
    words = np.concatenate([
        _block_rng(int(cfg.seed), b).bit_generator.random_raw(
            (min(per_block, cfg.n_replicates - b * per_block), bridge.dim))
        for b in range(cfg.n_blocks)])
    net = sobol_net(bridge.dim, rep.bit_length() - 1)
    tile_rows = tiling.rows
    most_rows = min(tile_rows, cfg.n_pairs)
    local = threading.local()

    def run(start: int) -> dict:
        rows = np.arange(start, min(start + tile_rows, cfg.n_pairs))
        W = np.zeros((len(rows), bridge.dim + 1))
        W[:, 1:] = bridge.coarse(norm_ppf(shifted_points(net, words, rows)))
        # the buffers come after the coarse values' temporaries are freed
        if not hasattr(local, "scratch"):
            local.scratch = np.empty(most_rows * tiling.scratch)
            local.w = np.empty(most_rows * tiling.width) if tiling.chords else None
        if tiling.chords:
            shape = (len(rows), n_sub_steps + 1)
            W = bridge.chords(W, local.w[:math.prod(shape)].reshape(shape),
                              local.scratch[:math.prod(shape)].reshape(shape))
        return block_fn(W, local.scratch, rows // rep)

    with ThreadPoolExecutor(max_workers=cfg.worker_count(tile_rows)) as pool:
        return _combine_in_order(pool.map(run, range(0, cfg.n_pairs, tile_rows)))


def _utility_weights(h: np.ndarray, c: np.ndarray, dt: float, p: float) -> np.ndarray:
    """v with J = sum_k v_k X(t_k)^p: trapezoid quadrature of h(s - t) U(c X)
    over the nodes, plus the discounted bequest h(T - t) U(X(T))."""
    v = np.zeros(len(c))
    if np.any(c != 0.0):
        w = np.full(len(c), dt)
        w[0] = w[-1] = dt / 2.0
        v = h * c**p * w / p
    v[-1] += h[-1] / p
    return v


def _node_index(g: TimeGrid, t: float) -> int:
    idx = int(round(t / g.dt))
    if not (0 <= idx <= g.n_steps) or abs(g.nodes[idx] - t) > 1e-9 * max(1.0, g.horizon):
        raise ParameterError(f"time {t} is not a node of the simulation grid")
    return idx


def _checkpoints(g: TimeGrid, count: int) -> np.ndarray:
    """Indices of ``count`` evenly spaced grid nodes from 0 to T, deduplicated."""
    return np.unique(np.linspace(0, g.n_steps, count).round().astype(int))


def _z(diff, se) -> float:
    """z-score diff / se; with se = 0 it is 0 for an exact zero and otherwise
    an infinity with the sign of diff."""
    if se > 0:
        return float(diff / se)
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def _sums(key: str, a) -> dict:
    """Sum and sum of squares of a tile's pair averages a (axis 0)."""
    return {key: a.sum(axis=0), f"{key}_sq": (a**2).sum(axis=0)}


def _mean_se(sums: dict, key: str, n: int):
    """Sample mean and its standard error from ``_sums`` over n pairs."""
    mean = sums[key] / n
    return mean, np.sqrt(np.maximum(sums[f"{key}_sq"] / n - mean**2, 0.0) / n)


def _terminal_control(W_n: np.ndarray, a: float, n_steps: int) -> np.ndarray:
    """C = cosh(a W_n) e^{-a^2 n / 2} - 1 for W_n ~ N(0, n): each pair's
    average of exp(+-a W_n) over its mean, less one, so E[C] = 0 exactly.
    Formed as the average of expm1(+-a W_n - a^2 n / 2), never through
    cosh(a W_n), which would overflow first, and without subtracting 1 from
    a value near 1, which would lose C's digits where a^2 n is small."""
    half_var = 0.5 * a * a * n_steps
    aW = a * W_n
    return 0.5 * (np.expm1(aW - half_var) + np.expm1(-aW - half_var))


def _controlled_sums(blk: "Block", J: np.ndarray, C: np.ndarray) -> dict:
    """The sums ``_controlled_mean_se`` takes: that of the pair averages J,
    those of the control C and of its squares, sum J C, and the sums of J
    and of C per replicate."""
    return {"j": J.sum(), **_sums("c", C), "jc": J @ C,
            "j_rep": blk.by_replicate(J), "c_rep": blk.by_replicate(C)}


def _replicate_se(means: np.ndarray) -> float:
    """Standard error of the average of R replicate means, from their sample
    variance with R - 1 degrees of freedom; 0 for a single replicate."""
    R = len(means)
    if R < 2:
        return 0.0
    dev = means - means.mean()
    return math.sqrt(float(dev @ dev) / ((R - 1) * R))


def _controlled_mean_se(s: dict, n: int):
    """(mean, standard error, beta, plain standard error) of J over n pairs
    with the control C regressed out. beta = cov(J, C) / var(C) comes from
    the pooled pair sums, or is 0 when var(C) is 0, and the mean is
    mean(J) - beta mean(C). The standard errors are taken over the
    replicates: those of the replicate means of J - beta C and of J. With
    beta = 0 the two are the same, bit for bit."""
    j, c = s["j"] / n, s["c"] / n
    var_c = s["c_sq"] / n - c**2
    cov = s["jc"] / n - j * c
    beta = cov / var_c if var_c > 0 else 0.0
    rep = n // len(s["j_rep"])
    controlled = (s["j_rep"] - beta * s["c_rep"]) / rep
    return (j - beta * c, _replicate_se(controlled), float(beta),
            _replicate_se(s["j_rep"] / rep))


@lru_cache(maxsize=None)
def _t_threshold(dof: int) -> float:
    """The |t| a Student-t variable with dof degrees of freedom exceeds at the
    two-sided rate ``_FALSE_ALARM_RATE`` at which |z| exceeds
    ``STAT_THRESHOLD``; ``STAT_THRESHOLD`` itself without degrees of freedom.

    P(|T| <= sqrt(dof) tan theta) is a finite series in theta (Abramowitz and
    Stegun 26.7.3 and 26.7.4), bisected in theta."""
    if dof < 1:
        return STAT_THRESHOLD

    def tail(theta: float) -> float:
        c2, sin = math.cos(theta) ** 2, math.sin(theta)
        if dof == 1:
            return 1.0 - 2.0 * theta / math.pi
        if dof % 2:
            k = np.arange(1, (dof - 1) // 2)
            series = 1.0 + np.cumprod(c2 * 2 * k / (2 * k + 1)).sum()
            return 1.0 - 2.0 / math.pi * (theta + sin * math.cos(theta) * series)
        k = np.arange(1, dof // 2)
        return 1.0 - sin * (1.0 + np.cumprod(c2 * (2 * k - 1) / (2 * k)).sum())

    lo, hi = 0.0, math.pi / 2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail(mid) > _FALSE_ALARM_RATE else (lo, mid)
    return math.sqrt(dof) * math.tan(0.5 * (lo + hi))


def _verdict(name: str, z: float, passed, details: str, n_pairs: int, se) -> Verdict:
    return Verdict(name, z, STAT_THRESHOLD, bool(passed), details, n_pairs, float(se))


def _series_degree(h: float) -> int:
    """The least degree D with h^{D+1} / (D + 1)! e^{2h} < 2^-53: the Taylor
    series of e^x truncated after x^D errs by at most h^{D+1} / (D + 1)! e^h
    for |x| <= h, which relative to e^x >= e^-h is below the unit roundoff."""
    if h == 0.0:
        return 0
    D = 0
    while (D + 1) * math.log(h) - math.lgamma(D + 2) + 2.0 * h >= -53.0 * math.log(2.0):
        D += 1
    return D


def _step_means(c: np.ndarray) -> np.ndarray:
    """Trapezoid average (c_k + c_{k+1}) / 2 of node values over each step."""
    return 0.5 * (c[:-1] + c[1:])


@dataclass(frozen=True)
class PolicyLeg:
    """A policy linear in wealth, run from x0 over the last len(c_nodes) grid
    nodes: a constant stock fraction, and the consumption ratio and discount
    h(s - t) per node.

    Its log-wealth at node k is log x0 + drift[k] + vol W[:, k], so
    X(t_k)^p = scale[k] exp(p vol W[:, k]) with scale = (x0 e^{drift})^p.
    """

    x0: float
    m: MarketParams
    u: CrraUtility
    dt: float
    zeta: float
    c_nodes: np.ndarray
    h_nodes: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.c_nodes) - 1

    @property
    def vol(self) -> float:
        return self.m.sigma * math.sqrt(self.dt) * self.zeta

    @cached_property
    def drift(self) -> np.ndarray:
        """Deterministic part of log(X(t_k) / x0) per node."""
        m, zeta = self.m, self.zeta
        out = np.zeros(self.n_steps + 1)
        np.cumsum((m.r + m.mu * zeta - _step_means(self.c_nodes) - 0.5 * m.sigma**2 * zeta**2)
                  * self.dt, out=out[1:])
        return out

    @cached_property
    def scale(self) -> np.ndarray:
        return np.exp(self.u.p * (math.log(self.x0) + self.drift))

    @cached_property
    def weights(self) -> np.ndarray:
        """scale * v: J = exp(p vol W) @ weights."""
        return self.scale * _utility_weights(self.h_nodes, self.c_nodes, self.dt, self.u.p)

    @cached_property
    def j_exact(self) -> float:
        """E[J] exactly: sum_k weights_k e^{a^2 k / 2}, a = p vol, since
        W_k ~ N(0, k); each term's two factors are joined in the exponent,
        so that it overflows only where E[X(t_k)^p] itself would."""
        a, p = self.u.p * self.vol, self.u.p
        log_mean = p * (math.log(self.x0) + self.drift) + 0.5 * a * a * np.arange(self.n_steps + 1)
        v = _utility_weights(self.h_nodes, self.c_nodes, self.dt, p)
        return float(v @ np.exp(log_mean))

    def log_factor(self, q: float, nodes=slice(None)) -> np.ndarray:
        """log of (x0 e^{drift})^q e^{(q vol)^2 v / 2} at the given nodes, v
        the bridge variance: E[X^q | coarse values] over e^{q vol L} on a
        drawn path and over e^{-q vol L} on its partner, L the chord."""
        a = q * self.vol
        return (q * (math.log(self.x0) + self.drift[nodes])
                + 0.5 * a * a * _bridge(self.n_steps).variance[nodes])

    def pair_power(self, L: np.ndarray, q: float, nodes=slice(None)) -> np.ndarray:
        """Each pair's average of E[X^q | coarse values] at the given nodes
        (an index, slice or index array), from the chords L at those nodes
        (``Block.chords``): X^q is (x0 e^{drift})^q e^{q vol W} on a drawn
        path and e^{-q vol W} on its partner, and the pair's average of
        their means is cosh(q vol L) e^{``log_factor``}."""
        out = np.multiply(L, q * self.vol)
        np.cosh(out, out=out)
        out *= np.exp(self.log_factor(q, nodes))
        return out

    @cached_property
    def series_degrees(self) -> dict:
        """The degree of ``SegmentSeries`` for each of the leg's exponents b,
        J's a = p vol and wealth's vol: ``_series_degree`` of
        h = |b| max slope / 2, the bridge's ``slope_bound`` bounding every
        segment's rise and |g| <= 1/2 its nodes' offsets."""
        half_rise = 0.5 * float(_bridge(self.n_steps).slope_bound.max())
        return {b: _series_degree(abs(b) * half_rise) for b in (self.u.p * self.vol, self.vol)}

    @cached_property
    def takes_moments(self) -> bool:
        """Whether a pass on this leg sums its exponentials from segment
        moments (``SegmentSeries``) rather than the chords at every node:
        where every exponent's h is at most ``_SERIES_H_CAP`` and its degree
        D has D + 1 < s, the segments' length, so that a segment's D + 1
        coefficients are fewer than its s chords."""
        bridge = _bridge(self.n_steps)
        h = max(abs(self.u.p), 1.0) * abs(self.vol) * 0.5 * float(bridge.slope_bound.max())
        return h <= _SERIES_H_CAP and max(self.series_degrees.values()) + 1 < bridge.step


def _holding_leg(cfg: SimConfig, m: MarketParams, u: CrraUtility, zeta: float) -> PolicyLeg:
    """A constant stock fraction zeta without consumption over the whole
    grid, as the martingale and moment checks run it; its discount, which
    they do not read, is 1."""
    no_c = np.zeros(cfg.grid.n_steps + 1)
    return PolicyLeg(cfg.x0, m, u, cfg.grid.dt, zeta, no_c, np.ones_like(no_c))


class SegmentSeries:
    """A leg's exponentials summed from per-segment Taylor moments, built once
    per pass.

    Given its coarse values a path's chord is linear on each bridge segment
    j, L_k = mid_j + slope_j g_k with g_k in [-1/2, 1/2] the node's offset
    (``rqmc.BrownianBridge.offset``), so for each exponent b of the leg
    e^{b L_k} = e^{b mid_j} sum_m slope_j^m (b g_k)^m / m!, truncated after
    the leg's degree D for b (``PolicyLeg.series_degrees``), and the
    partner's e^{-b L_k} is the same series with e^{-b mid_j} and the odd
    terms negated. A sum over a path's nodes is then a sum over its
    segments of slope^m times a per-segment moment of the weights, and a sum
    over the rows at each node one of the nodes' (b g_k)^m / m! times a
    per-segment sum over the rows. ``nodes[b]`` holds (b g_k)^m / m! per
    node and degree; ``moments[s]`` holds, per segment and degree of J's a,
    sum_{k in j, k >= s} w_k (a g_k)^m / m!, with w the leg's weights times
    the bridge's lift e^{a^2 v_k / 2}, for s = 0 (J) and each tail s."""

    def __init__(self, leg: PolicyLeg, tails: tuple = ()):
        self.bridge = bridge = _bridge(leg.n_steps)
        self.degree = max(leg.series_degrees.values())
        self.nodes = {}
        for b, D in leg.series_degrees.items():
            G = np.ones((D + 1, leg.n_steps + 1))
            for m in range(1, D + 1):
                np.multiply(G[m - 1], b * bridge.offset / m, out=G[m])
            self.nodes[b] = G
        a = leg.u.p * leg.vol
        lifted = leg.weights * np.exp(0.5 * a * a * bridge.variance)
        k = np.arange(leg.n_steps + 1)
        self.moments = {s: np.add.reduceat(np.where(k >= s, lifted, 0.0) * self.nodes[a],
                                           bridge.nodes[:-1], axis=1)
                        for s in (0, *tails)}

    def expand(self, Wc: np.ndarray):
        """A tile's segment midpoints mid (rows x N) and the powers slope^m,
        m = 0..degree ((degree + 1) x rows x N), from its coarse values Wc
        (rows x (N + 1)), elementwise per row."""
        slope = Wc[:, 1:] - Wc[:, :-1]
        P = np.empty((self.degree + 1, *slope.shape))
        P[0] = 1.0
        for m in range(1, self.degree + 1):
            np.multiply(P[m - 1], slope, out=P[m])
        return 0.5 * (Wc[:, :-1] + Wc[:, 1:]), P

    def row_sums(self, P: np.ndarray, e: np.ndarray, inv: np.ndarray, s: int = 0):
        """Each drawn path's sum_{k >= s} w_k e^{a L_k}, and each partner's
        with e^{-a L_k}, from the tile's powers P and e = e^{a mid},
        inv = 1 / e; every row's value is formed from its own row alone."""
        M = self.moments[s]
        even = np.einsum("mrj,mj->rj", P[0:len(M):2], M[0::2])
        odd = np.einsum("mrj,mj->rj", P[1:len(M):2], M[1::2])
        return np.einsum("rj,rj->r", e, even + odd), np.einsum("rj,rj->r", inv, even - odd)

    def node_sums(self, P: np.ndarray, e: np.ndarray, inv: np.ndarray, b: float) -> np.ndarray:
        """Per node, the sum over the tile's drawn paths of e^{b L_k} and over
        their partners of e^{-b L_k}, from P and e = e^{b mid}, inv = 1 / e."""
        G = self.nodes[b]
        S = np.empty((len(G), P.shape[2]))
        S[0::2] = np.einsum("mrj,rj->mj", P[0:len(G):2], e + inv)
        S[1::2] = np.einsum("mrj,rj->mj", P[1:len(G):2], e - inv)
        return np.einsum("mk,mk->k", G, S[:, self.bridge.segment])


class Block:
    """One tile of the pass's antithetic pairs, m drawn paths of the
    ``bridge``, seen through their chords: the chord L[i, k] (L[:, 0] = 0) is
    the mean of path i at node k given its coarse values, and
    ``variance[k]`` its variance there, the same on every row. The partner
    of row i runs on -L[i]. W holds either the chords (m x (steps + 1)) or
    the coarse values (m x (N + 1)), as its width tells (where N = steps the
    two are the same); on the coarse values no chord matrix is formed, and a
    leg's exponentials come from segment moments (``series``). ``chords``
    reads the chords at given nodes either way. ``scratch`` is a flat buffer
    the estimators may overwrite: on the chords of their size, on the coarse
    values as wide as the widest tail's head. ``replicate`` holds each row's
    replicate, of ``n_replicates`` in the pass. ``tails`` are the nodes s
    whose tail sums ``powers`` takes, and ``power_sums`` whether it takes
    the per-node X^p sums."""

    def __init__(self, W: np.ndarray, scratch: np.ndarray, bridge: BrownianBridge,
                 leg: Optional[PolicyLeg] = None, tails: tuple = (),
                 replicate: Optional[np.ndarray] = None, n_replicates: int = 1,
                 series: Optional[SegmentSeries] = None, power_sums: bool = False):
        self.W = W
        self.series = series
        self.bridge = bridge
        self.on_chords = W.shape[1] == bridge.n_steps + 1
        self.variance = bridge.variance
        self._scratch = scratch
        self._leg = leg
        self._tails = tails
        self._power_sums = power_sums
        self.replicate = np.zeros(len(W), dtype=np.intp) if replicate is None else replicate
        self.n_replicates = n_replicates

    def by_replicate(self, v: np.ndarray) -> np.ndarray:
        """The sums of the per-pair values v over each replicate's rows
        (length ``n_replicates``)."""
        return np.bincount(self.replicate, weights=v, minlength=self.n_replicates)

    def chords(self, nodes, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The drawn paths' chords at the given nodes (an index, slice or
        index array), row-major: read from the chord matrix, a view for a
        slice, out unused; on the coarse values formed
        (``rqmc.BrownianBridge.chord_columns``), into out when it is given.
        Either way they are the same bits in the same layout, so sums over
        their rows round alike."""
        if self.on_chords:
            return self.W[:, nodes] if isinstance(nodes, slice) else np.take(self.W, nodes, axis=1)
        return self.bridge.chord_columns(self.W, nodes, out)

    @cached_property
    def _segments(self):
        return self.series.expand(self.W)

    def pair_sums(self, b: float) -> np.ndarray:
        """Per node, the sum over the tile's drawn paths of e^{b L} and over
        their partners of e^{-b L}, 2 sum cosh(b L), L the chords; with a
        series b must be one of the leg's exponents. Without, it is formed in
        the scratch buffer."""
        if self.series is None:
            out = np.multiply(self.W, b, out=self.scratch(self.W.shape))
            return 2.0 * np.cosh(out, out=out).sum(axis=0)
        mid, P = self._segments
        e = np.exp(b * mid)
        return self.series.node_sums(P, e, np.reciprocal(e), b)

    @cached_property
    def powers(self):
        """(J, C, Y_sum, tails) of the leg, where Y = E[exp(p vol W)] on a
        drawn path and E[exp(-p vol W)] on its partner given the coarse
        values, so E[X^p] = leg.scale * Y: J is each pair's average utility
        functional Y . leg.weights, C each pair's terminal control
        (``_terminal_control``), Y_sum the per-node sum of Y over the tile's
        paths (None unless ``power_sums``), and tails[s] each path's
        sum_{k >= s} Y_k leg.weights[k], drawn paths, then their partners in
        the same order. Without a series exp(p vol L) is formed in the
        scratch buffer, drawn paths first, which is free again afterwards."""
        a = self._leg.u.p * self._leg.vol
        # E[e^{a W} | coarse values] over e^{a W} of the chords, per node
        lift = np.exp(0.5 * a * a * self.variance)
        C = _terminal_control(self.chords(-1), a, self._leg.n_steps)
        Y_sum = None
        if self.series is not None:
            mid, P = self._segments
            e = np.exp(a * mid)
            inv = np.reciprocal(e)
            drawn, partner = self.series.row_sums(P, e, inv)
            tails = {s: np.concatenate(self.series.row_sums(P, e, inv, s)) for s in self._tails}
            if self._power_sums:
                Y_sum = self.series.node_sums(P, e, inv, a) * lift
            return 0.5 * (drawn + partner), C, Y_sum, tails
        weights = self._leg.weights * lift
        Y = np.multiply(self.W, a, out=self.scratch(self.W.shape))
        np.exp(Y, out=Y)
        J = _dot(Y, weights)
        if self._power_sums:
            Y_sum = Y.sum(axis=0)
        drawn = [_dot(Y[:, s:], weights[s:]) for s in self._tails]
        np.reciprocal(Y, out=Y)
        tails = {s: np.concatenate([tail, _dot(Y[:, s:], weights[s:])])
                 for s, tail in zip(self._tails, drawn)}
        if self._power_sums:
            Y_sum = (Y_sum + Y.sum(axis=0)) * lift
        return 0.5 * (J + _dot(Y, weights)), C, Y_sum, tails

    def scratch(self, shape: tuple) -> np.ndarray:
        """A view of the scratch buffer in the given shape, at most its size."""
        return self._scratch[:math.prod(shape)].reshape(shape)


def equilibrium_leg(pol: EquilibriumPolicy, cfg: SimConfig, m: MarketParams,
                    u: CrraUtility, d: DiscountSpec, start_time: float = 0.0) -> PolicyLeg:
    """The equilibrium policy run from (start_time, cfg.x0) to the horizon."""
    g = cfg.grid
    nodes = g.nodes[_node_index(g, start_time):]
    if len(nodes) < 2:
        raise ParameterError("simulation must span at least one step")
    return PolicyLeg(cfg.x0, m, u, g.dt, pol.stock_fraction,
                     pol.consumption_at(nodes), d.h(nodes - nodes[0]))


def _declared_tails(estimators: list) -> tuple:
    """The nodes s from which the estimators' block functions take tail
    sums (the ``tail`` attribute), in order."""
    return tuple(sorted({fn.tail for fn, _ in estimators if hasattr(fn, "tail")}))


def _fused_block(estimators: list, leg: Optional[PolicyLeg], n_replicates: int,
                 n_steps: int) -> Callable:
    """block(W, scratch, replicate): every estimator's sums on one ``Block``
    of paths of n_steps steps, keyed by (estimator index, key), with the
    tails the estimators declare, and the per-node X^p sums if one of them
    declares ``power_sums``. On a leg that takes moments W holds the coarse
    values and the leg's ``SegmentSeries``, built here once, sums its
    exponentials."""
    tails = _declared_tails(estimators)
    power_sums = any(getattr(fn, "power_sums", False) for fn, _ in estimators)
    series = SegmentSeries(leg, tails) if leg is not None and leg.takes_moments else None
    bridge = _bridge(n_steps)

    def block(W, scratch, replicate):
        blk = Block(W, scratch, bridge, leg, tails, replicate, n_replicates, series, power_sums)
        return {(i, key): value for i, (block_fn, _) in enumerate(estimators)
                for key, value in block_fn(blk).items()}

    return block


def run_estimators(cfg: SimConfig, estimators: list, leg: Optional[PolicyLeg] = None) -> list:
    """Results of the estimators, in order, from one pass over the random stream.

    An estimator is a pair (block, finish). ``block(blk)`` maps one ``Block``
    to a dict of sums; ``blk.powers`` gives the leg's pair-averaged utility
    functional and its terminal control, formed once per tile for all
    estimators, the per-node X^p sums if some block function has a true
    ``power_sums`` attribute, and the per-path tail sums from node
    ``block.tail`` on of every block function that has that attribute;
    ``blk.by_replicate`` sums per-pair values by replicate.
    ``finish(sums, n_pairs)`` turns the sums over all tiles into the result,
    with n_pairs the number of antithetic pairs (``SimConfig.n_pairs``). The
    paths span the leg's nodes, or the whole grid without a leg. Only a leg
    that takes the chords forms the chord matrix; a leg that
    ``takes_moments``, and a pass without a leg, hold the coarse values
    alone, and each pass's tiles are sized by the widest array it forms
    (``_tiling``).
    """
    if not estimators:
        return []
    n_sub = cfg.grid.n_steps if leg is None else leg.n_steps
    tiling = _tiling(n_sub, leg, _declared_tails(estimators))
    sums = _accumulate_blocks(cfg, n_sub, _fused_block(estimators, leg, cfg.n_replicates, n_sub),
                              tiling)
    return [finish({key: value for (j, key), value in sums.items() if j == i}, cfg.n_pairs)
            for i, (_, finish) in enumerate(estimators)]


def simulation_estimator(pol: EquilibriumPolicy, g: TimeGrid, leg: PolicyLeg,
                         d: DiscountSpec, moment_orders: tuple = ()):
    """The ``simulate_equilibrium`` summary of the leg's paths on grid g."""
    nodes = g.nodes[g.n_steps - leg.n_steps:]
    lam_nodes = np.interp(nodes, pol.grid.nodes, pol.curve.values)
    voh_scale = lam_nodes * leg.scale / leg.u.p / d.h(g.horizon - nodes)
    wealth_factor = np.exp(leg.log_factor(1.0))

    def block(blk):
        J, C, Y_sum, _ = blk.powers
        out = {**_controlled_sums(blk, J, C),
               "wealth": blk.pair_sums(leg.vol) * wealth_factor,
               "voh": Y_sum * voh_scale}
        for q in moment_orders:
            out.update(_sums(f"m{q}", leg.pair_power(blk.chords(-1), q, -1)))
        return out

    block.power_sums = True

    def finish(s, n):
        j, j_se, beta, plain_se = _controlled_mean_se(s, n)
        return SimBatch(
            j_estimate=float(j),
            j_std_error=float(j_se),
            j_control_beta=beta,
            j_std_error_uncontrolled=float(plain_se),
            terminal_moments={q: _mean_se(s, f"m{q}", n) for q in moment_orders},
            mean_wealth=s["wealth"] / (2 * n),
            mean_value_over_h=s["voh"] / (2 * n),
            n_pairs=n,
            n_replicates=len(s["j_rep"]),
            j_exact=leg.j_exact,
        )

    return block, finish


def simulate_equilibrium(
    pol: EquilibriumPolicy,
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    moment_orders: tuple = (),
    start_time: float = 0.0,
) -> SimBatch:
    """Simulate the equilibrium wealth SDE from (start_time, x0) and estimate
    the expected-utility functional together with per-node summaries."""
    leg = equilibrium_leg(pol, cfg, m, u, d, start_time)
    est = simulation_estimator(pol, cfg.grid, leg, d, moment_orders)
    return run_estimators(cfg, [est], leg)[0]


def value_identity_estimator(sol: ValueCurve, leg: PolicyLeg, t: float,
                             target_scale: float = 1.0):
    """The ``verify_value_identity`` verdict on the leg, which starts at t;
    it records the exact mean of the leg's functional."""
    u, x = leg.u, leg.x0
    target = target_scale * float(np.interp(t, sol.grid.nodes, sol.values)) * x**u.p / u.p

    def block(blk):
        J, C, _, _ = blk.powers
        return _controlled_sums(blk, J, C)

    def finish(s, n):
        j, se, beta, plain_se = _controlled_mean_se(s, n)
        z = _z(j - target, se)
        n_rep = len(s["j_rep"])
        threshold = _t_threshold(n_rep - 1)
        return Verdict("value_identity", z, threshold, bool(abs(z) <= threshold),
                       f"J={j:.6g} se={se:.3g} target={target:.6g}", n, float(se),
                       control_beta=beta, std_error_uncontrolled=plain_se,
                       n_replicates=n_rep, j_exact=leg.j_exact)

    return block, finish


def verify_value_identity(
    sol: ValueCurve,
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    t: float,
    x: float,
    policy: Optional[EquilibriumPolicy] = None,
    target_scale: float = 1.0,
) -> Verdict:
    """Check v(t,x) = lam(t) x^p / p against the Monte Carlo estimate of the
    expected-utility functional under the equilibrium policy started at (t,x).

    ``target_scale`` multiplies the analytic side of the identity; values
    other than 1 give a deliberate mismatch used as a statistical-power
    control (the check must then fail).
    """
    if _node_index(cfg.grid, t) == cfg.grid.n_steps:
        # terminal time: the functional is the bequest utility, zero variance
        return _verdict("value_identity", 0.0, True, "t=T, exact identity J = U(x)",
                        cfg.n_pairs, 0.0)
    if policy is None:
        policy = equilibrium_policy(sol, m, u)
    cfg = replace(cfg, x0=x)
    leg = equilibrium_leg(policy, cfg, m, u, d, t)
    return run_estimators(cfg, [value_identity_estimator(sol, leg, t, target_scale)], leg)[0]


def martingale_estimator(sol: ValueCurve, cfg: SimConfig, m: MarketParams, u: CrraUtility,
                         d: DiscountSpec, n_checkpoints: int = 5,
                         suboptimal_zeta: Optional[float] = None):
    """The two ``martingale_check`` verdicts; W must span the whole grid."""
    if suboptimal_zeta is None:
        suboptimal_zeta = stock_fraction(m, u) / 2
    g = cfg.grid
    checkpoints = _checkpoints(g, max(n_checkpoints, 1))
    k = len(checkpoints)
    scale = (np.interp(g.nodes[checkpoints], sol.grid.nodes, sol.values) / u.p
             / d.h(g.horizon - g.nodes[checkpoints]))
    legs = {key: _holding_leg(cfg, m, u, zeta)
            for key, zeta in (("eq", stock_fraction(m, u)), ("sub", suboptimal_zeta))}

    def block(blk):
        out, L = {}, blk.chords(checkpoints)
        for key, leg in legs.items():
            A = scale * leg.pair_power(L, u.p, checkpoints)
            out[key], out[f"{key}_cross"] = A.sum(axis=0), A.T @ A
        return out

    def pair_z(s, key, n, i, j):
        """(z, se) of mean[i] - mean[j], with the standard error of the paired
        difference."""
        mean = s[key] / n
        cov = s[f"{key}_cross"] / n - np.outer(mean, mean)
        se = np.sqrt(max(cov[i, i] + cov[j, j] - 2 * cov[i, j], 0.0) / n)
        return _z(mean[i] - mean[j], se), se

    def finish(s, n):
        # a single checkpoint passes both vacuously
        flat = [pair_z(s, "eq", n, i, j) for i in range(k) for j in range(i + 1, k)]
        worst, worst_se = max(((abs(z), se) for z, se in flat), default=(0.0, 0.0))
        # a consecutive drop is positive when the means decrease
        weakest, weakest_se = min((pair_z(s, "sub", n, i, i + 1) for i in range(k - 1)),
                                  default=(math.inf, 0.0))
        return (
            _verdict("martingale_flat", worst, worst <= STAT_THRESHOLD,
                     f"max pairwise |z| over {k} checkpoints", n, worst_se),
            _verdict("submartingale_decreasing", weakest, weakest >= STAT_THRESHOLD,
                     f"min consecutive drop z under zeta={suboptimal_zeta}", n, weakest_se),
        )

    return block, finish


def martingale_check(
    sol: ValueCurve,
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    n_checkpoints: int = 5,
    suboptimal_zeta: Optional[float] = None,
) -> tuple[Verdict, Verdict]:
    """No-consumption martingale test of v(s, X(s)) / h(T - s).

    Under the equilibrium fraction the checkpoint means must be flat within
    three pooled standard errors of the paired differences; under a
    deliberately suboptimal constant fraction (default: half the Merton
    fraction) the means must be decreasing beyond noise (the perturbed
    process has nonpositive drift). The full Merton fraction is the decrease
    check's negative control; a fraction of 0 makes every path deterministic,
    so its z would only measure rounding.
    """
    est = martingale_estimator(sol, cfg, m, u, d, n_checkpoints, suboptimal_zeta)
    return run_estimators(cfg, [est])[0]


def moment_estimator(cfg: SimConfig, m: MarketParams, u: CrraUtility, exponent_q: float,
                     growth_rate: float, n_checkpoints: int = 5):
    """The ``moment_check`` verdicts; W must span the whole grid."""
    g = cfg.grid
    checkpoints = _checkpoints(g, max(n_checkpoints + 1, 2))[1:]
    leg = _holding_leg(cfg, m, u, stock_fraction(m, u))

    def block(blk):
        return _sums("y", leg.pair_power(blk.chords(checkpoints), exponent_q, checkpoints))

    def finish(sums, n):
        out = []
        for s, mean, se in zip(g.nodes[checkpoints], *_mean_se(sums, "y", n)):
            target = cfg.x0**exponent_q * np.exp(growth_rate * s)
            z = _z(mean - target, se)
            out.append(_verdict(f"moment_q{exponent_q}_s{s:g}", z, abs(z) <= STAT_THRESHOLD,
                                f"sample={mean:.6g} target={target:.6g}", n, se))
        return out

    return block, finish


def moment_check(
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    exponent_q: float,
    growth_rate: float,
    n_checkpoints: int = 5,
) -> list[Verdict]:
    """Compare sample E[X(s)^q] under the no-consumption equilibrium fraction
    with x0^q e^{growth_rate * s} at evenly spaced checkpoints."""
    est = moment_estimator(cfg, m, u, exponent_q, growth_rate, n_checkpoints)
    return run_estimators(cfg, [est])[0]


def perturbation_estimator(leg: PolicyLeg, eps: float, spike: Spike):
    """One ``perturbation_test`` row: the spike replaces the given components
    of the leg on its first w steps (eps in whole grid steps, at least one).

    On nodes k <= w the spiked log-wealth is the leg's plus a gap
    G_k = g_k + b W_k, affine in W; after the window the gap stays at G_w.
    With Y = exp(a W), a = p vol, and v and v' the equilibrium and spiked
    weights (``PolicyLeg.weights``), per path

        J_eq - J_spiked = sum_{k <= w} Y_k (v_k - v'_k - v'_k expm1(p G_k))
                          - expm1(p G_w) sum_{k > w} Y_k v_k,

    which is exactly 0 for an identical spike. Its mean given the coarse
    values takes, with the chords L and bridge variances s_k,
    E[Y_k] = e^{a L_k + a^2 s_k / 2} on the window and beyond, and
    E[Y_k expm1(p G_k)] = E[Y_k] expm1(g_k + b L_k + (a b + b^2 / 2) s_k).
    The last term's product of two nodes w < k gains e^{a b c_k} for the
    nodes k of w's segment lo <= w < k < hi, c_k = (w - lo)(hi - k) / (hi - lo)
    their covariance; nodes of later segments are independent of W_w. So it
    is expm1(G) T + (1 + expm1(G)) sum_{w < k < hi} E[Y_k] v_k expm1(a b c_k),
    G = g_w + b L_w + b^2 s_w / 2, with T each path's tail sum from
    ``Block.powers``, taken directly, never as J minus the window, which
    could cancel. A partner negates L, a and b alike.
    """
    if eps <= 0:
        raise ParameterError("epsilons must be positive")
    m, p, dt = leg.m, leg.u.p, leg.dt
    w = min(max(1, int(round(eps / dt))), leg.n_steps)
    zeta = leg.zeta if spike.zeta is None else spike.zeta
    c_spiked = leg.c_nodes.copy()
    if spike.consumption is not None:
        c_spiked[:w] = spike.consumption
    # the log-wealth gap times p, spiked minus equilibrium, is gap_drift + b W
    # on nodes 0..w; both legs' drifts take the trapezoid average of c per step
    gap_step = (m.mu * (zeta - leg.zeta) - _step_means(c_spiked - leg.c_nodes)[:w]
                - 0.5 * m.sigma**2 * (zeta**2 - leg.zeta**2)) * dt
    gap_drift = p * np.concatenate([[0.0], np.cumsum(gap_step)])
    a, b = p * leg.vol, p * m.sigma * math.sqrt(dt) * (zeta - leg.zeta)
    bridge = _bridge(leg.n_steps)
    var = bridge.variance
    lift = np.exp(0.5 * a * a * var)
    v_spiked = leg.scale * _utility_weights(leg.h_nodes, c_spiked, dt, p) * lift
    head_eq = (leg.weights * lift - v_spiked)[:w + 1]
    head_spiked = v_spiked[:w + 1]
    growth_drift = gap_drift + (a * b + 0.5 * b * b) * var[:w + 1]
    end_drift = gap_drift[w] + 0.5 * b * b * var[w]
    j = bridge.segment[w]
    lo, hi = bridge.nodes[j], bridge.nodes[j + 1]
    head, near = slice(0, w + 1), np.arange(w + 1, hi)
    cov = (w - lo) * (hi - near) / (hi - lo)
    near_weights = (leg.weights * lift)[near] * np.expm1(a * b * cov)

    def loss(L_head, Y_head, growth, sign, Y_near, tail):
        # growth: expm1(p G_k) of the window given the coarse values, formed
        # in place, over the chords themselves where they were formed into it
        end = np.expm1(end_drift + (sign * b) * L_head[:, w])
        np.multiply(L_head, sign * b, out=growth)
        growth += growth_drift
        np.expm1(growth, out=growth)
        return (_dot(Y_head, head_eq) - np.einsum("ij,ij,j->i", Y_head, growth, head_spiked)
                - end * tail - (1.0 + end) * _dot(Y_near, near_weights))

    def block(blk):
        tail = blk.powers[3][w + 1]
        # the window holds two arrays of its size: E[Y] on the drawn paths, in
        # the scratch buffer, which ``powers`` has released (a partner's is
        # its reciprocal), and growth; on the coarse values the head's chords
        # are formed into growth, once for each half
        m_b = len(blk.W)
        growth = np.empty((m_b, w + 1))
        Y_head = blk.scratch(growth.shape)
        L_head = blk.chords(head, out=growth)
        np.exp(np.multiply(L_head, a, out=Y_head), out=Y_head)
        Y_near = np.exp(a * blk.chords(near))
        drawn = loss(L_head, Y_head, growth, 1.0, Y_near, tail[:m_b])
        partner = loss(blk.chords(head, out=growth), np.reciprocal(Y_head, out=Y_head), growth,
                       -1.0, np.reciprocal(Y_near, out=Y_near), tail[m_b:])
        return _sums("d", 0.5 * (drawn + partner) / eps)

    block.tail = w + 1

    def finish(s, n):
        d, se = _mean_se(s, "d", n)
        return PerturbationRow(epsilon=float(eps), d_estimate=float(d),
                               std_error=float(se), z=_z(d, se), n_pairs=n)

    return block, finish


def perturbation_test(
    pol: EquilibriumPolicy,
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    t: float,
    epsilons,
    spike: Spike,
) -> list[PerturbationRow]:
    """Estimate D(eps) = (J(equilibrium) - J(spiked)) / eps with common random
    numbers, for a ladder of window widths eps.

    The spike replaces the stock fraction and/or the consumption ratio by the
    given constants on [t, t + eps] (snapped to whole grid steps, at least
    one). A None component follows the equilibrium path, which is how
    first-order stationarity in the fraction alone is probed.
    """
    leg = equilibrium_leg(pol, cfg, m, u, d, t)
    return run_estimators(cfg, [perturbation_estimator(leg, eps, spike)
                                for eps in epsilons], leg)
