"""Monte Carlo simulation of the equilibrium wealth dynamics and statistical
verification of the identities that define the equilibrium.

Because the CRRA policies are linear in wealth, each time step is an exact
log-normal update; discretization error is confined to the time quadrature of
the utility integral and to treating the consumption ratio as constant per
step (left endpoint).

Randomness is counter-based and splittable: paths are processed in fixed-size
blocks and block b draws from ``Philox(key=[seed, b])``, so path i, step k is
a deterministic function of (seed, i, k) regardless of how many workers
process the blocks. Block partials are combined by pairwise summation in
block order, making results bit-identical across worker counts.

Every check is an estimator: a block function from one block of draws to a
dict of sums, and a finisher from the sums over all paths to the result.
``run_estimators`` feeds any list of estimators from one pass over the
stream: each block draws its normals once and steps the equilibrium policy
once, so the checks share common random numbers and repeat no work. Each
public check below is that runner applied to one estimator.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

import numpy as np

from .model import CrraUtility, DiscountSpec, MarketParams, ParameterError, TimeGrid
from .policy import EquilibriumPolicy, equilibrium_policy, stock_fraction
from .solver import ValueCurve

__all__ = [
    "SimConfig",
    "SimBatch",
    "Spike",
    "Verdict",
    "PerturbationRow",
    "PolicyLeg",
    "run_estimators",
    "equilibrium_leg",
    "value_identity_estimator",
    "martingale_estimator",
    "perturbation_estimator",
    "simulate_equilibrium",
    "verify_value_identity",
    "martingale_check",
    "moment_check",
    "perturbation_test",
]

STAT_THRESHOLD = 3.0  # all statistical verdicts use three standard errors


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, RNG seed, simulation grid, and initial wealth."""

    n_paths: int
    seed: int
    grid: TimeGrid
    x0: float
    n_workers: int = 1
    block_size: int = 4096

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (self.x0 > 0):
            raise ParameterError(f"initial wealth must be > 0, got {self.x0}")
        if self.n_workers < 1 or self.block_size < 1:
            raise ParameterError("n_workers and block_size must be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimBatch:
    """Summary of one simulated ensemble."""

    j_estimate: float
    j_std_error: float
    terminal_moments: dict
    mean_wealth: np.ndarray
    mean_value_over_h: np.ndarray
    n_paths: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of a statistical check; statistic is a z-score against the
    three-standard-error threshold."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class Spike:
    """Constant deviation applied on a short window; None leaves the
    equilibrium component untouched."""

    zeta: Optional[float] = None
    consumption: Optional[float] = None


@dataclass(frozen=True)
class PerturbationRow:
    epsilon: float
    d_estimate: float
    std_error: float
    z: float


def _pairwise_combine(items: list[dict]) -> dict:
    """Pairwise tree sum of per-block partials, in block order."""
    if len(items) == 1:
        return items[0]
    paired = []
    for i in range(0, len(items) - 1, 2):
        merged = {k: items[i][k] + items[i + 1][k] for k in items[i]}
        paired.append(merged)
    if len(items) % 2:
        paired.append(items[-1])
    return _pairwise_combine(paired)


def _accumulate_blocks(cfg: SimConfig, n_sub_steps: int, block_fn: Callable) -> dict:
    """Run block_fn(block_paths, Z) over all path blocks and combine sums."""
    n_blocks = (cfg.n_paths + cfg.block_size - 1) // cfg.block_size

    def run(b: int) -> dict:
        m_b = min(cfg.block_size, cfg.n_paths - b * cfg.block_size)
        rng = np.random.Generator(np.random.Philox(key=[int(cfg.seed), b]))
        Z = rng.standard_normal((m_b, n_sub_steps))
        return block_fn(Z)

    if cfg.n_workers == 1:
        partials = [run(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
            partials = list(pool.map(run, range(n_blocks)))
    return _pairwise_combine(partials)


def _wealth_paths(Z, x0, m, zeta_steps, c_steps, dt):
    """Exact log-normal stepping for policies linear in wealth."""
    drift = (m.r + m.mu * zeta_steps - c_steps - 0.5 * m.sigma**2 * zeta_steps**2) * dt
    vol = m.sigma * zeta_steps * np.sqrt(dt)
    incr = drift[None, :] + vol[None, :] * Z
    log_x = np.concatenate(
        [np.zeros((Z.shape[0], 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return x0 * np.exp(log_x)


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


def _sums(key: str, v) -> dict:
    """Sum and sum of squares of v over its paths (axis 0)."""
    return {key: v.sum(axis=0), f"{key}_sq": (v**2).sum(axis=0)}


def _mean_se(sums: dict, key: str, n: int):
    """Sample mean and its standard error from ``_sums`` over n paths."""
    mean = sums[key] / n
    return mean, np.sqrt(np.maximum(sums[f"{key}_sq"] / n - mean**2, 0.0) / n)


def _verdict(name: str, z: float, passed, details: str) -> Verdict:
    return Verdict(name, z, STAT_THRESHOLD, bool(passed), details)


@dataclass(frozen=True)
class PolicyLeg:
    """A policy linear in wealth, stepped from x0: the stock fraction per
    step, and the consumption ratio and discount h(s - t) per node."""

    x0: float
    m: MarketParams
    u: CrraUtility
    dt: float
    zeta: np.ndarray
    c_nodes: np.ndarray
    h_nodes: np.ndarray

    def paths(self, Z):
        """Wealth paths X driven by the normals Z, and the utility functional
        J per path: trapezoid quadrature of h(s - t) U(c X) plus the
        discounted bequest term."""
        p, c, h, dt = self.u.p, self.c_nodes, self.h_nodes, self.dt
        X = _wealth_paths(Z, self.x0, self.m, self.zeta, c[:-1], dt)
        J = h[-1] * X[:, -1] ** p / p
        if np.any(c != 0.0):
            w = np.full(X.shape[1], dt)
            w[0] = w[-1] = dt / 2.0
            J = (h[None, :] * (c[None, :] * X) ** p / p) @ w + J
        return X, J


def equilibrium_leg(pol: EquilibriumPolicy, cfg: SimConfig, m: MarketParams,
                    u: CrraUtility, d: DiscountSpec, start_time: float = 0.0) -> PolicyLeg:
    """The equilibrium policy stepped from (start_time, cfg.x0) to the horizon."""
    g = cfg.grid
    nodes = g.nodes[_node_index(g, start_time):]
    if len(nodes) < 2:
        raise ParameterError("simulation must span at least one step")
    return PolicyLeg(cfg.x0, m, u, g.dt, np.full(len(nodes) - 1, pol.stock_fraction),
                     pol.consumption_at(nodes), d.h(nodes - nodes[0]))


def run_estimators(cfg: SimConfig, estimators: list, leg: Optional[PolicyLeg] = None) -> list:
    """Results of the estimators, in order, from one pass over the random stream.

    An estimator is a pair (block, finish). ``block(Z, paths)`` maps one
    block of normals Z (paths x steps) to a dict of sums; ``paths()`` returns
    the leg's wealth paths X and utility functional J driven by Z, computed
    once per block for all estimators. ``finish(sums, n_paths)`` turns the
    sums over all blocks into the result. Z spans the leg's steps, or the
    whole grid without a leg.
    """
    if not estimators:
        return []

    def block(Z):
        paths = cache(lambda: leg.paths(Z))
        return {(i, key): value for i, (block_fn, _) in enumerate(estimators)
                for key, value in block_fn(Z, paths).items()}

    n_sub = cfg.grid.n_steps if leg is None else len(leg.zeta)
    sums = _accumulate_blocks(cfg, n_sub, block)
    return [finish({key: value for (j, key), value in sums.items() if j == i}, cfg.n_paths)
            for i, (_, finish) in enumerate(estimators)]


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
    g = cfg.grid
    leg = equilibrium_leg(pol, cfg, m, u, d, start_time)
    nodes = g.nodes[_node_index(g, start_time):]
    lam_nodes = np.interp(nodes, pol.grid.nodes, pol.curve.values)
    h_rem = d.h(g.horizon - nodes)

    def block(Z, paths):
        X, J = paths()
        out = {**_sums("j", J), "wealth": X.sum(axis=0),
               "voh": (lam_nodes[None, :] * X**u.p / u.p / h_rem[None, :]).sum(axis=0)}
        for q in moment_orders:
            out.update(_sums(f"m{q}", X[:, -1] ** q))
        return out

    def finish(s, n):
        j, j_se = _mean_se(s, "j", n)
        return SimBatch(
            j_estimate=float(j),
            j_std_error=float(j_se),
            terminal_moments={q: _mean_se(s, f"m{q}", n) for q in moment_orders},
            mean_wealth=s["wealth"] / n,
            mean_value_over_h=s["voh"] / n,
            n_paths=n,
        )

    return run_estimators(cfg, [(block, finish)], leg)[0]


def value_identity_estimator(sol: ValueCurve, u: CrraUtility, t: float, x: float,
                             target_scale: float = 1.0):
    """The ``verify_value_identity`` verdict; the leg must start at (t, x)."""
    target = target_scale * float(np.interp(t, sol.grid.nodes, sol.values)) * x**u.p / u.p

    def block(Z, paths):
        return _sums("j", paths()[1])

    def finish(s, n):
        j, se = _mean_se(s, "j", n)
        z = _z(j - target, se)
        return _verdict("value_identity", z, abs(z) <= STAT_THRESHOLD,
                        f"J={j:.6g} se={se:.3g} target={target:.6g}")

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
        return _verdict("value_identity", 0.0, True, "t=T, exact identity J = U(x)")
    if policy is None:
        policy = equilibrium_policy(sol, m, u, verify=False)
    cfg = replace(cfg, x0=x)
    leg = equilibrium_leg(policy, cfg, m, u, d, t)
    return run_estimators(cfg, [value_identity_estimator(sol, u, t, x, target_scale)], leg)[0]


def martingale_estimator(sol: ValueCurve, cfg: SimConfig, m: MarketParams, u: CrraUtility,
                         d: DiscountSpec, n_checkpoints: int = 5,
                         suboptimal_zeta: float = 0.0):
    """The two ``martingale_check`` verdicts; Z must span the whole grid."""
    g = cfg.grid
    checkpoints = _checkpoints(g, max(n_checkpoints, 1))
    k = len(checkpoints)
    lam_at = np.interp(g.nodes[checkpoints], sol.grid.nodes, sol.values)
    h_rem_at = d.h(g.horizon - g.nodes[checkpoints])
    zetas = {"eq": stock_fraction(m, u), "sub": suboptimal_zeta}
    c_steps = np.zeros(g.n_steps)

    def block(Z, paths):
        out = {}
        for key, zeta in zetas.items():
            X_at = _wealth_paths(Z, cfg.x0, m, np.full(g.n_steps, zeta), c_steps,
                                 g.dt)[:, checkpoints]
            Y = lam_at[None, :] * X_at ** u.p / u.p / h_rem_at[None, :]
            out[key], out[f"{key}_cross"] = Y.sum(axis=0), Y.T @ Y
        return out

    def pair_z(s, key, n, i, j):
        """z of mean[i] - mean[j] with the standard error of the paired difference."""
        mean = s[key] / n
        cov = s[f"{key}_cross"] / n - np.outer(mean, mean)
        se = np.sqrt(max(cov[i, i] + cov[j, j] - 2 * cov[i, j], 0.0) / n)
        return _z(mean[i] - mean[j], se)

    def finish(s, n):
        # a single checkpoint passes both vacuously
        worst = max((abs(pair_z(s, "eq", n, i, j)) for i in range(k)
                     for j in range(i + 1, k)), default=0.0)
        # a consecutive drop is positive when the means decrease
        weakest = min((pair_z(s, "sub", n, i, i + 1) for i in range(k - 1)),
                      default=math.inf)
        return (
            _verdict("martingale_flat", worst, worst <= STAT_THRESHOLD,
                     f"max pairwise |z| over {k} checkpoints"),
            _verdict("submartingale_decreasing", weakest, weakest >= STAT_THRESHOLD,
                     f"min consecutive drop z under zeta={suboptimal_zeta}"),
        )

    return block, finish


def martingale_check(
    sol: ValueCurve,
    cfg: SimConfig,
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    n_checkpoints: int = 5,
    suboptimal_zeta: float = 0.0,
) -> tuple[Verdict, Verdict]:
    """No-consumption martingale test of v(s, X(s)) / h(T - s).

    Under the equilibrium fraction the checkpoint means must be flat within
    three pooled standard errors of the paired differences; under a
    deliberately suboptimal constant fraction the means must be decreasing
    beyond noise (the perturbed process has nonpositive drift).
    """
    est = martingale_estimator(sol, cfg, m, u, d, n_checkpoints, suboptimal_zeta)
    return run_estimators(cfg, [est])[0]


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
    g = cfg.grid
    checkpoints = _checkpoints(g, max(n_checkpoints + 1, 2))[1:]
    zeta_steps = np.full(g.n_steps, stock_fraction(m, u))
    c_steps = np.zeros(g.n_steps)

    def block(Z, paths):
        X = _wealth_paths(Z, cfg.x0, m, zeta_steps, c_steps, g.dt)
        return _sums("y", X[:, checkpoints] ** exponent_q)

    def finish(sums, n):
        out = []
        for s, mean, se in zip(g.nodes[checkpoints], *_mean_se(sums, "y", n)):
            target = cfg.x0**exponent_q * np.exp(growth_rate * s)
            z = _z(mean - target, se)
            out.append(_verdict(f"moment_q{exponent_q}_s{s:g}", z, abs(z) <= STAT_THRESHOLD,
                                f"sample={mean:.6g} target={target:.6g}"))
        return out

    return run_estimators(cfg, [(block, finish)])[0]


def perturbation_estimator(leg: PolicyLeg, eps: float, spike: Spike):
    """One ``perturbation_test`` row: the spike replaces the given components
    of the leg on its first eps (whole grid steps, at least one)."""
    if eps <= 0:
        raise ParameterError("epsilons must be positive")
    width = min(max(1, int(round(eps / leg.dt))), len(leg.zeta))
    zeta, c_nodes = leg.zeta.copy(), leg.c_nodes.copy()
    if spike.zeta is not None:
        zeta[:width] = spike.zeta
    if spike.consumption is not None:
        c_nodes[:width] = spike.consumption
    spiked = replace(leg, zeta=zeta, c_nodes=c_nodes)

    def block(Z, paths):
        return _sums("d", (paths()[1] - spiked.paths(Z)[1]) / eps)

    def finish(s, n):
        d, se = _mean_se(s, "d", n)
        return PerturbationRow(epsilon=float(eps), d_estimate=float(d),
                               std_error=float(se), z=_z(d, se))

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
