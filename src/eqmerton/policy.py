"""Feedback policies: equilibrium, precommitment, naive, and their comparison.

The stock fraction is the same constant mu / (sigma^2 (1-p)) for every CRRA
policy in this package; the policies differ only through their
consumption-to-wealth ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CrraUtility, DiscountSpec, MarketParams, ParameterError, TimeGrid
from .solver import ValueCurve, growth_constant

__all__ = [
    "EquilibriumPolicy",
    "PrecommitmentPolicy",
    "stock_fraction",
    "equilibrium_policy",
    "solve_precommitment",
    "naive_consumption",
    "inconsistency_report",
]


def stock_fraction(m: MarketParams, u: CrraUtility) -> float:
    """Merton fraction of wealth held in the stock, mu / (sigma^2 (1-p))."""
    return m.mu / (m.sigma**2 * (1.0 - u.p))


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Constant stock fraction plus the consumption ratio c(t) = lam(t)^(1/(p-1))."""

    stock_fraction: float
    consumption_rate: np.ndarray
    curve: ValueCurve

    @property
    def grid(self) -> TimeGrid:
        return self.curve.grid

    def consumption_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid.nodes, self.consumption_rate)


@dataclass(frozen=True)
class PrecommitmentPolicy:
    """The time-t0 optimal ("as seen from t0") policy on [t0, T]."""

    anchor_time: float
    s_nodes: np.ndarray
    lambda_values: np.ndarray
    consumption_rate: np.ndarray
    stock_fraction: float

    def consumption_at(self, s) -> np.ndarray:
        return np.interp(s, self.s_nodes, self.consumption_rate)


def equilibrium_policy(
    sol: ValueCurve, m: MarketParams, u: CrraUtility
) -> EquilibriumPolicy:
    """Read the feedback maps off the value coefficient.

    For v = lam(t) x^p / p the amount in stock -mu v_x / (sigma^2 v_xx)
    equals mu x / (sigma^2 (1-p)) and the consumption I(v_x) equals
    lam(t)^(1/(p-1)) x (both identities are checked in the test suite).
    """
    return EquilibriumPolicy(stock_fraction=stock_fraction(m, u),
                             consumption_rate=sol.consumption_rate(u), curve=sol)


# 3-point Gauss-Legendre rule on [-1, 1]
_GL_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL_LOG_WEIGHTS = np.log([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _log_w(tau, m: MarketParams, u: CrraUtility, d: DiscountSpec):
    """log of the integrating factor w = h^(1/(1-p)) e^{K tau/(1-p)} at the lag tau."""
    return (np.log(d.h(tau)) + growth_constant(m, u) * tau) / (1.0 - u.p)


# a segment across which log w moves by more than one e-fold is cut into
# pieces across which it moves by about _PIECE_EFOLDS, at most _MAX_PIECES of
# them (w underflowing at an end makes the e-fold count unbounded)
_PIECE_EFOLDS = 0.25
_MAX_PIECES = 4096


def _log_int_w(lo, hi, t0: float, m: MarketParams, u: CrraUtility,
               d: DiscountSpec) -> np.ndarray:
    """log int_lo^hi w(s - t0) ds per segment by 3-point Gauss-Legendre in log
    space. Only segments across which log w moves by more than one e-fold are
    cut into equal pieces, one rule each; those resolve a w that falls by many
    e-folds inside one grid step near the anchor."""
    moved = np.nan_to_num(np.abs(_log_w(hi - t0, m, u, d) - _log_w(lo - t0, m, u, d)))
    pieces = np.where(moved > 1.0, np.ceil(np.minimum(moved / _PIECE_EFOLDS, _MAX_PIECES)),
                      1).astype(int)
    first = np.cumsum(pieces) - pieces
    seg = np.repeat(np.arange(len(pieces)), pieces)
    j, k = np.arange(pieces.sum()) - first[seg], pieces[seg]
    width = (hi - lo)[seg]
    a = lo[seg] + width * (j / k)
    b = np.where(j + 1 == k, hi[seg], lo[seg] + width * ((j + 1) / k))
    half = 0.5 * (b - a)
    s = 0.5 * (b + a)[:, None] + half[:, None] * _GL_NODES
    log_piece = np.logaddexp.reduce(
        _log_w(s - t0, m, u, d) + _GL_LOG_WEIGHTS + np.log(half)[:, None], axis=1)
    return np.logaddexp.reduceat(log_piece, first)


def solve_precommitment(
    t0: float, m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid
) -> PrecommitmentPolicy:
    """Solve the t0-anchored optimal-control problem on [t0, T].

    Substituting V(t0, s, x) = lam(s) x^p / p into the anchored dynamic
    programming equation and maximizing the Hamiltonian (the maximizers are
    the Merton fraction and c = lam^(1/(p-1))) leaves the scalar terminal
    value ODE

        lam'(s) = -[h'(s - t0)/h(s - t0) + K] lam(s) + (p-1) lam(s)^(p/(p-1)),
        lam(T) = 1.

    With theta = lam^(1/(1-p)) it becomes linear,
    theta' = -a(s) theta - 1 with a = [h'/h(s - t0) + K]/(1-p), theta(T) = 1.
    Its integrating factor w(s) = h(s - t0)^(1/(1-p)) e^{K (s - t0)/(1-p)}
    (w' = a w) gives the explicit solution

        theta(s) = [w(T) + int_s^T w] / w(s),

    and the consumption ratio c = lam^(1/(p-1)) = 1/theta. The integral is
    taken per grid segment by 3-point Gauss-Legendre, on equal pieces where
    log w moves by more than one e-fold across the segment (``_log_int_w``,
    shared with ``naive_consumption``), and summed from T backward, all in log space,
    so w spanning hundreds of orders of magnitude neither overflows nor loses
    relative accuracy. The ODE drift is validated in the test suite against a
    numerically maximized Hamiltonian.
    """
    if not (0.0 <= t0 < g.horizon):
        raise ParameterError(f"anchor time must lie in [0, T), got {t0}")
    n_sub = max(2, int(round((g.horizon - t0) / g.dt)))
    s = np.linspace(t0, g.horizon, n_sub + 1)
    seg = _log_int_w(s[:-1], s[1:], t0, m, u, d)
    tail = np.append(np.logaddexp.accumulate(seg[::-1])[::-1], -np.inf)
    lw = _log_w(s - t0, m, u, d)
    log_theta = np.logaddexp(lw[-1], tail) - lw
    return PrecommitmentPolicy(
        anchor_time=t0,
        s_nodes=s,
        lambda_values=np.exp((1.0 - u.p) * log_theta),
        consumption_rate=np.exp(-log_theta),
        stock_fraction=stock_fraction(m, u),
    )


def naive_consumption(
    m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid, times
) -> np.ndarray:
    """Consumption ratio of the continually re-optimizing agent: at each time
    t the agent applies the time-t anchored policy's instantaneous action.

    w depends on s - t only and w(0) = 1, so that action is
    c(t) = 1/[w(T-t) + int_0^{T-t} w]: one pass of the precommitment quadrature
    over the lags 0, dt, ..., T, plus a last partial segment per lag.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0) or np.any(times >= g.horizon):
        raise ParameterError("probe times must lie in [0, T)")
    lags, nodes = g.horizon - times, g.nodes
    head = np.logaddexp.accumulate(
        np.append(-np.inf, _log_int_w(nodes[:-1], nodes[1:], 0.0, m, u, d)))
    below = np.searchsorted(nodes, lags) - 1  # nodes[below] < lag <= nodes[below + 1]
    log_int = np.logaddexp(head[below], _log_int_w(nodes[below], lags, 0.0, m, u, d))
    return np.exp(-np.logaddexp(_log_w(lags, m, u, d), log_int))


def inconsistency_report(
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    g: TimeGrid,
    probe_times,
    equilibrium: EquilibriumPolicy | None = None,
) -> dict:
    """Tabulate, per probe time t', the time-0 committed consumption
    c0(t'), the re-optimized (naive) consumption ct'(t'), and the
    equilibrium consumption, with the pairwise gaps.

    Returns the columns t_probe, c_precommit_0, c_precommit_t, c_equilibrium,
    gap_naive = ct'(t') - c0(t') and gap_equilibrium = c_eq(t') - ct'(t'),
    one array each, in that order. For exponential discounting all three
    consumptions coincide within solver tolerance.
    """
    probe_times = np.atleast_1d(np.asarray(probe_times, dtype=float))
    ct = naive_consumption(m, u, d, g, probe_times)  # checks probe_times in [0, T)
    if equilibrium is None:
        from .solver import picard_solve

        equilibrium = equilibrium_policy(picard_solve(m, u, d, g), m, u)
    c0 = solve_precommitment(0.0, m, u, d, g).consumption_at(probe_times)
    ceq = equilibrium.consumption_at(probe_times)
    return {"t_probe": probe_times, "c_precommit_0": c0, "c_precommit_t": ct,
            "c_equilibrium": ceq, "gap_naive": ct - c0, "gap_equilibrium": ceq - ct}
