"""Convex-duality checks for the bequest-only value function.

The dual value function is the Legendre-Fenchel transform in the wealth
variable, tilde_v(t, y) = sup_x [v(t, x) - x y], which for v = lam(t) x^p / p
belongs to the closed family

    tilde_v(t, y) = ((1-p)/p) lam(t)^(1/(1-p)) y^(p/(p-1)).

It satisfies the linear dual PDE

    tilde_v_t + (h'(T-t)/h(T-t)) [tilde_v - y tilde_v_y]
              - r y tilde_v_y + (mu^2 / 2 sigma^2) y^2 tilde_v_yy = 0,

obtained from the primal PDE by the standard conjugacy relations
tilde_v_t = v_t, tilde_v_y = -x, tilde_v_yy = -1/v_xx (both first-order terms
carry a minus sign; the derivation is reproduced numerically in the test
suite from a grid-based transform).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CrraUtility, DiscountSpec, MarketParams, ParameterError, TimeGrid
from .solver import ValueCurve

__all__ = [
    "DualValue",
    "DualityCheckError",
    "dual_from_primal",
    "dual_pde_residual",
    "primal_dual_roundtrip",
    "grid_legendre_sup",
]

# the log-argument search starts on [1e-6, 1e6] (marginal utility spans orders
# of magnitude) and grows the bracket by a factor 1e6 per step, at most
# _MAX_WIDEN steps
_LOG_LO, _LOG_HI = np.log(1e-6), np.log(1e6)
_LOG_WIDEN, _MAX_WIDEN = np.log(1e6), 40
_N_GRID = 20000  # nodes of the bracketing grid
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class DualityCheckError(Exception):
    """The closed-family dual disagrees with the independent grid transform."""


@dataclass(frozen=True)
class DualValue:
    """Dual value function in the CRRA closed family."""

    curve: ValueCurve
    p: float

    @property
    def grid(self) -> TimeGrid:
        return self.curve.grid

    def _power(self, idx: int, y, exponent: float):
        """lam^(1/(1-p)) y^exponent, formed in log space: lam^(1/(1-p)) alone
        leaves the float range as p -> 1 (lam^100 at p = 0.99)."""
        log_y = np.log(np.asarray(y, dtype=float))
        return np.exp(np.log(self.curve.values[idx]) / (1.0 - self.p) + exponent * log_y)

    def value(self, idx: int, y):
        return (1.0 - self.p) / self.p * self._power(idx, y, self.p / (self.p - 1.0))

    def dy(self, idx: int, y):
        return -self._power(idx, y, 1.0 / (self.p - 1.0))

    def dyy(self, idx: int, y):
        return self._power(idx, y, (2.0 - self.p) / (self.p - 1.0)) / (1.0 - self.p)


def _log_argmax(f, k: int = 1) -> np.ndarray:
    """Maximisers s of k unimodal functions of the log-argument, searched
    side by side: f(s, rows) returns the values of functions ``rows`` at the
    points s (one row of points per function).

    For each function a uniform grid in s grows past whichever end holds its
    best node until that node is interior (the maximiser's scale is not known
    in advance), and past both ends while f is -inf on the whole grid. The
    grids are evaluated one function at a time, which keeps each in cache
    (a k x 20000 array measured slower). Golden section then refines all k
    brackets at once, between each best node's neighbours, each function
    stopping when its own bracket is below 1e-14."""
    a, b = np.empty(k), np.empty(k)
    for row in range(k):
        lo, hi = _LOG_LO, _LOG_HI
        for _ in range(_MAX_WIDEN):
            s = np.linspace(lo, hi, _N_GRID)
            values = f(s[None, :], [row])[0]
            i = int(np.argmax(values))
            if values[i] == -np.inf:
                lo, hi = lo - _LOG_WIDEN, hi + _LOG_WIDEN
            elif i == 0:
                lo -= _LOG_WIDEN
            elif i == _N_GRID - 1:
                hi += _LOG_WIDEN
            else:
                break
        a[row], b[row] = s[max(i - 1, 0)], s[min(i + 1, _N_GRID - 1)]
    rows = np.arange(k)
    active = np.ones(k, dtype=bool)
    for _ in range(200):
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        left = f(c[:, None], rows)[:, 0] > f(d[:, None], rows)[:, 0]
        b = np.where(active & left, d, b)
        a = np.where(active & ~left, c, a)
        active &= ~(b - a < 1e-14)
        if not active.any():
            break
    return 0.5 * (a + b)


def grid_legendre_sup(lam, u: CrraUtility, y):
    """Independent oracle: maximize lam x^p / p - x y over log-spaced wealth
    with golden-section refinement (see _log_argmax), for each pair of lam
    and y at once; a float for scalar arguments."""
    lam, y = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(y, dtype=float))
    lam_rows, y_rows = lam.reshape(-1, 1), y.reshape(-1, 1)

    def f(logx, rows):
        x = np.exp(logx)
        return lam_rows[rows] * x**u.p / u.p - x * y_rows[rows]

    sup = f(_log_argmax(f, lam.size)[:, None], np.arange(lam.size))[:, 0]
    return float(sup[0]) if lam.ndim == 0 else sup.reshape(lam.shape)


def _marginal_values(lam: float, p: float, x):
    """y = v_x(t, x) = lam x^(p-1): the dual points conjugate to wealth x,
    where the dual value (1-p)/p lam x^p is as representable as the primal."""
    return lam * np.asarray(x, dtype=float) ** (p - 1.0)


def dual_from_primal(sol: ValueCurve, u: CrraUtility) -> DualValue:
    """Closed-family dual of v = lam(t) x^p / p, spot-checked against a
    grid-based sup to 1e-6 relative at 20 random nodes t and at y = v_x(t, x)
    for log-uniform wealth x in [0.05, 20], searched side by side; a
    disagreement raises ``DualityCheckError`` for the first point that
    disagrees."""
    dv = DualValue(curve=sol, p=u.p)
    rng = np.random.default_rng(99)
    draws = [(int(rng.integers(0, len(sol.values))),
              float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))) for _ in range(20)]
    idx = np.array([i for i, _ in draws])
    lam = sol.values[idx]
    y = _marginal_values(lam, u.p, [x for _, x in draws])
    closed = dv.value(idx, y)
    brute = np.broadcast_to(grid_legendre_sup(lam, u, y), closed.shape)
    for c, b in zip(closed, brute):
        if abs(c - b) > 1e-6 * max(abs(c), 1e-12):
            raise DualityCheckError(
                f"closed-family dual {float(c)!r} disagrees with grid sup {float(b)!r}"
            )
    return dv


def dual_pde_residual(dv: DualValue, m: MarketParams, d: DiscountSpec) -> float:
    """Sup over interior nodes t of the dual PDE residual, normalized by the
    magnitude of its largest term; a nan anywhere makes the sup nan.

    Each term is taken relative to the dual value. Within the closed family
    every term carries the factor lam^(1/(1-p)) y^(p/(p-1)) of tilde_v, so
    y tilde_v_y = e tilde_v and y^2 tilde_v_yy = e (e - 1) tilde_v with
    e = p/(p-1), and the ratios hold at every y and stay finite wherever
    lam and lam' are, however far tilde_v leaves the float range. The time
    derivative of lam is the one stored on the curve (analytic for the
    closed-form routes, equation-implied for the fixed-point route).
    """
    g, p = dv.grid, dv.p
    tau = g.horizon - g.nodes[1:-1]
    lam, lam_t = dv.curve.values[1:-1], dv.curve.derivative[1:-1]
    e = p / (p - 1.0)
    terms = np.broadcast_arrays(
        lam_t / ((1.0 - p) * lam),
        d.h_prime(tau) / d.h(tau) * (1.0 - e),
        -m.r * e,
        m.mu**2 / (2.0 * m.sigma**2) * e * (e - 1.0),
    )
    resid = np.abs(sum(terms))
    scale = np.max(np.abs(terms), axis=0)
    return float(np.max(resid / np.maximum(scale, 1e-300), initial=0.0))


def primal_dual_roundtrip(
    dv: DualValue, u: CrraUtility, points: list[tuple[int, float]]
) -> float:
    """Recover v(t, x) = inf_y [x y + tilde_v(t, y)] by the search over log y
    of ``grid_legendre_sup``, for all points side by side, polished by Newton
    steps, and compare with lam(t) x^p / p; also checks the conjugate
    first-order relation (which the Newton steps solve), v_x = y* and the
    reciprocal second-derivative identity at the minimizer. Returns the max
    relative error over all checks."""
    if not points:
        return 0.0
    p = u.p
    idx = np.array([i for i, _ in points])
    x = np.array([x for _, x in points], dtype=float)
    if np.any(x <= 0):
        raise ParameterError("roundtrip points need x > 0")
    lam = dv.curve.values[idx]
    rows_idx, rows_x = idx[:, None], x[:, None]

    def f(logy, rows):
        y = np.exp(logy)
        return rows_x[rows] * y + dv.value(rows_idx[rows], y)

    # far from the minimiser the dual value can pass the float range;
    # inf there only marks a worse node
    with np.errstate(over="ignore"):
        s_star = _log_argmax(lambda logy, rows: -f(logy, rows), len(points))
    # golden section leaves s* ~1e-8 off, which the slope and curvature checks
    # amplify by |1/(p-1)|; Newton steps on tilde_v_y(e^s) + x = 0 remove it
    for _ in range(3):
        y = np.exp(s_star)
        s_star = s_star - (dv.dy(idx, y) + x) / (y * dv.dyy(idx, y))
    y_star = np.exp(s_star)
    recovered = f(s_star[:, None], np.arange(len(points)))[:, 0]
    target = lam * x**p / p
    v_x = lam * x ** (p - 1.0)
    v_xx = lam * (p - 1.0) * x ** (p - 2.0)
    errors = (
        np.abs(recovered - target) / np.maximum(np.abs(target), 1e-300),
        # conjugate pairing: tilde_v_y(y*) = -x and v_x(x) = y*
        np.abs(dv.dy(idx, y_star) + x) / x,
        np.abs(v_x - y_star) / y_star,
        # reciprocal second derivatives: tilde_v_yy * v_xx = -1
        np.abs(dv.dyy(idx, y_star) * v_xx + 1.0),
    )
    return float(max(e.max() for e in errors))
