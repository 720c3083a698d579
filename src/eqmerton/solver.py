"""Solvers for the time coefficient of the CRRA value function v(t,x) = lam(t) x^p / p.

Three routes are provided:

* ``solve_no_consumption`` -- closed form lam(t) = h(T-t) e^{K (T-t)} for the
  bequest-only problem.
* ``picard_solve`` -- Newton sweeps in log lam on the full nonlinear integral
  equation, discretized with composite trapezoid quadrature, over windows of
  nodes marched back from T, with a stop on the largest change in log lam.
  A sweep costs O(n log n) time and O(n) memory: the kernel h(s-t) e^{K(s-t)}
  is Toeplitz on the uniform grid, so the quadrature sum is a correlation
  evaluated with blocked FFTs (the fast Volterra convolution of Hairer,
  Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985). Blocks are rescaled
  by the log-size of the summand, so terms spanning hundreds of orders of
  magnitude keep full relative accuracy. A solve forms its kernel plan once:
  the nodes, h and -h' at every lag, h(T-t), K and the kernels' block
  spectra for each window and block length it meets. A sweep forms only its
  summand's logs, block length, scaled blocks and their spectrum, which every
  kernel summed against that summand shares.
* ``mixture_ode_solve`` -- backward RK4 on the component ODE system available
  when the discount function is a finite exponential mixture.

Diagnostics: a priori bounds any solution must respect, and residuals of the
integral equation and of its differential form. The residuals use the same
kernel sum as the sweep; the test suite keeps a dense O(n^2) evaluator as the
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    CrraUtility,
    DiscountSpec,
    ExponentialMixtureDiscount,
    MarketParams,
    ParameterError,
    TimeGrid,
)

__all__ = [
    "NonConvergenceError",
    "StepFailureError",
    "FitTooCoarseError",
    "ValueCurve",
    "BoundsCertificate",
    "MixtureFitReport",
    "growth_constant",
    "solve_no_consumption",
    "picard_solve",
    "mixture_ode_solve",
    "fit_exponential_mixture",
    "a_priori_bounds",
    "residual_integral_equation",
    "residual_differential_form",
    "differential_form_rhs",
    "theta_closed_form",
]


class NonConvergenceError(RuntimeError):
    """``picard_solve`` stopped without meeting the tolerance: a one-node
    window's Newton steps stopped shrinking, or its image left the float range
    (``reason``; ``last_delta`` is then None)."""

    def __init__(self, iterations: int, last_delta: Optional[float], reason: str):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"fixed-point iteration did not converge after {iterations} sweeps ({reason})"
        )


class StepFailureError(RuntimeError):
    """Backward integration produced a nonpositive value; the grid is too coarse."""


class FitTooCoarseError(RuntimeError):
    """Exponential-mixture fit exceeded the requested error ceiling."""

    def __init__(self, sup_error: float, ceiling: float):
        self.sup_error = sup_error
        self.ceiling = ceiling
        super().__init__(
            f"mixture fit sup-error {sup_error:.3e} exceeds ceiling {ceiling:.3e}"
        )


@dataclass(frozen=True)
class ValueCurve:
    """The scalar coefficient lam(t) on a time grid, with lam(T) = 1.

    ``derivative`` is lam'(t) reconstructed from the differential form of the
    defining equation (analytic where a closed form exists). ``components``
    holds the per-rate component curves when produced by the mixture route,
    ``sweeps`` the number of integral-equation sweeps of the Picard route and
    ``image`` the integral equation's right-hand side of ``values``, which
    that route forms with the derivative from the same kernel sum.
    """

    grid: TimeGrid
    values: np.ndarray
    derivative: np.ndarray
    provenance: str
    components: Optional[np.ndarray] = None
    sweeps: Optional[int] = None
    image: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.grid.n_steps + 1
        if self.values.shape != (n,) or self.derivative.shape != (n,):
            raise ParameterError("value/derivative arrays must match the grid")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivative))):
            raise ParameterError("value curve and its derivative must be finite")
        if np.any(self.values <= 0):
            raise ParameterError("value curve must be strictly positive")
        if abs(self.values[-1] - 1.0) > 1e-14:
            raise ParameterError(
                f"terminal condition lam(T)=1 violated: {self.values[-1]!r}"
            )

    def consumption_rate(self, u: CrraUtility) -> np.ndarray:
        """Equilibrium consumption-to-wealth ratio lam(t)^(1/(p-1))."""
        return self.values ** (1.0 / (u.p - 1.0))


@dataclass(frozen=True)
class BoundsCertificate:
    """Solver-independent interval every solution must occupy at every node."""

    A: float
    lower: float
    upper: float

    def __post_init__(self):
        # a side can be vacuous (0 or inf) where its exponential leaves the
        # float range
        if not (0 <= self.lower < 1 < self.upper <= math.inf):
            raise ParameterError(
                f"bounds must bracket the terminal value 1: [{self.lower}, {self.upper}]"
            )

    def contains(self, values: np.ndarray, slack: float = 1e-12) -> bool:
        return bool(
            np.all(values >= self.lower - slack) and np.all(values <= self.upper + slack)
        )


@dataclass(frozen=True)
class MixtureFitReport:
    mixture: ExponentialMixtureDiscount
    sup_error_h: float
    sup_error_h_prime: float


def growth_constant(m: MarketParams, u: CrraUtility) -> float:
    """K = p (r + mu^2 / (2 (1-p) sigma^2)), the CRRA wealth-growth constant."""
    return u.p * (m.r + m.mu**2 / (2.0 * (1.0 - u.p) * m.sigma**2))


# e-folds the summand's log-size may move inside one block of the kernel sum;
# within a block the FFT rounding error is amplified by at most e^_BLOCK_SPREAD
_BLOCK_SPREAD = 2.0
# transform points per batched FFT call (at least one block offset per call),
# which bounds the working memory
_FFT_BATCH = 1 << 16


def _block_length(F: np.ndarray) -> int:
    """Longest block length over whose aligned blocks F moves by at most
    _BLOCK_SPREAD; length 1 always qualifies. All of F when its whole spread
    qualifies, else by bisection."""
    if np.max(F) - np.min(F) <= _BLOCK_SPREAD:
        return len(F)
    lo, hi = 1, len(F)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        starts = np.arange(0, len(F), mid)
        spread = np.maximum.reduceat(F, starts) - np.minimum.reduceat(F, starts)
        if np.max(spread) <= _BLOCK_SPREAD:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _blocks(v: np.ndarray, fill: float, B: int, L: int) -> np.ndarray:
    """v as B rows of L, its tail padded with fill."""
    out = np.full(B * L, fill)
    out[:len(v)] = v
    return out.reshape(B, L)


class _KernelPlan:
    """What one solve forms once for all its kernel sums: the nodes, the
    Toeplitz kernels h and -h' at the lags 0, dt, ..., T, h(T-t),
    h'(T-t)/h(T-t), K, and the kernels' block spectra.

    A spectrum depends on the kernel, the length n1 of the window of nodes
    summed over, and the block length L. A solve meets its window lengths in
    turn, and a window's block length settles after a few sweeps, so each
    kernel keeps only its latest spectrum."""

    def __init__(self, m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid):
        self.p, self.K, self.dt = u.p, growth_constant(m, u), g.dt
        self.nodes = g.nodes
        tau = g.horizon - self.nodes
        self.h_T = d.h(tau)
        self.rate_T = d.h_prime(tau) / self.h_T
        self.kernels = {"h": d.h(self.nodes), "-h'": -d.h_prime(self.nodes)}
        self._spectra = {}  # kernel name -> (n1, L, spectrum)

    def spectra(self, name: str, n1: int, L: int) -> np.ndarray:
        """rfft of kernel ``name``'s window at each block offset d = 0..B-1 of
        a sum over n1 nodes in blocks of L: window entry s holds the lag
        (d-1) L + 1 + s; lag 0 (the diagonal) and lags past the window are
        zero there."""
        cached = self._spectra.get(name)
        if cached is None or cached[:2] != (n1, L):
            B = -(-n1 // L)
            kpad = np.zeros((B + 1) * L)
            kpad[L:L + n1 - 1] = self.kernels[name][1:n1]
            windows = kpad[(np.arange(B) * L)[:, None] + np.arange(2 * L - 1)[None, :]]
            cached = n1, L, np.fft.rfft(windows, 1 << (2 * L - 2).bit_length())
            self._spectra[name] = cached
        return cached[2]


class _Summand:
    """The integral equation's summand lam(s)^q e^{-C(s)} from t_start on,
    transformed once for every kernel summed against it.

    ``f`` is lam^q and ``C`` the exponent C(t) - K t, with
    C(t) = int_{t_start}^t p lam^(1/(p-1)) (trapezoid). Folding e^{K (t_j - t_i)}
    into the exponent leaves h (or -h') as the Toeplitz kernel, so the growth
    e^{K tau} is rescaled with the summand instead of entering the FFTs
    unscaled. Each kernel's sum is formed once and kept."""

    def __init__(self, plan: _KernelPlan, values: np.ndarray, start: int = 0):
        lam, p, dt = values[start:], plan.p, plan.dt
        pc = p * lam ** (1.0 / (p - 1.0))
        C = np.concatenate(([0.0], np.cumsum(0.5 * (pc[1:] + pc[:-1]) * dt)))
        self.plan, self.start = plan, start
        log_f = p / (p - 1.0) * np.log(lam)
        self.C = C - plan.K * plan.nodes[start:]
        self._sums = {}
        n1 = len(lam)
        F = log_f - self.C
        self.finite = bool(np.all(np.isfinite(F)))
        if not self.finite:
            return  # an overflow upstream; callers' checks fail on the nan sums
        self.L = L = _block_length(F)
        self.B = B = -(-n1 // L)
        Fb = _blocks(F, -np.inf, B, L)
        self.m = Fb.max(axis=1)
        x = np.exp(Fb - self.m[:, None]) * dt
        x.flat[n1 - 1] *= 0.5  # trapezoid end weight at t_n
        self.nfft = 1 << (2 * L - 2).bit_length()
        self.xf = np.fft.rfft(x[:, ::-1], self.nfft)
        self.Cb = _blocks(self.C, 0.0, B, L)
        self.f = np.exp(log_f)

    def kernel_sum(self, name: str) -> np.ndarray:
        """S_i = sum_{j>=i} w_ij k[j-i] f_j e^{C_i - C_j} at every node from
        t_start on, for the plan's kernel k = ``name`` and the trapezoid
        weights w_ij over [t_i, T] (so the last S is 0).

        The sum is a correlation, evaluated with ``numpy.fft``. One FFT over
        e^{C_i} e^{-C_j} would mix terms of wildly different sizes, and the
        large ones would swamp the small ones. So the grid is cut into blocks
        of one length L, derived from the data, inside which the summand's
        log-size F_j = log f_j - C_j moves by at most _BLOCK_SPREAD. Block J
        enters the FFTs as e^{F_j - m_J}, m_J = max F over J, and each block
        pair (I, J) carries the scalar e^{m_J} back, applied with e^{C_i} per
        output node. The pairs at one block offset J - I share a kernel
        window, so they form one batched FFT product, added into the output
        rows offset by offset. Cost: O(B n log L) time and O(n) memory for
        B = (n+1)/L blocks, B ~ (spread of F) / _BLOCK_SPREAD.

        The summand's blocks and their spectrum are formed with the summand
        and the kernel windows' spectra by the plan, so a sum forms only the
        block products and their inverse transforms."""
        if name in self._sums:
            return self._sums[name]
        n1 = len(self.C)
        if not self.finite:
            return np.full(n1, np.nan)
        L, B, nfft, m, Cb = self.L, self.B, self.nfft, self.m, self.Cb
        kf = self.plan.spectra(name, n1, L)
        out = np.zeros((B, L))
        step = max(1, _FFT_BATCH // (nfft * B))  # block offsets per batched call
        for d0 in range(0, B, step):
            # the pairs (I, I + d) at the offsets d of this batch, stacked
            offsets = range(d0, min(d0 + step, B))
            pairs = np.concatenate([self.xf[d:] * kf[d] for d in offsets])
            z = np.fft.irfft(pairs, nfft)[:, L - 1:2 * L - 1][:, ::-1]
            row = 0
            for d in offsets:
                out[:B - d] += np.exp(Cb[:B - d] + m[d:, None]) * z[row:row + B - d]
                row += B - d
        S = out.ravel()[:n1]
        S += 0.5 * self.plan.dt * self.plan.kernels[name][0] * self.f  # diagonal, w_ii = dt/2
        S[-1] = 0.0
        self._sums[name] = S
        return S

    def image(self) -> np.ndarray:
        """The fixed-point map's right-hand side from t_start on (see
        ``_integral_equation_rhs``)."""
        C = self.C
        return self.kernel_sum("h") + self.plan.h_T[self.start:] * np.exp(C - C[-1])


def _integral_equation_rhs(values, plan, start=0):
    """Right-hand side of the fixed-point map at the grid nodes from t_start on:

        int_t^T h(s-t) e^{K (s-t)} lam(s)^q e^{-int_t^s p c} ds
        + h(T-t) e^{K (T-t)} e^{-int_t^T p c},

    with the integral on the trapezoid rule; it reads lam from t_start on only."""
    return _Summand(plan, values, start).image()


def solve_no_consumption(
    m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid
) -> ValueCurve:
    """Bequest-only coefficient lam(t) = h(T-t) e^{K (T-t)}, the exact solution
    of the terminal-value ODE lam' + [h'(T-t)/h(T-t) + K] lam = 0, lam(T) = 1
    (the test suite checks it against independent integrations of that ODE).
    """
    K = growth_constant(m, u)
    tau = g.horizon - g.nodes
    lam = d.h(tau) * np.exp(K * tau)
    lam_prime = -(d.h_prime(tau) / d.h(tau) + K) * lam
    lam[-1] = 1.0  # pin the terminal node exactly
    return ValueCurve(grid=g, values=lam, derivative=lam_prime, provenance="closed_form")


def picard_solve(
    m: MarketParams,
    u: CrraUtility,
    d: DiscountSpec,
    g: TimeGrid,
    tol: float = 1e-10,
) -> ValueCurve:
    """Newton sweeps in x = log lam on the discretized integral equation
    lam = G(lam), over windows of nodes marched back from T (step-by-step
    marching for Volterra equations, Linz, SIAM 1985, a window at a time).

    G at t_i reads lam on [t_i, T] only. A sweep over the window [a, b)
    evaluates G once on [t_a, T], holding the nodes from b on, and forms
    r = log G(lam) - x. Once max |r| <= tol (a relative change, at any scale of
    lam) the window keeps the image G(lam) and is frozen. Otherwise each node
    takes a Newton step on its own residual. lam_i enters G_i through
    A_i = (dt/2) h(0) lam_i^q and through e^{-beta c_i} on every other term
    (q = p/(p-1), beta = p dt/2, c = lam^(1/(p-1))), so
    r_i' = (q A_i + beta c_i/(1-p) (G_i - A_i)) / G_i - 1; where r_i' >= 0 the
    node steps one e-fold by sign(r_i), as a Picard step would. Iterates are
    clipped into the log of the a priori bounds box, the trust region, whose
    upper end is raised by (1-p) log((b dt/2) coth(b dt/2)), b = A/(1-p): the
    trapezoid rule's exact excess on the box's envelope e^{b s}, by which the
    discrete solution may exceed the continuous bound.

    The first window is every node before T, from lam = 1. A window fails when
    its Newton correction max |step| stops shrinking (a step from the flat side
    of a node's convex residual may overshoot, raising |r| once) or its image
    leaves the float range. It is then halved to its later half, restarted from
    lam at its first frozen node; a converged window doubles the next.
    ``ValueCurve.sweeps`` counts all sweeps. A failed one-node window raises
    NonConvergenceError.
    """
    if tol <= 0:
        raise ParameterError("need tol > 0")
    bounds = a_priori_bounds(m, u, d, g)
    plan = _KernelPlan(m, u, d, g)
    p = u.p
    half_step = 0.5 * bounds.A * g.dt / (1.0 - p)
    with np.errstate(divide="ignore"):  # a vacuous lower side is 0
        x_lo = np.log(bounds.lower)
        x_hi = np.log(bounds.upper) + (1.0 - p) * math.log(half_step / math.tanh(half_step))
    q, beta, diag = p / (p - 1.0), 0.5 * p * g.dt, 0.5 * g.dt * float(d.h(0.0))
    lam, b, size, sweeps = np.ones(g.n_steps + 1), g.n_steps, g.n_steps, 0
    while b > 0:  # the window [a, b); lam from t_b on is final, lam(T) = 1
        a, last = max(b - size, 0), math.inf
        x = np.full(b - a, math.log(lam[b]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while True:
                sweeps += 1
                lam[a:b] = np.exp(x)
                image = _integral_equation_rhs(lam, plan, a)[:b - a]
                r = np.log(image) - x
                delta = float(np.max(np.abs(r)))  # nan or inf off the float range
                if not tol < delta < math.inf:
                    break
                A = diag * lam[a:b] ** q
                slope = (q * A + beta / (1.0 - p) * lam[a:b] ** (1.0 / (p - 1.0))
                         * (image - A)) / image - 1.0
                step = np.where(slope < 0, -r / slope, np.sign(r))
                correction = float(np.max(np.abs(step)))
                if correction >= last:
                    break
                last = correction
                x = np.clip(x + step, x_lo, x_hi)
        if delta <= tol:
            lam[a:b], b, size = image, a, 2 * (b - a)
        elif b - a > 1:
            size = (b - a) // 2
        elif math.isfinite(delta):
            raise NonConvergenceError(sweeps, delta, f"node {a} alone: its Newton step "
                                      f"stopped shrinking at {correction:.3e}")
        else:
            raise NonConvergenceError(sweeps, None, f"node {a} alone: its image left "
                                      "the float range")
    final = _Summand(plan, lam)
    deriv = differential_form_rhs(lam, m, u, d, g, final)
    return ValueCurve(grid=g, values=lam, derivative=deriv, provenance="picard",
                      sweeps=sweeps, image=final.image())


def _rk4_mixture(betas: np.ndarray, rates: list, p: float, t: list) -> np.ndarray:
    """Classical RK4 on the component system from t[-1] down to t[0], with
    every component lam_n(T) = 1 and rates[n] = rho_n - K; the components
    (n_terms x n_nodes).

    The components step as Python floats: with two to a few dozen of them a
    numpy array costs more per operation than the arithmetic. lam alone is
    numpy's dot product, which may fuse its multiply-adds, so that it rounds
    as the array stepper's did. Every stage checks that lam and each
    component are positive."""
    e, q = 1.0 / (p - 1.0), p / (p - 1.0)

    def rhs(y):
        lam = float(np.dot(betas, y))
        if lam <= 0 or any(c <= 0 for c in y):
            raise StepFailureError(
                "component curve became nonpositive during integration; refine the grid"
            )
        try:
            a, f = p * lam**e, lam**q
        except OverflowError:  # a float power raises where numpy returned inf
            raise StepFailureError(
                "component curve left the float range during integration; refine the grid"
            ) from None
        return [(r + a) * c - f for r, c in zip(rates, y)]

    y = [1.0] * len(betas)
    path = [y]
    for i in range(len(t) - 1, 0, -1):
        hstep = t[i - 1] - t[i]
        half, sixth = hstep / 2.0, hstep / 6.0
        k1 = rhs(y)
        k2 = rhs([c + half * k for c, k in zip(y, k1)])
        k3 = rhs([c + half * k for c, k in zip(y, k2)])
        k4 = rhs([c + hstep * k for c, k in zip(y, k3)])
        y = [c + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
             for c, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)]
        path.append(y)
    return np.array(path[::-1]).T


def mixture_ode_solve(
    m: MarketParams, u: CrraUtility, d: ExponentialMixtureDiscount, g: TimeGrid
) -> ValueCurve:
    """Backward RK4 on the component system for an exponential-mixture discount.

    Each component lam_n obeys

        lam_n'(t) = (rho_n - K + p lam(t)^(1/(p-1))) lam_n(t) - lam(t)^(p/(p-1)),
        lam_n(T) = 1,   lam(t) = sum_n beta_n lam_n(t).

    This is the system obtained by differentiating the component integral
    equations directly; it degenerates for a single term to the autonomous
    ODE lam' = (rho - K) lam + (p-1) lam^(p/(p-1)).
    """
    if not isinstance(d, ExponentialMixtureDiscount):
        raise ParameterError("mixture_ode_solve requires an exponential-mixture discount")
    K = growth_constant(m, u)
    p = u.p
    q = p / (p - 1.0)
    betas = np.array(d.betas)
    rhos = np.array(d.rhos)
    comps = _rk4_mixture(betas, (rhos - K).tolist(), p, g.nodes.tolist())
    lam = betas @ comps
    if np.any(lam <= 0) or np.any(comps <= 0):
        raise StepFailureError("mixture solve produced nonpositive values")
    lam[-1] = 1.0
    cons = lam ** (1.0 / (p - 1.0))
    comp_deriv = (rhos[:, None] - K + p * cons[None, :]) * comps - (lam**q)[None, :]
    deriv = betas @ comp_deriv
    return ValueCurve(
        grid=g, values=lam, derivative=deriv, provenance="mixture_ode", components=comps
    )


def _log_theta(a: float, tau):
    """log theta for theta' = -a theta - 1, theta(T) = 1, at a constant rate a
    and tau = T - t: theta = e^{-a tau} + (1 - e^{-a tau})/a. With x = a tau,
    log theta = max(-x, 0) + log(e^{-max(x, 0)} + (1 - e^{-|a| tau})/|a|), where
    no exponential grows and no term is negative, for either sign of a."""
    x = a * tau
    span = tau if a == 0 else -np.expm1(-abs(a) * tau) / abs(a)  # its limit at a = 0
    return np.maximum(-x, 0.0) + np.log(np.exp(-np.maximum(x, 0.0)) + span)


def theta_closed_form(
    m: MarketParams, u: CrraUtility, rho: float, g: TimeGrid
) -> ValueCurve:
    """Closed form for a single-exponential discount in the full problem.

    For theta = lam^(1/(1-p)) the autonomous ODE lam' = (rho-K) lam +
    (p-1) lam^(p/(p-1)) is theta' = -a theta - 1 at the constant rate
    a = (rho - K)/(1-p). lam is formed from log theta (``_log_theta``, shared
    with ``a_priori_bounds``), so it is finite wherever it is representable.
    """
    K = growth_constant(m, u)
    p = u.p
    log_lam = (1.0 - p) * _log_theta((rho - K) / (1.0 - p), g.horizon - g.nodes)
    lam = np.exp(log_lam)
    lam[-1] = 1.0
    deriv = (rho - K) * lam + (p - 1.0) * lam ** (p / (p - 1.0))
    return ValueCurve(grid=g, values=lam, derivative=deriv, provenance="closed_form")


def fit_exponential_mixture(
    d: DiscountSpec,
    n_terms: int,
    rho_grid,
    g: TimeGrid,
    max_sup_error: Optional[float] = None,
) -> MixtureFitReport:
    """Approximate h and h' simultaneously by an n_terms exponential sum.

    Nonnegative least squares over the candidate-rate pool (with the
    weights-sum-to-one constraint appended as a heavily weighted equation),
    restriction to the n_terms largest weights, a second restricted solve,
    and a final projection onto the simplex. Reports achieved sup errors on
    both h and h'.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if n_terms < 1 or len(rho_grid) < n_terms:
        raise ParameterError("need n_terms >= 1 and at least n_terms candidate rates")
    if np.any(rho_grid < 0):
        raise ParameterError("candidate rates must be nonnegative")
    t = g.nodes
    hv = d.h(t)
    hpv = d.h_prime(t)
    sum_weight = 1e6

    def design(rates):
        eh = np.exp(-np.outer(t, rates))
        ehp = -rates[None, :] * eh
        A = np.vstack([eh, ehp, sum_weight * np.ones((1, len(rates)))])
        b = np.concatenate([hv, hpv, [sum_weight]])
        return A, b, eh, ehp

    from scipy.optimize import nnls  # scipy.optimize costs ~0.5 s to import

    A, b, _, _ = design(rho_grid)
    beta, _ = nnls(A, b)
    support = np.sort(np.argsort(beta)[::-1][:n_terms])
    rates = rho_grid[support]
    A2, b2, eh2, ehp2 = design(rates)
    beta2, _ = nnls(A2, b2)
    beta2 = np.clip(beta2, 0.0, None)
    total = beta2.sum()
    if total <= 0:
        raise FitTooCoarseError(np.inf, max_sup_error if max_sup_error else np.inf)
    beta2 /= total
    keep = beta2 > 0
    beta2, rates = beta2[keep], rates[keep]
    eh2, ehp2 = eh2[:, keep], ehp2[:, keep]
    err_h = float(np.max(np.abs(eh2 @ beta2 - hv)))
    err_hp = float(np.max(np.abs(ehp2 @ beta2 - hpv)))
    if max_sup_error is not None and err_h + err_hp > max_sup_error:
        raise FitTooCoarseError(err_h + err_hp, max_sup_error)
    mix = ExponentialMixtureDiscount(betas=tuple(beta2), rhos=tuple(rates))
    return MixtureFitReport(mixture=mix, sup_error_h=err_h, sup_error_h_prime=err_hp)


def a_priori_bounds(
    m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid
) -> BoundsCertificate:
    """Grid instantiation of the constant A and the resulting bounds box.

    A = sup_t |h'(T-t)/h(T-t) + K| + sup_{t<=s<=T} |d/dt log(h(s-t)/h(T-t))|,
    a sufficient (not minimal) choice. The bounds are monotone in A, so any
    upper estimate of the two suprema is valid.
    """
    K = growth_constant(m, u)
    p = u.p
    t = g.nodes
    tau = g.horizon - t
    rate_T = d.h_prime(tau) / d.h(tau)
    term1 = float(np.max(np.abs(rate_T + K)))
    # d/dt log(h(s-t)/h(T-t)) = -h'(s-t)/h(s-t) + h'(T-t)/h(T-t), for s >= t;
    # its sup at t_i runs over the lags 0..T-t_i, i.e. prefix max/min of h'/h
    rate_lag = d.h_prime(t) / d.h(t)
    hi = np.maximum.accumulate(rate_lag)[::-1]
    lo = np.minimum.accumulate(rate_lag)[::-1]
    term2 = float(max(np.max(hi - rate_T), np.max(rate_T - lo)))
    A = max(term1 + term2, 1e-8)
    # Gronwall comparison for theta = lam^{1/(1-p)}: theta' >= -(A/(1-p)) theta - 1
    # with theta(T) = 1 keeps theta below the constant-rate solution at
    # a = -A/(1-p). Past the float range the lower end underflows to 0 and the
    # upper end is taken as inf, leaving that side of the box vacuous.
    log_upper = (1.0 - p) * _log_theta(-A / (1.0 - p), g.horizon)
    with np.errstate(over="ignore"):
        upper = float(np.exp(log_upper))
    return BoundsCertificate(A=A, lower=math.exp(-A * g.horizon), upper=upper)


def residual_integral_equation(
    sol: ValueCurve, m: MarketParams, u: CrraUtility, d: DiscountSpec,
    rhs: Optional[np.ndarray] = None,
) -> float:
    """Sup-norm gap between lam and the integral-equation right-hand side.

    rhs is that right-hand side on sol's nodes when the caller already holds
    it: a curve from ``picard_solve`` with these m, u and d carries it as its
    image. Without it, it is computed here."""
    if rhs is None:
        rhs = _integral_equation_rhs(sol.values, _KernelPlan(m, u, d, sol.grid))
    return float(np.max(np.abs(rhs - sol.values)))


def differential_form_rhs(
    values: np.ndarray, m: MarketParams, u: CrraUtility, d: DiscountSpec, g: TimeGrid,
    summand: Optional[_Summand] = None,
) -> np.ndarray:
    """lam'(t) implied by the differential form of the integral equation:

        lam' = -[h'(T-t)/h(T-t) + K] lam + (p-1) lam^(p/(p-1))
               + int_t^T [-h'(s-t) + h(s-t) h'(T-t)/h(T-t)] e^{K (s-t)}
                 lam(s)^(p/(p-1)) exp(-int_t^s p lam^(1/(p-1))) ds.

    The kernel -h'(s-t) + h(s-t) h'(T-t)/h(T-t) vanishes identically for
    exponential discounting, leaving the autonomous local ODE. The kernels
    -h' and h are summed against one transform of the summand: ``summand``
    when the caller's solve already formed it for values with these m, u, d
    and g, which then keeps both sums.
    """
    if summand is None:
        summand = _Summand(_KernelPlan(m, u, d, g), values)
    plan, p = summand.plan, u.p
    local = -(plan.rate_T + plan.K) * values + (p - 1.0) * values ** (p / (p - 1.0))
    return local + (summand.kernel_sum("-h'") + plan.rate_T * summand.kernel_sum("h"))


def residual_differential_form(
    sol: ValueCurve, m: MarketParams, u: CrraUtility, d: DiscountSpec,
    rhs: Optional[np.ndarray] = None,
) -> float:
    """Sup-norm, over interior nodes, of lam' (central differences) minus the
    differential-form right-hand side. Its floor is the grid error of the
    trapezoid-discrete integral equation, not that of the difference quotient.

    rhs is that right-hand side on sol's nodes when the caller already holds
    it: a curve from ``picard_solve`` with these m, u and d stores it as its
    derivative. Without it, it is computed here."""
    g = sol.grid
    if g.n_steps < 3:
        raise ParameterError("need at least 4 grid nodes for the residual")
    lam = sol.values
    if rhs is None:
        rhs = differential_form_rhs(lam, m, u, d, g)
    dlam = (lam[2:] - lam[:-2]) / (2.0 * g.dt)
    return float(np.max(np.abs(dlam - rhs[1:-1])))
