"""Test-owned oracles: residuals of the value PDEs, a node-by-node solve of
the discretized integral equation, a numpy-array RK4 of the mixture system,
the node loop of the dual PDE residual, the per-value CSV writer, whole
Brownian paths bridged through given coarse values, the path-major coarse
values and chords, a leg's utility weights and the spike loss in its expm1
form, which only the test suite evaluates, kept out of the library so that
it needs no optimizer."""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from eqmerton import simulate
from eqmerton.policy import stock_fraction
from eqmerton.solver import StepFailureError, growth_constant


def hjb_residual(pol, m, u, d, s: float, x: float) -> float:
    """Residual of the full anchored HJB of a precommitment policy at (s, x),
    with the Hamiltonian maximized numerically over the stock fraction and
    the consumption ratio.

    The time derivative comes from the ODE the solver integrates, so a small
    residual certifies that the ODE's drift matches the numerically computed
    sup: this is the non-circular check of the symbolic substitution.
    """
    p = u.p
    lam = float(np.interp(s, pol.s_nodes, pol.lambda_values))
    K = growth_constant(m, u)
    tau = s - pol.anchor_time
    rate = d.h_prime(tau) / d.h(tau)
    lam_s = -(rate + K) * lam + (p - 1.0) * lam ** (p / (p - 1.0))
    v = lam * x**p / p
    v_s = lam_s * x**p / p
    v_x = lam * x ** (p - 1.0)
    v_xx = lam * (p - 1.0) * x ** (p - 2.0)

    def neg_ham_zeta(zeta):
        return -(m.mu * zeta * x * v_x + 0.5 * m.sigma**2 * zeta**2 * x**2 * v_xx)

    def neg_ham_cons(c):
        return -(-c * x * v_x + u.u(c * x))

    frac = stock_fraction(m, u)
    res_z = minimize_scalar(
        neg_ham_zeta, bounds=(frac - 2.0, frac + 2.0), method="bounded",
        options={"xatol": 1e-12},
    )
    c_star = lam ** (1.0 / (p - 1.0))
    res_c = minimize_scalar(
        neg_ham_cons, bounds=(c_star / 4.0, 4.0 * c_star), method="bounded",
        options={"xatol": 1e-12},
    )
    sup_part = -(res_z.fun + res_c.fun)
    return float(v_s + m.r * x * v_x + sup_part + rate * v)


def pde_residual_no_consumption(sol, m, u, d, x=1.0) -> float:
    """Residual of the bequest-only value PDE under v = lam U_p.

    v_t + (h'(T-t)/h(T-t)) v + r x v_x - (mu^2 / 2 sigma^2) v_x^2 / v_xx = 0
    collapses to (lam' + [h'(T-t)/h(T-t) + K] lam) x^p / p; uses the stored
    derivative.
    """
    g = sol.grid
    tau = g.horizon - g.nodes
    rate = d.h_prime(tau) / d.h(tau)
    K = growth_constant(m, u)
    core = sol.derivative + (rate + K) * sol.values
    x = np.asarray(x, dtype=float)
    scale = np.max(np.abs(x**u.p / u.p))
    return float(np.max(np.abs(core)) * scale)


def sequential_solve(m, u, d, g, tol=1e-14):
    """log lam of the trapezoid-discretized integral equation, solved one node
    at a time from T back to 0.

    With C_j = int_0^{t_j} p c - K t_j on the trapezoid rule, node i's equation

        lam_i = (dt/2) h(0) lam_i^q + e^{-(p dt/2) (c_i + c_{i+1}) + K dt} H_i,
        H_i = sum_{j>i} w_ij h(t_j - t_i) lam_j^q e^{C_{i+1} - C_j}
              + h(T - t_i) e^{C_{i+1} - C_n},

    has lam_i as its only unknown once the nodes after i are solved. The
    history H_i is a dense sum over j > i taken in log space (O(n^2) in all,
    no FFT). Each node is a scalar Newton solve in x = log lam_i started from
    x_{i+1}, kept inside the bracket its residuals' signs have shown so far
    (bisection, or a unit step outward, where a step would leave it), so it
    takes the root next to lam_{i+1}.
    """
    p, dt, n = u.p, g.dt, g.n_steps
    q, beta, K = p / (p - 1.0), 0.5 * p * dt, growth_constant(m, u)
    log_h = np.log(d.h(g.nodes))  # h at the lags 0, dt, ..., T
    log_w = np.log(np.r_[np.full(n, dt), dt / 2.0])  # w_ij by j; w_in = dt/2
    x = np.zeros(n + 1)
    D = np.zeros(n + 1)  # C_j - C_n
    for i in range(n - 1, -1, -1):
        j = np.arange(i + 1, n + 1)
        log_H = np.logaddexp(
            logsumexp(log_w[j] + log_h[j - i] + q * x[j] + D[i + 1] - D[j]),
            log_h[n - i] + D[i + 1])
        c_next = math.exp(x[i + 1] / (p - 1.0))

        def residual(xi):
            log_a = math.log(0.5 * dt) + log_h[0] + q * xi
            c = math.exp(xi / (p - 1.0))
            log_e = -beta * (c + c_next) + K * dt + log_H
            log_g = np.logaddexp(log_a, log_e)
            slope = (q * math.exp(log_a - log_g)
                     + beta * c / (1.0 - p) * math.exp(log_e - log_g) - 1.0)
            return log_g - xi, slope

        x[i] = _bracketed_newton(residual, x[i + 1], tol)
        D[i] = D[i + 1] - beta * (math.exp(x[i] / (p - 1.0)) + c_next) + K * dt
    return x


def _bracketed_newton(residual, x, tol, max_steps=200):
    """Root of a residual that falls through zero, from x: Newton steps inside
    the bracket [lo, hi] (r(lo) > 0 > r(hi)) seen so far."""
    lo, hi = -math.inf, math.inf
    for _ in range(max_steps):
        r, slope = residual(x)
        if abs(r) <= tol * max(1.0, abs(x)):
            return x
        if r > 0:
            lo = x
        else:
            hi = x
        nxt = x - r / slope if slope < 0 else math.nan
        if not lo < nxt < hi:
            if math.isinf(lo) or math.isinf(hi):
                nxt = x + (1.0 if r > 0 else -1.0)
            else:
                nxt = 0.5 * (lo + hi)
        x = nxt
    raise RuntimeError(f"node solve did not converge: residual {r:.3e} at x = {x}")


def numpy_mixture_components(m, u, d, g):
    """Components (n_terms x n_nodes) of the exponential-mixture system by
    classical RK4 from T back to 0, stepping numpy arrays, as the library
    stepped them before it took Python floats; nonpositive values raise
    StepFailureError."""
    K = growth_constant(m, u)
    p = u.p
    q = p / (p - 1.0)
    betas, rhos = np.array(d.betas), np.array(d.rhos)

    def rhs(y):
        lam = betas @ y
        if lam <= 0 or np.any(y <= 0):
            raise StepFailureError("component curve became nonpositive")
        return (rhos - K + p * lam ** (1.0 / (p - 1.0))) * y - lam**q

    t = g.nodes
    y = np.ones(len(betas))
    out = np.empty((len(t), len(betas)))
    out[-1] = y
    for i in range(len(t) - 1, 0, -1):
        hstep = t[i - 1] - t[i]
        k1 = rhs(y)
        k2 = rhs(y + hstep / 2.0 * k1)
        k3 = rhs(y + hstep / 2.0 * k2)
        k4 = rhs(y + hstep * k3)
        y = y + hstep / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i - 1] = y
    return out.T


def loop_dual_pde_residual(dv, m, d) -> float:
    """``duality.dual_pde_residual`` one interior node at a time: the largest
    normalized residual of the dual PDE's terms over the dual value; a nan
    at any node is the result."""
    g, lam, lam_t, p = dv.grid, dv.curve.values, dv.curve.derivative, dv.p
    tau = g.horizon - g.nodes[1:-1]
    rate = d.h_prime(tau) / d.h(tau)
    e = p / (p - 1.0)
    worst = 0.0
    for idx in range(1, g.n_steps):
        terms = [lam_t[idx] / ((1.0 - p) * lam[idx]), rate[idx - 1] * (1.0 - e), -m.r * e,
                 m.mu**2 / (2.0 * m.sigma**2) * e * (e - 1.0)]
        node = abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300)
        if math.isnan(node) or node > worst:  # a nan, once met, stays
            worst = node
    return float(worst)


def per_value_csv(columns: dict) -> str:
    """The text ``output.write_csv`` writes, formatted one value at a time
    and joined row by row, as the writer did before it formatted each table
    in one call; unequal columns raise ValueError."""
    def cells(column):
        values = np.asarray(column)
        if values.dtype.kind == "b":
            return ["true" if v else "false" for v in values.tolist()]
        spec = "%.17g" if values.dtype.kind in "fiu" else "%s"
        return [spec % v for v in values.tolist()]

    rows = zip(*map(cells, columns.values()), strict=True)
    return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"


def bridged_paths(nodes, Wc, Z):
    """Whole Brownian paths (rows x (n + 1), W_0 = 0) through the coarse
    values Wc (rows x len(nodes), W at nodes, nodes[0] = 0) with the normals
    Z (rows x n) bridged in between: on each segment a < k <= b the chord of
    Wc plus the running sum P of Z less its own chord,
    W_k = Wc_a + (P_k - P_a) - (k - a) / (b - a) (P_b - P_a - (Wc_b - Wc_a)).
    Given Wc, W is an exact Brownian path: the two-scale stream, a fine path
    drawn in full for each coarse point."""
    rows, n = Z.shape
    P = np.concatenate([np.zeros((rows, 1)), np.cumsum(Z, axis=1)], axis=1)
    W = np.zeros((rows, n + 1))
    for j, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
        f = (np.arange(a + 1, b + 1) - a) / (b - a)
        W[:, a + 1:b + 1] = (Wc[:, [j]] + (P[:, a + 1:b + 1] - P[:, [a]])
                             - f * (P[:, [b]] - P[:, [a]] - (Wc[:, [j + 1]] - Wc[:, [j]])))
    return W


def path_major_coarse(bridge, xi):
    """W at the bridge's nodes 0..N of paths laid out a row per path
    (rows x (N + 1)) from their normals xi (rows x N), column by column: node
    N takes sqrt(n_steps) xi_0; then, widest interval first, each interval's
    midpoint takes the next coordinate times the bridge's standard deviation
    there, plus its left neighbour's weight times W there, plus its right
    neighbour's, in that order. The reference for the bits of the library's
    node-major ``BrownianBridge.coarse``."""
    t = bridge.nodes.astype(np.float64)
    N = len(t) - 1
    W = np.zeros((len(xi), N + 1))
    W[:, N] = xi[:, 0] * math.sqrt(bridge.n_steps)
    d, width = 1, N
    while width > 1:
        half = width // 2
        for mid in range(half, N, width):
            left, right = mid - half, mid + half
            span = t[right] - t[left]
            sd = math.sqrt((t[mid] - t[left]) * (t[right] - t[mid]) / span)
            W[:, mid] = (xi[:, d] * sd + (t[right] - t[mid]) / span * W[:, left]
                         + (t[mid] - t[left]) / span * W[:, right])
            d += 1
        width = half
    return W


def path_major_chords(bridge, Wc):
    """The chords of paths laid out a row per path (rows x (n + 1)) from their
    coarse values Wc (rows x (N + 1)), Wc_lo + (k - lo) / (hi - lo)
    (Wc_hi - Wc_lo) node by node: the reference for the bits of the
    library's node-major ``BrownianBridge.chords``."""
    W = np.empty((len(Wc), bridge.n_steps + 1))
    for k in range(bridge.n_steps + 1):
        j = bridge.segment[k]
        W[:, k] = (Wc[:, j + 1] - Wc[:, j]) * bridge._fraction[k] + Wc[:, j]
    W[:, -1] = Wc[:, -1]
    return W


def leg_weights(leg, c_nodes=None) -> np.ndarray:
    """v with J = sum_k v_k exp(p vol W_k) on the leg's paths: the trapezoid
    weights of h(s - t) U(c X) over the nodes and the bequest's h(T - t) / p
    at the last, each times (x0 e^{drift[k]})^p; c_nodes replaces the leg's
    consumption ratios in the weights, not in the drift."""
    p, dt = leg.u.p, leg.dt
    c = leg.c_nodes if c_nodes is None else c_nodes
    v = np.zeros(len(c))
    if np.any(c != 0.0):
        trapezoid = np.full(len(c), dt)
        trapezoid[0] = trapezoid[-1] = dt / 2.0
        v = leg.h_nodes * c**p * trapezoid / p
    v[-1] += leg.h_nodes[-1] / p
    return v * (leg.x0 * np.exp(leg.drift)) ** p


def expm1_perturbation_estimator(leg, eps: float, spike):
    """``simulate.perturbation_estimator`` with the window's loss in its expm1
    form, the reference for the library's exponential sums: per path and
    half of a pair,

        sum_{k <= w} E[Y_k] (v_k - v'_k - v'_k expm1(p G_k))
        - expm1(G) T - (1 + expm1(G)) near,

    with E[Y_k] = e^{a L_k} times the lift per node and E[Y_k expm1(p G_k)]
    = E[Y_k] expm1(g_k + b L_k + (a b + b^2 / 2) s_k), each formed from the
    window's chords for each half; G, T and near as in the library."""
    m, p, dt = leg.m, leg.u.p, leg.dt
    w = min(max(1, int(round(eps / dt))), leg.n_steps)
    zeta = leg.zeta if spike.zeta is None else spike.zeta
    c_spiked = leg.c_nodes.copy()
    if spike.consumption is not None:
        c_spiked[:w] = spike.consumption
    gap_step = (m.mu * (zeta - leg.zeta) - simulate._step_means(c_spiked - leg.c_nodes)[:w]
                - 0.5 * m.sigma**2 * (zeta**2 - leg.zeta**2)) * dt
    gap_drift = p * np.concatenate([[0.0], np.cumsum(gap_step)])
    a, b = p * leg.vol, p * m.sigma * math.sqrt(dt) * (zeta - leg.zeta)
    bridge = simulate._bridge(leg.n_steps)
    var = bridge.variance
    lift = np.exp(0.5 * a * a * var)
    v_spiked = leg_weights(leg, c_spiked) * lift
    head_eq = (leg_weights(leg) * lift - v_spiked)[:w + 1]
    head_spiked = v_spiked[:w + 1]
    growth_drift = gap_drift + (a * b + 0.5 * b * b) * var[:w + 1]
    end_drift = gap_drift[w] + 0.5 * b * b * var[w]
    j = bridge.segment[w]
    lo, hi = bridge.nodes[j], bridge.nodes[j + 1]
    near = np.arange(w + 1, hi)
    cov = (w - lo) * (hi - near) / (hi - lo)
    near_weights = (leg_weights(leg) * lift)[near] * np.expm1(a * b * cov)

    def loss(L_head, sign, tail, Y_near):
        Y_head = np.exp(sign * a * L_head)
        growth = np.expm1(growth_drift + (sign * b) * L_head)
        end = np.expm1(end_drift + (sign * b) * L_head[:, w])
        return (Y_head @ head_eq - np.einsum("ij,ij,j->i", Y_head, growth, head_spiked)
                - end * tail - (1.0 + end) * (Y_near @ near_weights))

    def block(blk):
        tail = blk.powers[2][w + 1]
        # the chords a row per path
        L_head = np.array(blk.chords(slice(0, w + 1)).T)
        L_near = np.array(blk.chords(near).T)
        drawn = loss(L_head, 1.0, tail[0], np.exp(a * L_near))
        partner = loss(L_head, -1.0, tail[1], np.exp(-a * L_near))
        return simulate._sums("d", 0.5 * (drawn + partner) / eps)

    block.tail = w + 1

    def finish(s, n):
        d, se = simulate._mean_se(s, "d", n)
        return simulate.PerturbationRow(epsilon=float(eps), d_estimate=float(d),
                                        std_error=float(se), z=simulate._z(d, se), n_pairs=n)

    return block, finish
