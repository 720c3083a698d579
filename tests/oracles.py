"""Test-owned oracles: residuals of the value PDEs that only the test suite
evaluates, kept out of the library so that it needs no optimizer."""

import numpy as np
from scipy.optimize import minimize_scalar

from eqmerton.policy import stock_fraction
from eqmerton.solver import growth_constant


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
