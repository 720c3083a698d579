import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from eqmerton.model import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    ParameterError,
    TimeGrid,
)
from eqmerton import policy
from eqmerton.policy import (
    equilibrium_policy,
    inconsistency_report,
    naive_consumption,
    solve_precommitment,
    stock_fraction,
)
from eqmerton.solver import growth_constant, picard_solve, theta_closed_form

from oracles import hjb_residual


@pytest.fixture(scope="module")
def hyp_solution(market, utility, hyp_discount):
    g = TimeGrid(horizon=1.0, n_steps=500)
    return g, picard_solve(market, utility, hyp_discount, g)


class TestStockFraction:
    def test_printed_example(self, market, utility):
        # mu / (sigma^2 (1-p)) = 0.07 / (0.04 * 0.5); leverage above 1 is fine
        assert stock_fraction(market, utility) == pytest.approx(3.5)

    def test_invariant_across_policies(self, market, utility, hyp_discount,
                                       hyp_solution):
        g, sol = hyp_solution
        eq_pol = equilibrium_policy(sol, market, utility)
        pre = solve_precommitment(0.0, market, utility, hyp_discount, g)
        assert eq_pol.stock_fraction == pre.stock_fraction


class TestEquilibriumPolicy:
    def test_terminal_consumption_is_one(self, market, utility, hyp_solution):
        _, sol = hyp_solution
        pol = equilibrium_policy(sol, market, utility)
        assert pol.consumption_rate[-1] == pytest.approx(1.0)

    def test_feedback_identities_verified(self, market, utility, hyp_solution):
        # for v = lam x^p / p the Merton feedback -mu v_x / (sigma^2 v_xx) and
        # the consumption I(v_x) are the policy's fraction and ratio times x
        _, sol = hyp_solution
        pol = equilibrium_policy(sol, market, utility)
        x = np.broadcast_to(np.geomspace(0.2, 5.0, 7), (len(sol.values), 7))
        lam = sol.values[:, None]
        p = utility.p
        v_x = lam * x ** (p - 1.0)
        v_xx = lam * (p - 1.0) * x ** (p - 2.0)
        np.testing.assert_allclose(-market.mu * v_x / (market.sigma**2 * v_xx),
                                   pol.stock_fraction * x, rtol=1e-12)
        np.testing.assert_allclose(utility.inverse_marginal(v_x),
                                   pol.consumption_rate[:, None] * x, rtol=1e-12)

    def test_exponential_consumption_closed_form(self, market, utility, grid,
                                                 exp_discount):
        sol = theta_closed_form(market, utility, exp_discount.rho, grid)
        pol = equilibrium_policy(sol, market, utility)
        K = growth_constant(market, utility)
        a = (exp_discount.rho - K) / (1.0 - utility.p)
        tau = grid.horizon - grid.nodes
        expected = a / (1.0 - (1.0 - a) * np.exp(-a * tau))
        np.testing.assert_allclose(pol.consumption_rate, expected, rtol=1e-10)

    def test_consumption_rate_continuity(self, utility, hyp_solution):
        g, sol = hyp_solution
        cons = sol.consumption_rate(utility)
        p = utility.p
        bound = (10.0 * g.dt * np.max(np.abs(sol.derivative))
                 * abs(1.0 / (p - 1.0))
                 * np.max(sol.values ** ((2.0 - p) / (p - 1.0))))
        assert np.max(np.abs(np.diff(cons))) <= bound


class TestPrecommitment:
    def test_exponential_matches_equilibrium(self, market, utility, grid,
                                             exp_discount):
        sol = picard_solve(market, utility, exp_discount, grid)
        eq_pol = equilibrium_policy(sol, market, utility)
        pre = solve_precommitment(0.0, market, utility, exp_discount, grid)
        gap = np.max(np.abs(pre.consumption_at(grid.nodes)
                            - eq_pol.consumption_at(grid.nodes)))
        assert gap <= 1e-5

    def test_vanishing_horizon(self, market, utility, hyp_discount):
        g = TimeGrid(horizon=1.0, n_steps=500)
        pre = solve_precommitment(1.0 - 1e-6, market, utility, hyp_discount, g)
        assert np.max(np.abs(pre.lambda_values - 1.0)) <= 1e-5

    def test_hyperbolic_anchor_dependence(self, market, utility, hyp_discount):
        g = TimeGrid(horizon=1.0, n_steps=500)
        c0 = solve_precommitment(0.0, market, utility, hyp_discount, g)
        c_half = solve_precommitment(0.5, market, utility, hyp_discount, g)
        gap = abs(float(c0.consumption_at(0.5)) - float(c_half.consumption_at(0.5)))
        assert gap > 1e-9  # 10x a 1e-10 solver tolerance

    def test_hjb_residual_small(self, market, utility, hyp_discount):
        # non-circular check of the symbolic reduction: the ODE drift must
        # match a numerically maximized Hamiltonian
        g = TimeGrid(horizon=1.0, n_steps=500)
        pre = solve_precommitment(0.0, market, utility, hyp_discount, g)
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = float(rng.uniform(0.0, 1.0))
            x = float(rng.uniform(0.3, 3.0))
            assert abs(hjb_residual(pre, market, utility, hyp_discount, s, x)) <= 1e-8

    @pytest.mark.parametrize("d", [
        ExponentialDiscount(rho=0.1),
        ExponentialMixtureDiscount(betas=(0.4, 0.6), rhos=(0.05, 0.5)),
        HyperbolicDiscount(k=1.0, gamma=1.0),
        HyperbolicDiscount(k=5.0, gamma=2.0),
    ], ids=["exponential", "mixture", "hyperbolic_1_1", "hyperbolic_5_2"])
    @pytest.mark.parametrize("p", [0.5, -2.0, 0.95])
    @pytest.mark.parametrize("horizon, tol", [(1.0, 1e-10), (50.0, 1e-5)])
    def test_matches_dop853_oracle(self, market, d, p, horizon, tol):
        # test-owned DOP853 on the log-lambda form of the anchored ODE,
        # y' = -[h'/h(s - t0) + K] + (p-1) e^{y/(p-1)}, y(T) = 0
        u = CrraUtility(p=p)
        K = growth_constant(market, u)
        g = TimeGrid(horizon=horizon, n_steps=1000)
        for t0 in (0.0, horizon / 2):
            pre = solve_precommitment(t0, market, u, d, g)

            def rhs(s, y, t0=t0):
                tau = s - t0
                return -(d.h_prime(tau) / d.h(tau) + K) + (p - 1.0) * np.exp(
                    y / (p - 1.0))

            ref = solve_ivp(rhs, (horizon, t0), [0.0], method="DOP853",
                            t_eval=pre.s_nodes[::-1], rtol=1e-13, atol=1e-13)
            assert ref.success
            gap = np.max(np.abs(np.log(pre.lambda_values) - ref.y[0][::-1]))
            assert gap <= tol, (t0, gap)

    def test_anchor_out_of_range(self, market, utility, hyp_discount, grid):
        with pytest.raises(ParameterError):
            solve_precommitment(1.0, market, utility, hyp_discount, grid)
        with pytest.raises(ParameterError):
            solve_precommitment(-0.1, market, utility, hyp_discount, grid)


class TestNaiveAndReport:
    def test_naive_matches_reanchored_precommitment(self, market, utility,
                                                    hyp_discount):
        g = TimeGrid(horizon=1.0, n_steps=500)
        # 0.2537 and T - 0.3 dt are off the grid: their lags end on a partial
        # segment
        probes = [0.25, 0.5, 0.2537, g.horizon - 0.3 * g.dt]
        naive = naive_consumption(market, utility, hyp_discount, g, probes)
        for t, c in zip(probes, naive):
            pre = solve_precommitment(t, market, utility, hyp_discount, g)
            assert c == pytest.approx(float(pre.consumption_rate[0]))

    def test_naive_probe_does_not_depend_on_the_others(self, market, utility):
        d = HyperbolicDiscount(k=20.0, gamma=3.0)
        g = TimeGrid(horizon=50.0, n_steps=1000)
        probes = [12.5, 12.685, 49.985, 0.0]
        together = naive_consumption(market, utility, d, g, probes)
        alone = [naive_consumption(market, utility, d, g, [t])[0] for t in probes]
        assert together.tolist() == alone

    @pytest.mark.parametrize("p, t", [(0.5, 12.5), (0.95, 49.0)])
    def test_naive_resolves_a_steep_first_step(self, market, p, t):
        # log w falls 4.2 (p = 0.5) and 42 (p = 0.95) e-folds across the
        # first grid step; scipy's adaptive quadrature is the reference
        d = HyperbolicDiscount(k=20.0, gamma=3.0)
        g = TimeGrid(horizon=50.0, n_steps=1000)
        u = CrraUtility(p=p)
        K, lag = growth_constant(market, u), g.horizon - t

        def log_w(s):
            return (math.log(d.h(s)) + K * s) / (1.0 - p)

        shift = max(log_w(0.0), log_w(lag))
        scaled, _ = quad(lambda s: math.exp(log_w(s) - shift), 0.0, lag,
                         points=[g.dt, 10 * g.dt, 1.0], limit=500, epsabs=0.0,
                         epsrel=1e-13)
        reference = 1.0 / (math.exp(log_w(lag)) + scaled * math.exp(shift))
        c = naive_consumption(market, u, d, g, [t])[0]
        assert c == pytest.approx(reference, rel=1e-7)

    def test_report_solves_one_precommitment(self, market, utility, hyp_discount,
                                             hyp_solution, monkeypatch):
        # the naive probes come from one quadrature pass, not one
        # re-anchored solve each
        g, sol = hyp_solution
        calls = []
        solve = policy.solve_precommitment
        monkeypatch.setattr(policy, "solve_precommitment",
                            lambda *a: calls.append(a) or solve(*a))
        report = inconsistency_report(market, utility, hyp_discount, g,
                                      np.linspace(0.0, 0.9, 10),
                                      equilibrium=equilibrium_policy(sol, market, utility))
        assert len(report["t_probe"]) == 10 and len(calls) == 1

    def test_exponential_all_gaps_small(self, market, utility, grid, exp_discount):
        report = inconsistency_report(market, utility, exp_discount, grid,
                                      [0.25, 0.5, 0.75])
        assert np.all(np.abs(report["gap_naive"]) <= 1e-5)
        assert np.all(np.abs(report["gap_equilibrium"]) <= 1e-5)

    def test_hyperbolic_gaps_nonzero(self, market, utility, hyp_discount,
                                     hyp_solution):
        g, sol = hyp_solution
        pol = equilibrium_policy(sol, market, utility)
        report = inconsistency_report(market, utility, hyp_discount, g,
                                      [0.25, 0.5, 0.75], equilibrium=pol)
        assert np.any(np.abs(report["gap_naive"]) > 1e-9)

    def test_empty_probes(self, market, utility, hyp_discount, grid):
        report = inconsistency_report(market, utility, hyp_discount, grid, [])
        assert list(report) == ["t_probe", "c_precommit_0", "c_precommit_t",
                                "c_equilibrium", "gap_naive", "gap_equilibrium"]
        assert all(len(column) == 0 for column in report.values())

    def test_probe_out_of_range(self, market, utility, hyp_discount, grid):
        with pytest.raises(ParameterError):
            inconsistency_report(market, utility, hyp_discount, grid, [1.0])
