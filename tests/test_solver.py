import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from eqmerton.model import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    ParameterError,
    TimeGrid,
)
from eqmerton import solver as solver_module
from eqmerton.config import load_config
from eqmerton.solver import (
    FitTooCoarseError,
    NonConvergenceError,
    StepFailureError,
    ValueCurve,
    _BLOCK_SPREAD,
    _KernelPlan,
    _Summand,
    _block_length,
    _integral_equation_rhs,
    _rk4_mixture,
    a_priori_bounds,
    differential_form_rhs,
    fit_exponential_mixture,
    growth_constant,
    mixture_ode_solve,
    picard_solve,
    residual_differential_form,
    residual_integral_equation,
    solve_no_consumption,
    theta_closed_form,
)

from oracles import numpy_mixture_components, pde_residual_no_consumption, sequential_solve


def rk4_oracle_autonomous(m, u, rho, g):
    """Independent reference for the single-exponential full problem: solve
    lam' = (rho - K) lam + (p - 1) lam^(p/(p-1)) backward with scipy at tight
    tolerance and evaluate on the grid."""
    K = growth_constant(m, u)
    p = u.p

    def rhs(_t, y):
        return (rho - K) * y + (p - 1.0) * y ** (p / (p - 1.0))

    sol = solve_ivp(rhs, (g.horizon, 0.0), [1.0], t_eval=g.nodes[::-1],
                    rtol=1e-12, atol=1e-14, method="RK45")
    return sol.y[0][::-1]


def dense_rhs_oracle(values, m, u, d, g):
    """Independent O(n^2) reference for the trapezoid-discretized equation:
    dense (n+1)^2 kernel, weight and exponential matrices.

    Returns the integral-equation right-hand side, the differential-form
    right-hand side, and per node the sum of the absolute values of the
    differential form's terms (its kernel is a difference, so agreement is
    measured relative to that scale)."""
    t = g.nodes
    n = g.n_steps
    K = growth_constant(m, u)
    p = u.p
    q = p / (p - 1.0)
    tau = np.maximum(t[None, :] - t[:, None], 0.0)
    mask = np.triu(np.ones((n + 1, n + 1)))
    W = np.full((n + 1, n + 1), g.dt) * mask
    idx = np.arange(n + 1)
    W[idx, idx] = g.dt / 2.0
    W[:, n] = g.dt / 2.0
    W[n, n] = 0.0
    pc = p * values ** (1.0 / (p - 1.0))
    C = np.zeros(n + 1)
    C[1:] = np.cumsum(0.5 * (pc[1:] + pc[:-1]) * g.dt)
    E = np.exp(C[:, None] - C[None, :])
    summand = (values**q)[None, :] * E * mask * W
    growth = np.exp(K * tau)
    H = d.h(tau) * growth
    rhs = np.sum(H * summand, axis=1) + H[:, n] * E[:, n]
    rate_T = d.h_prime(g.horizon - t) / d.h(g.horizon - t)
    local = -(rate_T + K) * values + (p - 1.0) * values**q
    kern = (-d.h_prime(tau) + d.h(tau) * rate_T[:, None]) * growth
    dfr = local + np.sum(kern * summand, axis=1)
    scale = (np.abs(local) + np.sum(np.abs(d.h_prime(tau)) * growth * summand, axis=1)
             + np.abs(rate_T) * np.sum(H * summand, axis=1))
    return rhs, dfr, scale


def theta_curve(u, g, a=0.1):
    """Positive test curve of equilibrium shape, lam = theta^(1-p) with
    theta(tau) = e^{-a tau} + (1 - e^{-a tau}) / a and tau = T - t."""
    tau = g.horizon - g.nodes
    return (np.exp(-a * tau) - np.expm1(-a * tau) / a) ** (1.0 - u.p)


def wide_bequest_case(m, d):
    """Bequest-only coefficient at p = 0.95, T = 20: lam^q spans about
    1e-175..1 while C stays flat."""
    u = CrraUtility(p=0.95)
    g = TimeGrid(horizon=20.0, n_steps=400)
    tau = g.horizon - g.nodes
    return u, g, d.h(tau) * np.exp(growth_constant(m, u) * tau)


def steep_theta_case(m, d):
    """theta grows like e^{tau}: lam^q falls by about e^100 over [0, T] while
    C - K t moves by less than 10."""
    u = CrraUtility(p=-2.0)
    g = TimeGrid(horizon=50.0, n_steps=400)
    return u, g, theta_curve(u, g, a=-1.0)


FAST_MIXTURE = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.05, 5.0))
ORACLE_CASES = [
    (label, p, horizon)
    for label in ("exponential", "mixture", "hyperbolic")
    for p in (0.5, -2.0, 0.95)
    for horizon in (1.0, 50.0, 200.0)
] + [("fast_mixture", p, 50.0) for p in (0.5, -2.0, 0.95)]


def assert_matches_oracle(values, m, u, d, g, rel=1e-13):
    rhs, dfr, scale = dense_rhs_oracle(values, m, u, d, g)
    got_rhs = _integral_equation_rhs(values, _KernelPlan(m, u, d, g))
    got_dfr = differential_form_rhs(values, m, u, d, g)
    assert np.max(np.abs(got_rhs - rhs) / np.abs(rhs)) <= rel
    assert np.max(np.abs(got_dfr - dfr) / scale) <= rel


class TestKernelSumAgainstDenseOracle:
    @pytest.mark.parametrize("label,p,horizon", ORACLE_CASES)
    def test_theta_curve(self, market, all_discounts, label, p, horizon):
        d = FAST_MIXTURE if label == "fast_mixture" else all_discounts[label]
        u = CrraUtility(p=p)
        g = TimeGrid(horizon=horizon, n_steps=400)
        assert_matches_oracle(theta_curve(u, g), market, u, d, g)

    def test_bequest_curve_with_wide_summand(self, market, hyp_discount):
        u, g, lam = wide_bequest_case(market, hyp_discount)
        assert_matches_oracle(lam, market, u, hyp_discount, g)

    def test_steep_summand_with_flat_exponent(self, market, hyp_discount):
        u, g, lam = steep_theta_case(market, hyp_discount)
        assert_matches_oracle(lam, market, u, hyp_discount, g)

    @pytest.mark.parametrize("case", [wide_bequest_case, steep_theta_case])
    def test_fft_batches_never_change_the_bits(self, market, hyp_discount, monkeypatch,
                                               case):
        # a 64-point batch gives every block offset its own FFT call
        u, g, lam = case(market, hyp_discount)

        def sums():
            return (_integral_equation_rhs(lam, _KernelPlan(market, u, hyp_discount, g)),
                    differential_form_rhs(lam, market, u, hyp_discount, g))

        assert _Summand(_KernelPlan(market, u, hyp_discount, g), lam).B > 1
        whole = sums()
        monkeypatch.setattr(solver_module, "_FFT_BATCH", 64)
        assert_matches_oracle(lam, market, u, hyp_discount, g)
        for got, want in zip(sums(), whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("label", ["hyperbolic", "fast_mixture"])
    def test_long_horizon_solution(self, market, utility, all_discounts, label):
        # converged T = 50 solutions: the summand's log-size spans about 19
        # e-folds (hyperbolic) and 4 (fast mixture)
        d = FAST_MIXTURE if label == "fast_mixture" else all_discounts[label]
        g = TimeGrid(horizon=50.0, n_steps=400)
        lam = picard_solve(market, utility, d, g).values
        assert_matches_oracle(lam, market, utility, d, g)


def bisection_block_length(F):
    """The longest block length over whose aligned blocks F moves by at most
    _BLOCK_SPREAD, by bisection alone."""
    lo, hi = 1, len(F)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if max_block_spread(F, mid) <= _BLOCK_SPREAD:
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_block_spread(F, L):
    return max(np.ptp(F[i:i + L]) for i in range(0, len(F), L))


class TestBlockLength:
    def check(self, F):
        F = np.asarray(F, dtype=float)
        L = _block_length(F)
        if np.ptp(F) <= _BLOCK_SPREAD:
            assert L == len(F)
        else:
            assert L == bisection_block_length(F)
            assert max_block_spread(F, L) <= _BLOCK_SPREAD

    @pytest.mark.parametrize("F", [
        [0.0], [0.0, _BLOCK_SPREAD], [1.0, 1.0 - _BLOCK_SPREAD, 0.5],
        [0.0, np.nextafter(_BLOCK_SPREAD, 3.0)], [0.0, 1.0, 2.5, 3.0, 0.0],
        np.linspace(0.0, 100.0, 1001),
    ], ids=["single", "spread-at-bound", "spread-at-bound-interior", "just-over",
            "bump", "ramp"])
    def test_listed(self, F):
        self.check(F)

    @given(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=64))
    def test_one_block_exactly_when_the_bisection_would_give_one(self, F):
        self.check(F)


class TestGrowthConstant:
    def test_printed_arithmetic(self, market):
        assert growth_constant(market, CrraUtility(p=0.5)) == pytest.approx(0.08625)
        assert growth_constant(market, CrraUtility(p=-1.0)) == pytest.approx(-0.080625)

    def test_small_excess_return_limit(self):
        m = MarketParams.from_excess_return(r=0.05, mu=1e-9, sigma=0.2)
        assert growth_constant(m, CrraUtility(p=0.5)) == pytest.approx(0.025, abs=1e-9)


class TestSolveNoConsumption:
    def test_terminal_condition(self, market, utility, grid, all_discounts):
        for d in all_discounts.values():
            sol = solve_no_consumption(market, utility, d, grid)
            assert sol.values[-1] == 1.0

    def test_exponential_value_at_zero(self, market, utility, grid, exp_discount):
        sol = solve_no_consumption(market, utility, exp_discount, grid)
        assert sol.values[0] == pytest.approx(np.exp(-0.1) * np.exp(0.08625), rel=1e-12)

    def test_undiscounted_case(self, market, utility, grid):
        sol = solve_no_consumption(market, utility, ExponentialDiscount(rho=0.0), grid)
        assert sol.values[0] == pytest.approx(np.exp(0.08625), rel=1e-12)

    def test_matches_independent_ode_integration(self, market, utility, grid,
                                                 all_discounts):
        K = growth_constant(market, utility)
        for d in all_discounts.values():
            sol = solve_no_consumption(market, utility, d, grid)

            def rhs(t, y):
                tau = grid.horizon - t
                return -(d.h_prime(tau) / d.h(tau) + K) * y

            ref = solve_ivp(rhs, (grid.horizon, 0.0), [1.0],
                            t_eval=grid.nodes[::-1], rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(sol.values - ref.y[0][::-1])) <= 1e-8

    def test_pde_residual_small(self, market, utility, grid, all_discounts):
        for d in all_discounts.values():
            sol = solve_no_consumption(market, utility, d, grid)
            assert pde_residual_no_consumption(sol, market, utility, d) <= 1e-8

    def test_coarse_grid_returns_closed_form(self, market, utility):
        # ten steps resolve h(tau) = (1 + 20 tau)^-3 too coarsely for any
        # integrator; the closed form is exact on every grid
        d = HyperbolicDiscount(k=20.0, gamma=3.0)
        g = TimeGrid(horizon=1.0, n_steps=10)
        sol = solve_no_consumption(market, utility, d, g)
        tau = g.horizon - g.nodes
        K = growth_constant(market, utility)
        np.testing.assert_allclose(sol.values, d.h(tau) * np.exp(K * tau),
                                   rtol=1e-15)


class TestThetaClosedForm:
    def test_matches_independent_ode(self, market, utility, grid):
        cf = theta_closed_form(market, utility, 0.1, grid)
        ref = rk4_oracle_autonomous(market, utility, 0.1, grid)
        assert np.max(np.abs(cf.values - ref)) <= 1e-9

    def test_degenerate_rate_branch_is_continuous(self, market, utility, grid):
        K = growth_constant(market, utility)
        exact = theta_closed_form(market, utility, K, grid)  # a = 0 branch
        nearby = theta_closed_form(market, utility, K + 1e-10, grid)
        assert np.max(np.abs(exact.values - nearby.values)) <= 1e-8

    @pytest.mark.parametrize("p, horizon", [(0.5, 1.0), (-2.0, 50.0), (0.9, 20.0),
                                            (0.95, 10.0), (0.95, 100.0), (0.99, 20.0)])
    def test_log_lambda_matches_a_math_reference(self, market, p, horizon):
        # theta = e^{-a tau} (1 + (e^{a tau} - 1)/a), taken with math's log1p and
        # expm1; at p = 0.95, T = 100 and p = 0.99, T = 20 e^{-a tau} alone
        # leaves the float range
        u = CrraUtility(p=p)
        g = TimeGrid(horizon=horizon, n_steps=1000)
        a = (0.1 - growth_constant(market, u)) / (1.0 - p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cf = theta_closed_form(market, u, 0.1, g)
        ref = [(1.0 - p) * (-a * tau + math.log1p(math.expm1(a * tau) / a))
               for tau in g.horizon - g.nodes]
        assert np.max(np.abs(np.log(cf.values) - ref)) <= 1e-13

    @pytest.mark.parametrize("p, horizon", [(0.9, 20.0), (0.95, 10.0), (0.95, 20.0),
                                            (0.95, 100.0), (0.99, 20.0)])
    def test_tight_bound_is_the_closed_form(self, market, p, horizon):
        # K > rho: A = K - rho, and the upper envelope is the exponential
        # solution's lam(0); both come from one log-theta expression
        u = CrraUtility(p=p)
        g = TimeGrid(horizon=horizon, n_steps=1000)
        box = a_priori_bounds(market, u, ExponentialDiscount(rho=0.1), g)
        assert box.A == growth_constant(market, u) - 0.1
        cf = theta_closed_form(market, u, 0.1, g)
        assert cf.values[0] == box.upper
        assert box.contains(cf.values)


class TestPicard:
    def test_exponential_matches_closed_form(self, market, utility, grid,
                                             exp_discount):
        pic = picard_solve(market, utility, exp_discount, grid)
        cf = theta_closed_form(market, utility, exp_discount.rho, grid)
        assert np.max(np.abs(pic.values - cf.values)) <= 1e-5

    def test_vanishing_horizon(self, market, utility, exp_discount):
        g = TimeGrid(horizon=1e-6, n_steps=4)
        sol = picard_solve(market, utility, exp_discount, g)
        assert abs(sol.values[0] - 1.0) <= 1e-4

    def test_own_residual_within_tolerance(self, market, utility, grid,
                                           hyp_discount):
        tol = 1e-10
        sol = picard_solve(market, utility, hyp_discount, grid, tol=tol)
        assert residual_integral_equation(sol, market, utility, hyp_discount) <= 10 * tol

    def test_nonconvergence_raises_with_diagnostics(self, market):
        # mixture (0.5, 0.5; 0.01, 20), p = 0.99, T = 20, n = 500: near T the
        # grid is far too coarse for its fast rate, and node 497 alone takes
        # Newton steps that stop shrinking
        d = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.01, 20.0))
        with pytest.raises(NonConvergenceError, match="node 497 alone") as exc:
            picard_solve(market, CrraUtility(p=0.99), d, TimeGrid(horizon=20.0, n_steps=500))
        assert exc.value.iterations > 1
        assert exc.value.last_delta > 0

    def test_float_range_failure_has_no_delta(self, market, utility, coarse_grid,
                                              hyp_discount, monkeypatch):
        # every window's image overflows: the window halves down to the node
        # before T, whose failure raises; 201 nodes take 8 windows
        monkeypatch.setattr(solver_module, "_integral_equation_rhs",
                            lambda values, *a: np.full(len(values) - a[-1], np.inf))
        with pytest.raises(NonConvergenceError, match="float range") as exc:
            picard_solve(market, utility, hyp_discount, coarse_grid)
        assert exc.value.iterations == 8 and exc.value.last_delta is None

    def test_invalid_controls_rejected(self, market, utility, coarse_grid,
                                       hyp_discount):
        with pytest.raises(ParameterError):
            picard_solve(market, utility, hyp_discount, coarse_grid, tol=0.0)

    def test_peak_memory_linear_in_grid(self, market, utility, hyp_discount):
        # dense (n+1)^2 matrices would need several GB at n = 10^4
        g = TimeGrid(horizon=1.0, n_steps=10_000)
        tracemalloc.start()
        try:
            picard_solve(market, utility, hyp_discount, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.parametrize("p, horizon", [(0.95, 20.0), (-3.0, 50.0), (-3.0, 100.0),
                                            (-10.0, 50.0)])
    def test_converges_where_an_absolute_stop_stalls(self, market, hyp_discount, p,
                                                     horizon):
        # lam(0) is 1.6e9, 2.6e4, 4.3e4 and 1.8e13: an absolute change of
        # 1e-10 is below one ulp of lam at the first, and the damped iteration
        # ran out of sweeps or diverged on all four
        u, g, tol = CrraUtility(p=p), TimeGrid(horizon=horizon, n_steps=1000), 1e-10
        sol = picard_solve(market, u, hyp_discount, g, tol=tol)
        lam = sol.values
        assert np.all(np.isfinite(lam)) and np.all(lam > 0) and lam[-1] == 1.0
        res = residual_integral_equation(sol, market, u, hyp_discount)
        assert res <= 10 * tol * max(1.0, float(lam.max()))

    @pytest.mark.parametrize("rho, horizon", [(0.1, 1.0), (2.0, 1.0), (0.1, 5.0)])
    def test_converges_above_the_tight_upper_bound(self, market, rho, horizon):
        # with K > rho the box's upper end is the continuous lam(0), and the
        # trapezoid fixed point lies above it by the quadrature error (1.5e-6
        # in log lam at rho = 0.1, T = 1); clipped to the bound, the iterates
        # would stall at that distance
        u, d = CrraUtility(p=0.99), ExponentialDiscount(rho=rho)
        g, tol = TimeGrid(horizon=horizon, n_steps=500), 1e-10
        sol = picard_solve(market, u, d, g, tol=tol)
        res = residual_integral_equation(sol, market, u, d)
        assert res <= 10 * tol * max(1.0, float(sol.values.max()))
        exact = theta_closed_form(market, u, rho, g).values
        assert np.max(np.abs(np.log(sol.values / exact))) <= 1e-4
        assert not a_priori_bounds(market, u, d, g).contains(sol.values)

    def test_steep_discount_does_not_oscillate(self, market, utility):
        # undamped Picard sweeps still move lam by 0.07 after 200 sweeps here
        d = HyperbolicDiscount(k=20.0, gamma=3.0)
        g, tol = TimeGrid(horizon=100.0, n_steps=500), 1e-10
        sol = picard_solve(market, utility, d, g, tol=tol)
        res = residual_integral_equation(sol, market, utility, d)
        assert res <= 10 * tol * max(1.0, float(sol.values.max()))

    def test_shipped_hyperbolic_config_in_few_sweeps(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "hyperbolic.ini")
        sol = picard_solve(cfg.market, cfg.utility, cfg.discount, cfg.grid,
                           tol=cfg.solver.tol)
        assert sol.sweeps <= 10

    def test_overflowing_first_sweep_is_halved_away(self, market, hyp_discount):
        # from lam = 1 the whole-grid image at p = -10, T = 100 leaves the float
        # range; shorter windows marched back from T solve it
        g, u = TimeGrid(horizon=100.0, n_steps=1000), CrraUtility(p=-10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = picard_solve(market, u, hyp_discount, g)
        assert np.all(np.isfinite(sol.values)) and sol.values[0] > 1e13
        res = residual_integral_equation(sol, market, u, hyp_discount)
        assert res <= 1e-9 * float(sol.values.max())

    def test_sweep_count_only_on_picard(self, market, utility, coarse_grid,
                                        hyp_discount, mix_discount, exp_discount):
        assert picard_solve(market, utility, hyp_discount, coarse_grid).sweeps >= 1
        assert mixture_ode_solve(market, utility, mix_discount, coarse_grid).sweeps is None
        assert theta_closed_form(market, utility, exp_discount.rho,
                                 coarse_grid).sweeps is None


class TestSequentialOracle:
    # each fails at the parent of the marching solver: the first overflows on
    # its first sweep, the other two run out of Picard sweeps
    @pytest.mark.parametrize("p, d, horizon, lam0", [
        (-10.0, HyperbolicDiscount(k=1.0, gamma=1.0), 100.0, 4.79465e13),
        (0.99, HyperbolicDiscount(k=20.0, gamma=3.0), 1.0, 0.939898),
        (0.99, ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.01, 20.0)), 5.0,
         0.960387),
    ], ids=["hyp(1,1)-p-10-T100", "hyp(20,3)-p0.99-T1", "mix(0.01,20)-p0.99-T5"])
    def test_picard_matches_the_node_by_node_solve(self, market, p, d, horizon, lam0):
        u, g = CrraUtility(p=p), TimeGrid(horizon=horizon, n_steps=500)
        ref = sequential_solve(market, u, d, g)
        assert math.exp(ref[0]) == pytest.approx(lam0, rel=1e-5)
        got = np.log(picard_solve(market, u, d, g).values)
        assert np.max(np.abs(got - ref)) <= 1e-10


class TestMixtureOde:
    def test_single_term_degenerates(self, market, utility, grid):
        d1 = ExponentialMixtureDiscount(betas=(1.0,), rhos=(0.1,))
        mix = mixture_ode_solve(market, utility, d1, grid)
        cf = theta_closed_form(market, utility, 0.1, grid)
        assert np.max(np.abs(mix.values - cf.values)) <= 1e-5

    def test_terminal_conditions_all_components(self, market, utility, grid):
        d = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.05, 0.5))
        mix = mixture_ode_solve(market, utility, d, grid)
        assert mix.values[-1] == 1.0
        np.testing.assert_allclose(mix.components[:, -1], 1.0, atol=1e-14)

    def test_cross_solver_agreement(self, market, utility, grid):
        d = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.05, 0.5))
        mix = mixture_ode_solve(market, utility, d, grid)
        pic = picard_solve(market, utility, d, grid)
        assert abs(mix.values[0] - pic.values[0]) <= 1e-5

    def test_requires_mixture(self, market, utility, grid, hyp_discount):
        with pytest.raises(ParameterError):
            mixture_ode_solve(market, utility, hyp_discount, grid)

    def test_stiff_coarse_grid_is_a_step_failure(self, market, utility):
        # a 50/yr component rate takes RK4 at a 0.1 step below zero
        d = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.05, 50.0))
        with pytest.raises(StepFailureError):
            mixture_ode_solve(market, utility, d, TimeGrid(horizon=1.0, n_steps=10))

    def test_power_out_of_the_float_range_is_a_step_failure(self):
        # lam = 1e-300 at p = 0.99: lam^(1/(p-1)) = 1e30000, where a float
        # power raises instead of returning inf
        with pytest.raises(StepFailureError, match="float range"):
            _rk4_mixture([1e-300], [0.0], 0.99, [0.0, 1.0])

    @pytest.mark.parametrize("p", [0.5, -2.0, 0.9])
    @pytest.mark.parametrize("fitted", [False, True], ids=["two-term", "hyperbolic-fit"])
    def test_float_steps_match_the_numpy_stepper(self, market, grid, mix_discount,
                                                 hyp_discount, p, fitted):
        # the components step as Python floats in the order the numpy stepper
        # took, and lam is the same dot product, so every value rounds alike
        d = mix_discount
        if fitted:  # the fit that method = mixture makes of a hyperbolic discount
            d = fit_exponential_mixture(hyp_discount, 8, np.geomspace(0.01, 20.0, 24),
                                        grid).mixture
        u = CrraUtility(p=p)
        sol = mixture_ode_solve(market, u, d, grid)
        ref = numpy_mixture_components(market, u, d, grid)
        assert ref.shape == (len(d.betas), grid.n_steps + 1)
        np.testing.assert_array_equal(sol.components, ref)
        lam = np.array(d.betas) @ ref
        np.testing.assert_array_equal(sol.values[:-1], lam[:-1])


class TestMixtureFit:
    def test_identity_recovery(self, grid):
        d = ExponentialMixtureDiscount(betas=(0.3, 0.7), rhos=(0.05, 0.5))
        pool = np.array([0.01, 0.05, 0.2, 0.5, 2.0])
        fit = fit_exponential_mixture(d, 2, pool, grid)
        assert fit.sup_error_h <= 1e-10
        assert set(fit.mixture.rhos) == {0.05, 0.5}
        got = dict(zip(fit.mixture.rhos, fit.mixture.betas))
        assert got[0.05] == pytest.approx(0.3, abs=1e-6)
        assert got[0.5] == pytest.approx(0.7, abs=1e-6)

    def test_single_exponential_recovery(self, grid):
        fit = fit_exponential_mixture(ExponentialDiscount(rho=0.1), 1,
                                      np.array([0.1]), grid)
        assert fit.mixture.betas == pytest.approx((1.0,))

    def test_hyperbolic_fit_quality(self, grid, hyp_discount):
        pool = np.geomspace(0.01, 20.0, 24)
        fit = fit_exponential_mixture(hyp_discount, 8, pool, grid)
        assert fit.sup_error_h <= 1e-3

    def test_too_coarse_ceiling(self, grid, hyp_discount):
        pool = np.geomspace(0.01, 20.0, 24)
        with pytest.raises(FitTooCoarseError):
            fit_exponential_mixture(hyp_discount, 2, pool, grid, max_sup_error=1e-9)

    def test_weights_form_simplex(self, grid, hyp_discount):
        pool = np.geomspace(0.01, 20.0, 24)
        fit = fit_exponential_mixture(hyp_discount, 4, pool, grid)
        assert sum(fit.mixture.betas) == pytest.approx(1.0, abs=1e-9)
        assert all(b > 0 for b in fit.mixture.betas)


class TestBounds:
    def test_exponential_reduces_to_rate_gap(self, market, utility, grid,
                                             exp_discount):
        # for exponential h the second sup term vanishes and A = |K - rho|
        K = growth_constant(market, utility)
        box = a_priori_bounds(market, utility, exp_discount, grid)
        assert box.A == pytest.approx(abs(K - exp_discount.rho), rel=1e-12)

    def test_brackets_terminal_value(self, market, utility, grid, all_discounts):
        for d in all_discounts.values():
            box = a_priori_bounds(market, utility, d, grid)
            assert box.lower < 1 < box.upper

    def test_degenerate_horizon_sandwich(self, market, utility, exp_discount):
        g = TimeGrid(horizon=1e-6, n_steps=2)
        box = a_priori_bounds(market, utility, exp_discount, g)
        assert abs(box.lower - 1.0) <= 1e-3
        assert abs(box.upper - 1.0) <= 1e-3

    def test_every_solution_contained(self, market, utility, grid, all_discounts):
        for d in all_discounts.values():
            sol = picard_solve(market, utility, d, grid)
            box = a_priori_bounds(market, utility, d, grid)
            assert box.contains(sol.values)

    def test_upper_bound_finite_where_its_exponent_overflows(self, market,
                                                             hyp_discount):
        # e^{A T/(1-p)} alone exceeds the float range here (A T/(1-p) ~ 846)
        g = TimeGrid(horizon=20.0, n_steps=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            box = a_priori_bounds(market, CrraUtility(p=0.95), hyp_discount, g)
        assert np.isfinite(box.upper) and box.upper > 1.0

    def test_upper_bound_matches_the_gronwall_envelope(self, market, grid,
                                                       all_discounts):
        for p in (0.5, -2.0):
            for d in all_discounts.values():
                box = a_priori_bounds(market, CrraUtility(p=p), d, grid)
                c = (1.0 - p) / box.A
                direct = ((c + 1.0) * np.exp(box.A * grid.horizon / (1.0 - p)) - c) ** (1.0 - p)
                assert box.upper == pytest.approx(direct, rel=1e-13)


class TestResiduals:
    def test_negative_control_no_consumption_curve(self, market, utility, grid,
                                                   hyp_discount):
        # the bequest-only coefficient solves a DIFFERENT equation, so feeding
        # it to the full-consumption residual must light up
        nc = solve_no_consumption(market, utility, hyp_discount, grid)
        full = picard_solve(market, utility, hyp_discount, grid)
        r_nc = residual_integral_equation(nc, market, utility, hyp_discount)
        r_full = residual_integral_equation(full, market, utility, hyp_discount)
        assert r_nc > 100 * max(r_full, 1e-12)
        assert r_nc > 1e-2

    def test_perturbation_increases_residual(self, market, utility, grid,
                                             hyp_discount):
        sol = picard_solve(market, utility, hyp_discount, grid)
        bump = 1.0 + 0.01 * np.sin(np.pi * grid.nodes / grid.horizon)
        perturbed = ValueCurve(grid=grid, values=sol.values * bump,
                               derivative=sol.derivative, provenance="perturbed")
        r0 = residual_integral_equation(sol, market, utility, hyp_discount)
        r1 = residual_integral_equation(perturbed, market, utility, hyp_discount)
        assert r1 > 10 * max(r0, 1e-12)

    def test_differential_form_refinement_order(self, market, utility,
                                                hyp_discount):
        res = []
        for n in (250, 500):
            g = TimeGrid(horizon=1.0, n_steps=n)
            sol = picard_solve(market, utility, hyp_discount, g, tol=1e-12)
            res.append(residual_differential_form(sol, market, utility, hyp_discount))
        assert res[0] / res[1] >= 3.5  # second-order: halving dt ~ quarters it

    @pytest.mark.parametrize("horizon, n", [(1.0, 200), (50.0, 100)])
    def test_picard_derivative_is_the_differential_form_rhs(self, market, utility,
                                                            hyp_discount, horizon, n):
        # the residual may take the Picard curve's stored derivative as its
        # right-hand side: the same function of the same values, bit for bit
        g = TimeGrid(horizon=horizon, n_steps=n)
        sol = picard_solve(market, utility, hyp_discount, g)
        np.testing.assert_array_equal(
            sol.derivative, differential_form_rhs(sol.values, market, utility, hyp_discount, g))
        assert residual_differential_form(sol, market, utility, hyp_discount,
                                          rhs=sol.derivative) == \
            residual_differential_form(sol, market, utility, hyp_discount)

    def test_differential_form_exponential_kernel_vanishes(self, market, utility,
                                                           grid, exp_discount):
        sol = picard_solve(market, utility, exp_discount, grid, tol=1e-12)
        assert residual_differential_form(sol, market, utility, exp_discount) <= 1e-6

    def test_overflowing_consumption_gives_nan(self, market, coarse_grid,
                                               hyp_discount):
        # lam^(1/(p-1)) = (1e-20)^(-20) overflows, so the residual cannot be
        # evaluated and must not come back as a number
        n = coarse_grid.n_steps + 1
        vals = np.ones(n)
        vals[10:20] = 1e-20
        curve = ValueCurve(grid=coarse_grid, values=vals, derivative=np.zeros(n),
                           provenance="tiny")
        with np.errstate(over="ignore", invalid="ignore"):
            res = residual_integral_equation(curve, market, CrraUtility(p=0.95),
                                             hyp_discount)
        assert np.isnan(res)

    def test_constant_curve_negative_control(self, market, utility, coarse_grid,
                                             hyp_discount):
        n = coarse_grid.n_steps + 1
        flat = ValueCurve(grid=coarse_grid, values=np.ones(n),
                          derivative=np.zeros(n), provenance="constant")
        assert residual_differential_form(flat, market, utility, hyp_discount) > 1e-2


class TestValueCurveValidation:
    def test_rejects_nonpositive_values(self, coarse_grid):
        n = coarse_grid.n_steps + 1
        vals = np.ones(n)
        vals[3] = -0.5
        with pytest.raises(ParameterError):
            ValueCurve(grid=coarse_grid, values=vals, derivative=np.zeros(n),
                       provenance="bad")

    def test_rejects_interior_nan(self, coarse_grid):
        n = coarse_grid.n_steps + 1
        vals = np.ones(n)
        vals[5] = np.nan
        with pytest.raises(ParameterError):
            ValueCurve(grid=coarse_grid, values=vals, derivative=np.zeros(n),
                       provenance="bad")

    def test_rejects_infinite_derivative(self, coarse_grid):
        n = coarse_grid.n_steps + 1
        deriv = np.zeros(n)
        deriv[7] = np.inf
        with pytest.raises(ParameterError):
            ValueCurve(grid=coarse_grid, values=np.ones(n), derivative=deriv,
                       provenance="bad")

    def test_rejects_wrong_terminal(self, coarse_grid):
        n = coarse_grid.n_steps + 1
        with pytest.raises(ParameterError):
            ValueCurve(grid=coarse_grid, values=np.full(n, 1.1),
                       derivative=np.zeros(n), provenance="bad")

    def test_consumption_rate_formula(self, coarse_grid, utility):
        n = coarse_grid.n_steps + 1
        vals = np.linspace(2.0, 1.0, n)
        curve = ValueCurve(grid=coarse_grid, values=vals, derivative=np.zeros(n),
                           provenance="synthetic")
        np.testing.assert_allclose(curve.consumption_rate(utility),
                                   vals ** (1.0 / (utility.p - 1.0)))
