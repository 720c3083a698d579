import math
import os
import statistics
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import qmc

from dataclasses import replace

from eqmerton import simulate
from eqmerton.model import (CrraUtility, HyperbolicDiscount, MarketParams, ParameterError,
                            TimeGrid)
from eqmerton.policy import EquilibriumPolicy, equilibrium_policy, stock_fraction
from eqmerton.simulate import (
    STAT_THRESHOLD,
    SimConfig,
    Spike,
    _block_rng,
    _checkpoints,
    _combine_in_order,
    _terminal_control,
    equilibrium_leg,
    martingale_check,
    martingale_estimator,
    moment_check,
    moment_estimator,
    perturbation_estimator,
    perturbation_test,
    Block,
    SegmentSeries,
    run_pass,
    simulate_equilibrium,
    simulation_estimator,
    value_identity_estimator,
    verify_value_identity,
)
from eqmerton.rqmc import BrownianBridge, norm_ppf, sobol_directions, sobol_points, to_unit
from eqmerton.solver import (
    growth_constant,
    picard_solve,
    residual_integral_equation,
    solve_no_consumption,
)
from oracles import (
    bridged_paths,
    expm1_perturbation_estimator,
    leg_weights,
    path_major_chords,
    path_major_coarse,
)


@pytest.fixture(scope="module")
def sim_grid():
    return TimeGrid(horizon=1.0, n_steps=200)


@pytest.fixture(scope="module")
def hyp_policy(market, utility, hyp_discount, sim_grid):
    sol = picard_solve(market, utility, hyp_discount, sim_grid)
    return sol, equilibrium_policy(sol, market, utility)


def sim_cfg(sim_grid, n_paths=20000, seed=7, x0=1.0, **kw):
    return SimConfig(n_paths=n_paths, seed=seed, grid=sim_grid, x0=x0, **kw)


def blocks_of(monkeypatch, pairs):
    """Run every pass in blocks of the given number of antithetic pairs."""
    monkeypatch.setattr(simulate, "_BLOCK_PAIRS", pairs)


class TestDeterminism:
    def test_a_pass_runs_in_the_calling_thread(self, market, utility, hyp_discount,
                                              sim_grid, hyp_policy, monkeypatch):
        # however many CPUs the process may run on, a pass of many tiles
        # starts no thread
        _, pol = hyp_policy
        blocks_of(monkeypatch, 512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        cfg = sim_cfg(sim_grid, n_paths=10_001, seed=3)
        batch = simulate_equilibrium(pol, cfg, market, utility, hyp_discount,
                                     moment_orders=(utility.p,))
        assert batch.layout["n_tiles"] == 10 and started == []

    def test_tiles_of_a_pass_share_its_buffers(self, sim_grid):
        # the chords' buffer and the scratch are allocated once per pass: every
        # tile's chords are a view of the first tile's buffer, and every tile
        # gets the same scratch
        cfg = sim_cfg(sim_grid, n_paths=10_000, seed=9)
        plan = chord_pass(cfg, sim_grid.n_steps)
        seen = []
        simulate._accumulate_blocks(cfg, plan, lambda W, scratch, _r: seen.append((W, scratch)) or {})
        (W0, scratch0), *rest = seen
        assert len(seen) == 3 and W0.shape == (sim_grid.n_steps + 1, plan.rows)
        assert all(np.shares_memory(W, W0) and scratch is scratch0 for W, scratch in rest)

    def test_bit_identical_across_runs(self, market, utility, hyp_discount,
                                       sim_grid, hyp_policy):
        _, pol = hyp_policy
        a = simulate_equilibrium(pol, sim_cfg(sim_grid, n_paths=5000),
                                 market, utility, hyp_discount)
        b = simulate_equilibrium(pol, sim_cfg(sim_grid, n_paths=5000),
                                 market, utility, hyp_discount)
        assert a.j_estimate == b.j_estimate
        np.testing.assert_array_equal(a.mean_value_over_h, b.mean_value_over_h)

    def test_pairwise_combine_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        parts = [{"s": rng.normal(size=3)} for _ in range(7)]
        combined = _combine_in_order(iter(parts))
        direct = sum(p["s"] for p in parts)
        np.testing.assert_allclose(combined["s"], direct, rtol=1e-12)

    @pytest.mark.parametrize("n_blocks", range(1, 34))
    def test_running_combine_is_the_pairwise_tree(self, n_blocks):
        # partials of wildly different sizes, so that any other tree of
        # additions rounds differently
        rng = np.random.default_rng(n_blocks)
        parts = [{"s": rng.normal(size=4) * 10.0 ** rng.integers(-8, 9, size=4),
                  "t": rng.normal(size=2)} for _ in range(n_blocks)]
        combined = _combine_in_order(iter(parts))
        expected = pairwise_combine(parts)
        for key in expected:
            np.testing.assert_array_equal(combined[key], expected[key])

    def test_blocks_and_seeds_draw_different_words(self):
        # the raw 64-bit words a block's generator gives the shifts
        def draw(seed, b):
            return _block_rng(seed, b).bit_generator.random_raw(64)

        assert not np.array_equal(draw(7, 0), draw(7, 1))
        assert not np.array_equal(draw(7, 0), draw(8, 0))
        np.testing.assert_array_equal(draw(7, 1), draw(7, 1))


def pairwise_combine(items: list) -> dict:
    """Pairwise tree sum of per-block partials in block order, level by level:
    (0, 1), (2, 3), ... with an odd last item carried up to the next level."""
    if len(items) == 1:
        return items[0]
    paired = [{k: items[i][k] + items[i + 1][k] for k in items[i]}
              for i in range(0, len(items) - 1, 2)]
    if len(items) % 2:
        paired.append(items[-1])
    return pairwise_combine(paired)


class TestWealthDynamics:
    def test_riskless_limit(self, utility, exp_discount, sim_grid):
        # vanishing excess return with zero consumption: wealth compounds at r
        m = MarketParams.from_excess_return(r=0.05, mu=1e-12, sigma=0.2)
        nc = solve_no_consumption(m, utility, exp_discount, sim_grid)
        pol = EquilibriumPolicy(
            stock_fraction=m.mu / (m.sigma**2 * (1.0 - utility.p)),
            consumption_rate=np.zeros(sim_grid.n_steps + 1),
            curve=nc,
        )
        batch = simulate_equilibrium(pol, sim_cfg(sim_grid, n_paths=500),
                                     m, utility, exp_discount)
        assert abs(batch.mean_wealth[-1] - np.exp(0.05)) <= 1e-10

    def test_positivity_of_mean_wealth(self, market, utility, hyp_discount,
                                       sim_grid, hyp_policy):
        _, pol = hyp_policy
        batch = simulate_equilibrium(pol, sim_cfg(sim_grid, n_paths=2000),
                                     market, utility, hyp_discount)
        assert np.all(batch.mean_wealth > 0)

    def test_off_grid_start_time_rejected(self, market, utility, hyp_discount,
                                          sim_grid, hyp_policy):
        _, pol = hyp_policy
        with pytest.raises(ParameterError):
            simulate_equilibrium(pol, sim_cfg(sim_grid), market, utility,
                                 hyp_discount, start_time=0.0033)

    def test_config_validation(self, sim_grid):
        with pytest.raises(ParameterError):
            SimConfig(n_paths=0, seed=1, grid=sim_grid, x0=1.0)
        with pytest.raises(ParameterError):
            SimConfig(n_paths=10, seed=1, grid=sim_grid, x0=0.0)


class TestValueIdentity:
    def test_terminal_time_exact(self, market, utility, hyp_discount, sim_grid,
                                 hyp_policy):
        sol, pol = hyp_policy
        v = verify_value_identity(sol, sim_cfg(sim_grid), market, utility,
                                  hyp_discount, t=1.0, x=2.0, policy=pol)
        assert v.passed and v.statistic == 0.0

    def test_passes_at_start(self, market, utility, hyp_discount, sim_grid,
                             hyp_policy):
        sol, pol = hyp_policy
        v = verify_value_identity(sol, sim_cfg(sim_grid), market, utility,
                                  hyp_discount, t=0.0, x=1.0, policy=pol)
        assert v.passed, v.details

    def test_power_against_scaled_target(self, market, utility, hyp_discount,
                                         sim_grid, hyp_policy):
        sol, pol = hyp_policy
        v = verify_value_identity(sol, sim_cfg(sim_grid), market, utility,
                                  hyp_discount, t=0.0, x=1.0, policy=pol,
                                  target_scale=1.05)
        assert not v.passed and abs(v.statistic) > 3.0

    def test_std_error_scaling(self, market, utility, hyp_discount, sim_grid,
                               hyp_policy, monkeypatch):
        # replicates are the independent samples: at a fixed replicate size
        # (8 pairs here), 4x the paths is 4x the replicates and half the
        # standard error; a larger replicate integrates better still
        _, pol = hyp_policy
        monkeypatch.setattr(simulate, "_REPLICATE_PAIRS", 8)
        batches = [
            simulate_equilibrium(pol, sim_cfg(sim_grid, n_paths=n),
                                 market, utility, hyp_discount)
            for n in (1000, 4000)
        ]
        assert [b.n_replicates for b in batches] == [63, 250]
        ratio = batches[0].j_std_error / batches[1].j_std_error
        assert 1.6 <= ratio <= 2.4  # 1/sqrt(n) within 20%


class TestTerminalControl:
    @pytest.mark.parametrize("p", [0.5, -3.0, 0.9])
    def test_mean_is_zero_by_gauss_hermite(self, market, sim_grid, p):
        # W_n ~ N(0, n), so E[f(W_n)] = sum_i w_i f(sqrt(2 n) x_i) / sqrt(pi) with
        # the Gauss-Hermite nodes x_i and weights w_i, exact to rounding for
        # this entire integrand; at p = 0.9 the terminal log X^p has spread 3.2
        n = sim_grid.n_steps
        a = p * market.sigma * np.sqrt(sim_grid.dt) * stock_fraction(market, CrraUtility(p=p))
        x, w = np.polynomial.hermite.hermgauss(120)
        mean = w @ _terminal_control(np.sqrt(2.0 * n) * x, a, n) / np.sqrt(np.pi)
        assert abs(mean) <= 1e-13, mean

    def test_a_leg_without_stock_gives_the_plain_estimate(self, market, utility,
                                                          hyp_discount, sim_grid, hyp_policy):
        # sigma zeta = 0: the control is 0 on every pair, so beta = 0 and the
        # controlled mean and standard error are the plain ones, bit for bit
        sol, pol = hyp_policy
        cfg = sim_cfg(sim_grid, n_paths=3001, seed=5)
        leg = replace(equilibrium_leg(pol, cfg, market, utility, hyp_discount), zeta=0.0)
        sim = simulation_estimator(pol, sim_grid, leg, hyp_discount)
        sums, batch, verdict = run_pass(
            cfg, [sums_of(sim), sim, value_identity_estimator(sol, leg, 0.0)], leg)[0]
        assert sums["c"] == sums["c_sq"] == 0.0
        # the plain mean, and the standard error of the plain replicate means
        mean = sums["j"] / cfg.n_pairs
        se = simulate._replicate_se(sums["j_rep"] / cfg.replicate_pairs)
        assert batch.j_control_beta == verdict.control_beta == 0.0
        assert (batch.j_estimate, batch.j_std_error, batch.j_std_error_uncontrolled) == \
            (mean, se, se)
        assert verdict.std_error == verdict.std_error_uncontrolled == se

    def test_three_standard_error_gate_keeps_its_false_alarm_rate(self, market, utility,
                                                                  hyp_discount):
        # the value identity's z is a t statistic over R replicates, gated at
        # the Student-t quantile with the two-sided rate of |z| > 3, 0.27 %.
        # 512 paths take the default sizing, 8 replicates of 32 pairs (7
        # degrees of freedom, quantile 4.53), where |z| > 3 would fire on
        # about 2 % of seeds. Over 3000 seeds the nominal rate gives 8.1
        # firings, and more than 18 has probability below 0.1 %; at three
        # times the rate (24.3 expected) 18 or fewer has 13 %. The
        # statistic's spread is that of t with 7 degrees of freedom,
        # sqrt(7 / 5) = 1.18, and the reported standard error matches the
        # seeds' spread of the estimate
        g = TimeGrid(horizon=1.0, n_steps=20)
        sol = picard_solve(market, utility, hyp_discount, g)
        cfg = SimConfig(n_paths=512, seed=0, grid=g)
        assert (cfg.replicate_pairs, cfg.n_replicates) == (32, 8)
        leg = equilibrium_leg(equilibrium_policy(sol, market, utility), cfg, market, utility,
                              hyp_discount)
        est = value_identity_estimator(sol, leg, 0.0)
        verdicts = [run_pass(replace(cfg, seed=seed), [est], leg)[0][0]
                    for seed in range(3000)]
        threshold = verdicts[0].threshold
        assert threshold == pytest.approx(4.52997, abs=1e-5)
        z = np.array([v.statistic for v in verdicts])
        assert np.sum(np.abs(z) > threshold) <= 18
        assert [v.passed for v in verdicts] == list(np.abs(z) <= threshold)
        assert abs(z.mean()) < 4 * 1.18 / np.sqrt(len(z))
        assert 0.9 * 1.18 < z.std() < 1.1 * 1.18
        target = sol.values[0] / utility.p
        estimates = target + z * np.array([v.std_error for v in verdicts])
        rms_se = np.sqrt(np.mean([v.std_error**2 for v in verdicts]))
        assert 0.9 < rms_se / estimates.std() < 1.1

    def test_gate_is_the_student_t_quantile_at_the_replicates_degrees_of_freedom(self):
        from scipy import stats

        # the series' rounding grows with its dof / 2 terms: 2.5e-12 at 9999
        rate = stats.norm.sf(STAT_THRESHOLD) * 2
        for dof in (1, 2, 3, 7, 31, 39, 97, 1000, 9999):
            assert simulate._t_threshold(dof) == pytest.approx(
                stats.t.isf(rate / 2, dof), rel=1e-11), dof
        assert simulate._t_threshold(0) == STAT_THRESHOLD


class TestMartingale:
    def test_flat_and_decreasing(self, market, utility, hyp_discount, sim_grid):
        nc = solve_no_consumption(market, utility, hyp_discount, sim_grid)
        flat, decreasing = martingale_check(nc, sim_cfg(sim_grid), market,
                                            utility, hyp_discount)
        assert flat.passed, flat.details
        # the default suboptimal fraction holds stock, so z measures a real
        # decrease, not the rounding of deterministic paths
        assert decreasing.passed and decreasing.statistic < 100, decreasing.details

    def test_decrease_check_has_power_and_a_negative_control(
            self, market, utility, hyp_discount, sim_grid):
        # half the Merton fraction has a lower expected utility growth, so the
        # checkpoint means fall beyond noise; at the full fraction they are
        # flat and the check must fail. With no stock (zeta = 0) every path is
        # deterministic and z would only measure rounding.
        nc = solve_no_consumption(market, utility, hyp_discount, sim_grid)
        frac = stock_fraction(market, utility)
        _, half = martingale_check(nc, sim_cfg(sim_grid), market, utility,
                                   hyp_discount, suboptimal_zeta=frac / 2)
        _, full = martingale_check(nc, sim_cfg(sim_grid), market, utility,
                                   hyp_discount, suboptimal_zeta=frac)
        assert half.passed and half.statistic < 100, half.statistic
        assert not full.passed, full.statistic

    def test_single_checkpoint_vacuous(self, market, utility, hyp_discount,
                                       sim_grid):
        nc = solve_no_consumption(market, utility, hyp_discount, sim_grid)
        flat, decreasing = martingale_check(nc, sim_cfg(sim_grid, n_paths=200),
                                            market, utility, hyp_discount,
                                            n_checkpoints=1)
        assert flat.passed and decreasing.passed


class TestMomentLaw:
    def test_growth_at_rate_k(self, market, utility, sim_grid):
        K = growth_constant(market, utility)
        verdicts = moment_check(sim_cfg(sim_grid), market, utility,
                                exponent_q=utility.p, growth_rate=K)
        assert all(v.passed for v in verdicts), [v.details for v in verdicts]


class TestPerturbation:
    def test_identical_spike_exactly_zero(self, market, utility, hyp_discount,
                                          sim_grid, hyp_policy):
        _, pol = hyp_policy
        rows = perturbation_test(pol, sim_cfg(sim_grid, n_paths=2000), market,
                                 utility, hyp_discount, t=0.0, epsilons=[0.1],
                                 spike=Spike(zeta=pol.stock_fraction))
        assert rows[0].d_estimate == 0.0
        assert rows[0].std_error == 0.0
        assert rows[0].z == 0.0

    def test_gross_spike_detected(self, market, utility, hyp_discount, sim_grid,
                                  hyp_policy):
        _, pol = hyp_policy
        rows = perturbation_test(
            pol, sim_cfg(sim_grid, n_paths=60000), market, utility, hyp_discount,
            t=0.0, epsilons=[0.25],
            spike=Spike(zeta=pol.stock_fraction + 2.0),
        )
        assert rows[0].d_estimate > 0
        assert rows[0].z > 3.0

    def test_small_spike_first_order_stationary(self, market, utility,
                                                hyp_discount, sim_grid,
                                                hyp_policy):
        _, pol = hyp_policy
        rows = perturbation_test(
            pol, sim_cfg(sim_grid), market, utility, hyp_discount,
            t=0.0, epsilons=[0.1],
            spike=Spike(zeta=pol.stock_fraction + 0.01),
        )
        assert abs(rows[0].z) <= 3.0

    def test_bad_epsilon_rejected(self, market, utility, hyp_discount, sim_grid,
                                  hyp_policy):
        _, pol = hyp_policy
        with pytest.raises(ParameterError):
            perturbation_test(pol, sim_cfg(sim_grid, n_paths=200), market,
                              utility, hyp_discount, t=0.0, epsilons=[-0.1],
                              spike=Spike(zeta=0.0))

    def test_zero_std_error_keeps_the_sign_of_d(self, market, utility,
                                                hyp_discount, sim_grid, hyp_policy):
        # one antithetic pair has se = 0; where this spike raises the pair's
        # average J (D < 0) the z must read as -inf, not as a detected loss.
        # Seeds 0-15 hold pairs of either sign
        _, pol = hyp_policy
        rows = [perturbation_test(pol, sim_cfg(sim_grid, n_paths=1, seed=seed), market,
                                  utility, hyp_discount, t=0.0, epsilons=[0.25],
                                  spike=Spike(zeta=pol.stock_fraction + 1.0))[0]
                for seed in range(16)]
        assert all(row.std_error == 0.0 for row in rows)
        assert all(row.z == np.copysign(np.inf, row.d_estimate) for row in rows)
        assert {np.sign(row.d_estimate) for row in rows} == {-1.0, 1.0}

    @pytest.mark.parametrize("k, gamma, horizon, n_steps, n_paths", [
        # verify-simulate's pass-0 verify input at benchmark seed 1
        pytest.param(0.9489377380637841, 0.9167417969060843, 1.0, 100, 100_000,
                     id="verify-simulate-pass0"),
        pytest.param(20.0, 3.0, 50.0, 1000, 20_000, id="hyp-20-3-T50"),
    ])
    def test_window_as_exponential_sums_matches_the_expm1_form(self, market, utility, k,
                                                                gamma, horizon, n_steps,
                                                                n_paths):
        # verify's gross and first-order spikes, each once as the library
        # sums the window and once in the expm1 form (``oracles``), on common
        # random numbers in one pass: D moves by at most 1e-6 standard
        # errors. Both legs take the chords; about 0.7 s for both cases
        d = HyperbolicDiscount(k=k, gamma=gamma)
        g = TimeGrid(horizon=horizon, n_steps=n_steps)
        pol = equilibrium_policy(picard_solve(market, utility, d, g), market, utility)
        cfg = SimConfig(n_paths=n_paths, seed=42, grid=g)
        leg = equilibrium_leg(pol, cfg, market, utility, d)
        assert not leg.takes_moments
        spikes = [(0.25 * horizon, Spike(zeta=pol.stock_fraction + 1.0)),
                  (0.1 * horizon, Spike(zeta=pol.stock_fraction + 0.01))]
        rows = run_pass(cfg, [estimator(leg, eps, spike)
                              for estimator in (perturbation_estimator,
                                                expm1_perturbation_estimator)
                              for eps, spike in spikes], leg)[0]
        for row, reference in zip(rows[:2], rows[2:]):
            assert row.std_error > 0
            assert abs(row.d_estimate - reference.d_estimate) <= 1e-6 * reference.std_error, \
                (row, reference)

    def test_epsilon_ladder_matches_single_widths(self, market, utility, hyp_discount,
                                                  sim_grid, hyp_policy, monkeypatch):
        _, pol = hyp_policy
        blocks_of(monkeypatch, 512)
        cfg = sim_cfg(sim_grid, n_paths=3000)
        spike = Spike(zeta=pol.stock_fraction + 0.5)
        ladder = perturbation_test(pol, cfg, market, utility, hyp_discount, t=0.0,
                                   epsilons=[0.1, 0.25], spike=spike)
        single = [perturbation_test(pol, cfg, market, utility, hyp_discount, t=0.0,
                                    epsilons=[eps], spike=spike)[0]
                  for eps in (0.1, 0.25)]
        assert ladder == single


class TestDiscreteFunctional:
    @pytest.mark.parametrize("discount", ["hyperbolic", "exponential", "mixture"])
    @pytest.mark.parametrize("p", [0.5, -2.0])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_expected_functional_is_the_value(self, market, all_discounts, sim_grid,
                                              discount, p, t0):
        # every leg is lognormal, E[exp(p vol W_k)] = exp((p vol)^2 k / 2), so the
        # expected discrete functional is exact without sampling; with the
        # trapezoid drift it is the quantity the integral equation discretizes
        u, d = CrraUtility(p=p), all_discounts[discount]
        sol = picard_solve(market, u, d, sim_grid)
        cfg = sim_cfg(sim_grid, x0=1.7)
        leg = equilibrium_leg(equilibrium_policy(sol, market, u), cfg, market, u, d, t0)
        k = np.arange(leg.n_steps + 1)
        expected_j = leg_weights(leg) @ np.exp((p * leg.vol) ** 2 * k / 2)
        target = np.interp(t0, sim_grid.nodes, sol.values) * cfg.x0**p / p
        assert abs(expected_j / target - 1) <= 1e-9

    @pytest.mark.parametrize("discount", ["hyperbolic", "exponential", "mixture"])
    @pytest.mark.parametrize("p", [0.5, -2.0])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_exact_mean_is_the_value_within_the_residual(self, market, all_discounts,
                                                         sim_grid, discount, p, t0):
        # the identity is exact for the discrete solution, so the recorded
        # exact mean misses lam(t0) x^p / p by the solve's residual in lam
        # (sup norm) at most, times x^p / p; twice that, and a few ulp of
        # the sum's rounding, is the bound
        u, d = CrraUtility(p=p), all_discounts[discount]
        sol = picard_solve(market, u, d, sim_grid)
        cfg = sim_cfg(sim_grid, x0=1.7)
        leg = equilibrium_leg(equilibrium_policy(sol, market, u), cfg, market, u, d, t0)
        target = np.interp(t0, sim_grid.nodes, sol.values) * cfg.x0**p / p
        residual = residual_integral_equation(sol, market, u, d)
        assert abs(leg.j_exact - target) <= (2 * residual * abs(cfg.x0**p / p)
                                             + 8 * np.finfo(float).eps * abs(target))
        batch = simulate_equilibrium(equilibrium_policy(sol, market, u),
                                     replace(cfg, n_paths=64), market, u, d, start_time=t0)
        assert batch.j_exact == leg.j_exact


class TestOnePass:
    def test_fused_pass_matches_separate_checks(self, market, utility, hyp_discount,
                                                sim_grid, hyp_policy, monkeypatch):
        sol, pol = hyp_policy
        blocks_of(monkeypatch, 512)
        cfg = sim_cfg(sim_grid, n_paths=5000)
        nc = solve_no_consumption(market, utility, hyp_discount, sim_grid)
        spike = Spike(zeta=pol.stock_fraction + 1.0)
        leg = equilibrium_leg(pol, cfg, market, utility, hyp_discount)
        fused = run_pass(cfg, [
            value_identity_estimator(sol, leg, 0.0),
            martingale_estimator(nc, cfg, market, utility, hyp_discount),
            perturbation_estimator(leg, 0.25, spike),
        ], leg)[0]
        assert fused == [
            verify_value_identity(sol, cfg, market, utility, hyp_discount, t=0.0,
                                  x=cfg.x0, policy=pol),
            martingale_check(nc, cfg, market, utility, hyp_discount),
            perturbation_test(pol, cfg, market, utility, hyp_discount, t=0.0,
                              epsilons=[0.25], spike=spike)[0],
        ]

    @pytest.mark.parametrize("n_steps", [200, 1000], ids=["chords", "moments"])
    def test_estimator_order_changes_no_result(self, market, utility, hyp_discount, n_steps):
        # the estimators of a tile share its ``Block.powers`` and its scratch
        # buffer, which powers, the spikes' windows and the per-node sums
        # each overwrite: run first or last, each reads the same bits. Two
        # tiles of the pass on either leg
        g = TimeGrid(horizon=1.0, n_steps=n_steps)
        sol = picard_solve(market, utility, hyp_discount, g)
        pol = equilibrium_policy(sol, market, utility)
        nc = solve_no_consumption(market, utility, hyp_discount, g)
        cfg = SimConfig(n_paths=5000, seed=3, grid=g)
        leg = equilibrium_leg(pol, cfg, market, utility, hyp_discount)
        assert leg.takes_moments == (n_steps == 1000)
        estimators = [
            simulation_estimator(pol, g, leg, hyp_discount, (utility.p, 2 * utility.p)),
            value_identity_estimator(sol, leg, 0.0),
            perturbation_estimator(leg, 0.25, Spike(zeta=pol.stock_fraction + 1.0)),
            perturbation_estimator(leg, 0.1, Spike(zeta=pol.stock_fraction + 0.01)),
            martingale_estimator(nc, cfg, market, utility, hyp_discount),
        ]
        forward, layout = run_pass(cfg, estimators, leg)
        assert layout["n_tiles"] == 2
        backward = run_pass(cfg, estimators[::-1], leg)[0][::-1]
        (batch, *rest), (batch_b, *rest_b) = forward, backward
        assert rest == rest_b
        for key, value in vars(batch).items():
            np.testing.assert_array_equal(value, vars(batch_b)[key], err_msg=key)

    @pytest.mark.parametrize("n_steps", [200, 1000], ids=["chords", "moments"])
    def test_only_a_pass_that_reads_the_node_sums_forms_them(self, market, utility,
                                                             hyp_discount, n_steps,
                                                             monkeypatch):
        # simulate's estimator takes the per-node sums of wealth and of X^p
        # (``Block.pair_sums``); the value identity and the spikes read J, C
        # and the tails alone
        g = TimeGrid(horizon=1.0, n_steps=n_steps)
        sol = picard_solve(market, utility, hyp_discount, g)
        pol = equilibrium_policy(sol, market, utility)
        cfg = SimConfig(n_paths=256, seed=1, grid=g)
        leg = equilibrium_leg(pol, cfg, market, utility, hyp_discount)
        assert leg.takes_moments == (n_steps == 1000)
        seen = []
        pair_sums = Block.pair_sums
        monkeypatch.setattr(Block, "pair_sums",
                            lambda blk, b: seen.append(b) or pair_sums(blk, b))
        readers = {"value identity and spike": (value_identity_estimator(sol, leg, 0.0),
                                                perturbation_estimator(leg, 0.1, Spike(zeta=0.1))),
                   "simulate": (simulation_estimator(pol, g, leg, hyp_discount),)}
        for name, estimators in readers.items():
            seen.clear()
            run_pass(cfg, list(estimators), leg)
            assert set(seen) == ({leg.vol, utility.p * leg.vol} if name == "simulate"
                                 else set()), name


# ---------------------------------------------------------------------------
# Test-owned oracle: every leg's log-wealth stepped on its own, as a
# cumulative sum of its log increments, with J as the trapezoid quadrature of
# h (c X)^p / p plus the bequest. A step's drift takes the trapezoid average
# of the consumption ratio at its two nodes. Each block's paths are drawn at
# their coarse nodes as documented, spelled out here apart from the library:
# each replicate's digitally shifted Sobol net (scipy's unrandomized points,
# shifted point by point) through the standard library's AS241 and the
# bridge recursion. Every per-path quantity is then its mean given those
# coarse values, by Gaussian conditioning in matrix form: given Wc = A Z the
# increments Z ~ N(0, I) have mean A^T (A A^T)^{-1} Wc and covariance
# I - A^T (A A^T)^{-1} A, a log-wealth linear in Z is normal with the mean
# and variance these give, and E[X^q | Wc] = exp(q mean + q^2 var / 2). The
# partner of each path runs on -Wc. Every sample statistic is taken over
# the pair averages, per replicate where the library keeps replicate sums.
# The control of E[J] is each pair's average X_T^p over the leg's lognormal
# E[X_T^p], less one (W_T is a coarse value). The library instead reads
# every leg off the chords of the coarse values and the bridge variances;
# the block sums must agree to rounding.

def oracle_conditioning(n_sub):
    """(K, S): given the coarse values the increments have mean Wc[:, 1:] @ K
    and covariance S."""
    A = (np.arange(n_sub) < np.array(oracle_coarse_nodes(n_sub)[1:])[:, None]).astype(float)
    K = np.linalg.solve(A @ A.T, A)
    return K, np.eye(n_sub) - A.T @ K


def oracle_log_growth(mean_Z, cov_Z, m, zeta_steps, c_nodes, dt):
    """Mean (rows x nodes) and variance (nodes) of log(X / x0) at every node
    given the coarse values: the cumulative sum of the log increments, whose
    normals have mean mean_Z and covariance cov_Z."""
    c_steps = (c_nodes[:-1] + c_nodes[1:]) / 2
    drift = (m.r + m.mu * zeta_steps - c_steps - 0.5 * m.sigma**2 * zeta_steps**2) * dt
    vol = m.sigma * zeta_steps * np.sqrt(dt)
    mean = np.cumsum(drift[None, :] + vol[None, :] * mean_Z, axis=1)
    T = np.tril(np.ones((len(vol) + 1, len(vol))), -1) * vol  # T[k, i] = vol_i, i < k
    return (np.concatenate([np.zeros((len(mean_Z), 1)), mean], axis=1),
            ((T @ cov_Z) * T).sum(axis=1))


def oracle_power(mean_Z, cov_Z, x0, m, zeta_steps, c_nodes, dt, q):
    """E[X^q | coarse values] at every node."""
    mean, var = oracle_log_growth(mean_Z, cov_Z, m, zeta_steps, c_nodes, dt)
    return x0**q * np.exp(q * mean + 0.5 * q * q * var)


def oracle_control(mean_Z, cov_Z, m, zeta_steps, c_nodes, dt, p):
    """Each pair's average X_T^p over its lognormal mean, less one: the
    control of J. log(X_T / x0) is normal with mean the steps' drifts and
    variance the sum of (sigma zeta)^2 dt; each path's ratio less one is
    expm1 of its log, so that the control keeps its digits where it is
    small. W_T is a coarse value, so the path's log X_T is its mean given
    them."""
    c_steps = (c_nodes[:-1] + c_nodes[1:]) / 2
    drift = np.sum((m.r + m.mu * zeta_steps - c_steps - 0.5 * m.sigma**2 * zeta_steps**2) * dt)
    log_mean = p * drift + 0.5 * p**2 * np.sum(m.sigma**2 * zeta_steps**2 * dt)
    log_growth = oracle_log_growth(mean_Z, cov_Z, m, zeta_steps, c_nodes, dt)[0][:, -1]
    return pair_average(np.expm1(p * log_growth - log_mean))


def oracle_j(Xp, c, h, dt, p):
    """The utility functional from X^p (or its mean) at every node."""
    J = h[-1] * Xp[:, -1] / p
    if np.any(c != 0.0):
        w = np.full(Xp.shape[1], dt)
        w[0] = w[-1] = dt / 2.0
        J = (h[None, :] * c[None, :] ** p * Xp / p) @ w + J
    return J


def stream(seed, b):
    """The documented generator of block b, spelled out independently of the
    library's helper."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def oracle_uniforms(words, rep, dim):
    """One replicate: scipy's first rep unrandomized Sobol points in dim
    coordinates, put in index order (scipy's point g is index g ^ (g >> 1)),
    each coordinate's 52 digits XOR the digital shift e, the top 52 bits of
    the replicate's word for that coordinate (words: dim); then the centre of
    each point's interval of width 2^-52."""
    g = np.arange(rep)
    points = np.empty((rep, dim))
    points[g ^ (g >> 1)] = qmc.Sobol(dim, scramble=False).random(rep)
    X = (points * 2.0**52).astype(np.uint64)
    return ((X ^ (words >> np.uint64(12))).astype(np.float64) + 0.5) * 2.0**-52


def oracle_coarse_nodes(n_sub):
    """The documented coarse nodes: N = 2^min(4, floor(log2 n_sub)) of them,
    s = n_sub // N steps apart, the last at n_sub."""
    N = 2 ** min(4, int(np.log2(n_sub)))
    s = n_sub // N
    return [j * s for j in range(N)] + [n_sub]


def oracle_bridge_values(xi, nodes):
    """W at nodes[1:] from normals xi: the terminal node first, then the
    midpoints level by level, left to right, each drawing the next
    coordinate."""
    N = len(nodes) - 1
    W = {0: np.zeros(len(xi)), N: np.sqrt(nodes[N]) * xi[:, 0]}
    d, width = 1, N
    while width > 1:
        half = width // 2
        for mid in range(half, N, width):
            left, right = mid - half, mid + half
            tl, tm, tr = nodes[left], nodes[mid], nodes[right]
            W[mid] = (((tr - tm) * W[left] + (tm - tl) * W[right]) / (tr - tl)
                      + np.sqrt((tm - tl) * (tr - tm) / (tr - tl)) * xi[:, d])
            d += 1
        width = half
    return np.stack([W[j] for j in range(1, N + 1)], axis=1)


def oracle_paths(cfg, n_sub):
    """The stream's blocks: each block's drawn paths' values at the coarse
    nodes 0..N (rows x (N + 1)) and the pass-wide replicate of each. Block b
    holds ``cfg.block_pairs`` pairs, up to the rounded-up n_pairs, in
    replicates of ``cfg.replicate_pairs``. Its generator
    SFC64(SeedSequence(seed, spawn_key=(b,))) draws the shift word of each
    coordinate of each replicate in turn, and nothing else."""
    per_block, rep = cfg.block_pairs, cfg.replicate_pairs
    nodes = oracle_coarse_nodes(n_sub)
    dim = len(nodes) - 1
    inv_cdf = np.vectorize(statistics.NormalDist().inv_cdf)
    for b in range(-(-cfg.n_pairs // per_block)):
        m_b = min(per_block, cfg.n_pairs - b * per_block)
        words = stream(cfg.seed, b).bit_generator.random_raw(m_b // rep * dim)
        u = np.concatenate([oracle_uniforms(w, rep, dim)
                            for w in words.reshape(m_b // rep, dim)])
        Wc = np.concatenate([np.zeros((m_b, 1)), oracle_bridge_values(inv_cdf(u), nodes)], axis=1)
        yield Wc, (b * per_block + np.arange(m_b)) // rep


def oracle_chords(cfg, n_sub):
    """The stream's blocks of drawn paths' means given their coarse values
    (rows x (n_sub + 1)), with each path's replicate."""
    K, _ = oracle_conditioning(n_sub)
    for Wc, replicate in oracle_paths(cfg, n_sub):
        mean = np.cumsum(Wc[:, 1:] @ K, axis=1)
        yield np.concatenate([np.zeros((len(Wc), 1)), mean], axis=1), replicate


def oracle_increments(cfg, n_sub):
    """The stream's blocks of increment means given the coarse values, drawn
    paths then their partners' (the negation), with each pair's replicate and
    the increments' covariance given the coarse values."""
    K, S = oracle_conditioning(n_sub)
    for Wc, replicate in oracle_paths(cfg, n_sub):
        mean_Z = Wc[:, 1:] @ K
        yield np.concatenate([mean_Z, -mean_Z]), S, replicate


def pair_average(v):
    """Average of the two paths of each pair: rows i and m + i of a block."""
    return v.reshape(2, -1, *v.shape[1:]).mean(axis=0)


def oracle_sums(cfg, n_sub, block_fn):
    """Sums of block_fn(mean_Z, cov_Z, replicate) over the stream's blocks,
    drawn as the library draws them."""
    total = {}
    for mean_Z, cov_Z, replicate in oracle_increments(cfg, n_sub):
        for key, value in block_fn(mean_Z, cov_Z, replicate).items():
            total[key] = total.get(key, 0.0) + value
    return total


def by_replicate(cfg, replicate, v):
    return np.bincount(replicate, weights=v, minlength=cfg.n_replicates)


def sums_of(est):
    """The estimator with its finisher replaced by one returning the raw sums."""
    return est[0], lambda sums, n: sums


def oracle_leg_sums(pol, cfg, m, u, d, t0, spike, eps):
    """Sums of the simulation summary, value identity (with its control) and
    perturbation estimators on the equilibrium leg from (t0, x0)."""
    g, p, dt = cfg.grid, u.p, cfg.grid.dt
    nodes = g.nodes[int(round(t0 / dt)):]
    n_sub = len(nodes) - 1
    c, h = pol.consumption_at(nodes), d.h(nodes - nodes[0])
    voh_scale = np.interp(nodes, pol.grid.nodes, pol.curve.values) / d.h(g.horizon - nodes)
    zeta = np.full(n_sub, pol.stock_fraction)
    w = int(round(eps / dt))
    zeta_spk, c_spk = zeta.copy(), c.copy()
    zeta_spk[:w], c_spk[:w] = spike.zeta, spike.consumption

    def block(mean_Z, S, replicate):
        def power(zeta_steps, c_nodes, q):
            return oracle_power(mean_Z, S, cfg.x0, m, zeta_steps, c_nodes, dt, q)

        Xp = power(zeta, c, p)
        J = oracle_j(Xp, c, h, dt, p)
        D = (J - oracle_j(power(zeta_spk, c_spk, p), c_spk, h, dt, p)) / eps
        C = oracle_control(mean_Z, S, m, zeta, c, dt, p)
        Jp = pair_average(J)
        out = {"wealth": power(zeta, c, 1.0).sum(axis=0), "voh": (voh_scale * Xp / p).sum(axis=0),
               "j": Jp.sum(), "c": C.sum(), "c_sq": (C**2).sum(), "jc": Jp @ C,
               "j_rep": by_replicate(cfg, replicate, Jp),
               "c_rep": by_replicate(cfg, replicate, C),
               # the magnitude of the signed sums' terms (see assert_sums_match)
               "c|abs": np.abs(C).sum(), "jc|abs": np.abs(Jp) @ np.abs(C),
               "j_rep|abs": by_replicate(cfg, replicate, np.abs(Jp)),
               "c_rep|abs": by_replicate(cfg, replicate, np.abs(C))}
        pairs = {"d": D, **{f"m{q}": power(zeta, c, q)[:, -1] for q in (p, 2 * p)}}
        for key, v in pairs.items():
            a = pair_average(v)
            out[key], out[f"{key}_sq"] = a.sum(), (a**2).sum()
        return out

    return oracle_sums(cfg, n_sub, block)


def oracle_grid_sums(nc, cfg, m, u, d):
    """Sums of the martingale (fractions eq and its default suboptimal eq / 2)
    and moment (q = p) estimators, which span the whole grid."""
    g, p = cfg.grid, u.p
    ck_mart, ck_mom = _checkpoints(g, 5), _checkpoints(g, 6)[1:]
    scale = (np.interp(g.nodes[ck_mart], nc.grid.nodes, nc.values) / p
             / d.h(g.horizon - g.nodes[ck_mart]))
    no_c = np.zeros(g.n_steps + 1)
    # the compared checkpoints: every pair (i < j) under eq, consecutive under sub
    k = len(ck_mart)
    compared = {"eq": [(i, j) for i in range(k) for j in range(i + 1, k)],
                "sub": [(i, i + 1) for i in range(k - 1)]}

    def block(mean_Z, S, replicate):
        out = {}
        for key, zeta in (("eq", stock_fraction(m, u)), ("sub", stock_fraction(m, u) / 2)):
            Xp = oracle_power(mean_Z, S, cfg.x0, m, np.full(g.n_steps, zeta), no_c, g.dt, p)
            Y = pair_average(scale * Xp[:, ck_mart])
            i, j = np.array(compared[key]).T
            diff = Y[:, i] - Y[:, j]
            out[key], out[f"{key}_sq"] = diff.sum(axis=0), (diff**2).sum(axis=0)
            # the differences' sums cancel: their bound is their terms' size
            out[f"{key}|abs"] = (np.abs(Y[:, i]) + np.abs(Y[:, j])).sum(axis=0)
            if key == "eq":
                y = pair_average(Xp[:, ck_mom])
                out["y"], out["y_sq"] = y.sum(axis=0), (y**2).sum(axis=0)
        return out

    return oracle_sums(cfg, g.n_steps, block)


class TestAgainstSteppedOracle:
    @pytest.fixture(autouse=True)
    def blocks_of_512(self, monkeypatch):
        # 1500 pairs in blocks of 512, 512 and 476
        blocks_of(monkeypatch, 512)

    @pytest.fixture(scope="class", params=[0.5, -2.0], ids=["p0.5", "p-2"])
    def solved(self, request, market, hyp_discount, mix_discount, sim_grid):
        u = CrraUtility(p=request.param)
        out = {}
        for name, d in (("hyperbolic", hyp_discount), ("mixture", mix_discount)):
            sol = picard_solve(market, u, d, sim_grid)
            out[name] = (d, sol, equilibrium_policy(sol, market, u),
                         solve_no_consumption(market, u, d, sim_grid))
        return u, out

    @pytest.mark.parametrize("discount", ["hyperbolic", "mixture"])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_block_sums_match_stepped_legs(self, market, sim_grid, solved, discount, t0):
        assert_leg_sums_match(market, sim_grid, solved, discount, t0)

    @pytest.mark.parametrize("discount", ["hyperbolic", "mixture"])
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_block_sums_match_in_ragged_tiles(self, market, sim_grid, solved, discount,
                                              t0, monkeypatch):
        # three rows per tile: blocks of 512 and 476 pairs end in a tile of two
        n_sub = sim_grid.n_steps - int(round(t0 / sim_grid.dt))
        monkeypatch.setattr(simulate, "_TILE_ELEMENTS", 3 * (n_sub + 1))
        assert_leg_sums_match(market, sim_grid, solved, discount, t0)

    @pytest.mark.parametrize("at_end", [False, True], ids=["window-is-the-leg",
                                                           "one-step-leg"])
    def test_block_sums_with_an_empty_tail(self, market, sim_grid, solved, at_end):
        # the spike's window covers the whole leg, so nothing lies beyond it:
        # from t = 0 with w = n_steps, and on a leg started at T - dt
        u, by_discount = solved
        d, sol, pol, _ = by_discount["hyperbolic"]
        t0 = sim_grid.horizon - sim_grid.dt if at_end else 0.0
        eps = sim_grid.horizon - t0
        cfg = sim_cfg(sim_grid, n_paths=3000, seed=11)
        spike = Spike(zeta=pol.stock_fraction + 0.5, consumption=0.3)
        leg = equilibrium_leg(pol, cfg, market, u, d, t0)
        assert leg.n_steps == (1 if at_end else sim_grid.n_steps)
        estimators = {
            "simulate": simulation_estimator(pol, sim_grid, leg, d, (u.p, 2 * u.p)),
            "value_identity": value_identity_estimator(sol, leg, t0),
            "perturbation": perturbation_estimator(leg, eps, spike),
        }
        expected = oracle_leg_sums(pol, cfg, market, u, d, t0, spike, eps)
        assert_sums_match(cfg, estimators, leg, expected)


def assert_leg_sums_match(market, sim_grid, solved, discount, t0):
    """Every estimator's sums on the leg from (t0, x0), and from t = 0 the
    whole-grid checks', agree with the stepped oracle's."""
    u, by_discount = solved
    d, sol, pol, nc = by_discount[discount]
    cfg = sim_cfg(sim_grid, n_paths=3000, seed=11)
    spike = Spike(zeta=pol.stock_fraction + 0.5, consumption=0.3)
    leg = equilibrium_leg(pol, cfg, market, u, d, t0)
    estimators = {
        "simulate": simulation_estimator(pol, sim_grid, leg, d, (u.p, 2 * u.p)),
        "value_identity": value_identity_estimator(sol, leg, t0),
        "perturbation": perturbation_estimator(leg, 0.1, spike),
    }
    expected = oracle_leg_sums(pol, cfg, market, u, d, t0, spike, 0.1)
    if t0 == 0.0:  # the whole-grid checks share the pass from t = 0
        estimators["martingale"] = martingale_estimator(nc, cfg, market, u, d)
        estimators["moment"] = moment_estimator(cfg, market, u, u.p,
                                                growth_constant(market, u))
        expected.update(oracle_grid_sums(nc, cfg, market, u, d))
    assert_sums_match(cfg, estimators, leg, expected)


def assert_sums_match(cfg, estimators, leg, expected):
    """Every sum of the estimators' one pass agrees with the oracle's to 1e-12,
    relative to the sum of its terms' magnitudes where the oracle gives it
    (key + "|abs"): rounding bounds a sum's error by that magnitude, and the
    signed sums of the control can cancel far below it (a randomized net
    integrates a replicate's C almost exactly, and J C averages beta var(C)).
    Elsewhere the terms have one sign and this is the plain relative 1e-12."""
    results = run_pass(cfg, [sums_of(e) for e in estimators.values()], leg)[0]
    checked = set()
    for name, sums in zip(estimators, results):
        for key, value in sums.items():
            bound = 1e-12 * np.maximum(np.abs(expected[key]), expected.get(f"{key}|abs", 0.0))
            assert np.all(np.abs(value - expected[key]) <= bound), \
                (name, key, np.max(np.abs(value - expected[key]) / bound))
            checked.add(key)
    assert checked == {key for key in expected if not key.endswith("|abs")}


class TestTiles:
    def test_pass_tiles_are_the_rows_of_whole_block_draws(self, sim_grid, monkeypatch):
        # 15 pairs, one per replicate, in blocks of 7, 7 and 1; a tile holds
        # whole rows only, three
        assert_tiles_are_whole_block_rows(sim_grid, monkeypatch, 7, 1, (15, 1), [3] * 5)

    def test_tiles_split_replicates_longer_than_a_tile(self, sim_grid, monkeypatch):
        # 16 pairs in two blocks of 8 and replicates of 4 (rows 0-3, 4-7, ...):
        # tiles of three rows, whatever the replicates and blocks, split
        # every replicate
        assert_tiles_are_whole_block_rows(sim_grid, monkeypatch, 8, 4, (16, 4), [3] * 5 + [1])

    def test_tiles_cut_across_replicates(self, sim_grid, monkeypatch):
        # 16 pairs in two blocks of 8 and replicates of 2: a tile of three rows
        # holds one replicate and half of the next
        assert_tiles_are_whole_block_rows(sim_grid, monkeypatch, 8, 2, (16, 2), [3] * 5 + [1])

    def test_bridged_paths_take_each_replicates_coarse_values_exactly(self, monkeypatch):
        # 4 replicates of 8 pairs in one block: tiles of five rows split them
        assert_coarse_values_are_the_shifted_nets(monkeypatch, 8, 2048, [5] * 6 + [2])

    def test_a_tile_spanning_replicates_takes_each_ones_shifted_net(self, monkeypatch):
        # 16 replicates of 2 pairs in two blocks of 16 pairs: a tile of five
        # rows runs through three replicates
        assert_coarse_values_are_the_shifted_nets(monkeypatch, 2, 16, [5] * 6 + [2])

    def test_a_tile_splitting_a_replicate_takes_its_shifted_net(self, monkeypatch):
        # 2 replicates of 16 pairs in two blocks: tiles of five rows split each
        assert_coarse_values_are_the_shifted_nets(monkeypatch, 16, 16, [5] * 6 + [2])

    def test_a_tile_straddling_blocks_takes_each_blocks_shift_words(self, monkeypatch):
        # 8 replicates of 4 pairs in blocks of 12, 12 and 8 pairs: the tiles of
        # rows 10-14 and 20-24 each hold rows of two blocks
        assert_coarse_values_are_the_shifted_nets(monkeypatch, 4, 12, [5] * 6 + [2])

    def test_pass_memory_is_a_few_tiles_whatever_the_block_size(
            self, market, utility, hyp_discount, monkeypatch):
        g = TimeGrid(horizon=1.0, n_steps=1000)
        pol = equilibrium_policy(picard_solve(market, utility, hyp_discount, g),
                                 market, utility)
        # a first pass makes the process's one-time allocations, untraced
        simulate_equilibrium(pol, SimConfig(n_paths=2, seed=1, grid=g), market, utility,
                             hyp_discount, moment_orders=(utility.p,))
        peaks = {}
        cfg = SimConfig(n_paths=65536, seed=1, grid=g)
        for pairs in (2048, 32768):
            blocks_of(monkeypatch, pairs)
            tracemalloc.start()
            try:
                simulate_equilibrium(pol, cfg, market, utility, hyp_discount,
                                     moment_orders=(utility.p,))
                peaks[pairs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the normals' and W's tile buffers, and a few columns of temporaries
        assert max(peaks.values()) < 3 * 8 * simulate._TILE_ELEMENTS, peaks
        assert peaks[32768] <= 1.05 * peaks[2048], peaks

    def test_pass_memory_does_not_grow_with_the_block_count(
            self, market, utility, hyp_discount, monkeypatch):
        # 512 blocks: their partials are combined as they arrive, so a pass
        # holds a few of them, not one per block (18 MB if all were kept)
        g = TimeGrid(horizon=1.0, n_steps=1000)
        pol = equilibrium_policy(picard_solve(market, utility, hyp_discount, g),
                                 market, utility)
        simulate_equilibrium(pol, SimConfig(n_paths=2, seed=1, grid=g), market, utility,
                             hyp_discount)
        blocks_of(monkeypatch, 64)
        cfg = SimConfig(n_paths=65536, seed=1, grid=g)
        assert cfg.n_blocks == 512
        tracemalloc.start()
        try:
            simulate_equilibrium(pol, cfg, market, utility, hyp_discount)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * simulate._TILE_ELEMENTS, peak

    def test_a_moments_pass_with_a_window_over_the_whole_leg_stays_within_a_few_tiles(
            self, market, utility, hyp_discount):
        # eps = T: the spike's head spans all 1001 nodes, wider than the
        # segment powers (23 x 16 per row), so it sets the tiles' rows; the
        # window's chords and then their exponentials are formed in the scratch
        g = TimeGrid(horizon=1.0, n_steps=1000)
        pol = equilibrium_policy(picard_solve(market, utility, hyp_discount, g),
                                 market, utility)
        leg = equilibrium_leg(pol, SimConfig(n_paths=2, seed=1, grid=g), market, utility,
                              hyp_discount)
        est = perturbation_estimator(leg, g.horizon, Spike(zeta=pol.stock_fraction + 1.0))
        plan = simulate._plan(1000, leg, [est], 1)
        assert leg.takes_moments and (plan.width, plan.scratch) == (1001, 1001)
        run_pass(SimConfig(n_paths=2, seed=1, grid=g), [est], leg)
        cfg = SimConfig(n_paths=65536, seed=1, grid=g)
        tracemalloc.start()
        try:
            run_pass(cfg, [est], leg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * simulate._TILE_ELEMENTS, peak

    def test_each_pass_kind_sizes_its_tiles_by_its_widest_array(self, mix_discount, monkeypatch):
        # the benchmark's market and legs: the 1000-step leg takes moments, of
        # degree D = 22 for wealth, and its widest array is the segment
        # powers, (D + 1) x 16 per row; the 200-step leg forms the chords,
        # 201 per row, in tiles of _BLOCK_PAIRS rows at 2^19 elements; the
        # whole-grid checks alone hold the 17 coarse values
        m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
        u = CrraUtility(p=0.5)
        seen = []
        monkeypatch.setattr(simulate, "Block",
                            lambda W, *a, **kw: seen.append(W.shape) or Block(W, *a, **kw))

        def assert_tiles(cfg, rows, width):
            # whole tiles of the given rows, then what is left, node-major
            full, left = divmod(cfg.n_pairs, rows)
            assert seen == [(width, rows)] * full + [(width, left)] * (left > 0), seen
            seen.clear()

        for n_steps, rows, width in ((1000, simulate._TILE_ELEMENTS // (23 * 16), 17),
                                     (200, simulate._BLOCK_PAIRS, 201)):
            g = TimeGrid(horizon=1.0, n_steps=n_steps)
            pol = equilibrium_policy(picard_solve(m, u, mix_discount, g), m, u)
            cfg = SimConfig(n_paths=6 * rows, seed=1, grid=g)
            leg = equilibrium_leg(pol, cfg, m, u, mix_discount)
            assert leg.takes_moments == (n_steps == 1000)
            assert simulate._plan(n_steps, leg, [], cfg.n_replicates).rows == rows
            simulate_equilibrium(pol, cfg, m, u, mix_discount)
            assert_tiles(cfg, rows, width)
        assert (simulate._TILE_ELEMENTS // (23 * 16), rows) == (1424, 2048)
        nc = solve_no_consumption(m, u, mix_discount, g)
        for check in (lambda cfg: martingale_check(nc, cfg, m, u, mix_discount),
                      lambda cfg: moment_check(cfg, m, u, u.p, growth_constant(m, u))):
            check(cfg)
            assert_tiles(cfg, simulate._BLOCK_PAIRS, 17)


def chord_pass(cfg, n_steps):
    """A pass whose tiles form the chords at every node of n_steps steps,
    with no leg."""
    return simulate._Pass(bridge=simulate._bridge(n_steps), leg=None, tails=(),
                          n_replicates=cfg.n_replicates, series=None, chords=True)


def assert_tiles_are_whole_block_rows(sim_grid, monkeypatch, pairs, rep, counts, tiles):
    """30 paths in blocks of the given pairs, replicates of at most rep pairs
    and tiles of three rows: counts are the pass's (pairs, replicate pairs),
    tiles the rows of each tile, and the tiles are the rows of the oracle's
    chords, the paths' means given their coarse values, in order, each with
    its replicate."""
    n_sub = sim_grid.n_steps
    monkeypatch.setattr(simulate, "_TILE_ELEMENTS", 3 * (n_sub + 1) + 2)
    monkeypatch.setattr(simulate, "_MIN_REPLICATE_PAIRS", 1)
    monkeypatch.setattr(simulate, "_MIN_REPLICATES", 1)
    monkeypatch.setattr(simulate, "_REPLICATE_PAIRS", rep)
    blocks_of(monkeypatch, pairs)
    cfg = sim_cfg(sim_grid, n_paths=30, seed=4)
    assert (cfg.n_pairs, cfg.replicate_pairs) == counts
    seen, replicates = [], []

    def block(W, _buffers, replicate):
        seen.append(W.T.copy())  # a row per path
        replicates.append(replicate)
        return {"rows": W.shape[1]}

    assert simulate._accumulate_blocks(cfg, chord_pass(cfg, n_sub), block) == {"rows": cfg.n_pairs}
    assert [len(W) for W in seen] == tiles
    paths, expected = zip(*oracle_chords(cfg, n_sub))
    W = np.concatenate(seen)
    assert np.all(W[:, 0] == 0.0)
    np.testing.assert_allclose(W, np.concatenate(paths), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.concatenate(replicates), np.concatenate(expected))


def assert_coarse_values_are_the_shifted_nets(monkeypatch, rep, pairs, tiles):
    """32 pairs on a 37-step leg (16 coarse nodes, 2 steps apart, the last
    7), in replicates of rep pairs, blocks of the given pairs and tiles of
    five rows (their sizes: tiles): the nodes of each tile's rows carry
    their replicate's shifted net, mapped through Phi^{-1} and the bridge,
    and every node their chords, bit for bit the path-major arithmetic
    (``oracles.path_major_coarse`` and ``path_major_chords``). A block's
    generator draws one word per coordinate for each of its replicates in
    turn."""
    g = TimeGrid(horizon=1.0, n_steps=37)
    monkeypatch.setattr(simulate, "_TILE_ELEMENTS", 5 * 38)
    monkeypatch.setattr(simulate, "_MIN_REPLICATE_PAIRS", rep)
    blocks_of(monkeypatch, pairs)
    cfg = SimConfig(n_paths=64, seed=3, grid=g)
    assert (cfg.replicate_pairs, cfg.n_pairs) == (rep, 32)
    bridge = BrownianBridge(37)
    seen = []
    simulate._accumulate_blocks(cfg, chord_pass(cfg, 37),
                                lambda W, _b, _r: seen.append(W.T.copy()) or {})
    assert [len(W) for W in seen] == tiles
    W = np.concatenate(seen)
    points = sobol_points(sobol_directions(16, rep.bit_length() - 1), rep)
    per_block = cfg.block_pairs // rep
    xi = np.concatenate([
        norm_ppf(to_unit(points ^ (stream(3, j // per_block).bit_generator.random_raw(
            (per_block, 16))[j % per_block] >> np.uint64(12))))
        for j in range(32 // rep)])
    # the bridge is elementwise, so each row's values are the same bits
    # whatever rows it is formed with, and in either layout
    Wc = path_major_coarse(bridge, xi)
    np.testing.assert_array_equal(W[:, bridge.nodes], Wc)
    np.testing.assert_array_equal(W, path_major_chords(bridge, Wc))


def pair_stats(a):
    """Mean and standard error of the pair averages a (axis 0 over pairs)."""
    return a.mean(axis=0), a.std(axis=0) / np.sqrt(len(a))


def controlled_stats(j, c, replicate):
    """Mean of the pair averages j with the control c regressed out, the
    slope beta = cov(j, c) / var(c) over the pairs, and the standard error of
    the replicate means of j - beta c, over replicates with R - 1 degrees of
    freedom."""
    beta = np.mean((j - j.mean()) * (c - c.mean())) / c.var()
    return j.mean() - beta * c.mean(), replicate_stats(j - beta * c, replicate)[1], beta


def replicate_stats(a, replicate):
    """Mean and standard error of the replicate means of the pair values a."""
    means = np.bincount(replicate, weights=a) / np.bincount(replicate)
    return means.mean(), means.std(ddof=1) / np.sqrt(len(means))


class TestAntitheticPairs:
    def test_standard_errors_are_taken_over_pairs(self, market, utility, hyp_discount,
                                                  sim_grid, hyp_policy, monkeypatch):
        # odd n_paths: 1501 pairs round up to 47 replicates of 32, 1504 pairs
        # in blocks of 512, 512 and 480. E[J] takes its standard error over
        # the replicates, every other check over the pairs
        sol, pol = hyp_policy
        blocks_of(monkeypatch, 512)
        cfg = sim_cfg(sim_grid, n_paths=3001, seed=13)
        g, p, dt = sim_grid, utility.p, sim_grid.dt
        nc = solve_no_consumption(market, utility, hyp_discount, g)
        frac = stock_fraction(market, utility)
        K = growth_constant(market, utility)
        spike = Spike(zeta=pol.stock_fraction + 1.0)
        batch = simulate_equilibrium(pol, cfg, market, utility, hyp_discount,
                                     moment_orders=(p,))
        row = perturbation_test(pol, cfg, market, utility, hyp_discount, t=0.0,
                                epsilons=[0.25], spike=spike)[0]
        flat, decreasing = martingale_check(nc, cfg, market, utility, hyp_discount)
        moments = moment_check(cfg, market, utility, exponent_q=p, growth_rate=K)

        # brute force: step every path's mean given its coarse values, then
        # average each pair
        c, h = pol.consumption_at(g.nodes), hyp_discount.h(g.nodes)
        zeta = np.full(g.n_steps, pol.stock_fraction)
        zeta_spk = zeta.copy()
        zeta_spk[:int(round(0.25 / dt))] = spike.zeta
        ck_mart, ck_mom = _checkpoints(g, 5), _checkpoints(g, 6)[1:]
        lam_ck = np.interp(g.nodes[ck_mart], nc.grid.nodes, nc.values)
        mart_scale = lam_ck / p / hyp_discount.h(g.horizon - g.nodes[ck_mart])
        per_pair = {key: [] for key in ("j", "c", "d", "m", "eq", "sub", "y")}
        replicates = []
        for mean_Z, S, replicate in oracle_increments(cfg, g.n_steps):
            replicates.append(replicate)

            def power(zeta_steps, c_nodes):
                return oracle_power(mean_Z, S, cfg.x0, market, zeta_steps, c_nodes, dt, p)

            Xp = power(zeta, c)
            per_pair["c"].append(oracle_control(mean_Z, S, market, zeta, c, dt, p))
            J = oracle_j(Xp, c, h, dt, p)
            J_spk = oracle_j(power(zeta_spk, c), c, h, dt, p)
            per_path = {"j": J, "d": (J - J_spk) / 0.25, "m": Xp[:, -1]}
            for key, f in (("eq", frac), ("sub", frac / 2)):
                Xp_nc = power(np.full(g.n_steps, f), np.zeros(g.n_steps + 1))
                per_path[key] = mart_scale * Xp_nc[:, ck_mart]
                if key == "eq":
                    per_path["y"] = Xp_nc[:, ck_mom]
            for key, v in per_path.items():
                per_pair[key].append(pair_average(v))
        a = {key: np.concatenate(v) for key, v in per_pair.items()}
        replicate = np.concatenate(replicates)
        assert len(a["j"]) == cfg.n_pairs == 1504 and batch.n_replicates == 47

        # E[J] is taken with the terminal control, the other means plainly
        np.testing.assert_allclose(
            (batch.j_estimate, batch.j_std_error, batch.j_control_beta),
            controlled_stats(a["j"], a["c"], replicate), rtol=1e-9)
        np.testing.assert_allclose(batch.j_std_error_uncontrolled,
                                   replicate_stats(a["j"], replicate)[1], rtol=1e-9)
        for key, (mean, se) in (("d", (row.d_estimate, row.std_error)),
                                ("m", batch.terminal_moments[p])):
            np.testing.assert_allclose((mean, se), pair_stats(a[key]), rtol=1e-9,
                                       err_msg=key)
        assert batch.n_pairs == row.n_pairs == 1504
        np.testing.assert_allclose([v.std_error for v in moments],
                                   pair_stats(a["y"])[1], rtol=1e-9)

        # the martingale z's are paired differences of checkpoint means
        def diff_z(key, i, j):
            mean, se = pair_stats(a[key][:, i] - a[key][:, j])
            return mean / se, se

        k = len(ck_mart)
        worst = max((abs(z), se) for z, se in (diff_z("eq", i, j)
                                               for i in range(k) for j in range(i + 1, k)))
        weakest = min(diff_z("sub", i, i + 1) for i in range(k - 1))
        np.testing.assert_allclose([flat.statistic, flat.std_error], worst, rtol=1e-6)
        np.testing.assert_allclose([decreasing.statistic, decreasing.std_error], weakest,
                                   rtol=1e-6)
        assert {v.n_pairs for v in (flat, decreasing, *moments)} == {1504}

    def test_odd_counts_round_up_to_whole_pairs(self, market, utility, hyp_discount,
                                                sim_grid, hyp_policy, monkeypatch):
        # n_paths counts paths; an odd count runs one path more, and the pairs
        # round up to whole replicates: 1500 pairs ask for replicates of 32
        # (1500 / 32 = 46.9, at most 1 / 32 of the pairs), 47 of them
        _, pol = hyp_policy
        blocks_of(monkeypatch, 512)

        def run(n_paths):
            cfg = sim_cfg(sim_grid, n_paths=n_paths)
            return simulate_equilibrium(pol, cfg, market, utility, hyp_discount)

        even, odd, whole = run(3000), run(2999), run(3008)
        for other in (odd, whole):
            assert (other.j_estimate, other.j_std_error, other.n_pairs, other.n_replicates) == \
                (even.j_estimate, even.j_std_error, 1504, 47)
            np.testing.assert_array_equal(other.mean_wealth, even.mean_wealth)
        one = run(1)
        assert one.n_pairs == one.n_replicates == 1 and one.j_std_error == 0.0
        assert SimConfig(n_paths=1, seed=0, grid=sim_grid, x0=1.0).n_pairs == 1

    @pytest.mark.parametrize("n_paths, rep", [(1, 1), (2, 1), (4, 1), (32, 8), (63, 16),
                                              (64, 16), (127, 32), (512, 32), (4096, 64),
                                              (40960, 512), (100_000, 512), (10**7, 512)])
    def test_replicate_size_follows_the_paths(self, sim_grid, n_paths, rep):
        # the largest power of two up to 512 pairs that leaves at least 32
        # replicates, but at least 32 pairs, and at most half of them: two
        # replicates or more wherever there are two pairs. Whole replicates
        # fill whole blocks
        cfg = sim_cfg(sim_grid, n_paths=n_paths)
        pairs = (n_paths + 1) // 2
        assert cfg.replicate_pairs == rep and cfg.block_pairs == simulate._BLOCK_PAIRS
        assert cfg.n_replicates == -(-pairs // rep) and cfg.n_pairs == cfg.n_replicates * rep
        assert cfg.n_replicates >= min(32, pairs // 32 if pairs >= 64 else 2, pairs)

    @pytest.mark.parametrize("block, rep, per_block", [(301, 64, 256), (300, 64, 256),
                                                       (64, 64, 64), (16, 32, 32)])
    def test_a_block_holds_whole_replicates(self, sim_grid, monkeypatch, block, rep, per_block):
        # 2500 pairs: replicates of 64, or as many as a block holds, but at
        # least 32; a block rounds down to whole replicates, one at least
        blocks_of(monkeypatch, block)
        cfg = sim_cfg(sim_grid, n_paths=5000)
        assert (cfg.replicate_pairs, cfg.block_pairs) == (rep, per_block)
        assert cfg.n_blocks == -(-cfg.n_pairs // per_block)


# the legs of the series tests: (excess return, p, horizon, steps). Every
# 1000- and 2000-step leg takes moments; the 200-step legs take chords
# (D + 1 >= s = 12) and are expanded regardless. The larger exponent's h is
# near the cap 4 on the T = 50 legs (3.96 at 200 steps, 3.20 at 1000 and,
# for J at p = -3, 3.93 at 2000)
SERIES_LEGS = [
    pytest.param(0.07, 0.5, 1.0, 200, id="T1-200"),
    pytest.param(0.07, 0.5, 1.0, 1000, id="T1-1000"),
    pytest.param(0.07, 0.5, 1.0, 2000, id="T1-2000"),
    pytest.param(0.07, -2.0, 1.0, 1000, id="p-2-T1-1000"),
    pytest.param(0.02, 0.5, 50.0, 200, id="T50-200"),
    pytest.param(0.02, 0.5, 50.0, 1000, id="T50-1000"),
    pytest.param(0.07, -3.0, 50.0, 2000, id="p-3-T50-2000"),
]


def series_leg(excess, p, horizon, n_steps, d):
    m = MarketParams.from_excess_return(r=0.05, mu=excess, sigma=0.2)
    u, g = CrraUtility(p=p), TimeGrid(horizon=horizon, n_steps=n_steps)
    pol = equilibrium_policy(picard_solve(m, u, d, g), m, u)
    cfg = SimConfig(n_paths=2, seed=1, grid=g)
    return pol, equilibrium_leg(pol, cfg, m, u, d), g


def stated_degree(h):
    """The least D with h^{D+1} / (D + 1)! e^{2h} < 2^-53, spelled out."""
    D = 0
    while h ** (D + 1) / math.factorial(D + 1) * math.exp(2 * h) >= 2.0**-53:
        D += 1
    return D


def extreme_normals(bridge):
    """Normals at the stream's largest size |Phi^{-1}(2^-53)| (N x paths),
    a pair of paths per segment, whose rise on that segment is +- the
    bridge's ``slope_bound``: the coefficients of W(hi) - W(lo) in the
    normals give the signs."""
    xi_max = -norm_ppf(np.array([2.0**-53]))[0]
    signs = np.sign(np.diff(bridge.coarse(np.eye(bridge.dim)), axis=0)).T
    return xi_max * np.concatenate([signs, -signs], axis=1)


class TestSegmentSeries:
    """A leg that sums its segments from their Taylor moments gives the
    values the chords give, on the same coarse values."""

    @pytest.mark.parametrize("excess, p, horizon, n_steps", SERIES_LEGS)
    def test_moments_match_chords_on_the_same_coarse_values(self, hyp_discount, excess, p,
                                                            horizon, n_steps):
        pol, leg, g = series_leg(excess, p, horizon, n_steps, hyp_discount)
        bridge = BrownianBridge(n_steps)
        rng = np.random.default_rng(n_steps)
        xi = np.concatenate([rng.standard_normal((bridge.dim, 40)), extreme_normals(bridge)],
                            axis=1)
        rows = xi.shape[1]
        Wc = bridge.coarse(xi)
        # every rise within the bound, which the extreme rows reach
        rise = np.abs(np.diff(Wc, axis=0))
        assert np.all(rise <= bridge.slope_bound[:, None] * (1 + 1e-12))
        assert np.allclose(rise.max(axis=1), bridge.slope_bound, rtol=1e-12)
        W = bridge.chords(Wc)
        # a tail from a coarse node, one from inside a segment, and the
        # gross spike's, from w + 1
        w = int(0.3 * n_steps)
        spike = perturbation_estimator(leg, w * leg.dt, Spike(zeta=pol.stock_fraction + 1.0))
        tails = (int(bridge.nodes[3]), bridge.nodes[5] + 7, w + 1)
        series = SegmentSeries(leg, tails)
        # the stated degree for each exponent, from the larger h of the two
        half_rise = 0.5 * bridge.slope_bound.max()
        h = max(abs(b) * half_rise for b in leg.series_degrees)
        for b, D in leg.series_degrees.items():
            assert D == stated_degree(abs(b) * half_rise)
            assert len(series.nodes[b]) == D + 1
        assert len(series.moments[0]) == leg.series_degrees[p * leg.vol] + 1
        replicate = np.zeros(rows, dtype=np.intp)
        on_chords = Block(W, np.empty(W.size),
                          simulate._Pass(bridge=bridge, leg=leg, tails=tails, n_replicates=1,
                                         series=None, chords=True), replicate)
        on_moments = Block(Wc, np.empty(W.size),
                           simulate._Pass(bridge=bridge, leg=leg, tails=tails, n_replicates=1,
                                          series=series, chords=False), replicate)
        # truncation below 2^-53 of each term, and rounding grown by at most
        # e^{2h} in the series and a few dozen ulp in the sums
        bound = 64 * 2.0**-53 * math.exp(2 * h)

        def assert_close(chord_value, moment_value, what):
            rel = np.max(np.abs(moment_value - chord_value) / np.abs(chord_value))
            assert rel <= bound, (what, rel / bound)

        (J, C, T, H), (J_m, C_m, T_m, H_m) = on_chords.powers, on_moments.powers
        np.testing.assert_array_equal(C, C_m)
        assert_close(J, J_m, "J")
        for s in tails:
            for half in range(2):
                assert_close(T[s][half], T_m[s][half], f"tail {s}")
                assert_close(H[s][half], H_m[s][half], f"head {s}")
        for b, what in ((p * leg.vol, "X^p per node"), (leg.vol, "wealth")):
            assert_close(on_chords.pair_sums(b), on_moments.pair_sums(b), what)
        sums = [simulation_estimator(pol, g, leg, hyp_discount)[0](blk)
                for blk in (on_chords, on_moments)]
        for key in ("wealth", "voh"):
            assert_close(sums[0][key], sums[1][key], key)
        # D of a gross spike: J less a spiked J, of J's size; the head of the
        # window takes the same chords both ways
        D_chords, D_moments = (spike[0](blk)["d"] for blk in (on_chords, on_moments))
        assert_close(D_chords, D_moments, "perturbation D")

    def test_the_benchmark_legs_pick_their_path(self, mix_discount):
        # verify-simulate's legs (market mu = 0.07 as the excess return, p =
        # 0.5, T = 1): verify's 100 steps, s = 6, stay on the chords, and
        # simulate's 1000 steps, s = 62, take moments, of degrees 17 (J) and
        # 22 (wealth)
        m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
        u = CrraUtility(p=0.5)
        d = mix_discount
        legs, sols, cfgs = {}, {}, {}
        for n_steps in (100, 1000):
            g = TimeGrid(horizon=1.0, n_steps=n_steps)
            sols[n_steps] = sol = picard_solve(m, u, d, g)
            cfgs[n_steps] = cfg = SimConfig(n_paths=100_000, seed=42, grid=g)
            legs[n_steps] = equilibrium_leg(equilibrium_policy(sol, m, u), cfg, m, u, d)
        assert not legs[100].takes_moments and legs[1000].takes_moments
        leg = legs[1000]
        assert leg.series_degrees == {u.p * leg.vol: 17, leg.vol: 22}
        # the plan of each benchmark pass: verify's every check on the
        # chords, with a scratch as wide; simulate's on moments, the (22 + 1)
        # x 16 segment powers per row, with no window and so no scratch; and
        # verify --checks martingale without a leg, on the 17 coarse values
        cfg, nc = cfgs[100], solve_no_consumption(m, u, d, cfgs[100].grid)
        zeta = equilibrium_policy(sols[100], m, u).stock_fraction
        martingale = martingale_estimator(nc, cfg, m, u, d)
        verify = [value_identity_estimator(sols[100], legs[100], 0.0), martingale,
                  *(perturbation_estimator(legs[100], width, Spike(zeta=zeta + shift))
                    for width, shift in ((0.25, 1.0), (0.1, 0.01)))]
        sim = simulation_estimator(equilibrium_policy(sols[1000], m, u), cfgs[1000].grid, leg, d)
        plans = {"verify": simulate._plan(100, legs[100], verify, cfg.n_replicates),
                 "simulate": simulate._plan(1000, leg, [sim], cfg.n_replicates),
                 "martingale": simulate._plan(100, None, [martingale], cfg.n_replicates)}
        assert {name: (plan.chords, plan.series is not None, plan.rows, plan.scratch)
                for name, plan in plans.items()} == {"verify": (True, False, 2048, 101),
                                                     "simulate": (False, True, 1424, 0),
                                                     "martingale": (False, False, 2048, 0)}

    def test_a_leg_past_the_cap_or_with_short_segments_takes_chords(self, hyp_discount):
        # p = 0.5, T = 50 at the excess return 0.07: h = 11.2 for wealth at
        # 1000 steps; fewer than 16 steps: segments of one step
        def takes_moments(*leg):
            return series_leg(*leg, hyp_discount)[1].takes_moments

        assert not takes_moments(0.07, 0.5, 50.0, 1000)
        assert not takes_moments(0.07, 0.5, 1.0, 10)
        assert takes_moments(0.02, 0.5, 50.0, 1000)
        # p = -3, T = 50: J's h is 3.93 at 2000 steps, 4.21 at 1000
        assert takes_moments(0.07, -3.0, 50.0, 2000)
        assert not takes_moments(0.07, -3.0, 50.0, 1000)
        assert simulate._SERIES_H_CAP == 4.0

    def test_a_pass_on_moments_never_forms_the_chord_matrix(self, market, utility,
                                                            hyp_discount, chord_matrices):
        g = TimeGrid(horizon=1.0, n_steps=1000)
        pol = equilibrium_policy(picard_solve(market, utility, hyp_discount, g), market, utility)
        simulate_equilibrium(pol, SimConfig(n_paths=2000, seed=1, grid=g), market, utility,
                             hyp_discount, moment_orders=(utility.p,))
        assert chord_matrices == []


    def test_a_pass_without_a_leg_never_forms_the_chord_matrix(self, market, utility,
                                                               hyp_discount, chord_matrices):
        # the martingale and moment checks alone read a few checkpoints
        g = TimeGrid(horizon=1.0, n_steps=1000)
        nc = solve_no_consumption(market, utility, hyp_discount, g)
        cfg = SimConfig(n_paths=2000, seed=1, grid=g)
        flat, falling = martingale_check(nc, cfg, market, utility, hyp_discount)
        moments = moment_check(cfg, market, utility, utility.p, growth_constant(market, utility))
        assert chord_matrices == []
        assert flat.passed and falling.passed and all(v.passed for v in moments)


class TestConditionalExpectations:
    """Every per-path value the library forms is the mean, given the path's
    coarse values, of the same value on whole Brownian paths: the two-scale
    stream's fine bridges through those values (``oracles.bridged_paths``),
    averaged over many of them per coarse point."""

    # the library's value is within this many standard errors of the mean
    # over the fine bridges (about 100 comparisons on 40 steps, 1000 on 400)
    TOLERANCE = 4.5

    def test_each_value_is_the_mean_over_fine_bridges(self, utility, hyp_discount):
        # 40 steps: 16 coarse nodes 2 steps apart, the last segment 10 steps
        # (30..40); the spike's window ends at w = 33 inside it, so its tail
        # nodes 34..39 share w's segment; the moment checkpoints 7, 13, 27
        # and 33 lie between coarse nodes. The leg takes chords
        self.assert_fine_bridge_means(utility, hyp_discount, 40, 33, 0.07, 20_000)

    def test_each_value_is_the_mean_over_fine_bridges_on_segment_moments(self, utility,
                                                                         hyp_discount):
        # 400 steps: segments of 25 (the last 375..400), w = 390 inside the
        # last; at the excess return 0.02 the leg takes moments (D = 15 for
        # wealth). Fewer draws keep each array at 13 MB
        self.assert_fine_bridge_means(utility, hyp_discount, 400, 390, 0.02, 4_000)

    def assert_fine_bridge_means(self, utility, hyp_discount, n_steps, w, excess, draws):
        market = MarketParams.from_excess_return(r=0.05, mu=excess, sigma=0.2)
        g = TimeGrid(horizon=1.0, n_steps=n_steps)
        p, dt = utility.p, g.dt
        sol = picard_solve(market, utility, hyp_discount, g)
        pol = equilibrium_policy(sol, market, utility)
        cfg = SimConfig(n_paths=2, seed=1, grid=g, x0=1.3)
        leg = equilibrium_leg(pol, cfg, market, utility, hyp_discount)
        bridge = BrownianBridge(g.n_steps)
        spike = Spike(zeta=pol.stock_fraction + 1.0, consumption=0.3)
        rng = np.random.default_rng(5)
        rows = 3
        Wc = bridge.coarse(rng.standard_normal((bridge.dim, rows)))
        scratch = np.empty(rows * (g.n_steps + 1))
        assert leg.takes_moments == (n_steps == 400)
        series = SegmentSeries(leg, (w + 1,)) if leg.takes_moments else None
        plan = simulate._Pass(bridge=bridge, leg=leg, tails=(w + 1,), n_replicates=1,
                              series=series, chords=series is None)
        paths = Wc if series is not None else bridge.chords(Wc)
        blk = Block(paths, scratch, plan, np.zeros(rows, dtype=np.intp))
        J, C, tails, heads = blk.powers
        # the per-node sums of E[exp(+-p vol W) | coarse values] over the
        # tile's paths: the chords' exponentials times e^{(p vol)^2 v_k / 2}
        a = p * leg.vol
        y_node_sums = blk.pair_sums(a) * np.exp(0.5 * a * a * bridge.variance)
        sim_sums = simulation_estimator(pol, g, leg, hyp_discount)[0](blk)
        moment = moment_estimator(cfg, market, utility, p, growth_constant(market, utility),
                                  n_checkpoints=6)
        moment_sums = moment[0](blk)
        d_sums = perturbation_estimator(leg, w * dt, spike)[0](blk)

        # the same values on fine paths, stepped as the oracle steps them
        c, h = leg.c_nodes, leg.h_nodes
        zeta = np.full(g.n_steps, leg.zeta)
        zeta_spk, c_spk = zeta.copy(), c.copy()
        zeta_spk[:w], c_spk[:w] = spike.zeta, spike.consumption
        ck = _checkpoints(g, 7)[1:]
        fine = {key: [] for key in ("j", "y", "wealth", "tail", "m", "d")}
        for row in range(rows):
            W = bridged_paths(bridge.nodes, np.repeat(Wc[:, row][None], draws, axis=0),
                              rng.standard_normal((draws, g.n_steps)))
            Z = np.diff(W, axis=1)
            per_path = {key: [] for key in fine}
            for sign in (1.0, -1.0):  # the drawn path, then its partner
                def wealth(zeta_steps, c_nodes):
                    # the increments themselves, with no spread about them
                    no_spread = np.zeros((g.n_steps, g.n_steps))
                    return cfg.x0 * np.exp(oracle_log_growth(
                        sign * Z, no_spread, market, zeta_steps, c_nodes, dt)[0])

                X = wealth(zeta, c)
                Jp = oracle_j(X**p, c, h, dt, p)
                per_path["j"].append(Jp)
                per_path["y"].append(np.exp(sign * p * leg.vol * W))
                per_path["wealth"].append(X)
                per_path["tail"].append(np.exp(sign * p * leg.vol * W[:, w + 1:])
                                        @ leg_weights(leg)[w + 1:])
                X_nc = wealth(zeta, np.zeros(g.n_steps + 1))
                per_path["m"].append(X_nc[:, ck] ** p)
                per_path["d"].append((Jp - oracle_j(wealth(zeta_spk, c_spk) ** p, c_spk, h,
                                                    dt, p)) / (w * dt))
            for key in ("j", "m", "d"):  # pair averages
                fine[key].append(0.5 * (per_path[key][0] + per_path[key][1]))
            fine["y"].append(per_path["y"][0] + per_path["y"][1])
            fine["wealth"].append(per_path["wealth"][0] + per_path["wealth"][1])
            fine["tail"].append(per_path["tail"])

        def assert_mean(value, samples, what):
            mean = samples.mean(axis=0)
            se = samples.std(axis=0) / np.sqrt(len(samples))
            assert np.all(np.abs(value - mean) <= self.TOLERANCE * se + 1e-12 * np.abs(mean)), \
                (what, np.max(np.abs(value - mean) / (se + 1e-300)))

        for row in range(rows):
            assert_mean(J[row], fine["j"][row], "J")
            assert_mean(tails[w + 1][0][row], fine["tail"][row][0], "drawn tail")
            assert_mean(tails[w + 1][1][row], fine["tail"][row][1], "partner tail")
        # the per-node and per-checkpoint sums over the tile's rows: their
        # standard errors add in quadrature over the independent rows
        for key, value in (("y", y_node_sums), ("wealth", sim_sums["wealth"]),
                           ("m", moment_sums["y"]), ("d", d_sums["d"])):
            means = sum(f.mean(axis=0) for f in fine[key])
            se = np.sqrt(sum(f.var(axis=0) / draws for f in fine[key]))
            assert np.all(np.abs(value - means) <= self.TOLERANCE * se + 1e-12 * np.abs(means)), \
                (key, np.max(np.abs(value - means) / (se + 1e-300)))


def test_each_rows_values_are_the_same_bits_whatever_the_tile(market, utility, hyp_discount,
                                                              monkeypatch):
    assert_rows_are_tile_free(market, utility, hyp_discount, monkeypatch, 200, (24, 31))


def test_each_rows_values_are_the_same_bits_whatever_the_tile_on_segment_moments(
        market, utility, hyp_discount, monkeypatch):
    assert_rows_are_tile_free(market, utility, hyp_discount, monkeypatch, 1000, (124, 155))


def assert_rows_are_tile_free(market, utility, hyp_discount, monkeypatch, n_steps, tails):
    """J, its control, two tail and head sums (one tail starting on a
    coarse node, one between nodes), the per-row loss of a spike ending
    before each tail, and the chords at a few nodes of every row (between
    coarse nodes, on them, and the terminal node alone), gathered in row
    order from a pass in tiles of the default size and from passes in
    ragged tiles of three and of five rows, whose last tiles hold one row
    and two, are the same bits; the 1000-step leg takes moments, the
    200-step leg chords. numpy sums a node-major array of one column
    pairwise, and of two or more in sequence."""
    g = TimeGrid(horizon=1.0, n_steps=n_steps)
    pol = equilibrium_policy(picard_solve(market, utility, hyp_discount, g), market, utility)
    blocks_of(monkeypatch, 512)
    cfg = sim_cfg(g, n_paths=3584, seed=11)
    assert cfg.n_pairs == 1792
    leg = equilibrium_leg(pol, cfg, market, utility, hyp_discount)
    assert leg.takes_moments == (n_steps == 1000)
    columns = {"chords": np.array([7, tails[1], n_steps]),
               "coarse": np.array([tails[0], n_steps]), "terminal": -1}
    estimators = [perturbation_estimator(leg, (s - 1) * g.dt, spike) for s, spike in zip(
        tails, (Spike(zeta=pol.stock_fraction + 1.0),
                Spike(zeta=pol.stock_fraction + 0.01, consumption=0.3)))]
    spikes = [fn for fn, _ in estimators]
    assert [fn.tail for fn in spikes] == list(tails)
    plan = simulate._plan(n_steps, leg, estimators, cfg.n_replicates)
    assert (plan.tails, plan.chords) == (tails, not leg.takes_moments)
    # each spike's per-row loss, gathered in place of its sums over the rows
    monkeypatch.setattr(simulate, "_sums", lambda key, a: {key: [a]})

    def block(W, buffers, replicate):
        blk = Block(W, buffers, plan, replicate)
        J, C, T, H = blk.powers
        return {"j": [J], "c": [C],
                # copies: a view of the chords lives only as long as its tile
                **{key: [np.array(blk.chords(nodes).T)] for key, nodes in columns.items()},
                **{f"{kind}{s}": [sums[s][0]] for kind, sums in (("tail", T), ("head", H))
                   for s in tails},
                **{f"partner_{kind}{s}": [sums[s][1]]
                   for kind, sums in (("tail", T), ("head", H)) for s in tails},
                **{f"loss{s}": fn(blk)["d"] for s, fn in zip(tails, spikes)}}

    def rows():
        sums = simulate._accumulate_blocks(cfg, plan, block)
        return {key: np.concatenate(parts) for key, parts in sums.items()}

    whole = rows()
    assert set(whole) == {"j", "c", *columns, *(f"{side}{kind}{s}" for s in tails
                                                for kind in ("tail", "head")
                                                for side in ("", "partner_")),
                          *(f"loss{s}" for s in tails)}
    # tiles of three and of five rows of the pass's widest array (the
    # chords, or on moments the segment powers), the last of one and two
    for tile_rows, last in ((3, 1), (5, 2)):
        monkeypatch.setattr(simulate, "_TILE_ELEMENTS", tile_rows * plan.width)
        assert plan.rows == tile_rows and cfg.n_pairs % tile_rows == last
        ragged = rows()
        for key in whole:
            assert len(whole[key]) == cfg.n_pairs
            np.testing.assert_array_equal(whole[key], ragged[key],
                                          err_msg=f"{key}, tiles of {tile_rows}")
