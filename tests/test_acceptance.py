"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line with the measured statistic, and asserts it at the stated
tolerance. Statistical checks use fixed seeds and a three-standard-error
criterion.
"""

import numpy as np
import pytest

from eqmerton import cli
from eqmerton.model import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
)
from eqmerton.policy import (
    equilibrium_policy,
    inconsistency_report,
    solve_precommitment,
    stock_fraction,
)
from eqmerton.simulate import (
    SimConfig,
    Spike,
    martingale_check,
    moment_check,
    perturbation_test,
    verify_value_identity,
)
from eqmerton.solver import (
    a_priori_bounds,
    fit_exponential_mixture,
    growth_constant,
    mixture_ode_solve,
    picard_solve,
    residual_differential_form,
    solve_no_consumption,
    theta_closed_form,
)

from oracles import pde_residual_no_consumption, sequential_solve

M = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
U = CrraUtility(p=0.5)
G = TimeGrid(horizon=1.0, n_steps=1000)
DISCOUNTS = {
    "exponential": ExponentialDiscount(rho=0.1),
    "mixture": ExponentialMixtureDiscount(betas=(0.4, 0.6), rhos=(0.05, 0.5)),
    "hyperbolic": HyperbolicDiscount(k=1.0, gamma=1.0),
}
HYP = DISCOUNTS["hyperbolic"]
N_PATHS = 100_000
SEED = 42


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def rk4_backward(rhs, t, terminal):
    """Local, test-owned RK4 integrator (independent of the package's)."""
    y = float(terminal)
    out = np.empty(len(t))
    out[-1] = y
    for i in range(len(t) - 1, 0, -1):
        h = t[i - 1] - t[i]
        ti = t[i]
        k1 = rhs(ti, y)
        k2 = rhs(ti + h / 2, y + h / 2 * k1)
        k3 = rhs(ti + h / 2, y + h / 2 * k2)
        k4 = rhs(ti + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i - 1] = y
    return out


@pytest.fixture(scope="module")
def hyp_solution():
    return picard_solve(M, U, HYP, G)


@pytest.fixture(scope="module")
def hyp_policy(hyp_solution):
    return equilibrium_policy(hyp_solution, M, U)


@pytest.fixture(scope="module")
def mc_config():
    return SimConfig(n_paths=N_PATHS, seed=SEED, grid=G, x0=1.0)


def test_01_bequest_only_closed_form_and_pde():
    K = growth_constant(M, U)
    worst_gap, worst_pde = 0.0, 0.0
    for d in DISCOUNTS.values():
        sol = solve_no_consumption(M, U, d, G)
        analytic = d.h(G.horizon - G.nodes) * np.exp(K * (G.horizon - G.nodes))

        def rhs(t, y, d=d):
            tau = G.horizon - t
            return -(d.h_prime(tau) / d.h(tau) + K) * y

        numeric = rk4_backward(rhs, G.nodes, 1.0)
        worst_gap = max(worst_gap, float(np.max(np.abs(numeric - analytic))),
                        float(np.max(np.abs(sol.values - analytic))))
        worst_pde = max(worst_pde, pde_residual_no_consumption(sol, M, U, d))
    report("01 bequest-only closed form + value PDE",
           worst_gap <= 1e-8 and worst_pde <= 1e-8,
           f"sup integration gap {worst_gap:.2e}, sup PDE residual {worst_pde:.2e}")


def test_02_exponential_solver_consistency():
    d = DISCOUNTS["exponential"]
    pic = picard_solve(M, U, d, G)
    mix = mixture_ode_solve(M, U, ExponentialMixtureDiscount(betas=(1.0,),
                                                             rhos=(d.rho,)), G)
    cf = theta_closed_form(M, U, d.rho, G)
    pairwise = max(
        float(np.max(np.abs(pic.values - mix.values))),
        float(np.max(np.abs(pic.values - cf.values))),
        float(np.max(np.abs(mix.values - cf.values))),
    )
    pol = equilibrium_policy(pic, M, U)
    cols = inconsistency_report(M, U, d, G, [0.2, 0.5, 0.8], equilibrium=pol)
    policy_gap = float(np.max(np.abs([cols["gap_naive"], cols["gap_equilibrium"]])))
    report("02 exponential consistency (solvers + policies)",
           pairwise <= 1e-5 and policy_gap <= 1e-5,
           f"pairwise solver gap {pairwise:.2e}, policy gap {policy_gap:.2e}")


def test_03_a_priori_bounds_sweep():
    g = TimeGrid(horizon=1.0, n_steps=500)
    sweep = [(p, name) for p in (-2.0, -1.0, 0.3, 0.5, 0.8)
             for name in ("exponential", "mixture", "hyperbolic", "exp_fast")]
    discounts = dict(DISCOUNTS, exp_fast=ExponentialDiscount(rho=0.5))
    n_checked, violations = 0, 0
    for p, name in sweep:
        u = CrraUtility(p=p)
        d = discounts[name]
        sol = picard_solve(M, u, d, g)
        box = a_priori_bounds(M, u, d, g)
        n_checked += 1
        if not box.contains(sol.values):
            violations += 1
    report("03 a priori bounds containment sweep",
           n_checked >= 20 and violations == 0,
           f"{n_checked} configurations, {violations} violations")


def test_04_fixed_point_matches_a_sequential_solve():
    # the same discrete equation solved node by node from T, with dense history
    # sums and scalar Newton steps: the two routes share no solver code
    g = TimeGrid(horizon=1.0, n_steps=500)
    gap = float(np.max(np.abs(np.log(picard_solve(M, U, HYP, g).values)
                              - sequential_solve(M, U, HYP, g))))
    report("04 Picard route matches the node-by-node solve", gap <= 1e-10,
           f"max |log lam gap| {gap:.2e} vs 1e-10")


def test_05_mixture_approximation_convergence(hyp_solution):
    pool = np.geomspace(0.01, 20.0, 24)
    gaps = []
    for n_terms in (2, 4, 8):
        fit = fit_exponential_mixture(HYP, n_terms, pool, G)
        sol = mixture_ode_solve(M, U, fit.mixture, G)
        gaps.append(float(np.max(np.abs(sol.values - hyp_solution.values))))
    monotone = gaps[0] > gaps[1] > gaps[2]
    report("05 mixture-size convergence to fixed point",
           monotone and gaps[2] <= 1e-3,
           f"sup gaps N=2,4,8: {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e}")


def test_06_value_identity_with_power(hyp_solution, hyp_policy, mc_config):
    v = verify_value_identity(hyp_solution, mc_config, M, U, HYP, t=0.0, x=1.0,
                              policy=hyp_policy)
    control = verify_value_identity(hyp_solution, mc_config, M, U, HYP, t=0.0,
                                    x=1.0, policy=hyp_policy, target_scale=1.05)
    report("06 Monte Carlo value identity (with power control)",
           v.passed and (not control.passed) and abs(control.statistic) > 3.0,
           f"z = {v.statistic:.2f}; +5% control z = {control.statistic:.1f}")


def test_07_martingale_and_submartingale(mc_config):
    nc = solve_no_consumption(M, U, HYP, G)
    half = stock_fraction(M, U) / 2
    flat, decreasing = martingale_check(nc, mc_config, M, U, HYP,
                                        suboptimal_zeta=half)
    report("07 martingale flat / half-Merton-fraction decreasing",
           flat.passed and decreasing.passed,
           f"max |z| flat = {flat.statistic:.2f}; "
           f"min drop z (zeta={half:g}) = {decreasing.statistic:.1f}")


def test_08_equilibrium_spike_perturbations(hyp_policy, mc_config):
    gross = perturbation_test(
        hyp_policy, mc_config, M, U, HYP, t=0.0, epsilons=[0.1],
        spike=Spike(zeta=hyp_policy.stock_fraction + 1.0,
                    consumption=float(hyp_policy.consumption_rate[0])),
    )[0]
    small = perturbation_test(
        hyp_policy, mc_config, M, U, HYP, t=0.0, epsilons=[0.1],
        spike=Spike(zeta=hyp_policy.stock_fraction + 0.01),
    )[0]
    report("08 spike perturbations (gross loss, first-order stationarity)",
           gross.d_estimate > 0 and gross.z > 3.0 and abs(small.z) <= 3.0,
           f"gross z = {gross.z:.2f} (D = {gross.d_estimate:.3g}); "
           f"small z = {small.z:.2f}")


def test_09_terminal_moment_growth_law(mc_config):
    # E[X(s)^q] for geometric Brownian wealth with log-increment mean m s and
    # variance v s is x0^q exp((q m + q^2 v / 2) s); for q = 2p under the
    # no-consumption equilibrium fraction this evaluates to growth rate
    # 2 p (r + mu^2 / (2 (1-p)^2 sigma^2)) -- i.e. twice the naive K' rate,
    # which serves as the negative control below.
    p = U.p
    k_prime = p * (M.r + M.mu**2 / (2.0 * (1.0 - p) ** 2 * M.sigma**2))
    verdicts = moment_check(mc_config, M, U, exponent_q=2 * p,
                            growth_rate=2 * k_prime)
    control = moment_check(mc_config, M, U, exponent_q=2 * p,
                           growth_rate=k_prime)
    worst = max(abs(v.statistic) for v in verdicts)
    control_worst = max(abs(v.statistic) for v in control)
    report("09 2p-th moment growth law (with rate control)",
           all(v.passed for v in verdicts) and control_worst > 3.0,
           f"max |z| at rate 2K' = {worst:.2f}; at K' = {control_worst:.1f}")


def test_10_convex_duality_closed_family():
    from eqmerton.duality import dual_from_primal, dual_pde_residual, \
        primal_dual_roundtrip

    worst_pde, worst_round = 0.0, 0.0
    rng = np.random.default_rng(23)
    points = [(int(rng.integers(0, G.n_steps + 1)), float(rng.uniform(0.2, 5.0)))
              for _ in range(20)]
    for d in DISCOUNTS.values():
        nc = solve_no_consumption(M, U, d, G)
        dv = dual_from_primal(nc, U)
        worst_pde = max(worst_pde, dual_pde_residual(dv, M, d))
        worst_round = max(worst_round, primal_dual_roundtrip(dv, U, points))
    report("10 duality: PDE residual + biconjugacy + curvature pairing",
           worst_pde <= 1e-6 and worst_round <= 1e-6,
           f"dual PDE residual {worst_pde:.2e}, roundtrip error {worst_round:.2e}")


def test_11_time_inconsistency_magnitude(hyp_policy):
    tol = 1e-10
    probes = [0.25, 0.5, 0.75]
    cols = inconsistency_report(M, U, HYP, G, probes, equilibrium=hyp_policy)
    gaps = np.abs(cols["gap_naive"])
    # the equilibrium consumption curve is a single function of t -- identical
    # no matter which probe reads it -- while the committed plan is abandoned
    c_eq = [hyp_policy.consumption_at(t) for t in probes]
    invariant = np.allclose(c_eq, cols["c_equilibrium"], rtol=1e-12)
    report("11 hyperbolic discounting breaks precommitment",
           max(gaps) > 10 * tol and invariant,
           "committed-vs-reoptimized gaps "
           + ", ".join(f"{g:.3e}" for g in gaps) + " (recorded, not asserted "
           "against any reference value)")


def test_12_deterministic_artifacts(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[market]\nr = 0.05\nmu = 0.07\nsigma = 0.2\n\n"
        "[utility]\np = 0.5\n\n"
        "[grid]\nhorizon = 1.0\nn_steps = 200\n\n"
        "[discount]\nkind = hyperbolic\nk = 1.0\ngamma = 1.0\n\n"
        "[sim]\nn_paths = 20000\nseed = 42\nn_workers = {w}\n"
    )
    outputs = {}
    for label, workers in [("a", 1), ("b", 1), ("c", 4)]:
        cfg = tmp_path / f"{label}.ini"
        cfg.write_text(ini.read_text().format(w=workers))
        out = tmp_path / label
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("lambda.csv", "bounds.csv", "residuals.csv",
                         "simulation.csv")
        }
    identical_runs = outputs["a"] == outputs["b"]
    identical_workers = outputs["a"]["simulation.csv"] == outputs["c"]["simulation.csv"]
    report("12 byte-identical reruns and worker invariance",
           identical_runs and identical_workers,
           f"rerun identical: {identical_runs}; "
           f"workers 1 vs 4 identical: {identical_workers}")
