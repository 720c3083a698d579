import numpy as np
import pytest

from eqmerton.duality import (
    DualValue,
    dual_from_primal,
    dual_pde_residual,
    grid_legendre_sup,
    primal_dual_roundtrip,
)
from eqmerton.model import (
    CrraUtility,
    ExponentialDiscount,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
)
from eqmerton.solver import ValueCurve, picard_solve, solve_no_consumption

from oracles import loop_dual_pde_residual


def constant_curve(level: float, g: TimeGrid) -> ValueCurve:
    n = g.n_steps + 1
    vals = np.full(n, level)
    vals[-1] = 1.0
    return ValueCurve(grid=g, values=vals, derivative=np.zeros(n),
                      provenance="synthetic")


@pytest.fixture(scope="module")
def nc_curves(market, utility, all_discounts):
    g = TimeGrid(horizon=1.0, n_steps=200)
    return g, {
        name: solve_no_consumption(market, utility, d, g)
        for name, d in all_discounts.items()
    }


class TestClosedFamily:
    def test_unit_coefficient_example(self, utility):
        g = TimeGrid(horizon=1.0, n_steps=4)
        dv = DualValue(curve=constant_curve(1.0, g), p=0.5)
        assert float(dv.value(0, 1.0)) == pytest.approx(1.0)

    def test_doubled_coefficient_example(self, utility):
        g = TimeGrid(horizon=1.0, n_steps=4)
        dv = DualValue(curve=constant_curve(2.0, g), p=0.5)
        # ((1-p)/p) * lam^(1/(1-p)) * y^(p/(p-1)) = 1 * 4 * 1
        assert float(dv.value(0, 1.0)) == pytest.approx(4.0)

    def test_negative_exponent_example(self):
        g = TimeGrid(horizon=1.0, n_steps=4)
        dv = DualValue(curve=constant_curve(1.0, g), p=-1.0)
        assert float(dv.value(0, 1.0)) == pytest.approx(-2.0)

    def test_terminal_boundary_is_utility_conjugate(self, utility, nc_curves):
        g, curves = nc_curves
        dv = DualValue(curve=curves["hyperbolic"], p=utility.p)
        ys = np.geomspace(0.1, 10, 20)
        np.testing.assert_allclose(dv.value(g.n_steps, ys), utility.dual(ys),
                                   rtol=1e-12)

    @pytest.mark.parametrize("p", [0.5, -2.0, 0.99])
    def test_euler_relations_of_the_closed_family(self, p):
        # tilde_v is homogeneous of degree e = p/(p-1) in y, the relations
        # dual_pde_residual forms its terms from
        g = TimeGrid(horizon=1.0, n_steps=4)
        dv = DualValue(curve=constant_curve(1.7, g), p=p)
        ys, e = np.geomspace(0.05, 20.0, 10), p / (p - 1.0)
        val = dv.value(1, ys)
        np.testing.assert_allclose(ys * dv.dy(1, ys) / val, e, rtol=1e-13)
        np.testing.assert_allclose(ys**2 * dv.dyy(1, ys) / val, e * (e - 1.0), rtol=1e-13)

    def test_convexity_concavity_pairing(self, utility, nc_curves):
        g, curves = nc_curves
        dv = DualValue(curve=curves["mixture"], p=utility.p)
        ys = np.geomspace(0.05, 20, 15)
        for idx in (0, g.n_steps // 2, g.n_steps):
            assert np.all(dv.dyy(idx, ys) > 0)  # dual strictly convex
            lam = dv.curve.values[idx]
            v_xx = lam * (utility.p - 1.0) * ys ** (utility.p - 2.0)
            assert np.all(v_xx < 0)  # primal strictly concave


class TestDualFromPrimal:
    def test_spot_checks_pass_for_all_variants(self, utility, nc_curves):
        _, curves = nc_curves
        for curve in curves.values():
            dual_from_primal(curve, utility)

    def test_grid_sup_oracle_agrees(self, utility):
        # sup = lam^2 / y at p = 1/2, attained at x = (lam / y)^2; the last two
        # maximisers lie outside the starting bracket [1e-6, 1e6]
        for lam, y, expected in [(1.0, 1.0, 1.0), (2.0, 1.0, 4.0),
                                 (1e-3, 20.0, 5e-8), (1e3, 1e-3, 1e9)]:
            assert grid_legendre_sup(lam, utility, y) == pytest.approx(
                expected, rel=1e-8
            )


class TestDualPde:
    def test_residual_small_for_closed_form(self, market, utility, all_discounts,
                                            nc_curves):
        _, curves = nc_curves
        for name, curve in curves.items():
            dv = DualValue(curve=curve, p=utility.p)
            assert dual_pde_residual(dv, market, all_discounts[name]) <= 1e-6

    @pytest.mark.parametrize("p, horizon, n_steps", [
        (0.5, 1.0, 2), (0.5, 1.0, 200), (-2.0, 20.0, 300), (0.95, 20.0, 100),
        (0.99, 100.0, 100),  # the dual value leaves the float range on early nodes
    ])
    def test_vectorised_residual_equals_the_node_loop(self, market, all_discounts, p,
                                                      horizon, n_steps):
        u, g = CrraUtility(p=p), TimeGrid(horizon=horizon, n_steps=n_steps)
        for name, d in all_discounts.items():
            curves = [solve_no_consumption(market, u, d, g)]
            if p != 0.99:  # where Picard converges
                curves.append(picard_solve(market, u, d, g))
            for curve in curves:
                dv = DualValue(curve=curve, p=p)
                with np.errstate(all="ignore"):
                    expected = loop_dual_pde_residual(dv, market, d)
                    got = dual_pde_residual(dv, market, d)
                assert got == expected, (name, curve.provenance)

    @pytest.mark.parametrize("node", [10, 60])
    def test_every_node_counts_where_the_dual_value_overflows(self, node):
        # bequest-only lam at p = 0.99, T = 100: lam(0) = 3.1e263, so
        # lam^(1/(1-p)) is far past the float range on the first 41 nodes,
        # while the terms over the dual value are not; a 1 % error in lam'
        # fails on either side of that edge
        m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
        d, g = HyperbolicDiscount(k=1.0, gamma=1.0), TimeGrid(horizon=100.0, n_steps=100)
        curve = solve_no_consumption(m, CrraUtility(p=0.99), d, g)
        assert curve.values[0] > 1e263
        assert dual_pde_residual(DualValue(curve=curve, p=0.99), m, d) <= 1e-14
        derivative = curve.derivative.copy()
        derivative[node] *= 1.01
        bumped = ValueCurve(grid=g, values=curve.values, derivative=derivative,
                            provenance="perturbed")
        assert dual_pde_residual(DualValue(curve=bumped, p=0.99), m, d) > 1e-3

    def test_a_nan_term_fails(self, market):
        # h = e^{-10 tau} underflows past tau = 75, where h'/h is 0/0
        g = TimeGrid(horizon=100.0, n_steps=100)
        with np.errstate(invalid="ignore"):
            res = dual_pde_residual(DualValue(curve=constant_curve(1.0, g), p=0.5), market,
                                    ExponentialDiscount(rho=10.0))
        assert np.isnan(res) and not res <= 1e-6

    def test_perturbation_increases_residual(self, market, utility, hyp_discount,
                                             nc_curves):
        g, curves = nc_curves
        base = curves["hyperbolic"]
        bump = 1.0 + 0.01 * np.sin(np.pi * g.nodes / g.horizon)
        perturbed = ValueCurve(grid=g, values=base.values * bump,
                               derivative=base.derivative, provenance="perturbed")
        r0 = dual_pde_residual(DualValue(curve=base, p=utility.p), market,
                               hyp_discount)
        r1 = dual_pde_residual(DualValue(curve=perturbed, p=utility.p), market,
                               hyp_discount)
        assert r1 > 100 * max(r0, 1e-12)

    def test_first_order_signs_from_brute_force_transform(self, market, utility,
                                                          hyp_discount,
                                                          nc_curves):
        """Determine the signs of the first-order dual PDE terms from scratch.

        Build tilde_v(t, y) purely by grid-maximizing lam(t) x^p / p - x y
        (no closed family), take all derivatives by finite differences, and
        check that the convention implemented here -- +(h'/h)(tilde_v -
        y tilde_v_y) and -r y tilde_v_y -- annihilates the PDE while the
        flipped convention does not.
        """
        g, curves = nc_curves
        curve = curves["hyperbolic"]
        idx = g.n_steps // 2
        t = g.nodes[idx]
        dt = g.dt
        dy = 1e-4
        lam_of = lambda i: float(curve.values[i])

        def tv(lam, y):
            return grid_legendre_sup(lam, utility, y)

        worst_good, worst_bad = 0.0, 0.0
        rate = float(hyp_discount.h_prime(g.horizon - t)
                     / hyp_discount.h(g.horizon - t))
        for y in (0.5, 1.0, 2.0):
            v_t = (tv(lam_of(idx + 1), y) - tv(lam_of(idx - 1), y)) / (2 * dt)
            v_y = (tv(lam_of(idx), y + dy) - tv(lam_of(idx), y - dy)) / (2 * dy)
            v_yy = (tv(lam_of(idx), y + dy) - 2 * tv(lam_of(idx), y)
                    + tv(lam_of(idx), y - dy)) / dy**2
            val = tv(lam_of(idx), y)
            diffusion = market.mu**2 / (2 * market.sigma**2) * y**2 * v_yy
            good = v_t + rate * (val - y * v_y) - market.r * y * v_y + diffusion
            bad = v_t + rate * (val + y * v_y) + market.r * y * v_y + diffusion
            scale = max(abs(v_t), abs(rate * val), abs(market.r * y * v_y),
                        abs(diffusion))
            worst_good = max(worst_good, abs(good) / scale)
            worst_bad = max(worst_bad, abs(bad) / scale)
        assert worst_good <= 1e-3  # finite-difference noise only
        assert worst_bad > 0.1  # flipped signs leave an O(1) defect


class TestRoundtrip:
    def test_unit_coefficient_recovery(self, utility):
        g = TimeGrid(horizon=1.0, n_steps=4)
        dv = DualValue(curve=constant_curve(1.0, g), p=0.5)
        # recovered inf_y [x y + tilde_v] at x = 1 must equal U(1) = 2
        assert primal_dual_roundtrip(dv, utility, [(0, 1.0)]) <= 1e-6

    def test_biconjugacy_random_points(self, utility, nc_curves):
        g, curves = nc_curves
        rng = np.random.default_rng(17)
        points = [(int(rng.integers(0, g.n_steps + 1)),
                   float(rng.uniform(0.2, 5.0))) for _ in range(20)]
        for curve in curves.values():
            dv = DualValue(curve=curve, p=utility.p)
            assert primal_dual_roundtrip(dv, utility, points) <= 1e-6

    @pytest.mark.parametrize("p, horizon", [(0.95, 20.0), (-3.0, 50.0), (-10.0, 100.0),
                                            (0.98, 20.0)])
    def test_minimiser_outside_the_first_bracket(self, market, hyp_discount, p, horizon):
        # lam(0) ~ 1.5e9 at p = 0.95 and ~ 7e-27 at p = -10, so the minimising
        # y = lam x^(p-1) lies far outside [1e-6, 1e6]; the search must follow it.
        # At p = 0.98 (lam(0) ~ 1.5e25) the dual value lam^50 y^-49 overflows
        # on the whole first bracket
        u = CrraUtility(p=p)
        g = TimeGrid(horizon=horizon, n_steps=1000)
        dv = dual_from_primal(solve_no_consumption(market, u, hyp_discount, g), u)
        points = [(i, x) for i in (0, g.n_steps // 2, g.n_steps) for x in (0.5, 1.0, 2.0)]
        assert primal_dual_roundtrip(dv, u, points) <= 1e-6

    @pytest.mark.parametrize("d", [ExponentialDiscount(rho=0.1),
                                   HyperbolicDiscount(k=1.0, gamma=1.0)],
                             ids=["exponential", "hyperbolic_1_1"])
    def test_near_p_one(self, market, d):
        # at p = 0.99 the slope and curvature checks amplify any error of the
        # minimiser in log y by |1/(p-1)| = 100; golden section alone reads
        # 2.2e-6 (exponential) and 1.55e-6 (hyperbolic) here
        u = CrraUtility(p=0.99)
        g = TimeGrid(horizon=20.0, n_steps=1000)
        dv = dual_from_primal(solve_no_consumption(market, u, d, g), u)
        points = [(i, x) for i in (0, g.n_steps // 2, g.n_steps) for x in (0.5, 1.0, 2.0)]
        assert primal_dual_roundtrip(dv, u, points) <= 1e-6

    def test_envelope_time_derivative(self, utility, nc_curves):
        # envelope theorem: with y* the minimizer of x y + tilde_v(t, y), the
        # time derivative of tilde_v at fixed y* equals v_t(t, x)
        g, curves = nc_curves
        curve = curves["hyperbolic"]
        p = utility.p
        dv = DualValue(curve=curve, p=p)
        idx = g.n_steps // 2
        for x in (0.5, 1.0, 2.0):
            lam = float(curve.values[idx])
            y_star = lam * x ** (p - 1.0)  # v_x at the conjugate point
            tv_t = ((float(dv.value(idx + 1, y_star))
                     - float(dv.value(idx - 1, y_star))) / (2 * g.dt))
            v_t = float(curve.derivative[idx]) * x**p / p
            assert abs(tv_t - v_t) <= 1e-4 * max(abs(v_t), 1e-12)
