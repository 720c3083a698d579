import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmerton.model import (
    CrraUtility,
    DomainError,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    ParameterError,
    TimeGrid,
)

DISCOUNT_VARIANTS = [
    ExponentialDiscount(rho=0.1),
    ExponentialDiscount(rho=0.0),
    ExponentialMixtureDiscount(betas=(0.4, 0.6), rhos=(0.05, 0.5)),
    HyperbolicDiscount(k=1.0, gamma=1.0),
    HyperbolicDiscount(k=0.3, gamma=2.0),
]


class TestMarketParams:
    def test_mu_property(self):
        m = MarketParams(r=0.05, alpha=0.12, sigma=0.2)
        assert m.mu == pytest.approx(0.07)

    def test_from_excess_return(self):
        m = MarketParams.from_excess_return(r=0.05, mu=0.07, sigma=0.2)
        assert m.alpha == pytest.approx(0.12)
        assert m.mu == pytest.approx(0.07)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=-0.01, alpha=0.12, sigma=0.2),
            dict(r=0.05, alpha=0.12, sigma=0.0),
            dict(r=0.05, alpha=0.05, sigma=0.2),  # zero excess return
            dict(r=0.05, alpha=0.03, sigma=0.2),  # negative excess return
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ParameterError):
            MarketParams(**kwargs)


class TestCrraUtility:
    def test_u_eval_examples(self):
        assert CrraUtility(p=0.5).u(1.0) == pytest.approx(2.0)
        assert CrraUtility(p=0.5).u(4.0) == pytest.approx(4.0)
        assert CrraUtility(p=-1.0).u(2.0) == pytest.approx(-0.5)

    def test_inverse_marginal_examples(self):
        assert CrraUtility(p=0.5).inverse_marginal(1.0) == pytest.approx(1.0)
        assert CrraUtility(p=0.5).inverse_marginal(4.0) == pytest.approx(1.0 / 16.0)
        assert CrraUtility(p=-1.0).inverse_marginal(0.25) == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [-2.0, -1.0, 0.3, 0.5, 0.8])
    def test_inverse_marginal_inverts_marginal(self, p):
        u = CrraUtility(p=p)
        xs = np.geomspace(1e-6, 1e6, 50)
        back = u.inverse_marginal(u.marginal(xs))
        assert np.all(np.abs(back - xs) <= 1e-10 * xs)

    def test_marginal_of_inverse(self):
        # U'(I(y)) = y to 1e-12 relative
        u = CrraUtility(p=0.5)
        ys = np.geomspace(1e-6, 1e6, 50)
        assert np.all(np.abs(u.marginal(u.inverse_marginal(ys)) - ys) <= 1e-12 * ys)

    def test_concavity_and_monotonicity(self):
        u = CrraUtility(p=0.5)
        xs = np.linspace(0.1, 10.0, 200)
        vals = u.u(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) < 0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 0.0, float("nan")])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ParameterError):
            CrraUtility(p=p)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain_errors(self, x):
        u = CrraUtility(p=0.5)
        with pytest.raises(DomainError):
            u.u(x)
        with pytest.raises(DomainError):
            u.inverse_marginal(x)
        with pytest.raises(DomainError):
            u.dual(x)


class TestLegendreDual:
    def test_examples(self):
        assert CrraUtility(p=0.5).dual(1.0) == pytest.approx(1.0)
        assert CrraUtility(p=0.5).dual(2.0) == pytest.approx(0.5)
        assert CrraUtility(p=-1.0).dual(1.0) == pytest.approx(-2.0)

    def test_grid_maximization_oracle(self):
        # brute-force sup_x [U(x) - x y] agrees with the closed form
        u = CrraUtility(p=0.5)
        xs = np.geomspace(1e-6, 1e6, 400000)
        for y in (0.5, 1.0, 2.0):
            brute = np.max(u.u(xs) - xs * y)
            assert u.dual(y) == pytest.approx(brute, rel=1e-7)

    @given(
        p=st.sampled_from([-2.0, -1.0, 0.3, 0.5, 0.8]),
        logx=st.floats(-5, 5),
        logy=st.floats(-5, 5),
    )
    @settings(max_examples=100)
    def test_fenchel_inequality(self, p, logx, logy):
        u = CrraUtility(p=p)
        x, y = float(np.exp(logx)), float(np.exp(logy))
        assert u.dual(y) >= u.u(x) - x * y - 1e-12 * max(1.0, abs(u.u(x)))

    def test_dual_strictly_decreasing_convex(self):
        u = CrraUtility(p=0.5)
        ys = np.geomspace(0.1, 10, 100)
        vals = u.dual(ys)
        assert np.all(np.diff(vals) < 0)
        assert np.all(np.diff(vals, 2) > 0)


class TestDiscounts:
    def test_exponential_example(self):
        d = ExponentialDiscount(rho=0.1)
        h, hp = d.h(0.0), d.h_prime(0.0)
        assert h == pytest.approx(1.0)
        assert hp == pytest.approx(-0.1)

    def test_hyperbolic_example(self):
        d = HyperbolicDiscount(k=1.0, gamma=2.0)
        h, hp = d.h(1.0), d.h_prime(1.0)
        assert h == pytest.approx(0.25)
        assert hp == pytest.approx(-0.25)

    def test_mixture_example(self):
        d = ExponentialMixtureDiscount(betas=(0.5, 0.5), rhos=(0.0, 1.0))
        h, hp = d.h(0.0), d.h_prime(0.0)
        assert h == pytest.approx(1.0)
        assert hp == pytest.approx(-0.5)

    @pytest.mark.parametrize("d", DISCOUNT_VARIANTS)
    def test_h_at_zero_is_one(self, d):
        assert d.h(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", DISCOUNT_VARIANTS)
    @given(t=st.floats(0.0, 5.0))
    @settings(max_examples=40)
    def test_h_prime_matches_finite_differences(self, d, t):
        step = 1e-5
        t = max(t, step)  # keep the central stencil inside the domain
        hp = d.h_prime(t)
        fd = (d.h(t + step) - d.h(t - step)) / (2 * step)
        assert abs(hp - fd) <= 1e-6 * max(abs(hp), 1e-12)

    @pytest.mark.parametrize("d", DISCOUNT_VARIANTS)
    @given(t1=st.floats(0.0, 5.0), t2=st.floats(0.0, 5.0))
    @settings(max_examples=40)
    def test_h_positive_and_nonincreasing(self, d, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert d.h(hi) > 0
        assert d.h(lo) >= d.h(hi)

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ExponentialMixtureDiscount(betas=(0.5, 0.6), rhos=(0.1, 0.2))

    def test_mixture_rejects_nonpositive_weight(self):
        with pytest.raises(ParameterError):
            ExponentialMixtureDiscount(betas=(1.2, -0.2), rhos=(0.1, 0.2))

    def test_hyperbolic_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            HyperbolicDiscount(k=0.0, gamma=1.0)
        with pytest.raises(ParameterError):
            HyperbolicDiscount(k=1.0, gamma=-1.0)


class TestTimeGrid:
    def test_nodes_uniform(self):
        g = TimeGrid(horizon=2.0, n_steps=4)
        assert g.dt == pytest.approx(0.5)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("kwargs", [
        dict(horizon=0.0, n_steps=10),
        dict(horizon=-1.0, n_steps=10),
        dict(horizon=1.0, n_steps=1),
    ])
    def test_rejects_bad_grid(self, kwargs):
        with pytest.raises(ParameterError):
            TimeGrid(**kwargs)
