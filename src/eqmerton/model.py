"""Economic primitives: market parameters, CRRA utility, discount functions, time grid.

All types are immutable after construction and validated eagerly. Operations
are pure functions of their arguments and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ParameterError",
    "DomainError",
    "MarketParams",
    "CrraUtility",
    "ExponentialDiscount",
    "ExponentialMixtureDiscount",
    "HyperbolicDiscount",
    "DiscountSpec",
    "TimeGrid",
]


class ParameterError(ValueError):
    """Invalid model parameters at construction time."""


class DomainError(ValueError):
    """Operation evaluated outside its mathematical domain."""


def _require_positive(value, name: str) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError(f"{name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class MarketParams:
    """One riskless asset at rate r, one stock with drift alpha and volatility sigma.

    The excess return mu = alpha - r must be strictly positive.
    """

    r: float
    alpha: float
    sigma: float

    def __post_init__(self):
        if not (self.r > 0):
            raise ParameterError(f"riskless rate must be > 0, got {self.r}")
        if not (self.sigma > 0):
            raise ParameterError(f"volatility must be > 0, got {self.sigma}")
        if not (self.mu > 0):
            raise ParameterError(
                f"excess return alpha - r must be > 0, got {self.alpha} - {self.r}"
            )

    @property
    def mu(self) -> float:
        return self.alpha - self.r

    @classmethod
    def from_excess_return(cls, r: float, mu: float, sigma: float) -> "MarketParams":
        return cls(r=r, alpha=r + mu, sigma=sigma)


@dataclass(frozen=True)
class CrraUtility:
    """Power utility U(x) = x^p / p with p < 1, p != 0.

    Log utility (p = 0) is deliberately unsupported: the one-dimensional
    value-function reduction used throughout this package is singular there.
    """

    p: float

    def __post_init__(self):
        if not np.isfinite(self.p) or self.p >= 1 or abs(self.p) < 1e-12:
            raise ParameterError(
                f"risk-aversion exponent must satisfy p < 1 and p != 0, got {self.p}"
            )

    def u(self, x):
        _require_positive(x, "wealth/consumption")
        x = np.asarray(x, dtype=float)
        out = x**self.p / self.p
        return float(out) if out.ndim == 0 else out

    def marginal(self, x):
        _require_positive(x, "wealth/consumption")
        x = np.asarray(x, dtype=float)
        out = x ** (self.p - 1.0)
        return float(out) if out.ndim == 0 else out

    def inverse_marginal(self, y):
        _require_positive(y, "marginal utility")
        y = np.asarray(y, dtype=float)
        out = y ** (1.0 / (self.p - 1.0))
        return float(out) if out.ndim == 0 else out

    def dual(self, y):
        """Convex conjugate sup_x [U(x) - x y] = ((1-p)/p) y^(p/(p-1))."""
        _require_positive(y, "dual variable")
        y = np.asarray(y, dtype=float)
        out = (1.0 - self.p) / self.p * y ** (self.p / (self.p - 1.0))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialDiscount:
    """h(t) = exp(-rho t)."""

    rho: float

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho < 0:
            raise ParameterError(f"discount rate must be >= 0, got {self.rho}")

    def h(self, t):
        return np.exp(-self.rho * np.asarray(t, dtype=float))

    def h_prime(self, t):
        return -self.rho * self.h(t)


@dataclass(frozen=True)
class ExponentialMixtureDiscount:
    """h(t) = sum_n beta_n exp(-rho_n t) with beta_n > 0 summing to one."""

    betas: tuple[float, ...]
    rhos: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "rhos", tuple(float(r) for r in self.rhos))
        if len(self.betas) != len(self.rhos) or not self.betas:
            raise ParameterError("mixture needs matching, nonempty weight/rate lists")
        if any(b <= 0 for b in self.betas):
            raise ParameterError(f"mixture weights must be > 0, got {self.betas}")
        if any(r < 0 or not np.isfinite(r) for r in self.rhos):
            raise ParameterError(f"mixture rates must be >= 0, got {self.rhos}")
        if abs(sum(self.betas) - 1.0) > 1e-12:
            raise ParameterError(
                f"mixture weights must sum to 1 (h(0)=1), got sum {sum(self.betas)!r}"
            )

    @property
    def n_terms(self) -> int:
        return len(self.betas)

    def h(self, t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-np.multiply.outer(t, np.array(self.rhos)))
        return e @ np.array(self.betas)

    def h_prime(self, t):
        t = np.asarray(t, dtype=float)
        rhos = np.array(self.rhos)
        e = np.exp(-np.multiply.outer(t, rhos))
        return -(e * rhos) @ np.array(self.betas)


@dataclass(frozen=True)
class HyperbolicDiscount:
    """Generalized hyperbolic h(t) = (1 + k t)^(-gamma)."""

    k: float
    gamma: float

    def __post_init__(self):
        if not (self.k > 0):
            raise ParameterError(f"hyperbolic k must be > 0, got {self.k}")
        if not (self.gamma > 0):
            raise ParameterError(f"hyperbolic gamma must be > 0, got {self.gamma}")

    def h(self, t):
        return (1.0 + self.k * np.asarray(t, dtype=float)) ** (-self.gamma)

    def h_prime(self, t):
        t = np.asarray(t, dtype=float)
        return -self.gamma * self.k * (1.0 + self.k * t) ** (-self.gamma - 1.0)


DiscountSpec = Union[ExponentialDiscount, ExponentialMixtureDiscount, HyperbolicDiscount]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = horizon."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 2:
            raise ParameterError(f"n_steps must be an integer >= 2, got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

