"""Strict configuration parsing for the command-line pipelines.

Configs are INI files with sections [market], [utility], [discount], [grid]
and optional [solver], [sim], [output], [compare] plus per-label
[discount.<label>] sections for comparisons. Unknown sections or keys are
rejected. A previously written run manifest (JSON) can be passed instead of
an INI file and reproduces the run exactly.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .model import (
    CrraUtility,
    DiscountSpec,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    ParameterError,
    TimeGrid,
)

__all__ = ["ConfigError", "SolverSettings", "SimSettings", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# The settings dataclasses are the schema of their sections: the field names
# are the allowed keys, the defaults are the defaults, and each default's type
# is the value type (see _settings).


@dataclass(frozen=True)
class SolverSettings:
    method: str = "picard"
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(
                f"solver method must be one of {sorted(_METHODS)}, got {self.method!r}")


@dataclass(frozen=True)
class SimSettings:
    n_paths: int = 100_000
    seed: int = 42
    x0: float = 1.0
    n_workers: int = 1
    block_size: int = 4096


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams
    utility: CrraUtility
    grid: TimeGrid
    discount: Optional[DiscountSpec]
    solver: SolverSettings = field(default_factory=SolverSettings)
    sim: SimSettings = field(default_factory=SimSettings)
    output_dir: str = "out"
    compare_discounts: dict = field(default_factory=dict)
    probe_times: tuple = ()

    def to_dict(self) -> dict:
        return {
            "market": {"r": self.market.r, "alpha": self.market.alpha,
                       "sigma": self.market.sigma},
            "utility": {"p": self.utility.p},
            "grid": {"horizon": self.grid.horizon, "n_steps": self.grid.n_steps},
            "discount": _discount_to_dict(self.discount) if self.discount else None,
            "solver": vars(self.solver).copy(),
            "sim": vars(self.sim).copy(),
            "output_dir": self.output_dir,
            "compare_discounts": {
                label: _discount_to_dict(d) for label, d in self.compare_discounts.items()
            },
            "probe_times": list(self.probe_times),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        try:
            market = MarketParams(**data["market"])
            utility = CrraUtility(**data["utility"])
            grid = TimeGrid(**data["grid"])
            discount = _discount_from_dict(data["discount"]) if data.get("discount") else None
            solver = _settings(SolverSettings, "solver", data.get("solver", {}))
            sim = _settings(SimSettings, "sim", data.get("sim", {}))
            compare = {
                label: _discount_from_dict(d)
                for label, d in data.get("compare_discounts", {}).items()
            }
        except (ParameterError, TypeError, KeyError) as exc:
            raise ConfigError(f"invalid resolved config: {exc}") from exc
        return cls(
            market=market, utility=utility, grid=grid, discount=discount,
            solver=solver, sim=sim, output_dir=data.get("output_dir", "out"),
            compare_discounts=compare, probe_times=tuple(data.get("probe_times", ())),
        )


def _discount_to_dict(d: DiscountSpec) -> dict:
    if isinstance(d, ExponentialDiscount):
        return {"kind": "exponential", "rho": d.rho}
    if isinstance(d, ExponentialMixtureDiscount):
        return {"kind": "mixture", "betas": list(d.betas), "rhos": list(d.rhos)}
    if isinstance(d, HyperbolicDiscount):
        return {"kind": "hyperbolic", "k": d.k, "gamma": d.gamma}
    raise ConfigError(f"unknown discount type {type(d).__name__}")


def _discount_from_dict(data: dict) -> DiscountSpec:
    kind = data.get("kind")
    if kind == "exponential":
        return ExponentialDiscount(rho=float(data["rho"]))
    if kind == "mixture":
        return ExponentialMixtureDiscount(
            betas=tuple(float(b) for b in data["betas"]),
            rhos=tuple(float(r) for r in data["rhos"]),
        )
    if kind == "hyperbolic":
        return HyperbolicDiscount(k=float(data["k"]), gamma=float(data["gamma"]))
    raise ConfigError(f"unknown discount kind {kind!r}")


_SECTION_KEYS = {
    "market": {"r", "alpha", "mu", "sigma"},
    "utility": {"p"},
    "grid": {"horizon", "n_steps"},
    "discount": {"kind", "rho", "betas", "rhos", "k", "gamma"},
    "solver": {f.name for f in fields(SolverSettings)},
    "sim": {f.name for f in fields(SimSettings)},
    "output": {"dir"},
    "compare": {"labels", "probe_times"},
}

_METHODS = {"picard", "mixture", "closed_form"}


def _check_keys(section: str, items: dict, allowed: set) -> None:
    unknown = set(items) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section [{section}]")


def _typed(kind: type, raw):
    """raw as a value of the given type: INI strings are parsed, JSON values
    must already have it (an int also serves as a float)."""
    if isinstance(raw, str):
        return kind(raw)
    allowed = (int, float) if kind is float else kind
    if isinstance(raw, bool) or not isinstance(raw, allowed):
        raise TypeError
    return kind(raw)


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _get(items, section, key, kind: type = float):
    if key not in items:
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    try:
        return _typed(kind, items[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{key}' in [{section}] is not {_KIND_NAMES[kind]}") from exc


def _settings(cls, section: str, items: dict):
    """One settings dataclass from the raw values of its section (INI strings
    or JSON scalars); absent keys keep the field defaults."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    _check_keys(section, items, set(kinds))
    return cls(**{key: _get(items, section, key, kinds[key]) for key in items})


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok.strip()) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers: {raw!r}") from exc


def _parse_market(items: dict) -> MarketParams:
    _check_keys("market", items, _SECTION_KEYS["market"])
    r = _get(items, "market", "r")
    sigma = _get(items, "market", "sigma")
    has_alpha, has_mu = "alpha" in items, "mu" in items
    if has_alpha == has_mu:
        raise ConfigError("section [market] needs exactly one of 'alpha' or 'mu'")
    try:
        if has_alpha:
            return MarketParams(r=r, alpha=_get(items, "market", "alpha"), sigma=sigma)
        return MarketParams.from_excess_return(r=r, mu=_get(items, "market", "mu"),
                                               sigma=sigma)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_discount(section: str, items: dict) -> DiscountSpec:
    _check_keys(section, items, _SECTION_KEYS["discount"])
    kind = items.get("kind")
    try:
        if kind == "exponential":
            return ExponentialDiscount(rho=_get(items, section, "rho"))
        if kind == "mixture":
            if "betas" not in items or "rhos" not in items:
                raise ConfigError(f"mixture discount in [{section}] needs betas and rhos")
            return ExponentialMixtureDiscount(
                betas=_float_list(items["betas"]), rhos=_float_list(items["rhos"])
            )
        if kind == "hyperbolic":
            return HyperbolicDiscount(
                k=_get(items, section, "k"),
                gamma=_get(items, section, "gamma"),
            )
    except ParameterError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc
    raise ConfigError(
        f"section [{section}] needs kind = exponential | mixture | hyperbolic, got {kind!r}"
    )


def load_config(path) -> RunConfig:
    """Load a RunConfig from an INI config file or a JSON run manifest."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return RunConfig.from_dict(data.get("config", data))

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    known = set(_SECTION_KEYS)
    compare_labels: tuple[str, ...] = ()
    sections = {name: dict(parser.items(name)) for name in parser.sections()}

    if "compare" in sections:
        _check_keys("compare", sections["compare"], _SECTION_KEYS["compare"])
        compare_labels = tuple(
            tok.strip() for tok in sections["compare"].get("labels", "").split(",")
            if tok.strip()
        )
        if not compare_labels:
            raise ConfigError("section [compare] needs a nonempty 'labels' list")
    label_sections = {f"discount.{label}" for label in compare_labels}
    for name in sections:
        if name not in known and name not in label_sections:
            raise ConfigError(f"unknown section [{name}]")
    for required in ("market", "utility", "grid"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    if "discount" not in sections and not compare_labels:
        raise ConfigError("missing required section [discount]")

    market = _parse_market(sections["market"])
    util_items = sections["utility"]
    _check_keys("utility", util_items, _SECTION_KEYS["utility"])
    try:
        utility = CrraUtility(p=_get(util_items, "utility", "p"))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    grid_items = sections["grid"]
    _check_keys("grid", grid_items, _SECTION_KEYS["grid"])
    try:
        grid = TimeGrid(
            horizon=_get(grid_items, "grid", "horizon"),
            n_steps=_get(grid_items, "grid", "n_steps", int),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    discount = _parse_discount("discount", sections["discount"]) if "discount" in sections else None

    solver = _settings(SolverSettings, "solver", sections.get("solver", {}))
    sim = _settings(SimSettings, "sim", sections.get("sim", {}))

    output_dir = "out"
    if "output" in sections:
        _check_keys("output", sections["output"], _SECTION_KEYS["output"])
        output_dir = sections["output"].get("dir", "out")

    compare = {}
    for label in compare_labels:
        name = f"discount.{label}"
        if name not in sections:
            raise ConfigError(f"label {label!r} listed in [compare] but [{name}] is missing")
        compare[label] = _parse_discount(name, sections[name])

    probe_times: tuple = ()
    if "compare" in sections and "probe_times" in sections["compare"]:
        probe_times = _float_list(sections["compare"]["probe_times"])

    return RunConfig(
        market=market, utility=utility, grid=grid, discount=discount,
        solver=solver, sim=sim, output_dir=output_dir,
        compare_discounts=compare, probe_times=probe_times,
    )
