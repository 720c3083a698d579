"""Strict configuration parsing for the command-line pipelines.

A config is an INI file with sections [market], [utility], [discount], [grid]
and optional [solver], [sim], [output], [compare], plus one
[discount.<label>] section per compare label. The JSON manifest of an earlier
run can be passed instead and reproduces that run: its ``config`` object
(``RunConfig.to_dict``) stands for the same sections, with ``output_dir`` as
[output] dir and ``compare_discounts`` as the [compare] labels and their
[discount.<label>] sections.

Both are read into one ``{section: {key: value}}`` mapping, and one builder
validates it. A section's keys and value types are the constructor
parameters of the class it builds: ``MarketParams`` (or, with ``mu`` in place
of ``alpha``, ``MarketParams.from_excess_return``), ``CrraUtility``,
``TimeGrid``, the discount class its ``kind`` names, ``SolverSettings`` and
``SimSettings`` (defined in ``eqmerton.simulate``, whose ``SimConfig`` adds
the grid to it). Unknown sections or keys are rejected. INI values are text,
parsed as the key's type; JSON values must already have it (an integer also
serves as a number, a list as a comma-separated list). The solver method must
apply to every discount of the config: ``picard`` to every kind, ``mixture``
to kind = mixture only, ``closed_form`` to kind = exponential only.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

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
from .simulate import SimSettings

__all__ = ["ConfigError", "SolverSettings", "SimSettings", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class SolverSettings:
    method: str = "picard"
    tol: float = 1e-10

    def __post_init__(self):
        if self.method not in _METHOD_KINDS:
            raise ConfigError(
                f"solver method must be one of {sorted(_METHOD_KINDS)}, got {self.method!r}")


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

    def __post_init__(self):
        method, kinds = self.solver.method, _METHOD_KINDS[self.solver.method]
        sections = {"discount": self.discount,
                    **{f"discount.{label}": d for label, d in self.compare_discounts.items()}}
        for section, d in sections.items():
            if d is not None and _kind(d) not in kinds:
                raise ConfigError(f"solver method {method} does not apply to kind = "
                                  f"{_kind(d)} in [{section}]; it applies to kind = "
                                  f"{' | '.join(kinds)}")

    def to_dict(self) -> dict:
        return {
            **{key: vars(getattr(self, key)).copy()
               for key in ("market", "utility", "grid", "solver", "sim")},
            "discount": _discount_to_dict(self.discount) if self.discount else None,
            "output_dir": self.output_dir,
            "compare_discounts": {
                label: _discount_to_dict(d) for label, d in self.compare_discounts.items()
            },
            "probe_times": list(self.probe_times),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The RunConfig of a manifest's config object (see ``to_dict``)."""
        return _build(_manifest_sections(data))


@dataclass(frozen=True)
class _Output:
    dir: str = "out"


@dataclass(frozen=True)
class _Compare:
    labels: tuple[str, ...]
    probe_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.labels:
            raise ConfigError("section [compare] needs a nonempty 'labels' list")


_DISCOUNTS = {"exponential": ExponentialDiscount, "mixture": ExponentialMixtureDiscount,
              "hyperbolic": HyperbolicDiscount}
# solver method -> the discount kinds it solves: the component ODE is exact
# for exponential mixtures only, the closed form for one exponential
_METHOD_KINDS = {"picard": tuple(_DISCOUNTS), "mixture": ("mixture",),
                 "closed_form": ("exponential",)}

# section -> the constructors its keys are read from ([discount] also takes `kind`)
_SECTIONS = {
    "market": (MarketParams, MarketParams.from_excess_return),
    "utility": (CrraUtility,),
    "grid": (TimeGrid,),
    "discount": tuple(_DISCOUNTS.values()),
    "solver": (SolverSettings,),
    "sim": (SimSettings,),
    "output": (_Output,),
    "compare": (_Compare,),
}


def _kind(d: DiscountSpec) -> str:
    return next(kind for kind, cls in _DISCOUNTS.items() if type(d) is cls)


def _discount_to_dict(d: DiscountSpec) -> dict:
    return {"kind": _kind(d), **{key: list(value) if isinstance(value, tuple) else value
                             for key, value in vars(d).items()}}


class _Text(str):
    """An INI value: text, parsed as its key's type."""


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               tuple[float, ...]: "a list of numbers", tuple[str, ...]: "a list of names"}


def _typed(kind, raw):
    """raw as a value of the given type: INI text is parsed, JSON values must
    already have it (an int also serves as a float, a list as a tuple)."""
    if get_origin(kind) is tuple:
        if isinstance(raw, _Text):
            raw = [_Text(tok.strip()) for tok in raw.split(",") if tok.strip()]
        elif not isinstance(raw, (list, tuple)):
            raise TypeError
        return tuple(_typed(get_args(kind)[0], item) for item in raw)
    if isinstance(raw, _Text):
        return kind(raw)
    allowed = (int, float) if kind is float else kind
    if isinstance(raw, bool) or not isinstance(raw, allowed):
        raise TypeError
    return kind(raw)


def _check_keys(where: str, items: dict, allowed) -> None:
    unknown = set(items) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@functools.cache
def _schema(factory) -> tuple[dict, list]:
    """The value type of each of factory's parameters, and the parameters
    without a default."""
    params = inspect.signature(factory).parameters
    hints = get_type_hints(factory)
    return ({name: hints[name] for name in params},
            [name for name, param in params.items() if param.default is param.empty])


def _make(factory, section: str, items: dict):
    """factory(**items), with the keys, value types and required keys read
    from factory's parameters; absent keys keep their defaults."""
    kinds, required = _schema(factory)
    _check_keys(f"section [{section}]", items, kinds)
    if not set(required) <= set(items):
        raise ConfigError(f"section [{section}] needs {' and '.join(required)}")
    values = {}
    for key, raw in items.items():
        try:
            values[key] = _typed(kinds[key], raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"key '{key}' in [{section}] is not {_TYPE_NAMES[kinds[key]]}") from exc
    try:
        return factory(**values)
    except ParameterError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def _market(items: dict) -> MarketParams:
    if ("alpha" in items) == ("mu" in items):
        raise ConfigError("section [market] needs exactly one of 'alpha' or 'mu'")
    factory = MarketParams.from_excess_return if "mu" in items else MarketParams
    return _make(factory, "market", items)


def _discount(section: str, items: dict) -> DiscountSpec:
    kind = items.get("kind")
    if not (isinstance(kind, str) and kind in _DISCOUNTS):
        raise ConfigError(f"section [{section}] needs kind = "
                          f"{' | '.join(_DISCOUNTS)}, got {kind!r}")
    return _make(_DISCOUNTS[kind], section, {k: v for k, v in items.items() if k != "kind"})


def _build(sections: dict) -> RunConfig:
    """The RunConfig of a {section: {key: value}} mapping, read from an INI
    file or a manifest alike."""
    compare = _make(_Compare, "compare", sections["compare"]) if "compare" in sections else None
    labels = compare.labels if compare else ()
    label_sections = [f"discount.{label}" for label in labels]
    for name in sections:
        if name not in _SECTIONS and name not in label_sections:
            raise ConfigError(f"unknown section [{name}]")
    for name in ("market", "utility", "grid", *label_sections):
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    if "discount" not in sections and not labels:
        raise ConfigError("missing required section [discount]")
    return RunConfig(
        market=_market(sections["market"]),
        utility=_make(CrraUtility, "utility", sections["utility"]),
        grid=_make(TimeGrid, "grid", sections["grid"]),
        discount=_discount("discount", sections["discount"]) if "discount" in sections else None,
        solver=_make(SolverSettings, "solver", sections.get("solver", {})),
        sim=_make(SimSettings, "sim", sections.get("sim", {})),
        output_dir=_make(_Output, "output", sections.get("output", {})).dir,
        compare_discounts={label: _discount(name, sections[name])
                           for label, name in zip(labels, label_sections)},
        probe_times=compare.probe_times if compare else (),
    )


def _manifest_sections(data) -> dict:
    """The sections a manifest's config object (``RunConfig.to_dict``) stands for."""
    if not isinstance(data, dict):
        raise ConfigError("a manifest's config must be a JSON object")
    _check_keys("a manifest's config", data, {f.name for f in fields(RunConfig)})
    sections = {name: data[name] for name in ("market", "utility", "grid", "discount",
                                               "solver", "sim") if data.get(name) is not None}
    if "output_dir" in data:
        sections["output"] = {"dir": data["output_dir"]}
    compare = data.get("compare_discounts") or {}
    if not isinstance(compare, dict):
        raise ConfigError("compare_discounts in a manifest must be a JSON object")
    if compare or data.get("probe_times"):
        sections["compare"] = {"labels": list(compare),
                               "probe_times": data.get("probe_times", [])}
    sections.update((f"discount.{label}", spec) for label, spec in compare.items())
    for name, items in sections.items():
        if not isinstance(items, dict):
            raise ConfigError(f"section [{name}] in a manifest must be a JSON object")
    return sections


def load_config(path) -> RunConfig:
    """Load a RunConfig from an INI config file or a JSON run manifest."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        if path.suffix == ".json":
            data = json.loads(path.read_text())
            return RunConfig.from_dict(data.get("config", data) if isinstance(data, dict)
                                       else data)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(path.read_text())
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return _build({name: {key: _Text(value) for key, value in parser.items(name)}
                   for name in parser.sections()})
