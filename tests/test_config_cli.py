import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqmerton import cli, config, duality, policy, simulate, solver
from eqmerton.config import ConfigError, RunConfig, SimSettings, SolverSettings, load_config
from eqmerton.model import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
)
from eqmerton.output import write_manifest
from eqmerton.simulate import SimConfig

BASE_INI = """\
[market]
r = 0.05
mu = 0.07
sigma = 0.2

[utility]
p = 0.5

[grid]
horizon = 1.0
n_steps = 200

[discount]
kind = hyperbolic
k = 1.0
gamma = 1.0

[sim]
n_paths = 5000
seed = 7
"""


def write_ini(tmp_path, body=BASE_INI, extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(body + extra)
    return str(path)


def assert_solver_failure(capsys, argv):
    """The command exits 3 with a single `error:` line on stderr."""
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")


def fail_picard(monkeypatch):
    """Every Picard solve raises NonConvergenceError after 7 sweeps at 2.5e-3."""
    def fail(*_args, **_kwargs):
        raise solver.NonConvergenceError(7, 2.5e-3, "forced")
    monkeypatch.setattr(solver, "picard_solve", fail)


class TestConfigParsing:
    def test_loads_base_config(self, tmp_path):
        cfg = load_config(write_ini(tmp_path))
        assert cfg.market.mu == pytest.approx(0.07)
        assert isinstance(cfg.discount, HyperbolicDiscount)
        assert cfg.sim.n_paths == 5000

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_ini(tmp_path, extra="\n[solver]\nmethod = picard\ntypo = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_ini(tmp_path, extra="\n[mystery]\nx = 1\n"))

    def test_missing_section_rejected(self, tmp_path):
        body = BASE_INI.replace("[utility]\np = 0.5\n\n", "")
        with pytest.raises(ConfigError, match="utility"):
            load_config(write_ini(tmp_path, body=body))

    def test_alpha_and_mu_both_rejected(self, tmp_path):
        body = BASE_INI.replace("mu = 0.07", "mu = 0.07\nalpha = 0.12")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_ini(tmp_path, body=body))

    def test_bad_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="method"):
            load_config(write_ini(tmp_path, extra="\n[solver]\nmethod = magic\n"))

    def test_mixture_needs_rates_and_weights(self, tmp_path):
        body = BASE_INI.replace("kind = hyperbolic\nk = 1.0\ngamma = 1.0",
                                "kind = mixture\nbetas = 0.4, 0.6")
        with pytest.raises(ConfigError, match="betas and rhos"):
            load_config(write_ini(tmp_path, body=body))

    def test_compare_labels_require_sections(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            load_config(write_ini(tmp_path, extra="\n[compare]\nlabels = ghost\n"))

    def test_dict_roundtrip(self, tmp_path):
        cfg = load_config(write_ini(tmp_path))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_nonnumeric_value_rejected(self, tmp_path):
        body = BASE_INI.replace("p = 0.5", "p = half")
        with pytest.raises(ConfigError, match="not a number"):
            load_config(write_ini(tmp_path, body=body))

    def test_settings_values_are_typed(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, extra="x0 = 2\n\n[solver]\ntol = 1e-8\n"))
        assert cfg.sim.x0 == 2.0 and isinstance(cfg.sim.x0, float)
        assert cfg.solver == SolverSettings(tol=1e-8)
        with pytest.raises(ConfigError, match="'n_paths' in \\[sim\\] is not an integer"):
            load_config(write_ini(tmp_path, body=BASE_INI.replace("5000", "5e3")))

    def test_manifest_values_must_have_the_field_type(self, tmp_path):
        data = load_config(write_ini(tmp_path)).to_dict()
        data["solver"]["tol"] = "1e-8"
        with pytest.raises(ConfigError, match="'tol' in \\[solver\\] is not a number"):
            RunConfig.from_dict(data)


# (section, key) of the keys that are gone; [sim] block_size is now the
# constant simulate._BLOCK_PAIRS
REMOVED_KEYS = [pytest.param(section, key, id=key) for section, key in (
    ("solver", "damping"), ("solver", "mixture_terms"), ("solver", "rho_min"),
    ("solver", "rho_max"), ("solver", "rho_count"), ("solver", "max_iter"),
    ("sim", "block_size"))]


class TestRemovedSolverKeys:
    @pytest.mark.parametrize("section, key", REMOVED_KEYS)
    def test_ini_key_is_config_error(self, tmp_path, capsys, section, key):
        # BASE_INI ends in its [sim] section
        extra = f"{key} = 1\n" if section == "sim" else f"\n[{section}]\n{key} = 1\n"
        ini = write_ini(tmp_path, extra=extra)
        assert cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", REMOVED_KEYS)
    def test_manifest_key_is_config_error(self, tmp_path, capsys, section, key):
        data = load_config(write_ini(tmp_path)).to_dict()
        data[section][key] = 1.0
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "solve", "config": data}))
        assert cli.main(["solve", "--config", str(manifest),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err


def manifest_of(tmp_path, edit, body=BASE_INI):
    """A manifest of the config in body, changed by edit(config dict)."""
    data = load_config(write_ini(tmp_path, body=body)).to_dict()
    edit(data)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "solve", "config": data}))
    return str(path)


def set_key(section, key, value):
    def edit(data):
        data[section][key] = value
    return edit


class TestEverySectionIsChecked:
    """Keys and value types are checked in every section of an INI file and
    of a manifest alike; each case is a config error naming the key."""

    @pytest.mark.parametrize("line", ["rho = 0.3", "betas = 0.4, 0.6"])
    def test_ini_key_of_another_discount_kind(self, tmp_path, capsys, line):
        body = BASE_INI.replace("gamma = 1.0", f"gamma = 1.0\n{line}")
        ini = write_ini(tmp_path, body=body)
        assert cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o")]) == 2
        assert f"'{line.split()[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        (lambda data: data.update(solvr={"tol": 1e-8}), "solvr"),
        (set_key("discount", "gama", 1.0), "gama"),
        (set_key("discount", "k", "1.5"), "k"),
        (set_key("grid", "n_steps", 200.0), "n_steps"),
        (set_key("market", "sigma", True), "sigma"),
        (lambda data: data.update(output_dir=["out"]), "dir"),
    ], ids=["top-level", "discount-key", "string-number", "float-integer",
            "bool-number", "list-dir"])
    def test_manifest_key_or_type(self, tmp_path, capsys, edit, key):
        manifest = manifest_of(tmp_path, edit)
        assert cli.main(["solve", "--config", manifest, "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_manifest_probe_times_must_be_a_list(self, tmp_path, capsys):
        body = (BASE_INI.split("[discount]")[0]
                + "[compare]\nlabels = expo\nprobe_times = 0.5\n\n"
                + "[discount.expo]\nkind = exponential\nrho = 0.1\n")
        manifest = manifest_of(tmp_path, lambda data: data.update(probe_times="0.5"),
                               body=body)
        assert cli.main(["compare", "--config", manifest,
                         "--out", str(tmp_path / "o")]) == 2
        assert "'probe_times' in [compare] is not a list of numbers" in \
            capsys.readouterr().err

    def test_manifest_that_is_not_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{")
        assert cli.main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse")


# Random valid configs, each written as INI text by the test itself: the
# solver methods with the discount kinds each applies to, alpha or mu,
# compare labels with and without probe times.

METHOD_KINDS = {"picard": ("exponential", "mixture", "hyperbolic"),
                "mixture": ("mixture",), "closed_form": ("exponential",)}


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def discounts(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "exponential":
        rho = draw(_num(0.0, 2.0))
        return ExponentialDiscount(rho=rho), f"kind = exponential\nrho = {rho!r}\n"
    if kind == "hyperbolic":
        k, gamma = draw(_num(0.01, 10.0)), draw(_num(0.01, 5.0))
        return (HyperbolicDiscount(k=k, gamma=gamma),
                f"kind = hyperbolic\nk = {k!r}\ngamma = {gamma!r}\n")
    weights = draw(st.lists(_num(0.1, 1.0), min_size=1, max_size=4))
    betas = tuple(w / sum(weights) for w in weights)
    rhos = tuple(draw(st.lists(_num(0.0, 5.0), min_size=len(betas), max_size=len(betas))))
    return (ExponentialMixtureDiscount(betas=betas, rhos=rhos),
            f"kind = mixture\nbetas = {', '.join(map(repr, betas))}\n"
            f"rhos = {', '.join(map(repr, rhos))}\n")


@st.composite
def configs(draw):
    """(RunConfig, its INI text)."""
    r, sigma, mu = draw(_num(0.001, 0.2)), draw(_num(0.05, 1.0)), draw(_num(0.001, 0.3))
    if draw(st.booleans()):
        market, market_line = MarketParams.from_excess_return(r, mu, sigma), f"mu = {mu!r}"
    else:
        market, market_line = MarketParams(r, r + mu, sigma), f"alpha = {r + mu!r}"
    p = draw(st.one_of(_num(-5.0, -0.01), _num(0.01, 0.95)))
    horizon, n_steps = draw(_num(0.1, 100.0)), draw(st.integers(2, 5000))
    solver = SolverSettings(method=draw(st.sampled_from(list(METHOD_KINDS))),
                            tol=draw(_num(1e-14, 1e-2)))
    kinds = METHOD_KINDS[solver.method]
    sim = SimSettings(n_paths=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**31)),
                      x0=draw(_num(0.1, 10.0)), n_workers=draw(st.integers(0, 8)))
    out_dir = draw(st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_/.-]{0,15}", fullmatch=True))
    labels = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
                           max_size=3, unique=True))
    compare = {label: draw(discounts(kinds)) for label in labels}
    probes = tuple(draw(st.lists(_num(0.0, horizon), max_size=4))) if labels else ()
    discount = draw(discounts(kinds)) if not labels or draw(st.booleans()) else None
    text = (f"[market]\nr = {r!r}\n{market_line}\nsigma = {sigma!r}\n\n"
            f"[utility]\np = {p!r}\n\n[grid]\nhorizon = {horizon!r}\nn_steps = {n_steps}\n\n"
            f"[solver]\nmethod = {solver.method}\ntol = {solver.tol!r}\n\n[sim]\n"
            + "".join(f"{key} = {value!r}\n" for key, value in vars(sim).items())
            + f"\n[output]\ndir = {out_dir}\n\n")
    if discount:
        text += f"[discount]\n{discount[1]}\n"
    if labels:
        text += f"[compare]\nlabels = {', '.join(labels)}\n"
        if probes:
            text += f"probe_times = {', '.join(map(repr, probes))}\n"
        text += "".join(f"\n[discount.{label}]\n{d[1]}" for label, d in compare.items())
    cfg = RunConfig(market=market, utility=CrraUtility(p=p),
                    grid=TimeGrid(horizon=horizon, n_steps=n_steps),
                    discount=discount[0] if discount else None, solver=solver, sim=sim,
                    output_dir=out_dir,
                    compare_discounts={label: d[0] for label, d in compare.items()},
                    probe_times=probes)
    return cfg, text


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs())
def test_config_round_trips_through_ini_and_manifest(tmp_path, case):
    cfg, text = case
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    from_ini = load_config(ini)
    assert from_ini == cfg
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, {"command": "solve", "config": from_ini.to_dict()})
    assert load_config(manifest) == from_ini


ROOT = Path(__file__).resolve().parents[1]


def readme_config_reference() -> dict:
    """Section -> keys of the README's "Config reference" INI block. A line
    opening with [section] starts a section and continuation lines extend it;
    every `key =` on a line counts, including alternatives after a `;`."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"### Config reference\n+```ini\n(.*?)```", text, re.S).group(1)
    keys, section = {}, None
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
        keys.setdefault(section, set()).update(re.findall(r"(\w+)\s*=", line))
    return keys


def test_readme_config_reference_lists_the_accepted_keys():
    # the keys a section accepts are the parameters of its constructors
    accepted = {section: {key for factory in factories
                          for key in inspect.signature(factory).parameters}
                for section, factories in config._SECTIONS.items()}
    accepted["discount"].add("kind")
    assert readme_config_reference() == accepted


def test_readme_solver_and_sim_values_are_the_defaults(tmp_path):
    text = (ROOT / "README.md").read_text()
    extra = ""
    for section in ("solver", "sim"):
        line = re.search(rf"^\[{section}\](.*)$", text, re.M).group(1).split(";")[0]
        pairs = re.findall(r"(\w+)\s*=\s*(\S+)", line)
        extra += f"\n[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)
    body = BASE_INI.split("[sim]")[0]
    cfg = load_config(write_ini(tmp_path, body=body, extra=extra))
    assert (cfg.solver, cfg.sim) == (SolverSettings(), SimSettings())


def test_cli_import_and_config_load_need_no_scipy():
    # scipy.optimize alone takes about half a second to import, and only
    # the mixture fit and the test-only HJB residual use it
    code = ("import sys, eqmerton.cli\n"
            "from eqmerton.config import load_config\n"
            f"load_config({str(ROOT / 'configs' / 'hyperbolic.ini')!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_and_simulate_need_no_scipy(tmp_path):
    # the stream's Sobol nets, scrambles and normal quantiles are numpy's
    # own: a tiny verify and simulate (their verdicts not under test at this
    # size) import no scipy module
    ini = write_ini(tmp_path, body=BASE_INI.replace("n_steps = 200", "n_steps = 20")
                    .replace("n_paths = 5000", "n_paths = 256"))
    code = ("import sys\nfrom eqmerton import cli\n"
            f"codes = [cli.main([c, '--config', {str(ini)!r}, '--out', {str(tmp_path)!r} + '/' + c])"
            " for c in ('verify', 'simulate')]\n"
            "print(codes[1], sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert (tmp_path / "verify" / "verification.csv").is_file()


class TestCliSolve:
    def test_solve_success_and_terminal_row(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", ini, "--out", str(out)]) == 0
        rows = (out / "lambda.csv").read_text().strip().split("\n")
        last = rows[-1].split(",")
        assert float(last[1]) == 1.0  # lambda(T) = 1
        assert (out / "bounds.csv").exists()
        assert (out / "residuals.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["bounds_contain"] is True

    def test_byte_identical_reruns(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        cli.main(["solve", "--config", ini, "--out", str(out)])
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        cli.main(["solve", "--config", ini, "--out", str(out)])
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        ini = write_ini(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["solve", "--config", ini, "--out", str(out1)])
        cli.main(["solve", "--config", str(out1 / "manifest.json"),
                  "--out", str(out2)])
        assert (out1 / "lambda.csv").read_bytes() == (out2 / "lambda.csv").read_bytes()

    @pytest.mark.parametrize("command, config, method, named", [
        ("solve", "hyperbolic.ini", "closed_form", "kind = hyperbolic in [discount]"),
        ("solve", "hyperbolic.ini", "mixture", "kind = hyperbolic in [discount]"),
        ("compare", "compare.ini", "closed_form",
         "kind = hyperbolic in [discount.hyperbolic]"),
        ("compare", "compare.ini", "mixture",
         "kind = exponential in [discount.exponential]"),
    ], ids=["solve-closed_form", "solve-mixture", "compare-closed_form", "compare-mixture"])
    def test_method_that_does_not_apply_exits_2_with_no_output(
            self, tmp_path, capsys, command, config, method, named):
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(ROOT / "configs" / config),
                         "--out", str(out), "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: solver method {method} ") and named in err
        assert not out.exists()

    def test_closed_form_requires_exponential(self, tmp_path):
        ini = write_ini(tmp_path)
        rc = cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o"),
                       "--method", "closed_form"])
        assert rc == 2

    @staticmethod
    def exponential_ini(tmp_path, p, horizon):
        body = BASE_INI.replace("p = 0.5", f"p = {p}").replace(
            "horizon = 1.0", f"horizon = {horizon}").replace(
            "n_steps = 200", "n_steps = 1000").replace(
            "kind = hyperbolic\nk = 1.0\ngamma = 1.0", "kind = exponential\nrho = 0.1")
        return write_ini(tmp_path, body=body)

    @pytest.mark.parametrize("p, horizon", [(0.95, 100.0), (0.99, 20.0)])
    def test_closed_form_where_e_to_the_rate_overflows(self, tmp_path, p, horizon):
        # lam(0) is 1.8e48 and 1.7e52: representable, though e^{-a T} is not
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", self.exponential_ini(tmp_path, p, horizon),
                             "--out", str(out), "--method", "closed_form"]) == 0
        assert json.loads((out / "manifest.json").read_text())["bounds_contain"] is True

    def test_closed_form_inside_its_tight_bound(self, tmp_path):
        # K > rho makes the bound tight: its upper end is lam(0) itself
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", self.exponential_ini(tmp_path, 0.9, 20.0),
                             "--out", str(out), "--method", "closed_form"]) == 0
        assert json.loads((out / "manifest.json").read_text())["bounds_contain"] is True
        lam0 = (out / "lambda.csv").read_text().split("\n")[1].split(",")[1]
        upper = (out / "bounds.csv").read_text().strip().split(",")[-1]
        assert lam0 == upper

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_nonconvergence_exit_code_with_partial_outputs(self, tmp_path, monkeypatch):
        fail_picard(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", write_ini(tmp_path), "--out", str(out)]) == 3
        # diagnostics still written
        assert (out / "bounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == "non_convergence"
        assert manifest["iterations"] == 7 and manifest["last_delta"] == 2.5e-3

    def test_overflowing_sweep_exit_code(self, tmp_path):
        # p = -10, T = 100: the whole-grid image from lam = 1 overflows; shorter
        # windows marched back from T solve it, with no RuntimeWarning
        body = BASE_INI.replace("p = 0.5", "p = -10").replace(
            "horizon = 1.0", "horizon = 100.0").replace("n_steps = 200", "n_steps = 1000")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", write_ini(tmp_path, body=body),
                             "--out", str(out)]) == 0
        lam0 = float((out / "lambda.csv").read_text().split("\n")[1].split(",")[1])
        assert np.isfinite(lam0) and lam0 > 1e13

    def test_picard_above_the_tight_bound(self, tmp_path):
        # exponential p = 0.99, T = 5: lam(0) = 1.1e13 sits above the continuous
        # upper bound by the quadrature error; the solve converges, the manifest
        # says the box does not contain it, and the relative residuals read on
        # the scale of tol where the absolute ones are scaled by lam
        out = tmp_path / "out"
        ini = self.exponential_ini(tmp_path, 0.99, 5.0)
        assert cli.main(["solve", "--config", ini, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["bounds_contain"] is False
        residuals = {row.split(",")[0]: float(row.split(",")[1]) for row in
                     (out / "residuals.csv").read_text().strip().split("\n")[1:]}
        assert list(residuals) == ["integral_equation", "differential_form",
                                   "integral_equation_relative",
                                   "differential_form_relative"]
        lam_max = float((out / "lambda.csv").read_text().split("\n")[1].split(",")[1])
        for name in ("integral_equation", "differential_form"):
            assert residuals[f"{name}_relative"] == residuals[name] / lam_max
        assert residuals["integral_equation_relative"] <= 1e-9

    def test_manifest_records_sweeps(self, tmp_path):
        body = BASE_INI.replace("kind = hyperbolic\nk = 1.0\ngamma = 1.0",
                                "kind = mixture\nbetas = 0.4, 0.6\nrhos = 0.05, 0.5")
        ini = write_ini(tmp_path, body=body)
        sweeps = {}
        for method in ("picard", "mixture"):
            out = tmp_path / method
            assert cli.main(["solve", "--config", ini, "--out", str(out),
                             "--method", method]) == 0
            sweeps[method] = json.loads((out / "manifest.json").read_text())["sweeps"]
        assert sweeps["picard"] >= 1 and sweeps["mixture"] is None

    def test_mixture_step_failure_exit_code(self, tmp_path, capsys):
        # a 60/yr component rate is unstable for RK4 at a 0.1 step
        body = BASE_INI.replace("n_steps = 200", "n_steps = 10").replace(
            "kind = hyperbolic\nk = 1.0\ngamma = 1.0",
            "kind = mixture\nbetas = 0.5, 0.5\nrhos = 0.05, 60")
        ini = write_ini(tmp_path, body=body, extra="\n[solver]\nmethod = mixture\n")
        out = tmp_path / "out"
        assert_solver_failure(capsys, ["solve", "--config", ini, "--out", str(out)])
        assert (out / "bounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == "step_failure" and manifest["message"]
        assert manifest["config"]["discount"]["rhos"] == [0.05, 60.0]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_stiff_mixture_step_failure_exits_3(self, tmp_path, capsys, command):
        # a 50/yr component rate takes RK4 at a 0.1 step below zero; the
        # commands that solve before they simulate exit as solve does
        body = BASE_INI.replace("n_steps = 200", "n_steps = 10").replace(
            "kind = hyperbolic\nk = 1.0\ngamma = 1.0",
            "kind = mixture\nbetas = 0.5, 0.5\nrhos = 0.05, 50")
        ini = write_ini(tmp_path, body=body, extra="\n[solver]\nmethod = mixture\n")
        assert_solver_failure(capsys, [command, "--config", ini,
                                       "--out", str(tmp_path / "out")])


    def test_solve_without_discount_section_is_config_error(self, tmp_path, capsys):
        # a compare-only config carries [discount.<label>] sections only
        ini = TestCliCompare().compare_ini(
            tmp_path, "expo", "[discount.expo]\nkind = exponential\nrho = 0.1\n")
        assert cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("horizon, n_steps", [(400.0, 1000), (600.0, 1500)])
    def test_solve_past_the_float_range_of_the_bounds(self, tmp_path, horizon, n_steps):
        # A T ~ 760 and ~ 1150: e^{-A T} underflows and the upper envelope
        # overflows, so the bounds box is [0, inf] and must not stop the solve
        body = BASE_INI.replace("horizon = 1.0", f"horizon = {horizon}").replace(
            "n_steps = 200", f"n_steps = {n_steps}")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", write_ini(tmp_path, body=body),
                             "--out", str(out)]) == 0
        residuals = dict(line.split(",") for line in
                         (out / "residuals.csv").read_text().strip().split("\n")[1:])
        assert float(residuals["integral_equation"]) <= 1e-9
        assert (out / "bounds.csv").read_text().strip().endswith(",0,inf")


class TestCliVerify:
    def test_empty_check_list(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", ini, "--out", str(out),
                         "--checks", ""]) == 0
        assert (out / "verification.csv").read_text() == \
            "check,statistic,threshold,pass\n"

    def test_duality_checks_pass(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", ini, "--out", str(out),
                         "--checks", "duality"]) == 0
        body = (out / "verification.csv").read_text()
        assert "dual_pde_residual" in body and "false" not in body

    def test_manifest_lists_the_monte_carlo_samples(self, tmp_path):
        # n_paths = 5001: 2501 antithetic pairs, rounded up to 40 replicates
        # of 64, 2560 pairs behind every Monte Carlo z (the verdicts
        # themselves are not under test at this sample size)
        ini = write_ini(tmp_path, body=BASE_INI.replace("n_paths = 5000", "n_paths = 5001"))
        out = tmp_path / "out"
        cli.main(["verify", "--config", ini, "--out", str(out)])
        samples = json.loads((out / "manifest.json").read_text())["monte_carlo"]
        assert set(samples) == {"value_identity", "martingale_flat",
                                "submartingale_decreasing", "perturbation_gross_spike",
                                "perturbation_first_order_stationarity"}
        assert all(s["n_pairs"] == 2560 and s["std_error"] > 0 for s in samples.values())
        # only the value identity is taken with the terminal control, over
        # the replicates, and it records them, the control's slope and the
        # plain mean's standard error
        identity = samples.pop("value_identity")
        assert identity["n_replicates"] == 40
        assert identity["control_beta"] > 0
        assert identity["std_error_uncontrolled"] > 2 * identity["std_error"]
        assert all(set(s) == {"n_pairs", "std_error"} for s in samples.values())

    def test_martingale_checks_alone_run_without_the_leg(self, tmp_path, monkeypatch,
                                                         chord_matrices):
        # they read no utility functional, so their pass holds the coarse
        # values and forms no chord matrix, only the chords at its
        # checkpoints; on 100 steps a pass on the leg's chords runs in tiles
        # of 2048 rows too, and the table is its bytes
        ini = write_ini(tmp_path, body=BASE_INI.replace("n_steps = 200", "n_steps = 100"))
        tables = {}
        argv = ["verify", "--config", ini, "--checks", "martingale", "--out"]
        assert cli.main(argv + [str(tmp_path / "coarse")]) == 0
        assert chord_matrices == []
        tables["coarse"] = (tmp_path / "coarse" / "verification.csv").read_bytes()
        # the same command with its pass run on the equilibrium leg
        cfg = load_config(ini)
        pol = policy.equilibrium_policy(cli._solve_curve(cfg), cfg.market, cfg.utility)
        leg = simulate.equilibrium_leg(pol, SimConfig(grid=cfg.grid, **asdict(cfg.sim)),
                                       cfg.market, cfg.utility, cfg.discount)
        run_pass = simulate.run_pass
        monkeypatch.setattr(simulate, "run_pass",
                            lambda cfg, estimators, leg_=None: run_pass(cfg, estimators, leg))
        assert cli.main(argv + [str(tmp_path / "leg")]) == 0
        assert len(chord_matrices) == 2 and not leg.takes_moments
        tables["leg"] = (tmp_path / "leg" / "verification.csv").read_bytes()
        assert tables["coarse"] == tables["leg"]
        assert tables["coarse"].count(b"\n") == 3

    def test_perturbed_lambda_fails_verification(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["verify", "--config", ini, "--out", str(out),
                       "--checks", "value_identity",
                       "--debug-perturb-lambda", "0.05"])
        assert rc == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_passed"] is False

    def test_unknown_check_is_config_error(self, tmp_path):
        ini = write_ini(tmp_path)
        assert cli.main(["verify", "--config", ini, "--out", str(tmp_path / "o"),
                         "--checks", "bogus"]) == 2

    @pytest.mark.parametrize("checks", [[], ["--checks", "duality"]])
    def test_verify_without_discount_section_is_config_error(self, tmp_path, capsys,
                                                             checks):
        # the shipped compare config carries [discount.<label>] sections only
        ini = str(ROOT / "configs" / "compare.ini")
        assert cli.main(["verify", "--config", ini, "--out", str(tmp_path / "o"),
                         *checks]) == 2
        assert capsys.readouterr().err == "config error: no [discount] section configured\n"

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        fail_picard(monkeypatch)
        assert_solver_failure(
            capsys, ["verify", "--config", write_ini(tmp_path), "--out", str(tmp_path / "o")])

    def test_martingale_checks_need_no_equilibrium_solve(self, tmp_path, monkeypatch):
        # they read only the bequest-only curve, so a failing lam solve is
        # not their cause to report
        fail_picard(monkeypatch)
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_ini(tmp_path), "--out", str(out),
                         "--checks", "martingale"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_passed"] is True
        assert set(manifest["monte_carlo"]) == {"martingale_flat", "submartingale_decreasing"}

    def test_duality_alone_needs_no_equilibrium_solve(self, tmp_path, monkeypatch):
        # the duality checks read only the bequest-only curve
        fail_picard(monkeypatch)
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_ini(tmp_path), "--out", str(out),
                         "--checks", "duality"]) == 0
        assert json.loads((out / "manifest.json").read_text())["all_passed"] is True

    @pytest.mark.parametrize("checks, passes", [(None, 1), ("duality", 0)])
    def test_monte_carlo_checks_share_one_pass(self, tmp_path, monkeypatch,
                                               checks, passes):
        calls = []
        accumulate = simulate._accumulate_blocks
        monkeypatch.setattr(simulate, "_accumulate_blocks",
                            lambda *a: calls.append(a) or accumulate(*a))
        argv = ["verify", "--config", write_ini(tmp_path), "--out", str(tmp_path / "o")]
        cli.main(argv + (["--checks", checks] if checks else []))
        assert len(calls) == passes

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for workers in (1, 4):
            ini = write_ini(tmp_path, extra=f"n_workers = {workers}\n",
                            name=f"w{workers}.ini")
            outs.append(tmp_path / f"w{workers}")
            cli.main(["verify", "--config", ini, "--out", str(outs[-1])])
        first, second = ((out / "verification.csv").read_bytes() for out in outs)
        assert first == second and first.count(b"\n") == 8

    def test_duality_oracle_finds_a_far_maximiser(self, tmp_path):
        # lam ~ 1e-4 puts the maximiser of lam x^p / p - x y below 1e-6
        body = BASE_INI.replace("n_steps = 200", "n_steps = 10").replace(
            "k = 1.0\ngamma = 1.0", "k = 20.0\ngamma = 3.0")
        ini = write_ini(tmp_path, body=body)
        assert cli.main(["verify", "--config", ini, "--out", str(tmp_path / "o"),
                         "--checks", "duality"]) == 0

    def test_duality_near_p_one(self, tmp_path):
        # p = 0.99: lam^(1/(1-p)) = lam^100 is far past the float range, but
        # the dual value at y = v_x(t, x) is (1-p)/p lam x^p
        body = BASE_INI.replace("p = 0.5", "p = 0.99").replace(
            "horizon = 1.0", "horizon = 2.0").replace("n_steps = 200", "n_steps = 1000")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", "--config", write_ini(tmp_path, body=body),
                             "--out", str(out), "--checks", "duality"]) == 0
        assert "false" not in (out / "verification.csv").read_text()

    def test_duality_near_p_one_with_the_closed_form(self, tmp_path):
        # at p = 0.99, T = 20 the closed form is representable (lam(0) = 1.7e52),
        # and the roundtrip's slope and curvature checks amplify the error of
        # its minimiser in log y by |1/(p-1)| = 100
        ini = TestCliSolve.exponential_ini(tmp_path, 0.99, 20.0)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", "--config", ini, "--out", str(out),
                             "--checks", "duality", "--method", "closed_form"]) == 0
        assert "false" not in (out / "verification.csv").read_text()

    def test_duality_disagreement_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(duality, "grid_legendre_sup", lambda lam, u, y: 1.0)
        rc = cli.main(["verify", "--config", write_ini(tmp_path),
                       "--out", str(tmp_path / "o"), "--checks", "duality"])
        err = capsys.readouterr().err.strip().split("\n")
        assert rc == 4 and len(err) == 1 and err[0].startswith("error: ")


class TestCliCompare:
    def compare_ini(self, tmp_path, labels, sections):
        body = BASE_INI.split("[discount]")[0]
        body += f"[compare]\nlabels = {labels}\nprobe_times = 0.25, 0.5\n\n"
        body += sections
        return write_ini(tmp_path, body=body, name="cmp.ini")

    def test_two_specs_distinct_curves(self, tmp_path):
        ini = self.compare_ini(
            tmp_path, "expo, hyper",
            "[discount.expo]\nkind = exponential\nrho = 0.1\n\n"
            "[discount.hyper]\nkind = hyperbolic\nk = 1.0\ngamma = 1.0\n",
        )
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", ini, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")[1:]
        blocks = {}
        for line in lines:
            label, t, c, lam = line.split(",")
            blocks.setdefault(label, []).append((t, c))
        assert set(blocks) == {"expo", "hyper"}
        # both consumption curves end at c(T) = 1, but the curves differ
        for rows in blocks.values():
            assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
        assert blocks["expo"] != blocks["hyper"]
        assert (out / "inconsistency_expo.csv").exists()
        assert (out / "inconsistency_hyper.csv").exists()

    def test_identical_specs_identical_blocks(self, tmp_path):
        ini = self.compare_ini(
            tmp_path, "one, two",
            "[discount.one]\nkind = exponential\nrho = 0.1\n\n"
            "[discount.two]\nkind = exponential\nrho = 0.1\n",
        )
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", ini, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")[1:]
        one = [ln.split(",", 1)[1] for ln in lines if ln.startswith("one,")]
        two = [ln.split(",", 1)[1] for ln in lines if ln.startswith("two,")]
        assert one == two

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        # labels listed unsorted: the manifest keeps its compare discounts
        # under sorted keys, and the rows come in sorted-label order in both
        ini = self.compare_ini(
            tmp_path, "mixture, exponential",
            "[discount.mixture]\nkind = mixture\nbetas = 0.4, 0.6\nrhos = 0.05, 0.5\n\n"
            "[discount.exponential]\nkind = exponential\nrho = 0.1\n",
        )
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main(["compare", "--config", ini, "--out", str(first)]) == 0
        assert cli.main(["compare", "--config", str(first / "manifest.json"),
                         "--out", str(again)]) == 0
        rows = (first / "compare.csv").read_text().split("\n")
        assert rows[1].startswith("exponential,") and rows[-2].startswith("mixture,")
        for name in ("compare.csv", "inconsistency_exponential.csv",
                     "inconsistency_mixture.csv"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    def test_single_spec_degenerate(self, tmp_path):
        ini = self.compare_ini(
            tmp_path, "solo",
            "[discount.solo]\nkind = exponential\nrho = 0.1\n",
        )
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", ini, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")[1:]
        assert all(ln.startswith("solo,") for ln in lines)


class TestDefaultWorkerCount:
    """[sim] n_workers = 0, the default, runs one worker thread per CPU the
    process may run on; the outputs are those of a single worker."""

    @pytest.mark.parametrize("command, table", [("simulate", "simulation.csv"),
                                                ("verify", "verification.csv")])
    def test_outputs_are_the_bytes_of_one_worker(self, tmp_path, monkeypatch,
                                                 command, table):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        cfg = load_config(write_ini(tmp_path))
        # 2560 pairs in tiles of at most 2048 rows: two tiles, so two threads
        assert cfg.sim.n_workers == 0
        assert SimConfig(grid=cfg.grid, **vars(cfg.sim)).worker_count(simulate._BLOCK_PAIRS) == 2
        out, runs = tmp_path / "out", {}
        for label, extra in (("default", ""), ("one", "n_workers = 1\n")):
            ini = write_ini(tmp_path, extra=extra, name=f"{label}.ini")
            code = cli.main([command, "--config", ini, "--out", str(out)])
            runs[label] = (code, (out / table).read_bytes(),
                           (out / "manifest.json").read_text())
        (code, table_bytes, manifest), one = runs["default"], runs["one"]
        assert (code, table_bytes) == one[:2]
        # the manifest records the configured count, not the resolved one
        assert '"n_workers": 0' in manifest
        assert manifest.replace('"n_workers": 0', '"n_workers": 1') == one[2]

    def test_negative_count_is_config_error(self, tmp_path, capsys):
        ini = write_ini(tmp_path, extra="n_workers = -1\n")
        with pytest.raises(ConfigError, match="n_workers must be >= 0"):
            load_config(ini)
        assert cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o")]) == 2
        assert "n_workers" in capsys.readouterr().err


def test_worker_count_does_not_change_bytes_in_ragged_tiles(tmp_path, monkeypatch):
    # three rows per tile on the 200-step grid; 2500 pairs round up to 40
    # replicates of 64 (2432 to 38), and a block of 301 pairs to four of
    # them: blocks of 256 pairs, whose replicates the tiles split, and the
    # pass ends in a ragged tile of one row (of two)
    monkeypatch.setattr(simulate, "_TILE_ELEMENTS", 3 * 201)
    monkeypatch.setattr(simulate, "_BLOCK_PAIRS", 301)
    tiles = record_tiles(monkeypatch)
    for n_paths, pairs, last in ((5000, 2560, 1), (4864, 2432, 2)):
        body = BASE_INI.replace("n_paths = 5000", f"n_paths = {n_paths}")
        assert_worker_count_keeps_bytes(tmp_path / f"paths{n_paths}", body, (1, 8))
        # four passes, each of whole tiles of three rows and a last one
        assert [sorted(run) for run in tiles] == [[last] + [3] * (pairs // 3)] * 4
        tiles.clear()


def record_tiles(monkeypatch) -> list:
    """The rows of each tile of every pass, a list per pass in the order the
    tiles ran."""
    tiles = []
    accumulate = simulate._accumulate_blocks

    def tiled(cfg, plan, block_fn):
        tiles.append([])
        return accumulate(cfg, plan,
                          lambda W, *a: tiles[-1].append(W.shape[1]) or block_fn(W, *a))

    monkeypatch.setattr(simulate, "_accumulate_blocks", tiled)
    return tiles


def assert_worker_count_keeps_bytes(out, body, worker_counts):
    """simulate and verify on the config body exit 0 and write the same CSV
    bytes at each worker count."""
    for command in ("simulate", "verify"):
        outs, codes = [], set()
        for workers in worker_counts:
            ini = write_ini(out.parent, body=body, extra=f"n_workers = {workers}\n",
                            name=f"{out.name}{command}{workers}.ini")
            outs.append(out / f"{command}{workers}")
            codes.add(cli.main([command, "--config", ini, "--out", str(outs[-1])]))
        assert codes == {0}
        names = sorted(path.name for path in outs[0].glob("*.csv"))
        assert names
        for name in names:
            for other in outs[1:]:
                assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name


def test_worker_count_does_not_change_bytes_on_segment_moments(tmp_path, monkeypatch,
                                                               chord_matrices):
    # the 1000-step leg sums its segments from their Taylor moments and
    # never forms the chord matrix; its widest array is the segment powers,
    # (D + 1) x 16 = 23 x 16 per row (D = 22 for wealth), wider than the
    # heads of verify's two windows (251 and 101 nodes): seven rows per
    # tile over blocks of 256 pairs, and the pass's 2304 rows (2368) end in
    # a ragged tile of one (of two)
    monkeypatch.setattr(simulate, "_TILE_ELEMENTS", 7 * 23 * 16)
    monkeypatch.setattr(simulate, "_BLOCK_PAIRS", 301)
    tiles = record_tiles(monkeypatch)
    for n_paths, pairs, last in ((4608, 2304, 1), (4736, 2368, 2)):
        body = (BASE_INI.replace("n_steps = 200", "n_steps = 1000")
                .replace("n_paths = 5000", f"n_paths = {n_paths}"))
        assert_worker_count_keeps_bytes(tmp_path / f"paths{n_paths}", body, (1, 2, 8))
        # six passes, each of whole tiles of seven rows and a last one
        assert [sorted(run) for run in tiles] == [[last] + [7] * (pairs // 7)] * 6
        tiles.clear()
    assert chord_matrices == []


def test_manifests_record_each_pass_s_layout(tmp_path):
    # 5000 paths round up to 2560 pairs: verify's 200-step leg forms the
    # chords in tiles of 2048 rows, its 1000-step leg and simulate's take
    # segment moments in tiles of 1424, and the martingale checks alone hold
    # the coarse values; the series degrees are the leg's, used or not
    body = BASE_INI.replace("n_steps = 200", "n_steps = 1000")
    runs = {"chords": (["verify"], BASE_INI),
            "coarse": (["verify", "--checks", "martingale"], BASE_INI),
            "verify moments": (["verify"], body), "simulate moments": (["simulate"], body),
            "none": (["verify", "--checks", "duality"], BASE_INI)}
    layouts = {}
    for name, (argv, text) in runs.items():
        out = tmp_path / name.replace(" ", "_")
        assert cli.main([*argv, "--config", write_ini(tmp_path, body=text), "--out", str(out)]) == 0
        layouts[name] = json.loads((out / "manifest.json").read_text())["monte_carlo_pass"]
    moments = {"layout": "segment_moments", "tile_rows": 1424, "n_tiles": 2,
               "series_degrees": {"utility": 17, "wealth": 22}}
    assert layouts == {
        "chords": {"layout": "chords", "tile_rows": 2048, "n_tiles": 2,
                   "series_degrees": {"utility": 18, "wealth": 24}},
        "coarse": {"layout": "coarse_values", "tile_rows": 2048, "n_tiles": 2,
                   "series_degrees": None},
        "verify moments": moments, "simulate moments": moments, "none": None}


class TestCliSimulate:
    def test_simulate_outputs_and_value_match(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        j, se = manifest["j_estimate"], manifest["j_std_error"]
        assert abs(j - manifest["value_at_start"]) <= 3 * se
        assert manifest["j_control_beta"] > 0
        assert manifest["j_std_error_uncontrolled"] > 2 * se
        assert (manifest["n_pairs"], manifest["n_replicates"]) == (2560, 40)
        body = (out / "simulation.csv").read_text().strip().split("\n")
        assert body[0] == "t,mean_wealth,mean_value_over_h"
        assert len(body) == 202  # header + 201 nodes

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        ini1 = write_ini(tmp_path, extra="\n")
        ini4 = write_ini(tmp_path, extra="\n", name="run4.ini")
        with open(ini4, "a") as fh:
            fh.write("n_workers = 4\n")
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        cli.main(["simulate", "--config", ini1, "--out", str(out1)])
        cli.main(["simulate", "--config", ini4, "--out", str(out4)])
        assert (out1 / "simulation.csv").read_bytes() == \
            (out4 / "simulation.csv").read_bytes()

    def test_seed_override_changes_estimate(self, tmp_path):
        ini = write_ini(tmp_path)
        outs = []
        for seed in (7, 8):
            out = tmp_path / f"s{seed}"
            cli.main(["simulate", "--config", ini, "--out", str(out),
                      "--seed", str(seed)])
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert outs[0]["j_estimate"] != outs[1]["j_estimate"]
        assert outs[0]["config"]["sim"]["seed"] == 7
        assert outs[1]["config"]["sim"]["seed"] == 8

    def test_nonconvergence_exit_code(self, tmp_path, capsys, monkeypatch):
        fail_picard(monkeypatch)
        assert_solver_failure(
            capsys, ["simulate", "--config", write_ini(tmp_path), "--out", str(tmp_path / "o")])
