import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqmerton import cli, config, duality, simulate
from eqmerton.config import ConfigError, RunConfig, SimSettings, SolverSettings, load_config
from eqmerton.model import ExponentialDiscount, HyperbolicDiscount

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
        cfg = load_config(write_ini(tmp_path, extra="x0 = 2\n\n[solver]\nmax_iter = 50\n"))
        assert cfg.sim.x0 == 2.0 and isinstance(cfg.sim.x0, float)
        assert cfg.solver == SolverSettings(max_iter=50)
        with pytest.raises(ConfigError, match="'n_paths' in \\[sim\\] is not an integer"):
            load_config(write_ini(tmp_path, body=BASE_INI.replace("5000", "5e3")))

    def test_manifest_values_must_have_the_field_type(self, tmp_path):
        data = load_config(write_ini(tmp_path)).to_dict()
        data["solver"]["max_iter"] = 2.5
        with pytest.raises(ConfigError, match="'max_iter' in \\[solver\\] is not an integer"):
            RunConfig.from_dict(data)


REMOVED_SOLVER_KEYS = ("damping", "mixture_terms", "rho_min", "rho_max", "rho_count")


class TestRemovedSolverKeys:
    @pytest.mark.parametrize("key", REMOVED_SOLVER_KEYS)
    def test_ini_key_is_config_error(self, tmp_path, capsys, key):
        ini = write_ini(tmp_path, extra=f"\n[solver]\n{key} = 1\n")
        assert cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", REMOVED_SOLVER_KEYS)
    def test_manifest_key_is_config_error(self, tmp_path, capsys, key):
        data = load_config(write_ini(tmp_path)).to_dict()
        data["solver"][key] = 1.0
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "solve", "config": data}))
        assert cli.main(["solve", "--config", str(manifest),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err


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
    assert readme_config_reference() == config._SECTION_KEYS


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

    def test_mixture_method_on_hyperbolic_records_fit(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", ini, "--out", str(out),
                         "--method", "mixture"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        fit = manifest["mixture_fit"]
        assert fit["sup_error_h"] < 1e-2
        assert sum(fit["betas"]) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_requires_exponential(self, tmp_path):
        ini = write_ini(tmp_path)
        rc = cli.main(["solve", "--config", ini, "--out", str(tmp_path / "o"),
                       "--method", "closed_form"])
        assert rc == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_nonconvergence_exit_code_with_partial_outputs(self, tmp_path):
        ini = write_ini(tmp_path, extra="\n[solver]\nmax_iter = 1\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", ini, "--out", str(out)]) == 3
        # diagnostics still written
        assert (out / "bounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == "non_convergence"
        assert manifest["iterations"] == 1

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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        ini = write_ini(tmp_path, extra="\n[solver]\nmax_iter = 1\n")
        assert_solver_failure(
            capsys, ["verify", "--config", ini, "--out", str(tmp_path / "o")])

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

    def test_single_spec_degenerate(self, tmp_path):
        ini = self.compare_ini(
            tmp_path, "solo",
            "[discount.solo]\nkind = exponential\nrho = 0.1\n",
        )
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", ini, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")[1:]
        assert all(ln.startswith("solo,") for ln in lines)


class TestCliSimulate:
    def test_simulate_outputs_and_value_match(self, tmp_path):
        ini = write_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", ini, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        j, se = manifest["j_estimate"], manifest["j_std_error"]
        assert abs(j - manifest["value_at_start"]) <= 3 * se
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

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        ini = write_ini(tmp_path, extra="\n[solver]\nmax_iter = 1\n")
        assert_solver_failure(
            capsys, ["simulate", "--config", ini, "--out", str(tmp_path / "o")])
