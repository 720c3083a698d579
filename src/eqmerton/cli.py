"""Command-line pipelines: solve, verify, compare, simulate.

Every command reads one config (INI, or a JSON manifest from a previous run),
writes CSV outputs plus a manifest with the fully resolved parameters into the
output directory, and uses deterministic formatting so identical configs give
byte-identical files.

Exit codes: 0 success, 2 config error, 3 solver failure (non-convergence
or a failed integration step), 4 verification failure (a failed verdict, or
the dual spot check disagreeing).

The config sections and keys are listed in the README's "Config reference".
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import duality, policy, simulate, solver
from .config import ConfigError, RunConfig, load_config
from .model import ParameterError
from .output import write_csv, write_manifest
from .simulate import STAT_THRESHOLD, SimConfig, Spike

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFICATION = 4


def _discount(cfg: RunConfig):
    if cfg.discount is None:
        raise ConfigError("no [discount] section configured")
    return cfg.discount


def _solve_curve(cfg: RunConfig, d=None):
    """Solve the value coefficient with the configured method, which
    ``RunConfig`` has checked applies to the discount."""
    d = d if d is not None else _discount(cfg)
    m, u, g = cfg.market, cfg.utility, cfg.grid
    if cfg.solver.method == "picard":
        return solver.picard_solve(m, u, d, g, tol=cfg.solver.tol)
    if cfg.solver.method == "mixture":
        return solver.mixture_ode_solve(m, u, d, g)
    return solver.theta_closed_form(m, u, d.rho, g)


def _manifest_payload(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    payload = {"command": command, "config": cfg.to_dict()}
    if extra:
        payload.update(extra)
    return payload


def cmd_solve(cfg: RunConfig, out: Path) -> int:
    bounds = solver.a_priori_bounds(cfg.market, cfg.utility, _discount(cfg), cfg.grid)
    write_csv(out / "bounds.csv",
              {"A": [bounds.A], "lower": [bounds.lower], "upper": [bounds.upper]})
    try:
        curve = _solve_curve(cfg)
    except solver.NonConvergenceError as exc:
        write_manifest(out / "manifest.json", _manifest_payload(cfg, "solve", {
            "error": "non_convergence",
            "iterations": exc.iterations,
            "last_delta": exc.last_delta,
        }))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except solver.StepFailureError as exc:
        write_manifest(out / "manifest.json", _manifest_payload(cfg, "solve", {
            "error": "step_failure",
            "message": str(exc),
        }))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    write_csv(out / "lambda.csv", {
        "t": curve.grid.nodes, "lambda": curve.values, "lambda_prime": curve.derivative,
        "consumption_rate": curve.consumption_rate(cfg.utility)})
    # the Picard curve carries the integral-equation image of its values, and
    # its derivative is their differential-form right-hand side; the other
    # routes' derivatives come from their own ODEs
    res_ie = solver.residual_integral_equation(curve, cfg.market, cfg.utility, cfg.discount,
                                               rhs=curve.image)
    res_df = solver.residual_differential_form(
        curve, cfg.market, cfg.utility, cfg.discount,
        rhs=curve.derivative if cfg.solver.method == "picard" else None)
    # relative rows: the sup-norm residuals over max(1, sup lam), which do not
    # grow with the scale of lam
    scale = max(1.0, float(np.max(curve.values)))
    residuals = {"integral_equation": res_ie, "differential_form": res_df,
                 "integral_equation_relative": res_ie / scale,
                 "differential_form_relative": res_df / scale}
    write_csv(out / "residuals.csv",
              {"check": list(residuals), "value": list(residuals.values())})
    write_manifest(out / "manifest.json", _manifest_payload(cfg, "solve", {
        "provenance": curve.provenance, "sweeps": curve.sweeps,
        "bounds_contain": bounds.contains(curve.values)}))
    return EXIT_OK


ALL_CHECKS = ("value_identity", "martingale", "perturbation", "duality")


def cmd_verify(cfg: RunConfig, out: Path, perturb_lambda: float = 0.0,
               checks: tuple = ALL_CHECKS) -> int:
    m, u, d, g = cfg.market, cfg.utility, _discount(cfg), cfg.grid
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise ConfigError(f"unknown check(s) {sorted(unknown)}; "
                          f"choose from {list(ALL_CHECKS)}")
    nc_curve = solver.solve_no_consumption(m, u, d, g)
    rows, layout = [], None
    if set(checks) - {"duality"}:
        rows, layout = _monte_carlo_verdicts(cfg, checks, nc_curve, perturb_lambda)
    if "duality" in checks:
        rows.extend(_duality_verdicts(nc_curve, u, m, d, g))

    write_csv(out / "verification.csv", {
        "check": [v.name for v in rows], "statistic": [v.statistic for v in rows],
        "threshold": [v.threshold for v in rows], "pass": [v.passed for v in rows]})
    write_manifest(out / "manifest.json", _manifest_payload(cfg, "verify", {
        "perturb_lambda": perturb_lambda,
        "checks": list(checks),
        "all_passed": all(v.passed for v in rows),
        "monte_carlo": {v.name: _monte_carlo_sample(v) for v in rows
                        if v.n_pairs is not None},
        "monte_carlo_pass": layout,
    }))
    if not all(v.passed for v in rows):
        for v in rows:
            if not v.passed:
                print(f"FAILED: {v.name} statistic={v.statistic:.4g}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _monte_carlo_sample(v: simulate.Verdict) -> dict:
    """The sample behind a Monte Carlo z: antithetic pairs and standard error,
    and for a controlled check the replicates its standard error is taken
    over, the control's slope, the plain mean's standard error, whose ratio
    to ``std_error`` is the run's reduction, and the exact mean of the
    functional it samples."""
    sample = {"n_pairs": v.n_pairs, "std_error": v.std_error}
    if v.control_beta is not None:
        sample.update(n_replicates=v.n_replicates, control_beta=v.control_beta,
                      std_error_uncontrolled=v.std_error_uncontrolled, j_exact=v.j_exact)
    return sample


def _monte_carlo_verdicts(cfg: RunConfig, checks: tuple, nc_curve,
                          perturb_lambda: float) -> tuple[list, dict]:
    """Verdicts of the requested Monte Carlo checks, which share one pass over
    the random stream from t = 0 along the equilibrium policy, and that
    pass's layout. Only the checks that read the utility functional solve
    lam and run on its leg; the martingale checks alone read the
    bequest-only curve and run without a leg, on the coarse values."""
    m, u, d, g = cfg.market, cfg.utility, cfg.discount, cfg.grid
    sim_cfg = SimConfig(grid=g, **asdict(cfg.sim))
    leg = None
    if {"value_identity", "perturbation"} & set(checks):
        curve = _solve_curve(cfg)
        pol = policy.equilibrium_policy(curve, m, u)
        leg = simulate.equilibrium_leg(pol, sim_cfg, m, u, d)
    plan = []  # (estimator, verdicts of its result)
    if "value_identity" in checks:
        est = simulate.value_identity_estimator(curve, leg, 0.0, 1.0 + perturb_lambda)
        plan.append((est, lambda v: [v]))
    if "martingale" in checks:
        plan.append((simulate.martingale_estimator(nc_curve, sim_cfg, m, u, d), list))
    if "perturbation" in checks:
        def spike(width, shift):
            return simulate.perturbation_estimator(
                leg, width * g.horizon, Spike(zeta=pol.stock_fraction + shift))
        # a gross spike must lose utility; a small one must not move J at first order
        plan += [
            (spike(0.25, 1.0), lambda r: [_spike_verdict(
                "perturbation_gross_spike", r, r.z > STAT_THRESHOLD)]),
            (spike(0.1, 0.01), lambda r: [_spike_verdict(
                "perturbation_first_order_stationarity", r, abs(r.z) <= STAT_THRESHOLD)]),
        ]
    results, layout = simulate.run_pass(sim_cfg, [est for est, _ in plan], leg)
    return [v for (_, verdicts), result in zip(plan, results) for v in verdicts(result)], layout


def _spike_verdict(name: str, row, passed) -> simulate.Verdict:
    return simulate._verdict(name, row.z, passed,
                             f"D={row.d_estimate:.4g} se={row.std_error:.3g}",
                             row.n_pairs, row.std_error)


def _duality_verdicts(nc_curve, u, m, d, g) -> list:
    dv = duality.dual_from_primal(nc_curve, u)
    res_dual = duality.dual_pde_residual(dv, m, d)
    pts = [(i, x) for i in (0, g.n_steps // 2, g.n_steps) for x in (0.5, 1.0, 2.0)]
    rt = duality.primal_dual_roundtrip(dv, u, pts)
    return [
        simulate.Verdict(
            name="dual_pde_residual", statistic=res_dual, threshold=1e-6,
            passed=bool(res_dual <= 1e-6), details="normalized sup residual",
        ),
        simulate.Verdict(
            name="primal_dual_roundtrip", statistic=rt, threshold=1e-6,
            passed=bool(rt <= 1e-6), details="max relative error",
        ),
    ]


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    specs = dict(cfg.compare_discounts)
    if not specs:
        if cfg.discount is None:
            raise ConfigError("compare needs [compare] labels or a [discount] section")
        specs = {"default": cfg.discount}
    probes = cfg.probe_times or tuple(
        cfg.grid.horizon * f for f in (0.25, 0.5, 0.75)
    )
    table = {"spec_label": [], "t": [], "consumption_rate": [], "lambda": []}
    failures = {}
    for label in sorted(specs):
        d = specs[label]
        try:
            curve = _solve_curve(cfg, d=d)
        except (solver.NonConvergenceError, solver.StepFailureError) as exc:
            failures[label] = str(exc)
            continue
        t = curve.grid.nodes
        for name, column in (("spec_label", [label] * len(t)), ("t", t),
                             ("consumption_rate", curve.consumption_rate(cfg.utility)),
                             ("lambda", curve.values)):
            table[name].extend(column)
        write_csv(out / f"inconsistency_{label}.csv", policy.inconsistency_report(
            cfg.market, cfg.utility, d, cfg.grid, probes,
            equilibrium=policy.equilibrium_policy(curve, cfg.market, cfg.utility),
        ))
    write_csv(out / "compare.csv", table)
    write_manifest(out / "manifest.json", _manifest_payload(cfg, "compare", {
        "labels": sorted(specs),
        "probe_times": list(probes),
        "failures": failures,
    }))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    m, u, d, g = cfg.market, cfg.utility, cfg.discount, cfg.grid
    curve = _solve_curve(cfg)
    pol = policy.equilibrium_policy(curve, m, u)
    batch = simulate.simulate_equilibrium(pol, SimConfig(grid=g, **asdict(cfg.sim)),
                                          m, u, d, moment_orders=(u.p, 2 * u.p))
    write_csv(out / "simulation.csv", {"t": g.nodes, "mean_wealth": batch.mean_wealth,
                                       "mean_value_over_h": batch.mean_value_over_h})
    write_manifest(out / "manifest.json", _manifest_payload(cfg, "simulate", {
        "j_estimate": batch.j_estimate,
        "j_std_error": batch.j_std_error,
        "j_control_beta": batch.j_control_beta,
        "j_std_error_uncontrolled": batch.j_std_error_uncontrolled,
        "j_exact": batch.j_exact,
        "n_pairs": batch.n_pairs,
        "n_replicates": batch.n_replicates,
        "monte_carlo_pass": batch.layout,
        "terminal_moments": {
            str(q): {"mean": mq, "std_error": sq}
            for q, (mq, sq) in batch.terminal_moments.items()
        },
        "value_at_start": float(curve.values[0]) * cfg.sim.x0**u.p / u.p,
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqmerton",
        description="Equilibrium Merton policies under non-exponential discounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "compare", "simulate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config or JSON manifest")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override sim seed")
        sp.add_argument("--method", choices=["picard", "mixture", "closed_form"],
                        default=None, help="override solver method")
        if name == "verify":
            sp.add_argument("--debug-perturb-lambda", type=float, default=0.0,
                            help="negative control: scale the value identity "
                                 "target by (1 + x)")
            sp.add_argument("--checks", default=None,
                            help="comma-separated subset of "
                                 f"{','.join(ALL_CHECKS)}; empty string runs "
                                 "nothing (default: all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
        if args.method is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, method=args.method))
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        out = Path(cfg.output_dir)
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "verify":
            checks = ALL_CHECKS
            if args.checks is not None:
                checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
            return cmd_verify(cfg, out, perturb_lambda=args.debug_perturb_lambda,
                              checks=checks)
        if args.command == "compare":
            return cmd_compare(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (solver.NonConvergenceError, solver.StepFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except duality.DualityCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
