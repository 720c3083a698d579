"""Correctness gates on the outputs of one pass.

Each gate returns a list of problems; an empty list means the outputs are
correct. The integral-equation residual is recomputed here, row by row in
O(n) memory, rather than through eqmerton's own residual functions.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

LAMBDA_T_TOL = 1e-14      # ValueCurve pins lam(T) to 1 within this
RESIDUAL_TOL = 1e-9       # Picard stops at a sweep change of 1e-10
GAP_ZERO_TOL = 1e-5       # exponential discounting is time-consistent
GAP_NONZERO_MIN = 1e-6    # hyperbolic discounting is not
STAT_THRESHOLD = 3.0      # three standard errors, as in the program
NEGATIVE_CONTROL_EXIT = 4

PERTURBATION_CHECKS = ("perturbation_gross_spike", "perturbation_first_order_stationarity")
VERIFY_CHECKS = (
    "value_identity", "martingale_flat", "submartingale_decreasing",
    *PERTURBATION_CHECKS, "dual_pde_residual", "primal_dual_roundtrip",
)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def integral_equation_residual(t, lam, p: float, growth: float, h) -> float:
    """Sup-norm of lam minus the trapezoid right-hand side of

        lam(t) = int_t^T h(s-t) e^{K(s-t)} lam(s)^q e^{-int_t^s p c} ds
                 + h(T-t) e^{K(T-t)} e^{-int_t^T p c},

    with q = p/(p-1) and c = lam^(1/(p-1)), one row at a time."""
    n = len(t) - 1
    dt = t[1] - t[0]
    pc = p * lam ** (1.0 / (p - 1.0))
    C = np.concatenate([[0.0], np.cumsum(0.5 * (pc[1:] + pc[:-1]) * dt)])
    lam_q = lam ** (p / (p - 1.0))
    worst = abs(lam[n] - 1.0)  # the last row's right-hand side is h(0) = 1
    for i in range(n):
        tau = t[i:] - t[i]
        kernel = h(tau) * np.exp(growth * tau) * np.exp(C[i] - C[i:])
        w = np.full(n - i + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        rhs = np.dot(w, kernel * lam_q[i:]) + kernel[-1]
        worst = max(worst, abs(rhs - lam[i]))
    return float(worst)


def solve_gate(ini: Path, out: Path) -> list[str]:
    cp = configparser.ConfigParser()
    cp.read(ini)
    r, mu, sigma = (cp.getfloat("market", key) for key in ("r", "mu", "sigma"))
    p = cp.getfloat("utility", "p")
    k, gamma = cp.getfloat("discount", "k"), cp.getfloat("discount", "gamma")
    rows = _rows(out / "lambda.csv")
    t = np.array([float(row["t"]) for row in rows])
    lam = np.array([float(row["lambda"]) for row in rows])
    if len(lam) != cp.getint("grid", "n_steps") + 1:
        return [f"lambda.csv has {len(lam)} rows"]
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
        return ["lambda is not finite and positive"]
    problems = []
    if abs(lam[-1] - 1.0) > LAMBDA_T_TOL:
        problems.append(f"lambda(T) = {lam[-1]!r}")
    growth = p * (r + mu**2 / (2.0 * (1.0 - p) * sigma**2))
    res = integral_equation_residual(
        t, lam, p, growth, lambda s: (1.0 + k * s) ** (-gamma))
    if not res <= RESIDUAL_TOL:
        problems.append(f"integral-equation residual {res:.3e} > {RESIDUAL_TOL:g}")
    return problems


def verify_gate(out: Path, checks: tuple = VERIFY_CHECKS) -> list[str]:
    rows = {row["check"]: row for row in _rows(out / "verification.csv")}
    if tuple(rows) != checks:
        return [f"verification.csv checks {list(rows)}"]
    return [f"verdict {name} failed (statistic {row['statistic']})"
            for name, row in rows.items() if row["pass"] != "true"]


def negative_control_gate(rc: int, out: Path) -> list[str]:
    rows = _rows(out / "verification.csv")
    problems = []
    if rc != NEGATIVE_CONTROL_EXIT:
        problems.append(f"negative control exited {rc}, not {NEGATIVE_CONTROL_EXIT}")
    if [row["pass"] for row in rows] != ["false"]:
        problems.append("negative control's value identity did not fail")
    return problems


def simulate_gate(out: Path) -> list[str]:
    man = json.loads((out / "manifest.json").read_text())
    j, se, v0 = man["j_estimate"], man["j_std_error"], man["value_at_start"]
    if not all(math.isfinite(x) for x in (j, se, v0)) or not se > 0:
        return [f"non-finite estimate j={j} se={se} v0={v0}"]
    if abs(j - v0) > STAT_THRESHOLD * se:
        return [f"value identity off by {(j - v0) / se:.2f} standard errors"]
    return []


def compare_gate(out: Path, n_probes: int) -> list[str]:
    man = json.loads((out / "manifest.json").read_text())
    if man["failures"]:
        return [f"compare failures {man['failures']}"]
    expo = _rows(out / "inconsistency_exponential.csv")
    hyper = _rows(out / "inconsistency_hyperbolic.csv")
    if len(expo) != n_probes or len(hyper) != n_probes:
        return [f"expected {n_probes} probe rows, got {len(expo)} and {len(hyper)}"]
    problems = []
    gap = max(abs(float(row[col])) for row in expo
              for col in ("gap_naive", "gap_equilibrium"))
    if not gap <= GAP_ZERO_TOL:
        problems.append(f"exponential gap {gap:.3e} > {GAP_ZERO_TOL:g}")
    naive = min(abs(float(row["gap_naive"])) for row in hyper)
    if not naive > GAP_NONZERO_MIN:
        problems.append(f"hyperbolic gap_naive {naive:.3e} is not nonzero")
    return problems


def stat_from_verify(out: Path) -> float:
    """z of the gross spike: how strongly the verifier rejects it."""
    for row in _rows(out / "verification.csv"):
        if row["check"] == "perturbation_gross_spike":
            return float(row["statistic"])
    raise KeyError("perturbation_gross_spike missing from verification.csv")


def stat_from_simulate(out: Path) -> float:
    """Relative standard error of the simulated utility functional."""
    man = json.loads((out / "manifest.json").read_text())
    return man["j_std_error"] / abs(man["j_estimate"])
