"""Self-tests of the benchmark: span arithmetic, metric names, and negative
controls showing that the correctness gates trip on wrong outputs."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import gates
import inputs
import tracing
import worker

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent):
    return tracing.Span(name, float(start), float(end), parent)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        _span("root", 0, 10, -1),
        _span("a", 1, 4, 0),
        _span("a.leaf", 2, 3, 1),
        _span("b", 5, 6, 0),
        _span("b", 6, 8, 0),
        _span("c", 9, 12, 0),  # runs past its parent: only [9, 10] is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1 - 2 - 1, 2, 1, 1, 2, 3])
    summary = tracing.summarize(spans)
    assert summary["b"]["calls"] == 2
    assert summary["b"]["self_s"] == pytest.approx(3)


def test_overlapping_children_are_not_double_counted():
    spans = [_span("root", 0, 10, -1), _span("x", 2, 6, 0), _span("y", 4, 8, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4)


def test_by_command_attributes_nested_self_time_to_its_command():
    spans = [
        _span("config.load_config", 0, 1, -1),
        _span("cli.cmd_solve", 1, 9, -1),
        _span("solver.picard_solve", 2, 7, 1),
        _span("solver.a_priori_bounds", 2, 3, 2),
        _span("output.write_csv", 7, 8, 1),
    ]
    assert tracing.by_command(spans) == {
        "cli.cmd_solve": {"wall_s": 8.0, "solver": 5.0, "output": 1.0}}


def _synthetic_layer_metrics():
    spans = [
        _span("cli.cmd_verify", 0, 4, -1),
        _span("simulate.perturbation_test", 1, 3, 0),
    ]
    counters = {"simulate.path_steps": 10, "output.write_csv.bytes": 5}
    passes = [{"wall": 4.0, "untraced": 3.0, "summary": tracing.summarize(spans),
               "commands": tracing.by_command(spans), "counters": counters}]
    return worker.layer_metrics(passes, {})


def test_metric_names_are_well_formed_and_match_the_traced_run():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    layer = _synthetic_layer_metrics()
    assert all(NAME.fullmatch(n) for n in layer)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    assert layer["simulate.path_steps_per_s"][0] == pytest.approx(5.0)
    assert layer["simulate.share"][0] == pytest.approx(0.5)
    assert layer["trace.overhead_s"][0] == pytest.approx(1.0)
    assert layer["cli.cmd_verify.wall_s"][0] == pytest.approx(4.0)
    assert layer["cli.cmd_verify.simulate_share"][0] == pytest.approx(0.5)
    assert layer["cli.cmd_solve.solver_share"][0] == 0.0


def test_workloads_match_the_generator():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    for workload in inputs.WORKLOADS:
        assert inputs.pass_inputs(workload, 7, 2) == inputs.pass_inputs(workload, 7, 2)
        assert inputs.pass_inputs(workload, 7, 2) != inputs.pass_inputs(workload, 8, 2)


def _solve(tmp_path, n_steps=60):
    from eqmerton import cli

    ini = tmp_path / "solve.ini"
    ini.write_text(inputs.solve_ini(1.05, 0.95, 1.0, n_steps))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(ini), "--out", str(out)]) == 0
    return ini, out


def _rewrite_lambda(out, change):
    path = out / "lambda.csv"
    header, *rows = path.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    change(rows)
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")


@pytest.mark.parametrize("change", [
    lambda rows: rows[10].__setitem__(1, repr(float(rows[10][1]) * 1.001)),
    lambda rows: rows[-1].__setitem__(1, "1.0000001"),
    lambda rows: rows[3].__setitem__(1, "-0.5"),
    lambda rows: rows[3].__setitem__(1, "nan"),
], ids=["scaled-node", "terminal", "negative", "nan"])
def test_corrupted_lambda_trips_the_solve_gate(tmp_path, change):
    ini, out = _solve(tmp_path)
    assert gates.solve_gate(ini, out) == []
    _rewrite_lambda(out, change)
    assert gates.solve_gate(ini, out) != []


def test_row_by_row_residual_agrees_with_the_dense_solver_residual(tmp_path):
    from eqmerton import solver
    from eqmerton.config import load_config

    ini, _ = _solve(tmp_path)
    cfg = load_config(ini)
    m, u, d = cfg.market, cfg.utility, cfg.discount
    lam = solver.picard_solve(m, u, d, cfg.grid).values * 1.0001
    lam[-1] = 1.0
    curve = solver.ValueCurve(cfg.grid, lam, np.zeros_like(lam), "test")
    ours = gates.integral_equation_residual(
        cfg.grid.nodes, lam, u.p, solver.growth_constant(m, u), d.h)
    assert ours == pytest.approx(solver.residual_integral_equation(curve, m, u, d),
                                 rel=1e-9)


def _verification(out, rows):
    out.mkdir(parents=True, exist_ok=True)
    lines = ["check,statistic,threshold,pass"]
    lines += [f"{name},0.5,3,{passed}" for name, passed in rows]
    (out / "verification.csv").write_text("\n".join(lines) + "\n")


def test_flipped_verdict_trips_the_verify_gate(tmp_path):
    rows = [(name, "true") for name in gates.VERIFY_CHECKS]
    _verification(tmp_path, rows)
    assert gates.verify_gate(tmp_path) == []
    rows[3] = (rows[3][0], "false")
    _verification(tmp_path, rows)
    assert gates.verify_gate(tmp_path) != []
    _verification(tmp_path, rows[:-1])
    assert gates.verify_gate(tmp_path) != []


def test_negative_control_gate_needs_exit_4_and_a_failed_identity(tmp_path):
    _verification(tmp_path, [("value_identity", "false")])
    assert gates.negative_control_gate(4, tmp_path) == []
    assert gates.negative_control_gate(0, tmp_path) != []
    _verification(tmp_path, [("value_identity", "true")])
    assert gates.negative_control_gate(4, tmp_path) != []


def test_simulate_and_compare_gates_trip(tmp_path):
    man = {"j_estimate": 2.0, "j_std_error": 0.01, "value_at_start": 2.02}
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    assert gates.simulate_gate(tmp_path) == []
    man["value_at_start"] = 2.04
    (tmp_path / "manifest.json").write_text(json.dumps(man))
    assert gates.simulate_gate(tmp_path) != []

    (tmp_path / "manifest.json").write_text(json.dumps({"failures": {}}))
    header = "t_probe,c_precommit_0,c_precommit_t,c_equilibrium,gap_naive,gap_equilibrium"
    for label, gap in (("exponential", 0.0), ("hyperbolic", 0.01)):
        (tmp_path / f"inconsistency_{label}.csv").write_text(
            f"{header}\n0.5,1,1,1,{gap},{gap}\n")
    assert gates.compare_gate(tmp_path, 1) == []
    shutil.copy(tmp_path / "inconsistency_exponential.csv",
                tmp_path / "inconsistency_hyperbolic.csv")
    assert gates.compare_gate(tmp_path, 1) != []


def test_tracer_records_nested_spans_and_restores_the_library(tmp_path):
    from eqmerton import cli, output, solver

    original = solver.picard_solve
    with tracing.Tracer(memory=frozenset({"solver.picard_solve"})) as tracer:
        assert solver.picard_solve is not original
        _solve(tmp_path)
    assert solver.picard_solve is original
    assert cli.write_csv is output.write_csv and not hasattr(cli.write_csv, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("solver.picard_solve") == 1
    picard = names.index("solver.picard_solve")
    nested = [s.name for s in tracer.spans if s.parent == picard]
    assert "solver.a_priori_bounds" in nested and "solver.differential_form_rhs" in nested
    assert tracer.spans[picard].peak_mb > 0
    assert all(s.peak_mb == 0 for s in tracer.spans if s.name == "output.write_csv")
    assert tracer.counters["output.write_csv.bytes"] > 0
