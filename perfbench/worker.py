"""Runs one workload's passes in this process through ``eqmerton.cli.main``.

Started by run.py with the BLAS thread count pinned and ``src`` on the path.
Prints one JSON object as its last stdout line: the operation counts, the
problems found by the correctness gates, the environment record and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).

A pass is the workload's CLI command(s) on freshly generated inputs; pass i
of a run always gets the same inputs. Passes repeat until the next one would
overrun the time budget, and times are reported as medians over passes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import gates
import inputs
import tracing

NEGATIVE_CONTROL = ["--checks", "value_identity", "--debug-perturb-lambda", "0.05"]
TRACE_SHARE_PAIRS = 0.8  # share of --seconds for the timed pairs of a traced run

CALLS = ("solver.picard_solve", "policy.solve_precommitment")
PEAK_MB = (
    "solver.picard_solve", "solver.a_priori_bounds",
    "solver.residual_integral_equation", "solver.residual_differential_form",
    "simulate.simulate_equilibrium", "simulate.martingale_check",
    "simulate.perturbation_test",
)
MODULES = ("solver", "policy", "simulate", "duality", "config", "output")
SHARES = ("solver", "policy", "simulate")
# each CLI command with the module expected to dominate it
COMMAND_SHARES = (("cli.cmd_verify", "simulate"), ("cli.cmd_simulate", "simulate"),
                  ("cli.cmd_solve", "solver"), ("cli.cmd_compare", "policy"))


def _command(stem: str) -> str:
    return stem.split("_")[0]


class Runner:
    """Runs passes, applies the correctness gates and counts operations.

    An operation is one CLI command; it fails on a wrong exit code or a
    failed gate.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.cli = importlib.import_module("eqmerton.cli")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.power_z: list[float] = []
        self.mc_rel_se: list[float] = []

    def _inputs(self, workload: str, index: int) -> dict:
        paths = {}
        for stem, text in inputs.pass_inputs(workload, self.seed, index).items():
            path = self.run_dir / "inputs" / f"{workload}-{index}-{stem}.ini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            paths[stem] = path
        return paths

    def _call(self, stem: str, ini: Path, out: Path, extra=()) -> int:
        return self.cli.main([_command(stem), "--config", str(ini), "--out", str(out),
                              *extra])

    def _check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def run_pass(self, index: int) -> float:
        """One timed pass; returns its wall time. Gates run after the clock stops."""
        inis = self._inputs(self.workload, index)
        outs = {stem: self.run_dir / "out" / stem for stem in inis}
        start = time.perf_counter()
        codes = {stem: self._call(stem, inis[stem], outs[stem]) for stem in inis}
        wall = time.perf_counter() - start
        for stem, rc in codes.items():
            self._check(f"pass {index} {stem}",
                        [f"exit code {rc}"] if rc != 0 else self._gate(stem, inis[stem],
                                                                        outs[stem]))
        return wall

    def _gate(self, stem: str, ini: Path, out: Path) -> list[str]:
        command = _command(stem)
        if command == "verify":
            problems = gates.verify_gate(out)
            if not problems:
                self.power_z.append(gates.stat_from_verify(out))
            return problems
        if command == "simulate":
            problems = gates.simulate_gate(out)
            if not problems:
                self.mc_rel_se.append(gates.stat_from_simulate(out))
            return problems
        if command == "solve":
            return gates.solve_gate(ini, out)
        return gates.compare_gate(out, len(inputs.PROBE_TIMES))

    def negative_control(self) -> None:
        """The value identity must fail against a target scaled by 1.05."""
        ini = self._inputs(inputs.MC_WORKLOAD, 0)["verify"]
        out = self.run_dir / "out" / "negative_control"
        rc = self._call("verify", ini, out, NEGATIVE_CONTROL)
        self._check("negative control", gates.negative_control_gate(rc, out))

    def statistics_probe(self) -> None:
        """Untimed runs that supply power_z and mc_rel_se on workloads whose
        passes do not produce them: the gross-spike check on the verify
        input and one simulate on the simulate input of the MC workload's
        pass 0."""
        if not self.power_z:
            ini = self._inputs(inputs.MC_WORKLOAD, 0)["verify"]
            out = self.run_dir / "out" / "power_probe"
            rc = self._call("verify", ini, out, ["--checks", "perturbation"])
            problems = ([f"exit code {rc}"] if rc != 0
                        else gates.verify_gate(out, gates.PERTURBATION_CHECKS))
            self._check("power probe", problems)
            if not problems:
                self.power_z.append(gates.stat_from_verify(out))
        if not self.mc_rel_se:
            ini = self._inputs(inputs.MC_WORKLOAD, 0)["simulate"]
            out = self.run_dir / "out" / "mc_probe"
            rc = self._call("simulate", ini, out)
            problems = [f"exit code {rc}"] if rc != 0 else gates.simulate_gate(out)
            self._check("mc probe", problems)
            if not problems:
                self.mc_rel_se.append(gates.stat_from_simulate(out))


def repeat(budget: float, run_one) -> list:
    """Call run_one(index) until the next call would overrun the budget."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(run_one(len(results)))
        last = time.perf_counter() - before
        if time.perf_counter() - start + last > budget:
            return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    walls = repeat(seconds, runner.run_pass)
    rss = peak_rss_mb()  # before the untimed runs below, which allocate more
    if runner.workload == inputs.MC_WORKLOAD:
        runner.negative_control()
    runner.statistics_probe()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if runner.power_z:
        metrics["power_z"] = (statistics.median(runner.power_z), "z")
    if runner.mc_rel_se:
        metrics["mc_rel_se"] = (statistics.median(runner.mc_rel_se), "ratio")
    return metrics, {"passes": len(walls), "walls": walls}


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Pairs of an untraced and a traced pass on the same inputs, so that the
    tracing overhead is a paired difference, then one tracemalloc pass."""
    spans = []

    def pair(index):
        untraced = runner.run_pass(index)
        with tracing.Tracer() as tracer:
            wall = runner.run_pass(index)
        spans.append(tracer.spans)
        return untraced, {"wall": wall, "untraced": untraced,
                          "summary": tracing.summarize(tracer.spans),
                          "commands": tracing.by_command(tracer.spans),
                          "counters": tracer.counters}

    walls, passes = zip(*repeat(TRACE_SHARE_PAIRS * seconds, pair))
    with tracing.Tracer(memory=frozenset(PEAK_MB)) as mem_tracer:
        runner.run_pass(0)
    if runner.workload == inputs.MC_WORKLOAD:
        runner.negative_control()
    with open(runner.run_dir / "spans.json", "w") as fh:
        json.dump([[vars(s) for s in pass_spans] for pass_spans in spans], fh)
    mem_tracer.dump(runner.run_dir / "memory_spans.json")
    metrics = layer_metrics(passes, tracing.summarize(mem_tracer.spans))
    return metrics, {"passes": len(walls), "walls": walls,
                     "traced_walls": [p["wall"] for p in passes]}


def _module_self(summary: dict, module: str) -> float:
    return sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == module)


def layer_metrics(passes: list, memory: dict) -> dict:
    """Per-layer metrics from traced passes, each a dict with the traced
    ``wall``, the paired ``untraced`` wall, the span ``summary``, the
    per-command totals ``commands`` and the ``counters``.

    Times and counts are medians over the passes; peak_mb comes from the
    separate tracemalloc pass. A function or command a workload never runs
    reads 0.
    """
    def med(stat):
        return statistics.median(stat(p) for p in passes)

    def fn_stat(name, key):
        return med(lambda p: p["summary"].get(name, {}).get(key, 0))

    def command_share(command, module):
        def share(p):
            totals = p["commands"].get(command)
            return totals.get(module, 0.0) / totals["wall_s"] if totals else 0.0
        return med(share)

    def per_s(p):
        busy = _module_self(p["summary"], "simulate")
        return p["counters"].get("simulate.path_steps", 0) / busy if busy > 0 else 0.0

    metrics = {}
    for name, _, _ in tracing.TRACED:
        metrics[f"{name}.self_s"] = (fn_stat(name, "self_s"), "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (fn_stat(name, "calls"), "count")
    for name in PEAK_MB:
        metrics[f"{name}.peak_mb"] = (memory.get(name, {}).get("peak_mb", 0.0), "MB")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            med(lambda p: _module_self(p["summary"], module)), "s")
    for module in SHARES:
        metrics[f"{module}.share"] = (
            med(lambda p: _module_self(p["summary"], module) / p["wall"]), "ratio")
    for command, module in COMMAND_SHARES:
        metrics[f"{command}.wall_s"] = (
            med(lambda p: p["commands"].get(command, {}).get("wall_s", 0.0)), "s")
        metrics[f"{command}.{module}_share"] = (command_share(command, module), "ratio")
    metrics["simulate.path_steps"] = (
        med(lambda p: p["counters"].get("simulate.path_steps", 0)), "count")
    metrics["simulate.path_steps_per_s"] = (med(per_s), "1/s")
    metrics["output.write_csv.bytes"] = (
        med(lambda p: p["counters"].get("output.write_csv.bytes", 0)), "B")
    metrics["trace.wall_s"] = (med(lambda p: p["wall"]), "s")
    metrics["trace.overhead_s"] = (med(lambda p: p["wall"] - p["untraced"]), "s")
    return metrics


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.argtypes = []
                func.restype = ctypes.c_int
                return func()
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args(argv)

    import eqmerton

    if args.src.resolve() not in Path(eqmerton.__file__).resolve().parents:
        print(f"eqmerton imported from {eqmerton.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.run_dir)
    measure = traced if args.trace else end_to_end
    metrics, detail = measure(runner, args.seconds)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
