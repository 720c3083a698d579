"""In-memory span tracing of eqmerton's public functions, from outside the library.

Each traced function is replaced, for the duration of a ``Tracer`` context, at
every place its callers look it up: the module attribute for calls made
through ``module.func`` or through a module-global name, and the importing
module's own binding for names bound with ``from .x import y``. A span is
(name, start, end, parent index). Self time is a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0


def _path_steps_equilibrium(a):
    cfg = a["cfg"]
    i0 = int(round(a.get("start_time", 0.0) / cfg.grid.dt))
    return cfg.n_paths * (cfg.grid.n_steps - i0)


def _path_steps_martingale(a):
    # one equilibrium-fraction pass and one suboptimal-fraction pass
    cfg = a["cfg"]
    return 2 * cfg.n_paths * cfg.grid.n_steps


def _path_steps_perturbation(a):
    # equilibrium and spiked wealth paths for every window width
    cfg = a["cfg"]
    i0 = int(round(a["t"] / cfg.grid.dt))
    return 2 * len(a["epsilons"]) * cfg.n_paths * (cfg.grid.n_steps - i0)


def _csv_bytes(a):
    return os.path.getsize(a["path"])


# (traced name, modules whose attribute is replaced, counter computed from the
# bound call arguments after the call returns, or None)
TRACED = [
    ("solver.picard_solve", ["eqmerton.solver"], None),
    ("solver.a_priori_bounds", ["eqmerton.solver"], None),
    ("solver.differential_form_rhs", ["eqmerton.solver"], None),
    ("solver.residual_integral_equation", ["eqmerton.solver"], None),
    ("solver.residual_differential_form", ["eqmerton.solver"], None),
    ("solver.mixture_ode_solve", ["eqmerton.solver"], None),
    ("solver.solve_no_consumption", ["eqmerton.solver"], None),
    ("policy.solve_precommitment", ["eqmerton.policy"], None),
    ("policy.inconsistency_report", ["eqmerton.policy"], None),
    ("policy.equilibrium_policy", ["eqmerton.policy"], None),
    ("simulate.simulate_equilibrium", ["eqmerton.simulate"],
     ("simulate.path_steps", _path_steps_equilibrium)),
    ("simulate.verify_value_identity", ["eqmerton.simulate"], None),
    ("simulate.martingale_check", ["eqmerton.simulate"],
     ("simulate.path_steps", _path_steps_martingale)),
    ("simulate.perturbation_test", ["eqmerton.simulate"],
     ("simulate.path_steps", _path_steps_perturbation)),
    ("duality.dual_from_primal", ["eqmerton.duality"], None),
    ("duality.dual_pde_residual", ["eqmerton.duality"], None),
    ("duality.primal_dual_roundtrip", ["eqmerton.duality"], None),
    ("config.load_config", ["eqmerton.config", "eqmerton.cli"], None),
    ("output.write_csv", ["eqmerton.output", "eqmerton.cli"],
     ("output.write_csv.bytes", _csv_bytes)),
    ("output.write_manifest", ["eqmerton.output", "eqmerton.cli"], None),
    ("cli.cmd_verify", ["eqmerton.cli"], None),
    ("cli.cmd_simulate", ["eqmerton.cli"], None),
    ("cli.cmd_solve", ["eqmerton.cli"], None),
    ("cli.cmd_compare", ["eqmerton.cli"], None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    peak_mb: float = 0.0


@dataclass
class _Frame:
    index: int
    base: int = 0  # traced bytes at entry
    high: int = 0  # highest traced bytes seen so far inside the call
    owns_tracing: bool = False  # tracemalloc was started for this call


@dataclass
class Tracer:
    """Context manager that records spans (and counters) of traced calls.

    Calls named in ``memory`` run under tracemalloc, and each span inside
    them gets the peak traced memory above its entry level. tracemalloc slows
    every allocation, so it runs only inside those calls, and spans meant for
    timing are recorded with ``memory`` empty.
    """

    memory: frozenset = frozenset()
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def __enter__(self):
        for name, modules, counter in TRACED:
            func_name = name.rsplit(".", 1)[1]
            owner = importlib.import_module(modules[0])
            wrapped = self._wrap(name, getattr(owner, func_name), counter)
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                self._restore.append((mod, func_name, getattr(mod, func_name)))
                setattr(mod, func_name, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, func_name, original in reversed(self._restore):
            setattr(mod, func_name, original)
        self._restore.clear()
        return False

    def _wrap(self, name, func, counter):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(bound.arguments)
            return result

        return traced

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(index=len(self.spans))
        if name in self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            frame.owns_tracing = True
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.high = max(parent.high, peak)
            tracemalloc.reset_peak()
            frame.base = frame.high = current
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               parent.index if parent is not None else -1))
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        span = self.spans[frame.index]
        span.end = time.perf_counter()
        self._stack.pop()
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            frame.high = max(frame.high, peak)
            span.peak_mb = (frame.high - frame.base) / MB
            if frame.owns_tracing:
                tracemalloc.stop()
            else:
                if self._stack:
                    self._stack[-1].high = max(self._stack[-1].high, frame.high)
                tracemalloc.reset_peak()

    def dump(self, path):
        """Write the spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": [vars(s) for s in self.spans],
                       "counters": self.counters}, fh)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of the
    intervals of its direct children, clipped to the span."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        edge = s.start
        for start, end in sorted(kids):
            start, end = max(start, edge), min(end, s.end)
            if end > start:
                covered += end - start
                edge = end
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per traced name: total self time, call count and largest peak_mb."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
        agg["self_s"] += own
        agg["calls"] += 1
        agg["peak_mb"] = max(agg["peak_mb"], s.peak_mb)
    return out


def by_command(spans) -> dict:
    """Per CLI command (a ``cli.`` span): its total duration as ``wall_s`` and
    the self time, by module, of the spans nested inside it."""
    own = self_times(spans)
    command = [None] * len(spans)
    out = {}
    for i, s in enumerate(spans):  # a parent is recorded before its children
        if s.name.startswith("cli."):
            command[i] = s.name
            totals = out.setdefault(s.name, {"wall_s": 0.0})
            totals["wall_s"] += s.end - s.start
        elif s.parent >= 0 and command[s.parent] is not None:
            command[i] = command[s.parent]
            totals = out[command[i]]
            module = s.name.split(".")[0]
            totals[module] = totals.get(module, 0.0) + own[i]
    return out
