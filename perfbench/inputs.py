"""Workload inputs generated from the benchmark seed.

Two workloads, each a mix of CLI pipelines run in one pass:

* ``verify-simulate``: ``verify`` with all checks on a hyperbolic discount,
  then ``simulate`` on a two-rate mixture. Monte Carlo is almost all of it;
  the verify part redraws one random stream five times (the pass-fusion
  target), the simulate part is a single pass that fusion cannot help.
* ``solve-compare``: ``solve`` at T = 1 and at T = 50 on a hyperbolic
  discount, then ``compare`` over three discounts with 49 probes. No Monte
  Carlo; the dense Picard matrices and the scalar RK4 precommitment solves
  share the time.

The four pipelines were first four workloads. On this 2-core shared host
the speed of identical passes drifts by +/-20 % over tens of seconds, which a
20 s run cannot average out; two mixes let each run measure twice as long
within the same total benchmark time.

Every pass of a run gets its own INI file(s), drawn from ``(workload, seed,
pass index)``, so the same seed always gives the same inputs and the program
never sees a shipped config. The draws jitter the discount parameters by up
to +/-10 % around the shipped configs.

The Monte Carlo stream stays at the shipped sim seed 42. The statistical
verdicts are three-standard-error tests, so on a fresh stream a correct
program fails one of them in a few percent of seeds (martingale_flat failed
on 4 of 150 fresh seeds at 10^4 paths), which would count as a failed
operation. With the stream fixed and only the model parameters jittered, the
verdict statistics move smoothly and stay inside their gates.

Grid sizes are below the shipped ones where a shipped pass would not fit a
run several times (verify: 100 steps instead of 1000; simulate: 40960
paths instead of 10^5; solve: n = 2000 and 1000 instead of 3000 and 2000).

Deliberately left out: p = -3 at T = 50. There the Picard solve sits on its
non-convergence edge: at n = 1500, (k, gamma) = (1, 1) ends its 200 sweeps
with a change of 1.09e-10 against the absolute tol 1e-10, and (1.1, 1.1)
ends at 2.2e-2. A timing workload there would flip between pass and fail on
rounding alone; that regime belongs in a robustness sweep, not here.

Pure Python: the benchmark's parent process imports this module without
numpy.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-simulate", "solve-compare")
MC_WORKLOAD = "verify-simulate"  # its pass-0 inputs also feed the untimed MC runs

SIM_SEED = 42
JITTER = 0.10

_MARKET = """\
[market]
r = 0.05
mu = 0.07
sigma = 0.2

[utility]
p = 0.5
"""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _hyperbolic(rng: random.Random) -> tuple[float, float]:
    return _jitter(rng, 1.0), _jitter(rng, 1.0)


def _grid(horizon: float, n_steps: int) -> str:
    return f"[grid]\nhorizon = {horizon!r}\nn_steps = {n_steps}\n"


def _sim(n_paths: int) -> str:
    return f"[sim]\nn_paths = {n_paths}\nseed = {SIM_SEED}\n"


def verify_ini(k: float, gamma: float) -> str:
    """Hyperbolic verify input: T = 1, 100 steps, 10^5 paths."""
    return "\n".join([
        _MARKET, _grid(1.0, 100),
        f"[discount]\nkind = hyperbolic\nk = {k!r}\ngamma = {gamma!r}\n",
        "[solver]\nmethod = picard\ntol = 1e-10\n",
        _sim(100_000),
    ])


def simulate_ini(beta: float, rho_slow: float, rho_fast: float) -> str:
    """Two-rate mixture simulate input: T = 1, 1000 steps, 10 blocks of paths."""
    return "\n".join([
        _MARKET, _grid(1.0, 1000),
        f"[discount]\nkind = mixture\nbetas = {beta!r}, {1.0 - beta!r}\n"
        f"rhos = {rho_slow!r}, {rho_fast!r}\n",
        "[solver]\nmethod = mixture\n",
        _sim(10 * 4096),
    ])


def solve_ini(k: float, gamma: float, horizon: float, n_steps: int) -> str:
    """Hyperbolic Picard solve input."""
    return "\n".join([
        _MARKET, _grid(horizon, n_steps),
        f"[discount]\nkind = hyperbolic\nk = {k!r}\ngamma = {gamma!r}\n",
        "[solver]\nmethod = picard\ntol = 1e-10\n",
    ])


PROBE_TIMES = tuple(round(0.02 * i, 2) for i in range(1, 50))


def compare_ini(k: float, gamma: float) -> str:
    """Three-label compare input with 49 probes on (0, 1)."""
    probes = ", ".join(repr(t) for t in PROBE_TIMES)
    return "\n".join([
        _MARKET, _grid(1.0, 1000),
        f"[compare]\nlabels = exponential, hyperbolic, mixture\nprobe_times = {probes}\n",
        "[discount.exponential]\nkind = exponential\nrho = 0.1\n",
        f"[discount.hyperbolic]\nkind = hyperbolic\nk = {k!r}\ngamma = {gamma!r}\n",
        "[discount.mixture]\nkind = mixture\nbetas = 0.4, 0.6\nrhos = 0.05, 0.5\n",
    ])


def pass_inputs(workload: str, seed: int, index: int) -> dict:
    """INI texts of one pass, by file stem, in the order the pass runs them."""
    rng = _rng(workload, seed, index)
    if workload == "verify-simulate":
        return {"verify": verify_ini(*_hyperbolic(rng)),
                "simulate": simulate_ini(_jitter(rng, 0.4), _jitter(rng, 0.05),
                                         _jitter(rng, 0.5))}
    if workload == "solve-compare":
        k, gamma = _hyperbolic(rng)
        return {"solve_t1": solve_ini(k, gamma, 1.0, 2000),
                "solve_t50": solve_ini(k, gamma, 50.0, 1000),
                "compare": compare_ini(k, gamma)}
    raise ValueError(f"unknown workload {workload!r}")
