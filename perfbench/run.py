"""eqmerton benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-simulate --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last stdout line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
The line before it records the environment and the pass times, whose count
is the sample count behind each median (a run has too few passes for a
higher percentile with ten samples beyond it). Inputs, outputs, spans and
the result of each run are kept under ``.perfbench/`` in the checkout.

Every child process gets one BLAS thread, and the program runs with its
shipped single simulation worker, so a run uses one core.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_CODE = (
    "import sys, eqmerton.cli\n"
    "from eqmerton.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(src))
    return env


def measure_setup(ini: Path, env: dict) -> float:
    """Median time to start an interpreter, import eqmerton.cli and load the
    workload's first input, after one untimed start that fills the bytecode
    and file caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ini)], env=env, check=True)
        if i:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "eqmerton" / "__init__.py").is_file():
        print(f"perfbench: no eqmerton sources under {src}", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(src)

    metrics = {}
    if not args.trace:
        stem, text = next(iter(inputs.pass_inputs(args.workload, args.seed, 0).items()))
        ini = run_dir / f"setup-{stem}.ini"
        ini.write_text(text)
        metrics["setup_s"] = {"value": measure_setup(ini, env), "unit": "s"}

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), "--src", str(src)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded the run time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics.update(report["metrics"])
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    (run_dir / "detail.json").write_text(json.dumps(
        {"env": report["env"], "detail": report["detail"], "result": result}, indent=1))
    print(json.dumps({"env": report["env"], "detail": report["detail"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
