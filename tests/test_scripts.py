import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def script_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_inconsistency_demo_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "inconsistency_demo.py"),
         "--n-steps", "200"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # one block per discount: a label line, a header line, then one row per probe
    blocks = [b.split("\n") for b in proc.stdout.strip().split("\n\n")]
    assert len(blocks) == 2
    for block in blocks:
        rows = [ln for ln in block if re.match(r"\s*\d+\.\d+\s", ln)]
        assert len(rows) == 5, block


def test_mc_block_stages_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mc_block_stages.py"),
         "--paths", "256", "--steps", "10", "20", "--repeats", "1"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header.split()[-2:] == ["256x10", "256x20"]
    stages = {row.rsplit(None, 2)[0].strip(): [float(v) for v in row.split()[-2:]]
              for row in rows}
    assert set(stages) == {"coarse points", "chords", "X^p", "reductions", "control",
                           "wealth cosh", "checkpoints", "segment coefficients", "row dots",
                           "column sums", "simulate block", "verify block",
                           "pass 1 worker", "pass default", "pass 1 worker MB",
                           "pass default MB", "peak MB", "tile rows chords",
                           "tile rows moments", "tile rows no leg"}
    assert all(v >= 0 for values in stages.values() for v in values)
    # the chords (11 and 21 per row) and the coarse values (9 and 17) are
    # narrow enough for tiles of _BLOCK_PAIRS rows
    assert stages["tile rows no leg"] == stages["tile rows chords"] == [2048, 2048]


def test_picard_scaling_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "picard_scaling.py"),
         "--sizes", "100", "200"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header.split() == ["n", "sweeps", "time", "s", "peak", "MB", "lam(0)"]
    assert [int(row.split()[0]) for row in rows] == [100, 200]
    assert all(int(row.split()[1]) >= 1 for row in rows)


def test_domain_sweep_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "domain_sweep.py"),
         "--n", "100", "--limit", "2"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = proc.stdout.strip().split("\n")
    assert header.split() == ["discount", "p", "T", "exit", "lam(0)", "sweeps"]
    assert [row.split()[:4] for row in rows] == [["hyp(1,1)", "-10", "1", "ok"],
                                                 ["hyp(1,1)", "-10", "5", "ok"]]
    assert all(float(row.split()[4]) > 1 and int(row.split()[5]) >= 1 for row in rows)
    assert total == "2 of 2 cases exit 0"


def test_bounds_sweep_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_sweep.py"), "--n-steps", "100"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header.split()[-1] == "inside"
    # one row per exponent x discount, each solution inside its bounds box
    assert len(rows) == 5 * 4
    assert all(row.split()[-1] == "True" for row in rows)


def test_mixture_convergence_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mixture_convergence.py"),
         "--n-steps", "100", "--sizes", "2", "4"],
        capture_output=True, text=True, env=script_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header.split()[0] == "N"
    assert [int(row.split()[0]) for row in rows] == [2, 4]
    # the larger fit lands closer to the Picard reference
    gaps = [float(row.split()[-1]) for row in rows]
    assert gaps[1] < gaps[0]
