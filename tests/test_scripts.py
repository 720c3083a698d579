import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_inconsistency_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "inconsistency_demo.py"),
         "--n-steps", "200"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # one block per discount: a label line, a header line, then one row per probe
    blocks = [b.split("\n") for b in proc.stdout.strip().split("\n\n")]
    assert len(blocks) == 2
    for block in blocks:
        rows = [ln for ln in block if re.match(r"\s*\d+\.\d+\s", ln)]
        assert len(rows) == 5, block
