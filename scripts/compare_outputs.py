#!/usr/bin/env python3
"""Compare the outputs of two checkouts of eqmerton, command by command.

    python3 scripts/compare_outputs.py BASE CHANGE [--ini FILE ...]

Runs ``solve``, ``verify``, ``simulate`` and ``compare`` with each
checkout's ``src`` on the same inputs: the given INI files, or by default
this repository's ``configs/*.ini`` and both benchmark workloads' pass-0
inputs at seeds 1 and 2 (read from ``perfbench/inputs.py``). It prints
``identical`` when every exit code and output value agrees. Otherwise it
prints the largest relative change |a - b| / max(|a|, |b|) of each changed
CSV column and manifest field over all runs, with the run where it occurs
(inf for a changed non-number), and then each run whose exit code or
verdicts differ, or that crashed on both. The manifests' output directory
is ignored.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("solve", "verify", "simulate", "compare")
EXIT_CODES = (0, 2, 3, 4)  # the CLI's own; any other is a crash


def default_inputs() -> dict:
    """INI texts by name: the shipped configs and the pass-0 benchmark inputs."""
    sys.path.insert(0, str(ROOT))
    from perfbench.inputs import WORKLOADS, pass_inputs

    inputs = {f"configs/{p.name}": p.read_text() for p in sorted(ROOT.glob("configs/*.ini"))}
    for workload in WORKLOADS:
        for seed in (1, 2):
            for stem, text in pass_inputs(workload, seed, 0).items():
                inputs[f"{workload}:{seed}:{stem}"] = text
    return inputs


def flatten(value, key: str, out: dict) -> None:
    """A manifest's values as columns, keyed by their dotted path."""
    if isinstance(value, dict):
        for name, item in value.items():
            if name != "output_dir":
                flatten(item, f"{key}.{name}", out)
    else:
        out[key] = value if isinstance(value, list) else [value]


def run(checkout: Path, command: str, ini: Path, out: Path) -> tuple[int, dict]:
    """The exit code of one command and its outputs' columns by file:name."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    code = subprocess.run([sys.executable, "-m", "eqmerton.cli", command, "--config", str(ini),
                           "--out", str(out)], env=env, capture_output=True).returncode
    columns = {}
    for path in sorted(out.glob("*.csv")):
        header, *rows = csv.reader(path.read_text().splitlines())
        columns.update({f"{path.name}:{name}": [row[j] for row in rows]
                        for j, name in enumerate(header)})
    for path in sorted(out.glob("*.json")):
        flatten(json.loads(path.read_text()), path.name, columns)
    return code, columns


def change(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers, 0 where they are equal (nan
    equals nan), inf between unequal non-numbers or non-finite values."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return 0.0 if a == b else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--ini", type=Path, nargs="+", help="compare on these INI files instead")
    args = ap.parse_args()
    inputs = ({str(p): p.read_text() for p in args.ini} if args.ini else default_inputs())

    largest, differences = {}, []  # key -> (change, run); run lines
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, text) in enumerate(inputs.items()):
            ini = Path(tmp) / f"{i}.ini"
            ini.write_text(text)
            for command in COMMANDS:
                where = f"{name} {command}"
                (code, base), (code_b, changed) = (
                    run(checkout, command, ini, Path(tmp) / f"{i}-{command}-{side}")
                    for side, checkout in enumerate((args.base, args.change)))
                if code != code_b or code not in EXIT_CODES:  # a crash compares nothing
                    differences.append(f"{where}: exit {code} -> {code_b}")
                verdicts = [dict(zip(cols.get("verification.csv:check", []),
                                     cols.get("verification.csv:pass", [])))
                            for cols in (base, changed)]
                if verdicts[0] != verdicts[1]:
                    differences.append(f"{where}: verdicts {verdicts[0]} -> {verdicts[1]}")
                for key in base.keys() | changed.keys():
                    a, b = base.get(key), changed.get(key)
                    worst = (math.inf if a is None or b is None or len(a) != len(b)
                             else max(map(change, a, b), default=0.0))
                    if worst > largest.get(f"{command} {key}", (0.0,))[0]:
                        largest[f"{command} {key}"] = (worst, name)
    if not largest and not differences:
        print("identical")
        return 0
    for key, (worst, name) in sorted(largest.items()):
        print(f"{worst:9.2g}  {key}  ({name})")
    for line in differences:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
