"""Deterministic CSV and manifest writers.

CSV files use a header row, comma separation, LF line endings, and
17-significant-digit decimal formatting, so identical inputs produce
byte-identical files. Manifests are JSON with sorted keys and no timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["fmt", "write_csv", "write_manifest"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_manifest(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")

