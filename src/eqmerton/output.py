"""Deterministic CSV and manifest writers.

CSV files use a header row, comma separation, LF line endings, and
17-significant-digit decimal formatting, so identical inputs produce
byte-identical files. Manifests are JSON with sorted keys and no timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_manifest"]


def _cells(column) -> list[str]:
    """Text as is, bools as true/false, numbers to 17 significant digits."""
    values = np.asarray(column)
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    spec = "%.17g" if values.dtype.kind in "fiu" else "%s"
    return [spec % v for v in values.tolist()]


def write_csv(path: Path, columns: dict) -> None:
    """Write {header: column}; the columns (arrays or lists) must be equally long."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(*map(_cells, columns.values()), strict=True)
    path.write_text("\n".join([",".join(columns), *map(",".join, rows)]) + "\n",
                    newline="\n")


def write_manifest(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")
