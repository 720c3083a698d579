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


def _cells(column) -> tuple[str, list]:
    """A column's format spec and values: text as is, bools as true/false,
    numbers to 17 significant digits."""
    values = np.asarray(column)
    if values.dtype.kind == "b":
        return "%s", ["true" if v else "false" for v in values.tolist()]
    return ("%.17g" if values.dtype.kind in "fiu" else "%s"), values.tolist()


def write_csv(path: Path, columns: dict) -> None:
    """Write {header: column}; the columns (arrays or lists) must be equally long.

    The rows are one format string, the columns' specs joined by commas,
    repeated once per row and applied once to the values interleaved row by
    row, so the formatting runs in one call rather than once per value."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    specs, cells = zip(*map(_cells, columns.values())) if columns else ((), ())
    n_rows = len(cells[0]) if cells else 0
    if any(len(c) != n_rows for c in cells):
        raise ValueError(f"columns differ in length: {[len(c) for c in cells]}")
    flat = [None] * (n_rows * len(cells))
    for i, c in enumerate(cells):
        flat[i::len(cells)] = c
    row = ",".join(specs) + "\n"
    path.write_text(",".join(columns) + "\n" + (row * n_rows) % tuple(flat), newline="\n")


def write_manifest(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")
