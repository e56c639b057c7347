"""Stable serialization for reports: CSV bodies and JSON bundles.

Floats are formatted with a fixed 12-significant-digit format so that
repeated runs with the same inputs produce byte-identical files.  No
timestamps enter report bodies; run metadata lives in its own file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import ScalarField


def fmt(x) -> str:
    """Canonical scalar formatting for CSV cells."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(fmt(c) for c in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list, list]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def field_to_obj(field: ScalarField) -> dict:
    return {
        "sizes": list(field.grid.sizes),
        "re": [float(v) for v in field.values.real],
        "im": [float(v) for v in field.values.imag],
    }


def coefficients_to_obj(matrices: np.ndarray) -> dict:
    return {
        "shape": list(matrices.shape),
        "re": [float(v) for v in matrices.real.ravel()],
        "im": [float(v) for v in matrices.imag.ravel()],
    }


def obj_to_coefficients(obj: dict) -> np.ndarray:
    shape = tuple(obj["shape"])
    re = np.array(obj["re"], dtype=float).reshape(shape)
    im = np.array(obj["im"], dtype=float).reshape(shape)
    return re + 1j * im
