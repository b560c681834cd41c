"""Deterministic report serialization.

Reports are JSON documents with sorted keys and fixed float formatting so
that two runs with the same config and seed produce byte-identical files.
Wall-clock timings live in a single "timings" field that comparisons are
expected to exclude.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

_CSV_ROWS = 1024    # rows per block of write_csv; its str cells are held at once


def sanitize(obj: Any) -> Any:
    """Convert dataclasses to dicts of their fields, numpy scalars/arrays to
    builtins, and make floats JSON-safe.

    Non-finite floats are encoded as the strings "inf", "-inf", "nan" so
    the output stays valid strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sanitize(dataclasses.asdict(obj))
    return obj


def canonical_dumps(obj: Any) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"


def write_json(obj: Any, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(obj))
    return path


def write_csv(path: Path | str, table: Mapping[str, Any]) -> Path:
    """Write a table of named columns, one entry per row in each, as CSV.

    The header is the column names.  Each column goes through
    ``np.asarray(col)`` and ``tolist()``, and each cell is the ``str`` of
    the builtin that gives: a float prints as Python's shortest round-trip
    repr (``nan``, ``inf`` and ``-0.0`` included), a bool as True or False.
    Rows are converted and streamed to the file _CSV_ROWS at a time, as
    one joined string per block, so no whole column of builtins is held.
    Returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(col) for col in table.values()]
    n_rows = min((len(col) for col in columns), default=0)
    with path.open("w") as fh:
        fh.write(",".join(table) + "\n")
        for lo in range(0, n_rows, _CSV_ROWS):
            block = [list(map(str, col[lo:lo + _CSV_ROWS].tolist())) for col in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
    return path


def assertion(name: str, claim: str, passed: bool, value: Any,
              tolerance: Any = None) -> dict:
    """One pass/fail record for a run report."""
    return {
        "name": name,
        "claim": claim,
        "passed": bool(passed),
        "value": sanitize(value),
        "tolerance": sanitize(tolerance),
    }


def all_passed(assertions: Sequence[dict]) -> bool:
    return all(a["passed"] for a in assertions)
