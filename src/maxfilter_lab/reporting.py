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
from typing import Any, Iterable, Sequence

import numpy as np


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


def _cell(v: Any) -> str:
    if isinstance(v, (np.floating, float)):
        # repr keeps full double precision and is deterministic
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if isinstance(v, (np.bool_, bool)):
        return str(bool(v))
    return str(v)


def write_csv(path: Path | str, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
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
