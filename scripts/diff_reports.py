#!/usr/bin/env python3
"""Check that two report trees hold the same results.

Usage, e.g. on the output of scripts/run_all.sh from two checkouts:

    scripts/diff_reports.py PARENT_DIR CHANGE_DIR

Both trees must hold the same set of files.  Each ``*_report.json`` must
be equal, value for value and type for type, once its "timings" field is
dropped; every other file must be byte-identical.  Prints one line per
difference and exits 1 if there is any, 0 otherwise.  Where two numbers
differ, in a report or in a cell of two CSV files of the same shape, the
line also gives their absolute and relative difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _report(path: Path):
    report = json.loads(path.read_text())
    report.pop("timings", None)
    return report


def _size(x: float, y: float) -> str:
    """Absolute and relative difference of two numbers, the latter
    against the larger magnitude."""
    gap = abs(x - y)
    rel = gap / max(abs(x), abs(y)) if gap else 0.0
    return f" (abs {gap:.3g}, rel {rel:.3g})"


def _json_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _value_diffs(x, y, where: str):
    """Paths at which two parsed JSON values differ, with both values."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(set(x) | set(y)):
            if k in x and k in y:
                yield from _value_diffs(x[k], y[k], f"{where}.{k}")
            else:
                yield f"{where}.{k}: only in {'the first' if k in x else 'the second'} report"
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (u, v) in enumerate(zip(x, y)):
            yield from _value_diffs(u, v, f"{where}[{i}]")
    elif type(x) is not type(y) or x != y:
        size = _size(x, y) if _json_number(x) and _json_number(y) else ""
        yield f"{where}: {json.dumps(x)} != {json.dumps(y)}{size}"


def _csv_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diffs(x: str, y: str):
    """Differing cells of two CSV texts of the same shape, named by line
    and header; None when the shapes differ."""
    a = [line.split(",") for line in x.splitlines()]
    b = [line.split(",") for line in y.splitlines()]
    if len(a) != len(b) or any(len(u) != len(v) for u, v in zip(a, b)):
        return None
    out = []
    for i, (u, v) in enumerate(zip(a, b)):
        for j, (p, q) in enumerate(zip(u, v)):
            if p != q:
                nums = _csv_number(p), _csv_number(q)
                size = _size(*nums) if None not in nums else ""
                out.append(f"line {i + 1}, {a[0][j]}: {p} != {q}{size}")
    return out


def diff_trees(first: Path, second: Path) -> list[str]:
    """Every difference between the two trees, one line each."""
    a, b = _files(first), _files(second)
    out = [f"only in {first}: {p}" for p in sorted(a - b)]
    out += [f"only in {second}: {p}" for p in sorted(b - a)]
    for rel in sorted(a & b):
        if rel.name.endswith("_report.json"):
            out += [f"{rel}: {d}" for d in _value_diffs(_report(first / rel),
                                                        _report(second / rel), "$")]
        elif (first / rel).read_bytes() != (second / rel).read_bytes():
            cells = None
            if rel.suffix == ".csv":
                cells = _csv_diffs((first / rel).read_text(), (second / rel).read_text())
            out += [f"{rel}: {d}" for d in cells] if cells else [f"{rel}: bytes differ"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, second = map(Path, argv)
    for root in (first, second):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    diffs = diff_trees(first, second)
    for line in diffs:
        print(line)
    print(f"{len(_files(first))} files compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
