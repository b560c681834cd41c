#!/usr/bin/env python3
"""Check that two report trees hold the same results.

Usage, e.g. on the output of scripts/run_all.sh from two checkouts:

    scripts/diff_reports.py PARENT_DIR CHANGE_DIR

Both trees must hold the same set of files.  Each ``*_report.json`` must
be equal, value for value and type for type, once its "timings" field is
dropped; every other file must be byte-identical.  Prints one line per
difference and exits 1 if there is any, 0 otherwise.
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
        yield f"{where}: {json.dumps(x)} != {json.dumps(y)}"


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
            out.append(f"{rel}: bytes differ")
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
