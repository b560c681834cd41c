#!/usr/bin/env python3
"""Write reference_certify.json: beta and alpha_tilde of every group for
the first ops of the certify workload at the default seed.

    python3 benchmarks/make_reference.py [n_ops]

Run it from the root of a source tree only when the certified values are
meant to change; the certify check compares every later run against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import maxfilter_lab as mfl  # noqa: E402
from workloads import DEFAULT_SEED, Certify  # noqa: E402


def main(n_ops: int) -> None:
    work = Certify()
    work.setup(mfl, HERE, DEFAULT_SEED)
    ops = {}
    for k in range(n_ops):
        record, _ = work.op(k)
        ops[str(k)] = [[beta, at] for beta, at, _, _ in record]
    lines = [f'  "{k}": {json.dumps(v)}' for k, v in ops.items()]
    Certify.REFERENCE.write_text(
        f'{{"seed": {DEFAULT_SEED}, "groups": {json.dumps(Certify.GROUPS)}, "ops": {{\n'
        + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 48)
