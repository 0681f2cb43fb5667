"""Drift report between two record files written by bench/run.py.

    python3 bench/compare.py bench/records/points-seed1.jsonl other/points-seed1.jsonl

Matches record lines by input index `i` and reports, over the inputs both
files hold, the largest absolute and relative difference of any number in
them. Lines whose shape differs (an error on one side, a matrix of another
size) count as mismatched. Runs of the same code and seed agree exactly on
every common input; a run may complete more inputs than the other.
"""

from __future__ import annotations

import json
import sys


def load(path) -> dict:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return {line["i"]: line for line in lines if "i" in line}


def _numbers(x):
    """Flatten a record value into (shape, numbers); strings are shape."""
    if isinstance(x, dict):
        parts = [(k, *_numbers(v)) for k, v in sorted(x.items())]
        return tuple((k, s) for k, s, _ in parts), [n for _, _, ns in parts for n in ns]
    if isinstance(x, list):
        parts = [_numbers(v) for v in x]
        return tuple(s for s, _ in parts), [n for _, ns in parts for n in ns]
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return x, []
    return "n", [float(x)]


def compare(a: dict, b: dict) -> dict:
    common = sorted(a.keys() & b.keys())
    max_abs = max_rel = 0.0
    mismatched = 0
    for i in common:
        shape_a, nums_a = _numbers(a[i])
        shape_b, nums_b = _numbers(b[i])
        if shape_a != shape_b:
            mismatched += 1
            continue
        for x, y in zip(nums_a, nums_b):
            diff = abs(x - y)
            max_abs = max(max_abs, diff)
            if diff:
                max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return {"common": len(common), "only_in_first": len(a.keys() - b.keys()),
            "only_in_second": len(b.keys() - a.keys()), "mismatched": mismatched,
            "max_abs": max_abs, "max_rel": max_rel}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(compare(load(argv[0]), load(argv[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
