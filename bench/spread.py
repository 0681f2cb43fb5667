"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload gauge --seeds 1-10 [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles (statistics.quantiles
with n=4), the spread (q3 - q1) / median, and, for end-to-end metrics, the
bound from BENCHMARK.json. --out writes the raw results and this summary as
JSON, the form bench/baseline.json takes. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", args.seconds]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if k in bounds), flush=True)
    summary = summarize(results, bounds)
    for name, s in summary.items():
        flag = ""
        if s["bound"] is not None and name != "setup_s":
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
        spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
        print(f"{args.workload:<11} {name:<40} median {s['median']:.6g} {s['unit']}  "
              f"spread {spread}  bound {s['bound']}  {flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "summary": summary, "runs": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
