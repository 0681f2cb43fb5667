"""qmetrics benchmark: one workload per run, or every workload with `all`.

    python3 bench/run.py --workload all
    python3 bench/run.py --workload points --seed 3 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics: setup_s (median over four
fresh processes, from start to ready), ops_per_s, p50_ms, p90_ms and
peak_rss_mb. With --trace 1 it reports per-layer calls and self times per op
from a traced rerun of the first inputs, import times, and the tracing
overhead. Every answer is checked; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}, and the exit code
is 1 when a check fails. Records go to bench/records/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("points", "montecarlo", "gauge")
SETUP_PROCESSES = 3      # setup-only processes, besides the measuring one
IMPORT_PROCESSES = 3
CHILD_TIMEOUT_S = 150.0
IMPORT_BUCKETS = ("numpy", "scipy")


def _stamp(workload: str, seed: int) -> dict:
    """Commit, seed and versions that every result carries."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit or "unknown",
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_child(args: list[str]) -> tuple[float, str, int]:
    """Start a worker; return (seconds to its `ready` line, rest of stdout, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready":
        return ready, first + rest, code or 1
    return ready, rest, code


def parse_importtime(text: str) -> dict:
    """Split `python -X importtime -c 'import qmetrics'` output into buckets.

    qmetrics_s is the whole `import qmetrics`; numpy_s and scipy_s are the
    self times of modules whose nearest enclosing package (or own name) is
    numpy or scipy, so stdlib modules pulled in by numpy count as numpy.
    """
    entries = []  # [name, self_us, cumulative_us, depth, parent]
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entry = [name.strip(), int(self_us), int(cum_us), depth, None]
        while pending and entries[pending[-1]][3] > depth:
            entries[pending.pop()][4] = len(entries)
        pending.append(len(entries))
        entries.append(entry)
    bucket = [None] * len(entries)
    totals = dict.fromkeys(IMPORT_BUCKETS, 0)
    qmetrics_us = 0
    for k in reversed(range(len(entries))):  # parents come after their children
        name, self_us, cum_us, _, parent = entries[k]
        top = name.split(".")[0]
        bucket[k] = top if top in IMPORT_BUCKETS else (bucket[parent] if parent is not None else None)
        if bucket[k] is not None:
            totals[bucket[k]] += self_us
        if name == "qmetrics":
            qmetrics_us = cum_us
    out = {f"import.{b}_s": (totals[b] / 1e6, "s") for b in IMPORT_BUCKETS}
    out["import.qmetrics_s"] = (qmetrics_us / 1e6, "s")
    return out


def _import_times() -> dict:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qmetrics"
    samples = []
    for _ in range(IMPORT_PROCESSES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip())
        samples.append(parse_importtime(proc.stderr))
    return {k: (statistics.median(s[k][0] for s in samples), unit)
            for k, (_, unit) in samples[0].items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (contract result, details for the summary)."""
    record = BENCH / "records" / f"{workload}-seed{seed}{'-trace' if trace else ''}.jsonl"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--record", str(record)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            ready, text, code = _run_child(base + ["--setup-only"])
            if code != 0:
                raise RuntimeError(f"setup process failed with exit code {code}: {text.strip()}")
            setups.append(ready)
    ready, text, code = _run_child(base + ["--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"workload process failed with exit code {code}: {text.strip()}")
    child = json.loads(text.strip().splitlines()[-1])
    metrics = child["metrics"]
    if trace:
        metrics.update(_import_times())
    else:
        metrics["setup_s"] = (statistics.median(setups + [ready]), "s")
    stamp = _stamp(workload, seed)
    stamp["openblas_threads"] = child["openblas_threads"]
    with open(record, "a") as fh:
        fh.write(json.dumps({"env": stamp, "checks": child["checks"],
                             "failures": child["failures"]}) + "\n")
    result = {
        "correct": not child["failures"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    details = {"env": stamp, "checks": child["checks"], "failures": child["failures"],
               "missing": child.get("missing", []),
               "ops_run": child["ops_run"], "ops_failed": child["ops_failed"]}
    return result, details


def _print_summary(workload: str, result: dict, details: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<11} {name:<40} {m['value']:.6g} {m['unit']}")
    if "failed_frac" not in result["metrics"]:
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<11} {'failed_frac':<40} {frac:.6g} ratio "
              f"({result['failed']} of the first {result['attempted']} ops; "
              f"{details['ops_failed']} of all {details['ops_run']})")
    print(f"{workload:<11} checks {json.dumps(details['checks'])}")
    if details["missing"]:
        print(f"{workload:<11} missing {json.dumps(details['missing'])}")
    for failure in details["failures"][:20]:
        print(f"{workload:<11} FAILED {failure}")
    print(f"env {json.dumps(details['env'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "qmetrics" / "__init__.py").is_file():
        print(f"error: no qmetrics source under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, details = run_workload(workload, args.seed, seconds, args.trace)
        _print_summary(workload, result, details)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
