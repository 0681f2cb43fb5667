"""One workload process: set up, say `ready`, then run, check and record.

Started by run.py. It prints `ready` once `import qmetrics`, the workload's
inputs and the warm-up are done, so the parent can time a fresh process to
ready. Unless --setup-only is given it then runs the closed loop for
--seconds, checks every answer outside the timed calls, writes the record
file, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import qmetrics

    if not Path(qmetrics.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qmetrics was imported from {qmetrics.__file__}, not from {SRC}")
    return qmetrics


def _openblas_threads():
    """OpenBLAS thread count from the library numpy bundles, if it has one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def timed_loop(qm, workload, seconds, min_ops, record_file=None, keep=0):
    """Closed loop: make input i, time the call, then check and record it.

    Runs until `seconds` have passed and at least `min_ops` ops and `keep`
    inputs are done. Returns counts, op latencies, the call times of every
    input, the failure messages, and the record lines of the first `keep`
    inputs.

    `attempted` and `failed` count the ops of the inputs up to the one that
    reaches `min_ops` (the whole run when `min_ops` is 0). Every run completes
    that prefix, and input i depends only on (seed, i), so the two counts
    repeat exactly for a seed however fast the machine is. `ops_run` and
    `ops_failed` count the whole run.
    """
    latencies, call_times, kept, failures = [], [], [], []
    attempted = failed = 0
    counted = None
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < min_ops or i < keep:
        inp = workload.make_input(i)
        n = workload.ops(inp)
        t0 = time.perf_counter()
        try:
            out, err = workload.run(inp), None
        except qm.QMetricsError as exc:
            out, err = None, exc
        dt = time.perf_counter() - t0
        call_times.append(dt)
        attempted += n
        if err is None:
            latencies.extend([dt / n] * n)
            failures += workload.check(i, inp, out)
            line = {"i": i, **workload.record(inp, out)}
        else:
            failed += n
            line = {"i": i, "error": type(err).__name__}
        if record_file is not None:
            record_file.write(json.dumps(line) + "\n")
        if i < keep:
            kept.append(line)
        i += 1
        if counted is None and 0 < min_ops <= attempted:
            counted = (attempted, failed)
    failures += workload.finish()
    counted = counted or (attempted, failed)
    return {"attempted": counted[0], "failed": counted[1], "ops_run": attempted,
            "ops_failed": failed, "latencies": latencies, "call_times": call_times,
            "failures": failures, "kept": kept}


def traced_pass(qm, workload, n_inputs, untraced):
    """Rerun the first n_inputs inputs with every layer wrapped in spans.

    Returns the tracer, the per-layer metrics, and failure messages when a
    traced answer differs from the untraced one.
    """
    import tracing

    tracer = tracing.Tracer()
    failures = []
    n_ops = 0
    busy = 0.0
    with tracer.install():
        for i in range(n_inputs):
            inp = workload.make_input(i, wrap=tracer.wrap_family)
            n_ops += workload.ops(inp)
            tracer.op = i
            t0 = time.perf_counter()
            try:
                out = tracer.call(tracing.OP, workload.run, inp)
                line = {"i": i, **workload.record(inp, out)}
            except qm.QMetricsError as exc:
                line = {"i": i, "error": type(exc).__name__}
            busy += time.perf_counter() - t0
            if line != untraced["kept"][i]:
                failures.append(f"input {i}: traced answer differs from the untraced one")
    metrics = tracer.layer_metrics(n_ops)
    metrics["trace.overhead_frac"] = (busy / sum(untraced["call_times"][:n_inputs]) - 1.0, "ratio")
    return tracer, metrics, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    qm = _import_library()
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    for i in range(workload.warmup_inputs):
        try:
            workload.run(workload.make_input(i, stream=workloads.WARMUP))
        except qm.QMetricsError:
            pass
    print("ready", flush=True)
    if args.setup_only:
        return 0

    keep = workload.trace_inputs if args.trace else 0
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "w") as fh:
        loop = timed_loop(qm, workload, args.seconds, workload.min_ops, fh, keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = loop["latencies"]
    if not lat:
        loop["failures"].append("no op succeeded")
    result = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "ops_run": loop["ops_run"],
        "ops_failed": loop["ops_failed"],
        "failures": loop["failures"],
        "checks": workload.summary(),
        "openblas_threads": _openblas_threads(),
        "metrics": {
            "ops_per_s": (len(lat) / sum(loop["call_times"]), "op/s"),
            "p50_ms": (1e3 * float(np.percentile(lat or [np.nan], 50)), "ms"),
            "p90_ms": (1e3 * float(np.percentile(lat or [np.nan], 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if args.trace:
        tracer, layers, failures = traced_pass(qm, workload, keep, loop)
        layers["failed_frac"] = (loop["failed"] / loop["attempted"], "ratio")
        result["metrics"] = layers
        result["failures"] += failures
        result["missing"] = tracer.missing
        spans = args.record.with_suffix(".spans.json")
        spans.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
