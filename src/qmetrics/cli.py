"""Command-line front end.

Subcommands: metric, examples, verify, gauge-min, gauge-check, channel-bound,
estimate. Each returns its payload, a dict written as JSON or the text of a
CSV table, and main writes it once; identical configuration and seed produce
byte-identical output. Exit codes: 0 ok, 1 suite failure, 2 validation error,
3 numerical failure. QML_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import channels, verify
from .errors import NumericalError, QMetricsError, ValidationError
from .estimation import cramer_rao_experiment, sld_optimal_povm
from .families import directional_family, family_registry
from .gauge import apply_gauge, minimizing_gauge_1p, integrability_test
from .metrics import c_l_information, c_upsilon_states, evaluate_metrics

DEFAULT_SEED = 42


# Built-in channel families by name, each built from the seed.
CHANNEL_FAMILIES = {
    "rotation-z": channels.rotation_z_family,
    "mixed-rotation": channels.mixed_rotation_family,
}

# Pure reference states for channel-bound, by name.
REFERENCE_STATES = {
    "plus": np.array([1.0, 1.0]) / math.sqrt(2),
    "zero": np.array([1.0, 0.0]),
}


def _emit(payload, path=None):
    """Write a payload to path, or to stdout: a string as it is, anything else as JSON."""
    if isinstance(payload, str):
        text = payload
    else:
        try:
            # default: the numpy arrays and scalars, the only other values a payload holds
            text = json.dumps(payload, default=lambda a: a.tolist(), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or +-inf, which JSON cannot hold
            raise NumericalError(f"output is not finite: {exc}") from exc
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _seed(text: str) -> int:
    """A --seed value; argparse passes the string default (QML_SEED) through here too."""
    try:
        seed = int(text)
    except ValueError:
        raise ValidationError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_interval(text: str) -> tuple[float, float]:
    bounds = _parse_theta(text)
    if bounds.shape != (2,) or not np.isfinite(bounds).all():
        raise ValidationError(f"interval must be two finite numbers lo,hi, got {text!r}")
    return float(bounds[0]), float(bounds[1])


def _family(args):
    """The --family with its --params, sliced along --direction through --at
    when both are given (one without the other raises)."""
    try:
        params = json.loads(args.params or "{}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("params must be a JSON object")
    family = family_registry(args.family, params)
    at, direction = getattr(args, "at", ""), getattr(args, "direction", "")
    if bool(at) != bool(direction):
        raise ValidationError("--at and --direction go together: give both or neither")
    if direction:
        family = directional_family(family, _parse_theta(at), _parse_theta(direction))
    return family


def _cmd_metric(args):
    family = _family(args)
    theta = _parse_theta(args.theta)
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    matrices = evaluate_metrics(family, theta, names)
    if args.format == "json":
        return {"family": args.family, "theta": theta, "metrics": matrices}
    p = family.nparams
    rows = ["metric," + ",".join(f"m{i}{j}" for i in range(p) for j in range(p))]
    for name in names:
        rows.append(name + "," + ",".join(f"{v:.17g}" for v in matrices[name].reshape(-1)))
    return "\n".join(rows) + "\n"


def _cmd_examples(args):
    return {"which": args.which, **verify.EXAMPLES[args.which]()}


def _cmd_verify(args):
    if args.suite not in verify.SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(verify.SUITES))}"
        )
    return verify.SUITES[args.suite](seed=args.seed)


def _cmd_gauge_min(args):
    family = _family(args)
    pa = minimizing_gauge_1p(family, args.theta0, args.theta1, steps=args.steps)
    t_eval = np.array([args.eval_at if args.eval_at is not None else (args.theta0 + args.theta1) / 2])
    return {
        "family": args.family,
        "eval_at": float(t_eval[0]),
        "cupsilon_before": float(c_upsilon_states(family, t_eval)[0, 0]),
        "cupsilon_after": float(c_upsilon_states(apply_gauge(family, pa), t_eval)[0, 0]),
        "cl": float(c_l_information(family, t_eval)[0, 0]),
        "grid": pa.grid,
        "alphas": pa.samples,
    }


def _cmd_gauge_check(args):
    family = _family(args)
    theta = _parse_theta(args.theta)
    report = integrability_test(family, theta, tol=args.tol)
    return {
        "family": args.family,
        "theta": theta,
        "entries": [
            {"eigenvector": j, "param_l": l, "param_k": k, "imag": v}
            for (j, l, k, v) in report.entries
        ],
        "tolerance": report.tolerance,
        "verdict": "PASS" if report.passed else "FAIL",
    }


def _cmd_channel_bound(args):
    psi = REFERENCE_STATES[args.rho0]
    bound = channels.sm_channel_bound(
        CHANNEL_FAMILIES[args.channel_family](args.seed), args.theta, np.outer(psi, psi.conj())
    )
    return {"channel_family": args.channel_family, "theta": args.theta, "rho0": args.rho0,
            "bound": bound}


def _cmd_estimate(args):
    family = _family(args)
    if family.nparams > 1:
        raise ValidationError(
            "multi-parameter family: provide --direction (and --at) for a one-parameter slice"
        )
    povm = sld_optimal_povm(family, [args.theta_true])
    interval = _parse_interval(args.interval) if args.interval else None
    report = cramer_rao_experiment(
        family, args.theta_true, povm, n=args.n, reps=args.reps, seed=args.seed,
        interval=interval,
    )
    return {"family": args.family, "reps": args.reps, "seed": args.seed, **asdict(report)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetrics",
        description="Information metrics on parametric families of density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True)
    family.add_argument("--params", default="{}")
    sliced = argparse.ArgumentParser(add_help=False, parents=[family])
    sliced.add_argument("--at", default="")
    sliced.add_argument("--direction", default="")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=os.environ.get("QML_SEED") or str(DEFAULT_SEED))

    def command(name, func, summary, parents=()):
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("metric", _cmd_metric, "evaluate metric matrices at a parameter point", [family])
    p.add_argument("--theta", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("examples", _cmd_examples, "reproduce the worked examples")
    p.add_argument("--which", required=True, choices=verify.EXAMPLES)

    p = command("verify", _cmd_verify, "run a seeded property suite", [seeded])
    p.add_argument("--suite", required=True)

    p = command("gauge-min", _cmd_gauge_min,
                "minimizing phase gauge for a one-parameter family", [sliced])
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--eval-at", type=float, default=None)

    p = command("gauge-check", _cmd_gauge_check,
                "multi-parameter integrability obstruction test", [family])
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = command("channel-bound", _cmd_channel_bound, "channel-level information bound", [seeded])
    p.add_argument("--channel-family", required=True, choices=CHANNEL_FAMILIES)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho0", default="plus", choices=REFERENCE_STATES)

    p = command("estimate", _cmd_estimate, "Monte Carlo Cramer-Rao experiment", [sliced, seeded])
    p.add_argument("--theta-true", type=float, required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--interval", default="")

    return parser


def main(argv=None) -> int:
    try:
        # Inside the try: a malformed QML_SEED or --seed raises while parsing.
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        _emit(payload, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, QMetricsError, MemoryError) as exc:
        # Exit 1 means a failed suite, so an allocation too large for memory exits 3.
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return 1 if isinstance(payload, dict) and not payload.get("passed", True) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
