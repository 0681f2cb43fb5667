"""Command-line front end.

Subcommands: metric, examples, verify, gauge-min, gauge-check, channel-bound,
estimate. Output is JSON (CSV for tables on request); identical configuration
and seed produce byte-identical output. Exit codes: 0 ok, 1 suite failure,
2 validation error, 3 numerical failure. QML_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import channels, verify
from .errors import NumericalError, QMetricsError, ValidationError
from .estimation import cramer_rao_experiment, sld_optimal_povm
from .families import bloch3, directional_family, family_registry, rot3_mixture
from .gauge import PhaseAssignment, apply_gauge, minimizing_gauge_1p, integrability_test
from .linalg import unitary
from .metrics import c_l_information, c_upsilon_states, evaluate_metrics

DEFAULT_SEED = 42


def _seed_default() -> int:
    env = os.environ.get("QML_SEED")
    return int(env) if env else DEFAULT_SEED


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        # round-trip faithful: 17 significant digits
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(payload, path=None, fmt="json"):
    if fmt == "json":
        try:
            text = json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or +-inf, which JSON cannot hold
            raise NumericalError(f"output is not finite: {exc}") from exc
    else:
        text = payload  # already rendered
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("params must be a JSON object")
    return params


def _sliced_family(args):
    """The named family, sliced along --direction through --at when a direction is given."""
    family = family_registry(args.family, _parse_params(args.params))
    if args.direction:
        family = directional_family(family, _parse_theta(args.at), _parse_theta(args.direction))
    return family


def _cmd_metric(args) -> int:
    family = family_registry(args.family, _parse_params(args.params))
    theta = _parse_theta(args.theta)
    names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    matrices = evaluate_metrics(family, theta, names)
    if args.format == "csv":
        p = family.nparams
        header = "metric," + ",".join(f"m{i}{j}" for i in range(p) for j in range(p))
        rows = [header]
        for name in names:
            flat = matrices[name].reshape(-1)
            rows.append(name + "," + ",".join(f"{v:.17g}" for v in flat))
        _emit("\n".join(rows) + "\n", args.out, fmt="csv")
    else:
        payload = {
            "family": args.family,
            "theta": theta,
            "metrics": matrices,
        }
        _emit(payload, args.out)
    return 0


def _cmd_examples(args) -> int:
    if args.which == "bloch3-gauges":
        fam = bloch3()
        shifted = apply_gauge(
            fam, PhaseAssignment.from_callable(lambda th: np.array([-th[2] / 2, -th[2] / 2]))
        )
        rows = []
        worst = 0.0
        for r in [0.1 * k for k in range(1, 10)]:
            for t in (0.3, 1.2):
                theta = np.array([r, t, 0.5])
                plain = c_upsilon_states(fam, theta)
                alt = c_upsilon_states(shifted, theta)
                ref_plain = np.diag([1.0 / (1.0 - r * r), 1.0, 1.0])
                ref_alt = np.diag([1.0 / (1.0 - r * r), 1.0, 2.0 + 2.0 * r * math.cos(t)])
                worst = max(
                    worst,
                    float(np.max(np.abs(plain - ref_plain))),
                    float(np.max(np.abs(alt - ref_alt))),
                )
                rows.append(
                    {
                        "r": r,
                        "theta": t,
                        "phi": 0.5,
                        "plain_gauge": plain,
                        "shifted_gauge": alt,
                    }
                )
        _emit({"which": args.which, "rows": rows, "max_deviation": worst}, args.out)
        return 0
    if args.which == "depolarize-cl":
        rows = []
        for eps in (0.05, 0.1, 0.2):
            fam = rot3_mixture(eps)
            theta = np.array([0.3])
            before = float(c_l_information(fam, theta)[0, 0])
            for r in (0.2, 0.5, 0.8, 1.0):
                ch = channels.depolarizing_channel(3, r)
                after = float(
                    c_l_information(channels.pushforward_family(ch, fam), theta)[0, 0]
                )
                rows.append(
                    {
                        "epsilon": eps,
                        "r": r,
                        "before": before,
                        "after": after,
                        "delta": after - before,
                        "expected_delta": (1.0 - r) * (8.0 / 3.0 - 8.0 * eps),
                    }
                )
        _emit({"which": args.which, "rows": rows}, args.out)
        return 0
    raise ValidationError(f"unknown example {args.which!r}")


def _cmd_verify(args) -> int:
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        raise ValidationError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(verify.SUITES))}"
        )
    report = suite(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_gauge_min(args) -> int:
    family = _sliced_family(args)
    pa = minimizing_gauge_1p(family, args.theta0, args.theta1, steps=args.steps)
    t_eval = np.array([args.eval_at if args.eval_at is not None else (args.theta0 + args.theta1) / 2])
    before = float(c_upsilon_states(family, t_eval)[0, 0])
    after = float(c_upsilon_states(apply_gauge(family, pa), t_eval)[0, 0])
    lower = float(c_l_information(family, t_eval)[0, 0])
    _emit(
        {
            "family": args.family,
            "eval_at": float(t_eval[0]),
            "cupsilon_before": before,
            "cupsilon_after": after,
            "cl": lower,
            "grid": pa.grid,
            "alphas": pa.samples,
        },
        args.out,
    )
    return 0


def _cmd_gauge_check(args) -> int:
    family = family_registry(args.family, _parse_params(args.params))
    report = integrability_test(family, _parse_theta(args.theta), tol=args.tol)
    _emit(
        {
            "family": args.family,
            "theta": _parse_theta(args.theta),
            "entries": [
                {"eigenvector": j, "param_l": l, "param_k": k, "imag": v}
                for (j, l, k, v) in report.entries
            ],
            "tolerance": report.tolerance,
            "verdict": "PASS" if report.passed else "FAIL",
        },
        args.out,
    )
    return 0


def _builtin_channel_family(name: str, seed: int) -> channels.ChannelFamily:
    if name == "rotation-z":
        sz = np.diag([1.0, -1.0]).astype(complex)

        def evaluate(t):
            return channels.unitary_channel(unitary(t * sz / 2))

        return channels.ChannelFamily(dim=2, evaluate=evaluate, name="rotation-z")
    if name == "mixed-rotation":
        rng = np.random.default_rng(seed)
        from .families import _random_hermitian

        g1, g2 = _random_hermitian(rng, 2), _random_hermitian(rng, 2)

        def evaluate(t):
            u1, u2 = unitary(t * g1), unitary((0.4 + 0.7 * t) * g2)
            c, s = math.cos(0.6), math.sin(0.6)
            return channels.KrausChannel(operators=(c * u1, s * u2))

        return channels.ChannelFamily(dim=2, evaluate=evaluate, name="mixed-rotation")
    raise ValidationError(f"unknown channel family {name!r}")


def _cmd_channel_bound(args) -> int:
    chf = _builtin_channel_family(args.channel_family, args.seed)
    states = {
        "plus": np.array([1.0, 1.0]) / math.sqrt(2),
        "zero": np.array([1.0, 0.0]),
    }
    if args.rho0 not in states:
        raise ValidationError(f"unknown reference state {args.rho0!r}")
    psi = states[args.rho0]
    rho0 = np.outer(psi, psi.conj())
    bound = channels.sm_channel_bound(chf, args.theta, rho0)
    _emit(
        {
            "channel_family": args.channel_family,
            "theta": args.theta,
            "rho0": args.rho0,
            "bound": bound,
        },
        args.out,
    )
    return 0


def _cmd_estimate(args) -> int:
    family = _sliced_family(args)
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
    _emit(
        {
            "family": args.family,
            "n_samples": report.n_samples,
            "reps": args.reps,
            "seed": args.seed,
            "theta_true": report.theta_true,
            "empirical_variance": report.empirical_variance,
            "fisher": report.fisher,
            "sld_bound": report.sld_bound,
            "cr_rhs": report.cr_rhs,
            "variance_reliable": report.variance_reliable,
            "estimates": report.estimates,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetrics",
        description="Information metrics on parametric families of density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _seed_default()

    p = sub.add_parser("metric", help="evaluate metric matrices at a parameter point")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}")
    p.add_argument("--theta", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("examples", help="reproduce the worked examples")
    p.add_argument("--which", required=True, choices=("bloch3-gauges", "depolarize-cl"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gauge-min", help="minimizing phase gauge for a one-parameter family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}")
    p.add_argument("--at", default="")
    p.add_argument("--direction", default="")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--eval-at", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gauge_min)

    p = sub.add_parser("gauge-check", help="multi-parameter integrability obstruction test")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}")
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gauge_check)

    p = sub.add_parser("channel-bound", help="channel-level information bound")
    p.add_argument("--channel-family", required=True, choices=("rotation-z", "mixed-rotation"))
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho0", default="plus")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_channel_bound)

    p = sub.add_parser("estimate", help="Monte Carlo Cramer-Rao experiment")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}")
    p.add_argument("--at", default="")
    p.add_argument("--direction", default="")
    p.add_argument("--theta-true", type=float, required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--interval", default="")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be non-negative, got {args.seed}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, QMetricsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
