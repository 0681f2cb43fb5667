"""The benchmark's three workloads.

Each workload turns the seed into a stream of inputs, runs one call on an
input the way a library user does (call, wait for the answer), checks the
answer, and turns it into a record line. Input i depends only on
(seed, stream, i), so two runs with the same seed see the same inputs however
many of them they complete, and warm-up inputs never repeat timed ones.

An input is one library call sequence. It yields `ops` ops: one point, one
gauge scan, or the replicates of one Monte Carlo call.
"""

from __future__ import annotations

import math

import numpy as np

import qmetrics as qm

TIMED, WARMUP = 0, 1
ORDER_TOL = 1e-8        # matrix-order margin for the Petz ordering checks
CLOSED_FORM_TOL = 1e-7  # closed forms vs Richardson differences (h = 1e-5)
GAUGE_TOL = 1e-6        # |cupsilon of the minimized gauge - cl|
CRLB_REL_TOL = 0.15     # pooled variance vs 1/(N F)


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _same(x):
    return x


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.T) / 2.0).min())


def _matrices(out: dict) -> dict:
    return {name: np.asarray(m).tolist() for name, m in out.items()}


class Workload:
    """Defaults: one op per input, no check that needs the whole run."""

    min_ops = 100

    @staticmethod
    def ops(inp) -> int:
        return 1

    def finish(self) -> list[str]:
        return []


class Points(Workload):
    """Metric matrices at (family, theta) points, as `qmetrics metric` does.

    The kinds are taken in turn, so every run has the same mix; the seed
    draws the family parameters and theta. One op is one point.
    """

    name = "points"
    metrics = ("fisher", "sld", "kmb", "rld", "cupsilon", "cl")
    kinds = (
        ("bloch3", 2, 3),
        ("rot3-mixture", 3, 1),
        *(("random", d, p) for d in (2, 3, 4, 8) for p in (1, 3)),
        ("tpcp", 3, None),
    )
    trace_inputs = 10 * len(kinds)
    warmup_inputs = len(kinds)
    # attempted/failed cover the first 100 rounds of the kinds: 200 d=8 points.
    min_ops = 100 * len(kinds)

    def __init__(self, seed: int):
        self.seed = seed
        self.worst_order_margin = math.inf
        self.worst_closed_form = 0.0

    def make_input(self, i: int, stream: int = TIMED, wrap=_same) -> dict:
        rng = _rng(self.seed, stream, i)
        kind, d, p = self.kinds[i % len(self.kinds)]
        names = self.metrics
        extra = {}
        if kind == "bloch3":
            family = wrap(qm.bloch3())
            theta = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.2, math.pi - 0.2),
                              rng.uniform(0.0, 2.0 * math.pi)])
        elif kind == "rot3-mixture":
            extra["epsilon"] = float(rng.uniform(0.02, 0.3))
            family = wrap(qm.rot3_mixture(extra["epsilon"]))
            theta = np.array([rng.uniform(-math.pi, math.pi)])
        elif kind == "random":
            family = wrap(qm.random_full_rank(d=d, nparams=p, seed=_seed(rng)))
            theta = rng.uniform(-0.3, 0.3, size=p)
        else:
            # A general channel carries no spectral presentation, so no cupsilon.
            p = 1 if (i // len(self.kinds)) % 2 == 0 else 3
            base = wrap(qm.random_full_rank(d=d, nparams=p, seed=_seed(rng)))
            channel = qm.random_tpcp(d, kraus_count=int(rng.integers(1, 5)), seed=_seed(rng))
            family = qm.pushforward_family(channel, base)
            theta = rng.uniform(-0.3, 0.3, size=p)
            names = tuple(n for n in names if n != "cupsilon")
        return {"kind": kind, "d": d, "family": family, "theta": theta, "names": names, **extra}

    @staticmethod
    def run(inp) -> dict:
        return {name: qm.evaluate_metric(inp["family"], inp["theta"], name) for name in inp["names"]}

    def check(self, i: int, inp, out) -> list[str]:
        fail = []
        kind = inp["kind"]
        if kind == "bloch3":
            r, t, _ = inp["theta"]
            a = 1.0 / (1.0 - r * r)
            expected = {"sld": np.diag([a, r * r, (r * math.sin(t)) ** 2]),
                        "cupsilon": np.diag([a, 1.0, 1.0])}
        elif kind == "rot3-mixture":
            zero = np.zeros((1, 1))
            expected = {"cl": np.array([[8.0 * inp["epsilon"]]]),
                        "sld": zero, "kmb": zero, "rld": zero, "fisher": zero}
        else:
            expected = {}
            chain = [("fisher", "sld"), ("sld", "kmb"), ("kmb", "rld"), ("sld", "cl")]
            if "cupsilon" in out:
                chain.append(("cl", "cupsilon"))
            for lo, hi in chain:
                margin = _min_eig(out[hi] - out[lo])
                self.worst_order_margin = min(self.worst_order_margin, margin)
                if margin < -ORDER_TOL:
                    fail.append(f"point {i} ({kind} d={inp['d']}): {lo} <= {hi} fails by {-margin:.3e}")
        for name, ref in expected.items():
            err = float(np.max(np.abs(out[name] - ref)))
            self.worst_closed_form = max(self.worst_closed_form, err)
            if err > CLOSED_FORM_TOL:
                fail.append(f"point {i} ({kind}): {name} off its closed form by {err:.3e}")
        return fail

    def summary(self) -> dict:
        return {"worst_order_margin": self.worst_order_margin,
                "worst_closed_form_error": self.worst_closed_form}

    @staticmethod
    def record(inp, out) -> dict:
        return {"kind": inp["kind"], "d": inp["d"], "theta": inp["theta"].tolist(),
                "metrics": _matrices(out)}


class MonteCarlo(Workload):
    """Cramer-Rao Monte Carlo with the score-diagonalizing measurement, as
    `qmetrics estimate` does: each call builds the measurement and runs
    cramer_rao_experiment with a fresh derived seed. One op is one replicate.

    Calls alternate between bloch3's radial slice and a fresh one-parameter
    random_full_rank d=4 family. A bloch3 replicate costs about a third of a
    d=4 one, so bloch3 calls carry three replicates and d=4 calls one: both
    families take similar time, and no latency percentile falls in the gap
    between their per-replicate costs. Few replicates per call make many
    calls per run, so the latency percentiles rest on many families.
    """

    name = "montecarlo"
    n_samples = 10_000
    reps = {"bloch3-radial": 3, "random-d4": 1}
    # The pooled variance over about 1200 replicates leaves the 15% band by
    # chance in fewer than 1 run in 4000.
    min_ops = 1200
    trace_inputs = 20
    warmup_inputs = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.scaled_ss = 0.0   # sum over replicates of N F (estimate - theta)^2
        self.count = 0
        self.worst_fisher_excess = -math.inf

    def make_input(self, i: int, stream: int = TIMED, wrap=_same) -> dict:
        rng = _rng(self.seed, stream, i)
        if i % 2 == 0:
            kind = "bloch3-radial"
            base = wrap(qm.bloch3())
            family = qm.directional_family(base, np.array([0.5, 0.8, 0.3]), np.array([1.0, 0.0, 0.0]))
            theta, interval = 0.0, (-0.4, 0.4)
        else:
            kind = "random-d4"
            family = wrap(qm.random_full_rank(d=4, nparams=1, seed=_seed(rng)))
            theta, interval = float(rng.uniform(-0.2, 0.2)), None
        reps = self.reps[kind]
        return {"kind": kind, "family": family, "theta": theta, "interval": interval,
                "reps": reps, "seed": _seed(rng)}

    @staticmethod
    def ops(inp) -> int:
        return inp["reps"]

    def run(self, inp):
        povm = qm.sld_optimal_povm(inp["family"], [inp["theta"]])
        return qm.cramer_rao_experiment(
            inp["family"], inp["theta"], povm, n=self.n_samples, reps=inp["reps"],
            seed=inp["seed"], interval=inp["interval"],
        )

    def check(self, i: int, inp, report) -> list[str]:
        est = np.asarray(report.estimates)
        self.scaled_ss += self.n_samples * report.fisher * float(np.sum((est - inp["theta"]) ** 2))
        self.count += est.size
        excess = report.fisher - report.sld_bound
        self.worst_fisher_excess = max(self.worst_fisher_excess, excess)
        if excess > 1e-8:
            return [f"call {i} ({inp['kind']}): Fisher {report.fisher} exceeds SLD {report.sld_bound}"]
        return []

    def pooled_ratio(self) -> float:
        """Pooled empirical variance about the true theta over the Cramer-Rao
        value 1/(N F). Each call has its own theta and F, so the deviations
        are scaled by N F before pooling; about the true theta rather than a
        call's mean, so a call of one replicate counts, and bias would show."""
        return self.scaled_ss / self.count if self.count else math.nan

    def finish(self) -> list[str]:
        ratio = self.pooled_ratio()
        if not abs(ratio - 1.0) <= CRLB_REL_TOL:
            return [f"pooled variance is {ratio:.4f} x 1/(N F) over {self.count} replicates; "
                    f"allowed 1 +- {CRLB_REL_TOL}"]
        return []

    def summary(self) -> dict:
        return {"pooled_variance_over_crlb": self.pooled_ratio(), "replicates": self.count,
                "worst_fisher_minus_sld": self.worst_fisher_excess}

    @staticmethod
    def record(inp, report) -> dict:
        return {"kind": inp["kind"], "theta": inp["theta"], "estimates": report.estimates.tolist(),
                "fisher": report.fisher, "sld": report.sld_bound}


class Gauge(Workload):
    """Minimizing phase gauge of perturbed one-parameter families, as the
    `gauge` suite does. d cycles over {2, 3, 4}; every scan gets a new family,
    because the cost of a family evaluation depends on its generator. One op
    is one scan."""

    name = "gauge"
    lo, hi, steps = -0.5, 0.5, 512
    trace_inputs = 6
    warmup_inputs = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.worst_gap = 0.0

    def make_input(self, i: int, stream: int = TIMED, wrap=_same) -> dict:
        rng = _rng(self.seed, stream, i)
        d = 2 + i % 3
        family = wrap(qm.random_full_rank(d=d, nparams=1, seed=_seed(rng)))
        a = rng.uniform(-1.0, 1.0, size=d)
        b = rng.uniform(0.5, 2.0, size=d)
        c = rng.uniform(0.0, 2.0 * math.pi, size=d)
        phases = qm.PhaseAssignment.from_callable(lambda th: a * np.sin(b * th[0] + c))
        return {"d": d, "family": qm.apply_gauge(family, phases)}

    def run(self, inp) -> dict:
        family = inp["family"]
        pa = qm.minimizing_gauge_1p(family, self.lo, self.hi, steps=self.steps)
        mid = np.array([(self.lo + self.hi) / 2.0])
        return {
            "cupsilon_min": float(qm.c_upsilon_states(qm.apply_gauge(family, pa), mid)[0, 0]),
            "cl": float(qm.c_l_information(family, mid)[0, 0]),
        }

    def check(self, i: int, inp, out) -> list[str]:
        gap = abs(out["cupsilon_min"] - out["cl"])
        self.worst_gap = max(self.worst_gap, gap)
        if gap > GAUGE_TOL:
            return [f"scan {i} (d={inp['d']}): |cupsilon_min - cl| = {gap:.3e}"]
        return []

    def summary(self) -> dict:
        return {"worst_gap": self.worst_gap}

    @staticmethod
    def record(inp, out) -> dict:
        return {"d": inp["d"], **out}


WORKLOADS = {w.name: w for w in (Points, MonteCarlo, Gauge)}
