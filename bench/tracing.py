"""Span recorder for the traced benchmark run.

The recorder measures each layer from outside the library: it rebinds the
public functions named in FUNCTIONS and METHODS to wrappers that record a
span (name, start, end, parent span, op id), and it hands the library
families whose `evaluate`/`spectral` callables are wrapped the same way.
Nothing under src/ is edited. A name that no longer exists (merged or
renamed) is reported as missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter

import numpy as np

# Module-level functions, as "<module>.<name>" under the qmetrics package.
FUNCTIONS = (
    "linalg.eig_hermitian",
    "linalg.sld_solve",
    "linalg.central_difference",
    "families.tangent_data",
    "metrics.classical_fisher",
    "metrics.sld_information",
    "metrics.mc_metric",
    "metrics.c_l_information",
    "metrics.c_upsilon_states",
    "metrics.validate_povm",
    "metrics.born_probabilities",
    "channels.apply_channel",
    "gauge.minimizing_gauge_1p",
    "estimation.mle_1p",
    "estimation.sample_outcomes",
    "estimation.sld_optimal_povm",
    "estimation.cramer_rao_experiment",
)
# Methods: span name -> (module, class, attribute).
METHODS = {
    "families.drho": ("families", "ParametricFamily", "drho"),
    "gauge.alphas": ("gauge", "PhaseAssignment", "alphas"),
}
# Per-family callables, wrapped on the family objects handed to the library;
# these also count distinct (family, theta) arguments.
FAMILY_CALLABLES = ("families.evaluate", "families.spectral")

SPAN_NAMES = FUNCTIONS + tuple(METHODS) + FAMILY_CALLABLES
OP = "op"


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its child spans.

    `spans` holds (name, start, end, parent, op) records with `parent` the
    index of the enclosing span or None. Spans come from one thread, so the
    children of a span never overlap and their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[k] for k, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """In-memory span recorder; `install()` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._keys: dict[str, Counter] = {name: Counter() for name in FAMILY_CALLABLES}
        self._families = 0

    def wrap(self, name, fn, family_tag=None):
        keys = self._keys[name] if family_tag is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys[(family_tag, np.asarray(args[0], dtype=float).tobytes())] += 1
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap_family(self, family):
        """Copy of `family` whose evaluate/spectral calls are recorded."""
        self._families += 1
        tag = self._families
        changes = {"evaluate": self.wrap("families.evaluate", family.evaluate, tag)}
        if family.spectral is not None:
            changes["spectral"] = self.wrap("families.spectral", family.spectral, tag)
        return dataclasses.replace(family, **changes)

    @contextlib.contextmanager
    def install(self):
        """Rebind every traced name wherever qmetrics.* binds it; undo on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmetrics" or n.startswith("qmetrics."))]
        undo = []
        for name in FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(sys.modules.get(f"qmetrics.{module}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(f"qmetrics.{module}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls and self time of every span name, plus unique_frac."""
        calls = Counter()
        own = Counter()
        for span, t in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own[span[0]] += t
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / n_ops, "calls/op")
            out[f"{name}.self_ms"] = (1e3 * own[name] / n_ops, "ms/op")
        for name in FAMILY_CALLABLES:
            total = sum(self._keys[name].values())
            out[f"{name}.unique_frac"] = (len(self._keys[name]) / total if total else 0.0, "ratio")
        return out

    def dump(self) -> dict:
        """Spans in a compact form: names table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
