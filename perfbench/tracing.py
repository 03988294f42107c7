"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public functions listed in `TARGETS` with
timing spans for as long as the context is open.  Modules import these
functions by name (`from .actions import orbit`), so every binding of the
original object in every loaded `irslab` module is replaced, and methods
are replaced on their class.  Nothing under `src/` is edited.

A span records name, start, end, parent span and job label.  Spans stay
in memory; the caller writes them out when the run ends.  A function's
self time is its inclusive time minus the inclusive time of the wrapped
calls made directly inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _ball_words(rank: int, radius: int) -> int:
    return 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))


# Counters attached to a traced function: hook(args, kwargs, result) -> {counter: amount}.
def _text_bytes(args, kwargs, result):
    return {"serialize.bytes_written": len(result)}


def _ball(args, kwargs, result):
    return {"words.ball.words": len(result)}


def _trace_cells(args, kwargs, result):
    hom, radius = args[0], args[1]
    return {"actions.trace_code_matrix.cells": _ball_words(hom.rank, radius) * hom.space.n_atoms}


def _irs(args, kwargs, result):
    return {"actions.empirical_irs.traces": len(result.weights)}


def _realize(args, kwargs, result):
    return {"analysis.realizes_tau_fraction.realized": int(result == 1)}


def _folner(args, kwargs, result):
    return {"analysis.folner_search.successes": int(result.success)}


def _sweep(args, kwargs, result):
    samples = args[2]
    return {
        "analysis.genericity_sweep.samples": samples,
        "analysis.genericity_sweep.hits": int(result * samples),
    }


# (module, qualified name, counter hook): the layer boundaries that are timed.
TARGETS = (
    ("cli", "main", None),
    ("serialize", "hom_from_doc", None),
    ("serialize", "space_from_doc", None),
    ("serialize", "hom_to_doc", None),
    ("serialize", "dumps_canonical", _text_bytes),
    ("serialize", "irs_to_csv", _text_bytes),
    ("space", "FiniteSpace.__post_init__", None),
    ("fullgroup", "FullGroupElement.from_forward", None),
    ("fullgroup", "FullGroupElement.__mul__", None),
    ("fullgroup", "FullGroupElement.cycles", None),
    ("fullgroup", "cycle_structure", None),
    ("fullgroup", "uniform_metric", None),
    ("words", "ball", _ball),
    ("actions", "orbit", None),
    ("actions", "orbits", None),
    ("actions", "index_distribution", None),
    ("actions", "trace_code_matrix", _trace_cells),
    ("actions", "empirical_irs", _irs),
    ("actions", "invariance_defect", None),
    ("actions", "Homomorphism.element_of", None),
    ("actions", "hom_metric", None),
    ("constructions", "splice", None),
    ("constructions", "rokhlin_base", None),
    ("constructions", "build_ht_perturbation", None),
    ("constructions", "build_corefree_perturbation", None),
    ("analysis", "realizes_tau_fraction", _realize),
    ("analysis", "folner_search", _folner),
    ("analysis", "schreier_boundary_ratio", None),
    ("analysis", "core_check", None),
    ("analysis", "sample_perturbation", None),
    ("analysis", "genericity_sweep", _sweep),
    ("analysis", "ball_stability_check", None),
    ("rng", "random_full_group_element", None),
    ("rng", "derive_rng", None),
)

COUNTERS = (
    "serialize.bytes_written",
    "words.ball.words",
    "actions.trace_code_matrix.cells",
    "actions.empirical_irs.traces",
    "analysis.genericity_sweep.samples",
)

# ratio name -> (numerator counter, base counter)
RATIOS = {
    "analysis.realizes_tau_fraction.realized_ratio": (
        "analysis.realizes_tau_fraction.realized", "analysis.realizes_tau_fraction.calls"),
    "analysis.folner_search.success_ratio": (
        "analysis.folner_search.successes", "analysis.folner_search.calls"),
    "analysis.genericity_sweep.hit_ratio": (
        "analysis.genericity_sweep.hits", "analysis.genericity_sweep.samples"),
}


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self):
        self.job = ""
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, time spent in wrapped children]

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, self.job)
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[1]
            if hook is not None:
                self.counts.update(hook(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper; restore on exit."""
        undo = []
        try:
            for module, qualname, hook in TARGETS:
                mod = importlib.import_module(f"irslab.{module}")
                name = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        new = self.wrap(name, raw, hook)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                original = getattr(mod, qualname)
                wrapper = self.wrap(name, original, hook)
                for mod_name, loaded in list(sys.modules.items()):
                    if loaded is None or mod_name.split(".")[0] != "irslab":
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)
                            undo.append((loaded, attr, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls, inclusive and self seconds of every
        target, the counters and the ratios with their bases."""
        out: dict[str, tuple[float, str]] = {}
        for module, qualname, _ in TARGETS:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.inclusive[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        known = Counter(self.counts)
        known.update({f"{name}.calls": calls for name, calls in self.calls.items()})
        for name, (num, base) in RATIOS.items():
            out[name] = (known[num] / known[base] if known[base] else 0.0, "ratio")
        return out
