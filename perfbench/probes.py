"""Layer probes: wrappers around the public entry points of ``repro`` packages.

The benchmark never edits the program.  It replaces a handful of module and
class attributes with thin wrappers that

- always count calls (``circuits.builds``, ``circuits.screen_evals``,
  ``power.surrogate_fits``) -- the counts the registry does not keep;
- while tracing, also record a span ``(name, layer, start, end, parent)``
  in memory, so each layer's self time and the op's span coverage can be
  computed when the op ends.

Everything else per layer comes from the program's own metrics registry
(counter/histogram deltas around each op) and, while tracing, from its
per-kernel replay attribution.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: (module, attribute path, span name, layer) -- every wrapped entry point.
#: Functions imported by name into another module are wrapped at the module
#: that calls them (e.g. ``repro.compile.compiler.plan_layout``).
TARGETS = (
    ("repro.circuits.pnc", "PrintedNeuralNetwork.__init__", "circuits.build", "circuits"),
    ("repro.pdk.transfer", "TransferModel.output_and_power", "pdk.output_and_power", "pdk"),
    ("repro.power.surrogate", "fit_surrogate", "power.fit", "power"),
    ("repro.training", "train_power_constrained", "training.al", "training"),
    ("repro.training", "train_unconstrained", "training.unconstrained", "training"),
    ("repro.training.penalty", "penalty_pareto_sweep", "training.sweep", "training"),
    ("repro.training.fleet", "train_fleet", "training.fleet", "training"),
    ("repro.autograd.graph", "CapturedGraph.replay_forward", "autograd.replay_fwd", "autograd"),
    ("repro.autograd.graph", "CapturedGraph.replay_backward", "autograd.replay_bwd", "autograd"),
    ("repro.evaluation.montecarlo", "run_monte_carlo", "evaluation.montecarlo", "evaluation"),
    ("repro.circuits.ensemble", "sample_instance_stack", "circuits.stack_sample", "circuits"),
    ("repro.circuits.ensemble", "EnsembleProgram.__init__", "circuits.ensemble_build", "circuits"),
    ("repro.circuits.ensemble", "EnsembleProgram.run", "circuits.ensemble_run", "circuits"),
    ("repro.serving.artifact", "export_artifact", "serving.export", "serving"),
    ("repro.serving.artifact", "load_artifact", "serving.load", "serving"),
    ("repro.serving.artifact", "InferenceModel.predict", "serving.predict", "serving"),
    ("repro.compile.compiler", "compile_model", "compile.model", "compile"),
    ("repro.compile.compiler", "profile_network", "compile.profile", "compile"),
    ("repro.compile.compiler", "plan_layout", "compile.place", "compile"),
    ("repro.compile.compiler", "write_bundle", "compile.bundle_write", "compile"),
    ("repro.compile.compiler", "verify_bundle", "compile.verify", "compile"),
    ("repro.compile.verify", "solve_dc", "spice.solve", "spice"),
)


class Recorder:
    """In-memory spans and call counts for the current op."""

    def __init__(self):
        self.tracing = False
        #: a :class:`hostmeter.HostMeter` to tick on every call, or None
        self.meter = None
        self.spans: list[tuple] = []  # (id, parent, name, layer, start, end)
        self.calls: dict[str, int] = {}
        self.screen_evals = 0
        self._stack: list[int] = []
        self._building = 0

    def reset(self) -> None:
        self.spans = []
        self.calls = {}
        self.screen_evals = 0
        self._stack = []
        self._building = 0

    def call(self, name: str, layer: str, fn, args, kwargs):
        if self.meter is not None:
            self.meter.tick()
        self.calls[name] = self.calls.get(name, 0) + 1
        if name == "pdk.output_and_power":
            # Counted, never timed: eager forwards call it thousands of
            # times; the count that matters is the screening inside builds.
            self.screen_evals += self._building > 0
            return fn(*args, **kwargs)
        building = name == "circuits.build"
        self._building += building
        try:
            if not self.tracing:
                return fn(*args, **kwargs)
            return self._timed(name, layer, fn, args, kwargs)
        finally:
            self._building -= building

    def _timed(self, name: str, layer: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[span_id] = (span_id, parent, name, layer, start, perf_counter())
            self._stack.pop()

    def run_root(self, fn):
        """Run ``fn`` as the op's root span, timed whether or not tracing is on."""
        return self._timed("op", "op", fn, (), {})


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`TARGETS` so it reports to ``recorder``."""
    for module_name, path, name, layer in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)

        def wrapper(*args, __fn=original, __name=name, __layer=layer, **kwargs):
            return recorder.call(__name, __layer, __fn, args, kwargs)

        setattr(owner, attr, functools.wraps(original)(wrapper))


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(spans: list[tuple]) -> dict:
    """Per-span-name totals, per-layer self time and root coverage.

    A span's self time is its duration minus the union of its children's
    intervals; a layer's self time sums its spans' self times.  Coverage is
    the share of the root span covered by its direct children.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _name, _layer, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    self_times: dict[str, float] = {}
    coverage = 0.0
    for span_id, parent, name, layer, start, end in spans:
        duration = end - start
        own = duration - _union_length(children.get(span_id, []))
        if parent is None:
            coverage = 1.0 - own / duration if duration > 0 else 0.0
            continue
        totals[name] = totals.get(name, 0.0) + duration
        self_times[layer] = self_times.get(layer, 0.0) + own
    return {"totals": totals, "self": self_times, "coverage": coverage}
