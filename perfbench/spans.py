"""Span tracing of spoofsim's layers from outside the program.

`Tracer.install()` wraps the public functions of each layer module.  Every
call records a span (name, start, end, parent) in flat arrays; self time is
a span's duration minus the durations of its direct children.  Wrappers
draw from no RNG and change no argument or result, so traced runs emit the
same bytes as untraced ones.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: layer -> public names wrapped in module `spoofsim.<layer>`.  `Class.*`
#: wraps every public method and property of the class.
TARGETS: Dict[str, List[str]] = {
    "world": ["step", "agl", "time_and_distance_to_touchdown"],
    "radalt": ["craft_ramp", "measure", "RampAttackPlan.echo_at"],
    "gpws": ["ClosureRateEstimator.update", "evaluate", "scripted_trigger"],
    "tcas": ["TcasUnit.mode_s_cycle", "advise", "Channel.squitters",
             "FalseIntruderInjector.*"],
    "ils": ["receive", "papi"],
    "crew": ["gpws_act", "gpws_reaction_latency", "sample_tcas_crew", "tcas_act",
             "sample_gs_crew", "gs_act"],
    "sentinel": ["observe_arrivals", "toa_consistency", "default_sensor_grid"],
    "harness.config": ["make_config", "load_config", "ScenarioConfig.*"],
    "harness.scenarios": ["gpws_trial", "tcas_trial", "gs_trial"],
    "harness.runner": ["run", "trial_seeds"],
    "harness.log": ["TrialLog.add", "TrialLog.to_jsonl", "TrialLog.from_jsonl"],
    "harness.output": ["emit", "load_logs", "summary_csv", "report_text"],
    "harness.summary": ["summarize"],
    "harness.cli": ["main"],
}

LAYERS = list(TARGETS)

#: Every per-layer metric `Tracer.metrics` reports (plus the overhead ratio
#: `run.py` adds), with its unit.
UNITS: Dict[str, str] = {}
for _layer in LAYERS:
    UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.self_s"] = "s"
UNITS.update({
    "world.step.calls_per_trial": "calls/trial",
    "radalt.sweeps_crafted": "count",
    "radalt.sweeps_read": "count",
    "radalt.sweep_use_ratio": "ratio",
    "gpws.evaluate.calls": "count",
    "gpws.alerts": "count",
    "gpws.alert_ratio": "ratio",
    "tcas.mode_s_cycle.calls": "count",
    "tcas.advise.calls": "count",
    "tcas.advisory_ratio": "ratio",
    "sentinel.messages_checked": "count",
    "sentinel.suspect": "count",
    "sentinel.us_per_message": "us",
    "harness.config.make_config.self_s": "s",
    "harness.config.accessor.calls": "count",
    "harness.scenarios.trial_ms.p50": "ms",
    "harness.scenarios.trial_ms.p99": "ms",
    "harness.log.events": "count",
    "harness.log.to_jsonl.self_s": "s",
    "harness.log.from_jsonl.self_s": "s",
    "harness.output.files_written": "count",
    "harness.output.bytes_written": "bytes",
    "tracing_overhead_ratio": "ratio",
})
_TRIAL_SPANS = tuple(f"harness.scenarios:{n}" for n in TARGETS["harness.scenarios"])


class Tracer:
    def __init__(self) -> None:
        self._span_names: List[str] = []
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {
            "radalt.sweeps_crafted": 0, "gpws.alerts": 0, "tcas.advisories": 0,
            "sentinel.suspect": 0,
        }
        self.written: List[Path] = []
        self.missing: List[str] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, span_name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        nid = len(self._span_names)
        self._span_names.append(span_name)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def bump(key: str, pred: Callable) -> Callable:
            def hook(result):
                if pred(result):
                    counts[key] += 1
            return hook

        def crafted(plan):
            counts["radalt.sweeps_crafted"] += len(plan.schedule)

        return {
            "radalt:craft_ramp": crafted,
            "gpws:evaluate": bump("gpws.alerts", lambda r: r is not None),
            "tcas:advise": bump("tcas.advisories", lambda r: r is not None),
            "sentinel:toa_consistency": bump("sentinel.suspect", lambda r: r.flag == "SUSPECT"),
            "harness.output:emit": self.written.extend,
        }

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, rebinding each name wherever spoofsim looks it up:
        module attributes, names imported into other modules, and module-level
        dispatch dicts."""

        import importlib

        hooks = self._hooks()
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"spoofsim.{layer}")
            for name in names:
                if name.endswith(".*"):
                    cls = getattr(module, name[:-2], None)
                    if cls is None:
                        self.missing.append(f"{layer}:{name}")
                        continue
                    for attr, value in list(vars(cls).items()):
                        if not attr.startswith("_") and (
                                callable(value) or isinstance(value, property)):
                            self._patch_member(layer, cls, attr, hooks)
                elif "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or attr not in vars(cls):
                        self.missing.append(f"{layer}:{name}")
                        continue
                    self._patch_member(layer, cls, attr, hooks)
                else:
                    original = getattr(module, name, None)
                    if original is None:
                        self.missing.append(f"{layer}:{name}")
                        continue
                    span = f"{layer}:{name}"
                    self._rebind(original, self.wrap(span, original, hooks.get(span)))

    def _patch_member(self, layer: str, cls: type, attr: str, hooks: Dict) -> None:
        span = f"{layer}:{cls.__name__}.{attr}"
        value = vars(cls)[attr]
        hook = hooks.get(span)
        if isinstance(value, property):
            new = property(self.wrap(span, value.fget, hook), value.fset, value.fdel, value.__doc__)
        elif isinstance(value, (classmethod, staticmethod)):
            new = type(value)(self.wrap(span, value.__func__, hook))
        else:
            new = self.wrap(span, value, hook)
        setattr(cls, attr, new)

    @staticmethod
    def _rebind(original: Callable, wrapped: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spoofsim" or mod_name.startswith("spoofsim.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped

    # -- results ------------------------------------------------------------

    def _durations(self) -> np.ndarray:
        return np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)

    def trial_ms(self) -> List[float]:
        """Duration of every trial function call, ms, in call order."""

        ids = [i for i, s in enumerate(self._span_names) if s in _TRIAL_SPANS]
        name = np.frombuffer(self._name, dtype=np.int64)
        return (1e3 * self._durations()[np.isin(name, ids)]).tolist()

    def metrics(self, trials: int) -> Dict[str, float]:
        """Per-layer calls and self time plus the layer-specific counters."""

        n_names = len(self._span_names)
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = self._durations()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_by_name = np.bincount(name, weights=dur - child, minlength=n_names)
        calls_by_name = np.bincount(name, minlength=n_names)

        def span_sum(arr, pred) -> float:
            return float(sum(arr[i] for i, s in enumerate(self._span_names) if pred(s)))

        out: Dict[str, float] = {}
        for layer in LAYERS:
            in_layer = lambda s, layer=layer: s.split(":")[0] == layer  # noqa: E731
            out[f"{layer}.calls"] = int(span_sum(calls_by_name, in_layer))
            out[f"{layer}.self_s"] = span_sum(self_by_name, in_layer)

        def calls(span: str) -> int:
            return int(span_sum(calls_by_name, lambda s: s == span))

        def self_s(span: str) -> float:
            return span_sum(self_by_name, lambda s: s == span)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counts
        out["world.step.calls_per_trial"] = ratio(calls("world:step"), trials)
        out["radalt.sweeps_crafted"] = c["radalt.sweeps_crafted"]
        out["radalt.sweeps_read"] = calls("radalt:RampAttackPlan.echo_at")
        out["radalt.sweep_use_ratio"] = ratio(out["radalt.sweeps_read"], c["radalt.sweeps_crafted"])
        out["gpws.evaluate.calls"] = calls("gpws:evaluate")
        out["gpws.alerts"] = c["gpws.alerts"]
        out["gpws.alert_ratio"] = ratio(c["gpws.alerts"], out["gpws.evaluate.calls"])
        out["tcas.mode_s_cycle.calls"] = calls("tcas:TcasUnit.mode_s_cycle")
        out["tcas.advise.calls"] = calls("tcas:advise")
        out["tcas.advisory_ratio"] = ratio(c["tcas.advisories"], out["tcas.advise.calls"])
        out["sentinel.messages_checked"] = calls("sentinel:toa_consistency")
        out["sentinel.suspect"] = c["sentinel.suspect"]
        out["sentinel.us_per_message"] = 1e6 * ratio(
            out["sentinel.self_s"], out["sentinel.messages_checked"])
        out["harness.config.make_config.self_s"] = self_s("harness.config:make_config")
        out["harness.config.accessor.calls"] = int(span_sum(
            calls_by_name, lambda s: s.startswith("harness.config:ScenarioConfig.")))
        out["harness.log.events"] = calls("harness.log:TrialLog.add")
        out["harness.log.to_jsonl.self_s"] = self_s("harness.log:TrialLog.to_jsonl")
        out["harness.log.from_jsonl.self_s"] = self_s("harness.log:TrialLog.from_jsonl")
        out["harness.output.files_written"] = len(self.written)
        out["harness.output.bytes_written"] = sum(p.stat().st_size for p in self.written)
        return out
