"""Per-layer spans around rissim's public functions, taken without touching src/.

`patched(tracer)` replaces each traced function, in every rissim module that
bound it by name, and each traced method, on its class, with a wrapper that
records a span; on exit it puts the originals back. Spans nest through a
stack, so a span's self time is its duration minus the time its child spans
cover. The oracle workload closes about 800k spans per call, so spans are
folded into per-name totals as they close instead of being stored.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

# (span name, module, attribute); the runners share one span name
FUNCTIONS = (
    ("channel.derive_rng", "rissim.channel", "derive_rng"),
    ("channel.synthesize", "rissim.channel", "synthesize_channels"),
    ("channel.channel_gain", "rissim.channel", "channel_gain"),
    ("channel.quantize_adc", "rissim.channel", "quantize_adc"),
    ("channel.power_dbfs", "rissim.channel", "power_dbfs"),
    ("ris.theta_diag", "rissim.ris", "theta_diag"),
    ("optimizer.greedy", "rissim.optimizer", "greedy_iterative"),
    ("optimizer.exhaustive", "rissim.optimizer", "exhaustive_search"),
    ("codebook.generate", "rissim.codebook", "generate_codebook"),
    ("codebook.evaluate_path", "rissim.codebook", "evaluate_path"),
    ("codebook.lookup", "rissim.codebook", "lookup_nearest"),
    ("experiments.runner", "rissim.experiments", "run_sweep"),
    ("experiments.runner", "rissim.experiments", "run_codebook_experiment"),
    ("experiments.runner", "rissim.experiments", "run_oracle_check"),
)

# (span name, module, class, method)
METHODS = (
    ("channel.tone_meter", "rissim.channel", "TonePowerMeter", "__call__"),
    ("channel.gain_meter", "rissim.channel", "GainMeter", "__call__"),
    ("ris.config", "rissim.ris", "RisConfig", "__init__"),
    ("geometry.with_rx_at", "rissim.geometry", "Scene", "with_rx_at"),
)

SELF_TIMED = (
    "channel.tone_meter",
    "channel.derive_rng",
    "channel.quantize_adc",
    "channel.power_dbfs",
    "channel.gain_meter",
    "channel.channel_gain",
    "channel.synthesize",
    "ris.config",
    "ris.theta_diag",
    "optimizer.greedy",
    "optimizer.exhaustive",
    "codebook.generate",
    "codebook.evaluate_path",
    "codebook.lookup",
    "geometry.with_rx_at",
    "experiments.runner",
)

# span name -> the word its count metric uses
COUNTED = {
    "channel.tone_meter": "calls",
    "channel.gain_meter": "calls",
    "channel.synthesize": "calls",
    "ris.config": "constructions",
    "optimizer.greedy": "calls",
    "optimizer.exhaustive": "calls",
    "codebook.lookup": "calls",
}


# spans whose per-call durations are kept, for a median
KEEP_DURATIONS = ("channel.tone_meter",)


class _Span:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self, keep_durations: bool = False):
        self.calls = 0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    """Span totals for one runner call, plus counts read off return values."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self._stack: list[list[float]] = []  # per open span: time covered by its children
        self.clipped_calls = 0
        self.greedy_measurements = 0
        self.greedy_improvements = 0
        self._observers = {
            "channel.quantize_adc": self._observe_adc,
            "optimizer.greedy": self._observe_greedy,
        }

    def _observe_adc(self, buf) -> None:
        self.clipped_calls += buf.clip_fraction > 0.0

    def _observe_greedy(self, result) -> None:
        running_max = float("-inf")
        for entry in result[1].entries:
            self.greedy_improvements += entry.p_max_dbfs > running_max
            running_max = entry.p_max_dbfs
        self.greedy_measurements += len(result[1].entries)

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, _Span(name in KEEP_DURATIONS))
        stack = self._stack
        observe = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.self_s += elapsed - children[0]
                if span.durations is not None:
                    span.durations.append(elapsed)
            if observe is not None:
                observe(result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer values of the traced call, keyed by metric name."""
        empty = _Span()
        out = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self.spans.get(name, empty).self_s
        for name, word in COUNTED.items():
            out[f"{name}.{word}"] = self.spans.get(name, empty).calls
        tone = self.spans.get("channel.tone_meter", empty).durations
        out["channel.tone_meter.us_per_call"] = 1e6 * statistics.median(tone) if tone else 0.0
        out["channel.adc.clipped_calls"] = self.clipped_calls
        out["optimizer.greedy.improve_ratio"] = (
            self.greedy_improvements / self.greedy_measurements if self.greedy_measurements else 0.0
        )
        return out


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route rissim's traced functions and methods through `tracer` inside
    the with-block. rissim.cli must already be imported."""
    modules = [m for n, m in list(sys.modules.items()) if n == "rissim" or n.startswith("rissim.")]
    undo = []
    try:
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
