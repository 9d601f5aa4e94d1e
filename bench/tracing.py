"""Span tracing of dpdist's public functions, installed from outside.

``Tracer.install`` wraps each traced function and rebinds the wrapper in
every loaded ``dpdist`` module whose global still names the original, so
calls through names imported with ``from .core import as_bits`` are caught
as well as calls through ``module.function``.  ``uninstall`` restores every
binding.  Nothing under ``src/`` changes.

Each call records one span: name, start, end, parent span, job id, self
time (duration minus the time its child spans cover) and a work count
where the function has one.  Spans stay in memory until the run ends.
Everything runs in one thread, so a plain stack gives each span's parent.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a top-level span
    job: int
    name: str
    start: float
    end: float
    self_s: float
    items: int  # work count; 0 where the function has none


def _arg_getter(fn: Callable, name: str, default: Any) -> Callable[[tuple, dict], Any]:
    """Read one argument of ``fn`` by name from a call's (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)

    def get(args: tuple, kwargs: dict) -> Any:
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


def _count_arg(name: str):
    """Work count taken from an argument: a number, or a sized collection."""

    def make(fn):
        get = _arg_getter(fn, name, None)

        def items(args, kwargs, result):
            value = get(args, kwargs)
            if value is None:  # e.g. size=None: one scalar draw
                return 1
            return len(value) if hasattr(value, "__len__") else int(value)

        return items

    return make


def _party_rounds(fn):
    def items(args, kwargs, result):
        protocol = args[0] if args else kwargs["protocol"]
        return protocol.n * protocol.rounds

    return items


def _result_len(fn):
    return lambda args, kwargs, result: len(result)


def _record_variant(fn):
    get = _arg_getter(fn, "record", True)
    return lambda args, kwargs: "recorded" if get(args, kwargs) else "lean"


# (module, function, work count, variant).  The work count names what one
# call processes; the variant splits a function's spans by how it was called.
TRACED: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("seeding", "derive_rng", None, None),
    ("core", "as_bits", None, None),
    ("mechanisms", "flip", None, None),
    ("mechanisms", "laplace_mechanism", _count_arg("size"), None),
    ("local_model", "randomized_response_sum", None, None),
    ("local_model", "rr_count_distribution", None, None),
    ("local_model", "rr_estimate_batch", _count_arg("trials"), None),
    ("local_model", "run_interactive_with_tapes", None, None),
    ("local_model", "enumerate_interactive", None, None),
    ("local_model", "enumerate_noninteractive", None, None),
    ("distributed", "run_protocol_with_tapes", _party_rounds, None),
    ("distributed", "enumerate_executions", None, None),
    ("distributed", "output_distribution", None, None),
    ("distributed", "consistent_probability", None, None),
    ("distributed", "compile_to_local", None, None),
    ("distributed", "coalition_view", None, None),
    ("distributed", "randomized_response_distributed", None, _record_variant),
    ("distributed", "gaussian_aggregator_sum", None, _record_variant),
    ("distributed", "windowed_min_protocol", None, _record_variant),
    ("distributed", "execution_records", _result_len, None),
    ("distributed", "write_execution", None, None),
    ("distributed", "read_execution_records", None, None),
    ("audit", "flip_panel", _count_arg("trials"), None),
    ("audit", "sample_sparse_sums", _count_arg("trials"), None),
    ("audit", "exact_epsilon", None, None),
    ("audit", "definition_equivalence_check", None, None),
    ("experiments", "run_rows", None, None),
    ("cli", "render_csv", _count_arg("rows"), None),
]


class Tracer:
    """Collects spans from wrapped dpdist functions while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job = -1
        self._next_id = 0
        self._stack: List[list] = []  # [span id, child time] per open span
        self._bindings: List[Tuple[Any, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, items, variant) -> Callable:
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = int(stack[-1][0]) if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            label = f"{name}.{variant(args, kwargs)}" if variant else name
            count = items(args, kwargs, result) if items else 0
            spans.append(Span(span_id, parent, self.job, label, start, end, end - start - frame[1], count))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "dpdist" or name.startswith("dpdist.")]
        for mod_name, fn_name, items, variant in TRACED:
            original = getattr(sys.modules[f"dpdist.{mod_name}"], fn_name)
            wrapper = self._wrap(
                f"{mod_name}.{fn_name}",
                original,
                items(original) if items else None,
                variant(original) if variant else None,
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# How a function's work count is named in the metrics, and the rate derived
# from it: (count name, rate name, items per rate unit).
COUNT_NAMES = {
    "cli.render_csv": ("items", "us_per_row", 1),
    "audit.flip_panel": ("items", "us_per_kview", 1000),
    "distributed.run_protocol_with_tapes": ("party_rounds", "us_per_party_round", 1),
}
DEFAULT_COUNT_NAME = ("items", "us_per_item", 1)


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed self time and summed work count."""
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        st = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "items": 0})
        st["calls"] += 1
        st["self_s"] += s.self_s
        st["items"] += s.items
    return out


def top_level_time(spans: List[Span]) -> float:
    """Total duration of spans with no traced parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def layer_metrics(passes: List[Dict[str, Dict[str, float]]]) -> Dict[str, float]:
    """Per-pass layer metrics from the ``layer_stats`` of each traced pass.

    Counts come from the first pass (they repeat exactly at a fixed seed);
    self times are medians over passes; rates divide the median self time
    by the count.  A layer a workload never calls reports nothing here.
    """
    metrics: Dict[str, float] = {}
    for name in sorted(set().union(*passes)):
        first = passes[0].get(name, {"calls": 0, "items": 0})
        calls, items = first["calls"], first["items"]
        self_s = statistics.median(p[name]["self_s"] if name in p else 0.0 for p in passes)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
        if items:
            count_name, rate_name, per = COUNT_NAMES.get(name, DEFAULT_COUNT_NAME)
            metrics[f"{name}.{count_name}"] = items
            metrics[f"{name}.{rate_name}"] = 1e6 * self_s * per / items
    return metrics
