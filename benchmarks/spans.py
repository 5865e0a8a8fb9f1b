"""Span recording around equisum's public functions, from outside the program.

`SpanRecorder.install` replaces each traced function by a wrapper in every
equisum module that holds it, so a function imported by name into another
module (``classify`` in ``constructions`` and ``cli``, say) is traced there
too.  Each call records its name, start, end and parent span in flat
arrays kept in memory; `SpanRecorder.dump` writes them out once the round
ends, and `aggregate` turns them into per-name calls, inclusive time and
self time.  Counters that are not spans (enclosures created, refinement
rounds, JSON bytes, tracemalloc peaks, cache hits) ride along.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter

# (module, function): a span named "module.function" around every call
TRACED = (
    ("realnum", "enclose_sqrt"),
    ("realnum", "sign_with_enclosure"),
    ("feasibility", "check_inequality"),
    ("feasibility", "inequality_margin"),
    ("feasibility", "lemma_certificate"),
    ("feasibility", "classify"),
    ("sweep", "run_sweep"),
    ("sweep", "evaluate_pair"),
    ("sweep", "fraction_to_decimal_str"),
    ("sweep", "emit_report_csv"),
    ("geometry", "regular_simplex"),
    ("geometry", "place_in_block"),
    ("constructions", "construct"),
    ("mixednorm", "pointset_to_json"),
    ("mixednorm", "pointset_from_json"),
    ("mixednorm", "verify_equilateral"),
    ("cli", "main"),
)
MODULES = ("realnum", "feasibility", "geometry", "mixednorm", "constructions", "sweep", "cli")

ENCLOSURES = "realnum.Enclosure.created"
ROUNDS = "realnum.sign_with_enclosure.rounds"
JSON_BYTES = "mixednorm.pointset_to_json.bytes"
VERIFY_PEAK = "mixednorm.verify_equilateral.peak_mb"
CACHE_HIT_RATIO = "feasibility.enclosure_cache.hit_ratio"
OVERHEAD = "trace.overhead_s"

# Every per-layer metric: (name, unit, better).  "<span>.calls" counts calls,
# "<span>.s" is inclusive time (outermost calls only), "<span>.self_s" is time
# minus the child spans.
PER_LAYER = (
    ("realnum.enclose_sqrt.calls", "count", "lower"),
    ("realnum.enclose_sqrt.self_s", "s", "lower"),
    (ENCLOSURES, "count", "lower"),
    ("realnum.sign_with_enclosure.calls", "count", "lower"),
    (ROUNDS, "count", "lower"),
    ("realnum.sign_with_enclosure.self_s", "s", "lower"),
    ("feasibility.check_inequality.calls", "count", "lower"),
    ("feasibility.check_inequality.s", "s", "lower"),
    ("feasibility.inequality_margin.calls", "count", "lower"),
    ("feasibility.inequality_margin.self_s", "s", "lower"),
    ("feasibility.lemma_certificate.calls", "count", "lower"),
    ("feasibility.lemma_certificate.s", "s", "lower"),
    (CACHE_HIT_RATIO, "ratio", "higher"),
    ("feasibility.classify.calls", "count", "lower"),
    ("feasibility.classify.s", "s", "lower"),
    ("sweep.evaluate_pair.calls", "count", "lower"),
    ("sweep.evaluate_pair.self_s", "s", "lower"),
    ("sweep.fraction_to_decimal_str.calls", "count", "lower"),
    ("sweep.fraction_to_decimal_str.s", "s", "lower"),
    ("sweep.emit_report_csv.s", "s", "lower"),
    ("geometry.regular_simplex.calls", "count", "lower"),
    ("geometry.regular_simplex.s", "s", "lower"),
    ("geometry.place_in_block.calls", "count", "lower"),
    ("geometry.place_in_block.s", "s", "lower"),
    ("constructions.construct.calls", "count", "lower"),
    ("constructions.construct.self_s", "s", "lower"),
    ("mixednorm.pointset_to_json.s", "s", "lower"),
    (JSON_BYTES, "bytes", "lower"),
    ("mixednorm.pointset_from_json.s", "s", "lower"),
    ("mixednorm.verify_equilateral.calls", "count", "lower"),
    ("mixednorm.verify_equilateral.s", "s", "lower"),
    (VERIFY_PEAK, "MB", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    (OVERHEAD, "s", "lower"),
)


class SpanRecorder:
    """Spans in flat arrays, indexed by span id in order of start."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {ENCLOSURES: 0, ROUNDS: 0, JSON_BYTES: 0, VERIFY_PEAK: 0.0}
        self._stack = [-1]
        self._active: list[int] = []

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span called `name`."""
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        name_of, parent, outer, start, end = self.name_of, self.parent, self.outer, self.start, self.end
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(end)
            name_of.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                active[nid] -= 1

        return wrapper

    def install(self, package) -> None:
        """Trace TRACED in `package` (the imported equisum) and its modules."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        counters = self.counters

        for mod_name, fn_name in TRACED:
            original = getattr(getattr(package, mod_name), fn_name)
            fn = original
            if fn_name == "sign_with_enclosure":
                fn = _counting_rounds(original, counters)
            elif fn_name == "pointset_to_json":
                fn = _counting_bytes(original, counters)
            elif fn_name == "verify_equilateral":
                fn = _tracking_peak(original, counters)
            wrapper = self.span(f"{mod_name}.{fn_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        enclosure = package.realnum.Enclosure
        post_init = enclosure.__post_init__

        def counted_post_init(self) -> None:
            counters[ENCLOSURES] += 1
            post_init(self)

        enclosure.__post_init__ = counted_post_init

    def read_caches(self, package) -> None:
        """Hits over lookups of the f and g enclosure caches."""
        infos = [package.feasibility.f_enclosure.cache_info(), package.feasibility.g_enclosure.cache_info()]
        lookups = sum(i.hits + i.misses for i in infos)
        self.counters[CACHE_HIT_RATIO] = sum(i.hits for i in infos) / lookups if lookups else 0.0

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "n": len(self.end)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.outer, self.start, self.end):
                arr.tofile(fh)


def _counting_rounds(fn, counters):
    """Count invocations of the value_at callback (refinement rounds)."""

    @functools.wraps(fn)
    def inner(value_at, *args, **kwargs):
        def counted(eps):
            counters[ROUNDS] += 1
            return value_at(eps)

        return fn(counted, *args, **kwargs)

    return inner


def _counting_bytes(fn, counters):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        text = fn(*args, **kwargs)
        counters[JSON_BYTES] += len(text.encode())
        return text

    return inner


def _tracking_peak(fn, counters):
    """Record the largest tracemalloc peak seen within one call."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            counters[VERIFY_PEAK] = max(counters[VERIFY_PEAK], peak / 2**20)

    return inner


def load(path: Path) -> tuple[list[str], array, array, array, array, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], *arrays)


def aggregate(names, name_of, parent, outer, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds `s` and `self_s`.

    Self time is a span's duration minus the durations of its direct child
    spans (one thread, so children never overlap).  Inclusive time sums
    only outermost spans, so a recursive call is not counted twice.
    """
    n = len(end)
    child_time = [0.0] * n
    for sid in range(n):
        p = parent[sid]
        if p >= 0:
            child_time[p] += end[sid] - start[sid]
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for sid in range(n):
        entry = stats[names[name_of[sid]]]
        duration = end[sid] - start[sid]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[sid]
        if outer[sid]:
            entry["s"] += duration
    return stats


def layer_metrics(stats: dict[str, dict[str, float]], counters: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric but the tracing overhead, from one traced round."""
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name == OVERHEAD:
            continue
        if name in counters:
            out[name] = counters[name]
            continue
        span_name, kind = name.rsplit(".", 1)
        out[name] = stats[span_name][kind]
    return out
