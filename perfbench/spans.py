"""Span tracer for the benchmark: spans recorded around calls into the
program's public functions, from the benchmark's own files.

Nothing under ``src/`` is edited.  :func:`instrument_campaign` and
:func:`instrument_diagnosis` replace public functions and methods with
wrappers that open a span around the original call, in the (fresh)
process that runs them.  Spans live in memory and are written out
when the run ends.

A span is ``{id, name, start, end, parent, run_id, thread}``; times are
``time.monotonic()`` seconds (one clock for every process on a Linux
host).  A span's self time is its duration minus the time covered by
its child spans in the same thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Collects nestable spans and counters in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             count: Optional[Tuple[str, Callable]] = None):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent,
                    "run_id": self.run_id,
                    "thread": threading.get_ident()})
        if count is not None:
            key, measure = count
            with self._lock:
                self.counts[key] += measure(result)
        return result

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Tuple[str, Callable]] = None) -> None:
        """Replace ``owner.attr`` (a module function or a method
        defined on a class) with a span-recording wrapper."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, wrapper)


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Summed self time per span name (duration minus same-thread
    children)."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (span["end"] - span["start"]
                                 - child_time[span["id"]])
    return dict(totals)


def covered(spans: List[Dict], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the union of top-level
    spans."""
    intervals = sorted((max(lo, s["start"]), min(hi, s["end"]))
                       for s in spans if s["parent"] is None)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time_table(spans: List[Dict]) -> str:
    """Human-readable per-span-name self-time table."""
    totals = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span["name"]] += 1
    lines = [f"{'span':<28} {'calls':>7} {'self_s':>10}"]
    for name in sorted(totals, key=lambda n: -totals[n]):
        lines.append(f"{name:<28} {calls[name]:>7} {totals[name]:>10.4f}")
    return "\n".join(lines)


def instrument_campaign(tracer: Tracer) -> None:
    """Spans around the campaign path's public calls (in this
    process; forked pool workers inherit the wrappers but their spans
    stay in the workers and are not collected)."""
    from repro.campaign import plan, runner
    from repro.campaign.journal import CampaignJournal
    from repro.campaign.store import ResultsStore
    from repro.faultsim import engine, macro_engines

    tracer.wrap(runner.CampaignRunner, "prepare", "campaign.prepare")
    tracer.wrap(runner.CampaignRunner, "execute", "campaign.execute")
    for builder in ("comparator_layout_for", "ladder_slice_layout",
                    "clockgen_layout", "biasgen_layout"):
        tracer.wrap(plan, builder, "layout.synth")
    tracer.wrap(plan, "sprinkle", "defects.sprinkle",
                count=("defects.sprinkled", len))
    tracer.wrap(plan, "analyze_defects", "defects.extract",
                count=("defects.faults", len))
    tracer.wrap(plan, "collapse", "defects.collapse",
                count=("defects.classes", len))
    tracer.wrap(plan, "derive_noncatastrophic", "defects.collapse")
    tracer.wrap(plan, "ivdd_halfwidth", "faultsim.goodspace")
    for cls in (engine.ComparatorFaultEngine,
                macro_engines.LadderFaultEngine,
                macro_engines.ClockgenFaultEngine,
                macro_engines.BiasgenFaultEngine):
        tracer.wrap(cls, "export_baseline", "faultsim.goodspace")
    tracer.wrap(ResultsStore, "get", "campaign.store_get")
    tracer.wrap(ResultsStore, "put", "campaign.store_put")
    tracer.wrap(CampaignJournal, "append", "campaign.journal_append")
    tracer.wrap(macro_engines.DecoderFaultEngine, "run",
                "digital.decoder",
                count=("digital.decoder_faults",
                       lambda out: len(out[0]) + len(out[1])))


def instrument_diagnosis(tracer: Tracer) -> None:
    """Spans around the serving path's public calls."""
    from repro.diagnosis.db import DiagnosisDB
    from repro.diagnosis.match import DictionaryMatcher
    from repro.diagnosis.registry import QueryBatcher

    tracer.wrap(DictionaryMatcher, "diagnose_batch", "diagnosis.match")
    tracer.wrap(QueryBatcher, "diagnose", "diagnosis.batch")
    tracer.wrap(DiagnosisDB, "record_batch", "diagnosis.db")
