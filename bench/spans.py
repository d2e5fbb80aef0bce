"""Span recorder and probes for the traced run.

Probes replace the names the program's callers resolve (module globals
such as ``dysignet.harness.backward`` and class attributes such as
``EncoderModel.compute_embeddings``) with wrappers that record a span per
call and update counters.  ``probed`` restores every original on exit,
also when the run raises.  Spans stay in memory; ``layer_report`` turns
them into the per-layer metrics when the run is over.

A span is ``[name, start, end, parent]``.  Spans nest strictly (one
thread), so a span's self time is its duration minus its direct children's
durations.  Counter bookkeeping that walks a batch runs inside its own
``trace.counters`` span, so it is not charged to the layer that called it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans and counters for one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> Counter:
        """Seconds per span name, children excluded."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def total_times(self) -> Counter:
        """Seconds per span name, children included (no name recurses)."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out


@contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` for the duration of the block, then restore it."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class _CountingRng:
    """Delegates to a generator and counts the values ``integers`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def integers(self, *args, size=None, **kwargs):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.integers(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _StreamShadow:
    """What the traced run knows about one encoder state, from the events
    it was given: history length per node and slots the last batch wrote."""

    def __init__(self):
        self.degree: Counter = Counter()
        self.touched = 0


def _rows(x) -> int:
    shape = x.data.shape
    return shape[0] if len(shape) == 2 else 1


@contextmanager
def probed(program, tracer: Tracer):
    """Wrap every measured layer of ``program`` (the module namespace that
    ``run.load_program`` returns) so calls record spans into ``tracer``;
    yields a dict that receives the last encoder state seen, for end-of-run
    state counters."""
    enc, heads, harness = program.encoder, program.heads, program.harness
    counts = tracer.counts
    shadows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    last = {}

    def shadow_of(state) -> _StreamShadow:
        shadow = shadows.get(state)
        if shadow is None:
            shadow = shadows[state] = _StreamShadow()
        return shadow

    def after_process_batch(out, model, batch_events, state):
        last["state"] = state
        shadow = shadow_of(state)
        endpoints = set()
        for ev in batch_events:
            shadow.degree[ev.src] += 1
            shadow.degree[ev.dst] += 1
            endpoints.add(ev.src)
            endpoints.add(ev.dst)
        slots = state.config.slot_count if state.config.ablation.use_memory else 0
        shadow.touched = len(endpoints) * slots
        counts["encoder.process_batch.events"] += len(batch_events)

    def after_compute_embeddings(out, model, nodes, t, state):
        degree = shadow_of(state).degree
        cap = state.config.neighbor_cap
        queries = list(dict.fromkeys(nodes))
        lengths = [degree.get(n, 0) for n in queries]
        counts["encoder.compute_embeddings.queries"] += len(queries)
        counts["encoder.compute_embeddings.history_rows"] += sum(
            lengths if cap is None else (min(k, cap) for k in lengths))
        counts["encoder.compute_embeddings.cold_queries"] += lengths.count(0)

    def before_detach(state):
        shadow = shadow_of(state)
        slots = state.config.slot_count if state.config.ablation.use_memory else 0
        counts["encoder.detach.slots_rebuilt"] += len(shadow.degree) * slots
        counts["encoder.detach.slots_touched"] += shadow.touched

    def after_score_rows(out, decoder, z, index, pairs):
        counts["heads.score_rows.pairs"] += len(pairs)

    def after_gather_stack(out, items):
        counts["tensor.gather_stack.calls"] += 1
        counts["tensor.gather_stack.rows"] += len(items)

    def after_parse_csv(out, *args, **kwargs):
        counts["events.parse_csv.rows"] += len(out)

    def after_adam_step(out, *args, **kwargs):
        counts["params.adam_step.steps"] += 1

    def after_metric_bundle(out, task, records):
        counts["harness.metric_bundle.records"] += len(records)

    def after_feedforward(out, layer, x):
        counts["layers.feedforward.rows"] += _rows(x)

    def after_cell(out, cell, x, *args, **kwargs):
        counts["layers.recurrent_cell.rows"] += _rows(x)

    def negative_sample(fn):
        def wrapper(events, universe, rng):
            counting = _CountingRng(rng)
            out = tracer.call("heads.negative_sample", fn, events, universe, counting)
            counts["heads.negative_sample.draws"] += counting.draws
            counts["heads.negative_sample.pairs"] += len(out)
            return out
        return wrapper

    def probe(name, before=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    tracer.call("trace.counters", before, *args, **kwargs)
                out = tracer.call(name, fn, *args, **kwargs)
                if after is not None:
                    tracer.call("trace.counters", after, out, *args, **kwargs)
                return out
            return wrapper
        return make

    table = [
        (program.events, "parse_csv", probe("events.parse_csv", after=after_parse_csv)),
        (harness, "train", probe("harness.train")),
        (harness, "evaluate_sequential", probe("harness.evaluate_sequential")),
        (harness, "backward", probe("tensor.backward")),
        (harness, "adam_step", probe("params.adam_step", after=after_adam_step)),
        (harness, "task_loss", probe("heads.task_loss")),
        (harness, "negative_sample", negative_sample),
        (harness, "metric_bundle", probe("harness.metric_bundle", after=after_metric_bundle)),
        (enc, "gather_stack", probe("tensor.gather_stack", after=after_gather_stack)),
        (heads, "gather_stack", probe("tensor.gather_stack", after=after_gather_stack)),
        (enc.EncoderModel, "process_batch",
         probe("encoder.process_batch", after=after_process_batch)),
        (enc.EncoderModel, "compute_embeddings",
         probe("encoder.compute_embeddings", after=after_compute_embeddings)),
        (enc.EncoderState, "detach_", probe("encoder.detach", before=before_detach)),
        (heads.PairDecoder, "score_rows", probe("heads.score_rows", after=after_score_rows)),
        (program.layers.Feedforward, "apply",
         probe("layers.feedforward", after=after_feedforward)),
        (program.layers.RecurrentCell, "apply",
         probe("layers.recurrent_cell", after=after_cell)),
    ]
    with ExitStack() as stack:
        for owner, attr, make in table:
            stack.enter_context(patched(owner, attr, make(vars(owner)[attr])))
        yield last


TIMED_LAYERS = (
    "events.parse_csv", "encoder.process_batch", "encoder.compute_embeddings",
    "encoder.detach", "layers.feedforward", "layers.recurrent_cell",
    "tensor.gather_stack", "tensor.backward", "heads.score_rows", "heads.task_loss",
    "heads.negative_sample", "params.adam_step", "harness.metric_bundle",
    "trace.counters",
)
COUNTS = (
    "events.parse_csv.rows", "encoder.process_batch.events",
    "encoder.compute_embeddings.queries", "encoder.compute_embeddings.history_rows",
    "encoder.detach.slots_rebuilt", "layers.feedforward.rows",
    "layers.recurrent_cell.rows", "tensor.gather_stack.calls", "tensor.gather_stack.rows",
    "heads.score_rows.pairs", "heads.negative_sample.draws", "params.adam_step.steps",
    "harness.metric_bundle.records",
)
ROOTS = ("harness.train", "harness.evaluate_sequential")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(tracer: Tracer, wall_s: float, state) -> dict[str, float]:
    """Per-layer metrics of one traced iteration that took ``wall_s``;
    ``state`` is the encoder state the iteration ended with."""
    own = tracer.self_times()
    total = tracer.total_times()
    c = tracer.counts
    out = {f"{name}.s": own[name] for name in TIMED_LAYERS}
    out.update({name: float(c[name]) for name in COUNTS})
    out["harness.other.s"] = sum(own[name] for name in ROOTS)
    out["encoder.cold_query_ratio"] = _ratio(
        c["encoder.compute_embeddings.cold_queries"], c["encoder.compute_embeddings.queries"])
    out["encoder.detach.touched_ratio"] = _ratio(
        c["encoder.detach.slots_touched"], c["encoder.detach.slots_rebuilt"])
    draws = c["heads.negative_sample.draws"]
    out["heads.negative_sample.redraw_ratio"] = _ratio(
        draws - c["heads.negative_sample.pairs"], draws)
    # Embedding share includes its gathers; the detach share is its own work.
    out["encoder.compute_embeddings.share"] = _ratio(
        total["encoder.compute_embeddings"], wall_s)
    out["encoder.detach.share"] = _ratio(own["encoder.detach"], wall_s)
    out["encoder.state.history_rows"] = float(
        sum(len(rows) for rows in state.history.values()) if state is not None else 0)
    out["encoder.state.memory_nodes"] = float(
        len(state.last_update) if state is not None else 0)
    out["trace.wall_s"] = wall_s
    return out
