"""Timestamped signed edge streams: parsing, splits, batches, statistics."""

from __future__ import annotations

import csv
import gzip
import itertools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
DEFAULT_COLUMNS = ("src", "dst", "weight", "time")


class DataError(RuntimeError):
    """The input data cannot be used (missing, empty, or malformed)."""


class SignedEvent(NamedTuple):
    time: float
    src: int
    dst: int
    weight: float


def event_columns(events) -> np.ndarray:
    """(time, src, dst, weight) columns of a sequence of ``SignedEvent``
    tuples, as float64; the same values as ``np.array(events).T`` without
    converting tuple by tuple."""
    flat = itertools.chain.from_iterable(events)
    return np.fromiter(flat, np.float64, 4 * len(events)).reshape(-1, 4).T


@dataclass
class EventLog:
    """Time-ordered signed edge additions over dense integer node ids."""

    events: list[SignedEvent]
    node_count: int
    id_map: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def slice(self, start: int, stop: int) -> "EventLog":
        return EventLog(self.events[start:stop], self.node_count, self.id_map)

    def time_span(self) -> tuple[float, float]:
        if not self.events:
            raise DataError("empty event log has no time span")
        return self.events[0].time, self.events[-1].time

    def write_csv(self, path) -> None:
        """Canonical ``src,dst,weight,time`` rows; re-parsing reproduces the log."""
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            for ev in self.events:
                writer.writerow([ev.src, ev.dst, repr(ev.weight), repr(ev.time)])


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt")
    return open(path, "rt")


def parse_csv(path, columns=DEFAULT_COLUMNS, delimiter=",", strict=False,
              keep_self_loops=False) -> EventLog:
    """Parse a signed temporal edge list into a dense, time-sorted log.

    Rows with a missing, unparsable or non-finite timestamp or weight are
    dropped (in strict mode they abort), zero weights are dropped (they
    carry no sign), and self-loops are dropped unless requested.  Events are
    stably sorted by time and raw node ids remapped to dense integers in
    order of first appearance.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    idx = {name: columns.index(name) for name in DEFAULT_COLUMNS}
    needed = max(idx.values()) + 1
    rows = []
    skipped = {"short": 0, "unparsable": 0, "nonfinite": 0, "zero_weight": 0,
               "self_loop": 0}
    with _open_text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, cells in enumerate(reader, start=1):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) < needed or any(not cells[idx[k]].strip() for k in ("time", "weight")):
                if strict:
                    raise DataError(f"{path}:{lineno}: missing fields")
                skipped["short"] += 1
                continue
            try:
                t = float(cells[idx["time"]])
                w = float(cells[idx["weight"]])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                if strict:
                    raise DataError(f"{path}:{lineno}: unparsable row {cells!r}")
                skipped["unparsable"] += 1
                continue
            if not (math.isfinite(t) and math.isfinite(w)):
                if strict:
                    raise DataError(f"{path}:{lineno}: non-finite time or weight {cells!r}")
                skipped["nonfinite"] += 1
                continue
            src_raw = cells[idx["src"]].strip()
            dst_raw = cells[idx["dst"]].strip()
            if w == 0.0:
                skipped["zero_weight"] += 1
                continue
            if src_raw == dst_raw and not keep_self_loops:
                skipped["self_loop"] += 1
                continue
            rows.append((t, src_raw, dst_raw, w))
    dropped = sum(skipped.values())
    if dropped:
        log.warning("%s: dropped %d rows (%s)", path.name, dropped,
                    ", ".join(f"{k}={v}" for k, v in skipped.items() if v))
    if not rows:
        raise DataError(f"{path}: no usable events after filtering")
    rows.sort(key=lambda r: r[0])  # stable: ties keep file order
    id_map: dict = {}
    events = []
    for t, s_raw, d_raw, w in rows:
        s = id_map.setdefault(s_raw, len(id_map))
        d = id_map.setdefault(d_raw, len(id_map))
        events.append(SignedEvent(t, s, d, w))
    return EventLog(events, len(id_map), id_map)


@dataclass
class DatasetSplit:
    train: EventLog
    val: EventLog
    test: EventLog
    fractions: tuple[float, float, float]


def chronological_split(logdata: EventLog,
                        fractions=(0.70, 0.15, 0.15)) -> DatasetSplit:
    """Split by index at floor(cumulative fraction * n); ties stay split."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n = len(logdata)
    a = math.floor(fractions[0] * n)
    b = math.floor((fractions[0] + fractions[1]) * n)
    if a == 0 or b == a or b == n:
        raise DataError(f"split of {n} events with fractions {fractions} leaves an empty part")
    return DatasetSplit(logdata.slice(0, a), logdata.slice(a, b), logdata.slice(b, n),
                        tuple(fractions))


@dataclass
class TemporalBatch:
    events: list[SignedEvent]
    start_time: float
    end_time: float
    index: int

    def __len__(self):
        return len(self.events)


def batches(events, batch_size: int) -> Iterator[TemporalBatch]:
    """Consecutive disjoint slices of at most ``batch_size`` events."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if isinstance(events, EventLog):
        events = events.events
    for k, start in enumerate(range(0, len(events), batch_size)):
        chunk = events[start:start + batch_size]
        yield TemporalBatch(chunk, chunk[0].time, chunk[-1].time, k)


def collapse_directed(events) -> dict[tuple[int, int], float]:
    """Latest weight per directed pair (input must be time-ordered)."""
    out: dict[tuple[int, int], float] = {}
    for ev in events:
        out[(ev.src, ev.dst)] = ev.weight
    return out


def collapse_undirected(events) -> dict[tuple[int, int], float]:
    """Latest weight per unordered pair; a later event overrides either
    direction, so conflicting reciprocal signs resolve to the newest one."""
    out: dict[tuple[int, int], float] = {}
    for ev in events:
        key = (ev.src, ev.dst) if ev.src < ev.dst else (ev.dst, ev.src)
        out[key] = ev.weight
    return out


def triangle_census(edge_signs: dict[tuple[int, int], float]) -> tuple[int, int]:
    """(total, unbalanced) triangle counts on an undirected signed graph.

    A triangle is unbalanced iff the product of its three edge signs is
    negative.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edge_signs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def sign(a, b):
        return edge_signs[(a, b) if a < b else (b, a)]

    total = 0
    unbalanced = 0
    for (u, v), w_uv in edge_signs.items():
        for w in adj[u] & adj[v]:
            total += 1
            if w_uv * sign(u, w) * sign(v, w) < 0:
                unbalanced += 1
    # each triangle was seen once per edge
    return total // 3, unbalanced // 3


@dataclass
class DatasetStats:
    node_count: int
    link_count: int            # distinct unordered pairs in the final graph
    f_plus: float              # positive fraction over latest-sign directed pairs
    f_ub: float                # unbalanced fraction over undirected triangles
    days: int                  # rounded (max time - min time) / 86400
    event_count: int
    directed_pair_count: int
    span_seconds: float
    triangle_count: int
    unbalanced_triangle_count: int
    has_triangles: bool

    def to_dict(self) -> dict:
        return {
            "nodes": self.node_count,
            "links": self.link_count,
            "f_plus": self.f_plus,
            "f_ub": self.f_ub,
            "days": self.days,
            "events": self.event_count,
            "directed_pairs": self.directed_pair_count,
            "span_seconds": self.span_seconds,
            "triangles": self.triangle_count,
            "unbalanced_triangles": self.unbalanced_triangle_count,
            "has_triangles": self.has_triangles,
        }


def compute_stats(logdata: EventLog) -> DatasetStats:
    if not logdata.events:
        raise DataError("cannot compute statistics of an empty log")
    directed = collapse_directed(logdata.events)
    undirected = collapse_undirected(logdata.events)
    n_pos = sum(1 for w in directed.values() if w > 0)
    f_plus = n_pos / len(directed)
    triangles, unbalanced = triangle_census(undirected)
    has_triangles = triangles > 0
    f_ub = (unbalanced / triangles) if has_triangles else 0.0
    t0, t1 = logdata.time_span()
    span = t1 - t0
    return DatasetStats(
        node_count=logdata.node_count,
        link_count=len(undirected),
        f_plus=f_plus,
        f_ub=f_ub,
        days=round(span / SECONDS_PER_DAY),
        event_count=len(logdata),
        directed_pair_count=len(directed),
        span_seconds=span,
        triangle_count=triangles,
        unbalanced_triangle_count=unbalanced,
        has_triangles=has_triangles,
    )
