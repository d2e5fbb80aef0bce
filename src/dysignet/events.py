"""Timestamped signed edge streams: parsing, splits, batches, statistics.

Layout: an :class:`EventLog` is four numpy columns, ``time`` and
``weight`` float64 and ``src`` and ``dst`` int64, so a parsed stream holds
32 bytes per event, plus one fixed-width raw id string per node (20 bytes
for a 5-digit id).  A split and its batches are views of that one log and
add no bytes per event.  On the bench streams a parsed split holds 34-48
bytes per event; as a list of ``SignedEvent`` tuples it held 138-219.
"""

from __future__ import annotations

import csv
import gzip
import logging
import math
from dataclasses import dataclass
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


@dataclass(eq=False)
class EventLog:
    """Time-ordered signed edge additions over dense integer node ids, as
    columns (see the module docstring); ``raw_ids[i]`` is dense node ``i``'s
    id in the input.  Iterating a log, or ``events``, builds ``SignedEvent``
    rows of Python numbers on demand."""

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    node_count: int
    raw_ids: np.ndarray | None = None

    def __len__(self) -> int:
        return self.time.size

    def __iter__(self) -> Iterator[SignedEvent]:
        return map(SignedEvent._make, zip(self.time.tolist(), self.src.tolist(),
                                          self.dst.tolist(), self.weight.tolist()))

    @property
    def events(self) -> list[SignedEvent]:
        return list(self)

    def slice(self, start: int, stop: int) -> "EventLog":
        """Events ``start:stop`` as views of these columns."""
        cut = slice(start, stop)
        return EventLog(self.time[cut], self.src[cut], self.dst[cut], self.weight[cut],
                        self.node_count, self.raw_ids)

    def time_span(self) -> tuple[float, float]:
        if not len(self):
            raise DataError("empty event log has no time span")
        return float(self.time[0]), float(self.time[-1])

    def write_csv(self, path) -> None:
        """Canonical ``src,dst,weight,time`` rows; re-parsing reproduces the log."""
        with _open_text(Path(path), "wt", newline="") as fh:
            writer = csv.writer(fh)
            for ev in self:
                writer.writerow([ev.src, ev.dst, repr(ev.weight), repr(ev.time)])


def _open_text(path: Path, mode="rt", **kwargs):
    return (gzip.open if path.suffix == ".gz" else open)(path, mode, **kwargs)


def _row_problem(cells: list[str], lineno: int, needed: int, it: int, iw: int):
    """Why a row whose time or weight did not read as a finite number is
    dropped: ``(skip count, message)``, or None for a blank line or a
    header (an unparsable first row)."""
    if not cells or (len(cells) == 1 and not cells[0].strip()):
        return None
    if len(cells) < needed or not (cells[it].strip() and cells[iw].strip()):
        return "short", "missing fields"
    try:
        float(cells[it]), float(cells[iw])
    except ValueError:
        return None if lineno == 1 else ("unparsable", f"unparsable row {cells!r}")
    return "nonfinite", f"non-finite time or weight {cells!r}"


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
    it, iw, i_src, i_dst = (columns.index(name) for name in ("time", "weight", "src", "dst"))
    needed = max(it, iw, i_src, i_dst) + 1
    rows = []
    skipped = {"short": 0, "unparsable": 0, "nonfinite": 0, "zero_weight": 0,
               "self_loop": 0}
    with _open_text(path) as fh:
        for lineno, cells in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            try:
                t, w = float(cells[it]), float(cells[iw])
                ok = len(cells) >= needed and math.isfinite(t) and math.isfinite(w)
            except (IndexError, ValueError):
                ok = False
            if ok:
                rows.append((t, w, cells[i_src], cells[i_dst]))
                continue
            problem = _row_problem(cells, lineno, needed, it, iw)
            if problem is not None:
                if strict:
                    raise DataError(f"{path}:{lineno}: {problem[1]}")
                skipped[problem[0]] += 1
    time, weight, src_raw, dst_raw = zip(*rows) if rows else ((),) * 4
    time, weight = np.array(time, dtype=np.float64), np.array(weight, dtype=np.float64)
    ends = np.empty((len(rows), 2), dtype=object)
    ends[:, 0], ends[:, 1] = list(map(str.strip, src_raw)), list(map(str.strip, dst_raw))
    drop = weight == 0.0
    skipped["zero_weight"] = int(np.count_nonzero(drop))
    if not keep_self_loops:
        loops = (ends[:, 0] == ends[:, 1]) & ~drop
        skipped["self_loop"] = int(np.count_nonzero(loops))
        drop |= loops
    dropped = sum(skipped.values())
    if dropped:
        log.warning("%s: dropped %d rows (%s)", path.name, dropped,
                    ", ".join(f"{k}={v}" for k, v in skipped.items() if v))
    keep = np.flatnonzero(~drop)
    if not keep.size:
        raise DataError(f"{path}: no usable events after filtering")
    order = keep[np.argsort(time[keep], kind="stable")]  # stable: ties keep file order
    seq = ends[order].ravel().tolist()
    raw_ids = list(dict.fromkeys(seq))  # in order of first appearance
    dense = dict(zip(raw_ids, range(len(raw_ids))))
    ids = np.fromiter(map(dense.__getitem__, seq), np.int64, len(seq))
    return EventLog(time[order], ids[0::2].copy(), ids[1::2].copy(), weight[order],
                    len(raw_ids), np.array(raw_ids))


@dataclass
class DatasetSplit:
    """Train, val and test as views of one log: ``[0, a)``, ``[a, b)`` and
    ``[b, n)`` for ``cuts = (a, b)``."""

    log: EventLog
    cuts: tuple[int, int]
    fractions: tuple[float, float, float]

    def bounds(self, which: str) -> tuple[int, int]:
        """(start, stop) of the part named ``which``."""
        a, b = self.cuts
        parts = {"train": (0, a), "val": (a, b), "test": (b, len(self.log))}
        if which not in parts:
            raise ValueError(f"unknown split {which!r}")
        return parts[which]

    train = property(lambda self: self.log.slice(*self.bounds("train")))
    val = property(lambda self: self.log.slice(*self.bounds("val")))
    test = property(lambda self: self.log.slice(*self.bounds("test")))


def chronological_split(logdata: EventLog,
                        fractions=(0.70, 0.15, 0.15)) -> DatasetSplit:
    """Split by index at floor(cumulative fraction * n); ties stay split."""
    if abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) <= 0:
        raise ValueError("split fractions must be > 0 and sum to 1")
    n = len(logdata)
    a = math.floor(fractions[0] * n)
    b = math.floor((fractions[0] + fractions[1]) * n)
    if a == 0 or b == a or b == n:
        raise DataError(f"split of {n} events with fractions {fractions} leaves an empty part")
    return DatasetSplit(logdata, (a, b), tuple(fractions))


def batches(logdata: EventLog, batch_size: int) -> Iterator[EventLog]:
    """Consecutive disjoint views of at most ``batch_size`` events."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    for start in range(0, len(logdata), batch_size):
        yield logdata.slice(start, start + batch_size)


def collapse_directed(events) -> dict[tuple[int, int], float]:
    """Latest weight per directed pair (input must be time-ordered)."""
    return {(ev.src, ev.dst): ev.weight for ev in events}


def collapse_undirected(events) -> dict[tuple[int, int], float]:
    """Latest weight per unordered pair; a later event overrides either
    direction, so conflicting reciprocal signs resolve to the newest one."""
    return {(min(ev.src, ev.dst), max(ev.src, ev.dst)): ev.weight for ev in events}


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
    if not len(logdata):
        raise DataError("cannot compute statistics of an empty log")
    directed = collapse_directed(logdata)
    undirected = collapse_undirected(logdata)
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
