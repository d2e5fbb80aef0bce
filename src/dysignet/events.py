"""Timestamped signed edge streams: parsing, splits, batches, statistics.

Layout: an :class:`EventLog` is four numpy columns, ``time`` and
``weight`` float64 and ``src`` and ``dst`` int32 (parsing rejects 2**31
nodes or more), so a parsed stream holds 24 bytes per event.  Raw ids
come one per node: int64 (8 bytes) when every raw id of the kept events
is a canonical integer, one ``str(int(s)) == s`` holds for and int64
holds, so ``007`` and ``7`` stay two nodes; else the fixed-width strings
of the input (20 bytes for a 5-digit id).  A split and its batches are
views of that one log and add no bytes per event.  On the bench streams
a parsed split holds 24-31 bytes per event; as a list of ``SignedEvent``
tuples it held 138-219.

Parsing: :func:`parse_csv` reads the lines after line 1 in chunks of about
``_CHUNK_BYTES`` characters of whole lines.  A run of lines is parsed in
bulk (one ``str.split``, ``float`` over column slices, raw ids coded to
int64 through one dict of the distinct ids) when it holds no quote
character and every line has the same delimiter count, at least the needed
columns and a finite time and weight.  A chunk that fails is halved and
each half retried, so one flawed line costs a run of fewer than
``_BULK_FLOOR`` lines around it.  Line 1, those runs, and everything from
the first line with a quote character go through ``csv.reader`` row by
row, so the result is what a row-by-row read gives.  The filters, the time
sort and the remap then run in numpy on the codes.  The transient peak
under tracemalloc is ~120 bytes per event on a 200k-row file (a row-by-row
parse into tuples took ~370), plus ~3 MB for one chunk's strings: 184-279
bytes per event on the 24k-event bench streams.  Chunks of 64 KB to 1 MB
parse equally fast; at 1 MB a bench stream is one chunk and peaks at
344-416.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
import re
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
DEFAULT_COLUMNS = ("src", "dst", "weight", "time")
_CHUNK_BYTES = 1 << 18  # characters per bulk read, then to the line end; tests patch it
_BULK_FLOOR = 64  # a failed run of fewer lines goes to the row loop, not into halves
_NODE_ID = np.int32  # dense node ids; tests patch it to check the node-count limit
# canonical integers that int64 may hold, one per line: no sign but a
# minus, no leading zero, no "-0", at most 19 digits
_CANONICAL_INTS = re.compile(r"(?:0|-?[1-9][0-9]{0,18})(?:\n(?:0|-?[1-9][0-9]{0,18}))*")


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
    id in the input.  A slice keeps its log's ``node_count``, so a pass
    over a slice can size its state from the slice alone.  Iterating a log,
    or ``events``, builds ``SignedEvent`` rows of Python numbers on
    demand."""

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


class _Columns:
    """Rows parsed so far, one block of columns per bulk run or row loop:
    time and weight as float64, endpoints as int64 codes.  A code numbers
    a distinct stripped raw id in order of first sight (``named``);
    ``code`` maps each distinct unstripped cell to it, so each id is
    stripped once."""

    def __init__(self, path: Path, columns, delimiter: str, strict: bool):
        self.it, self.iw, self.i_src, self.i_dst = (
            columns.index(name) for name in ("time", "weight", "src", "dst"))
        self.needed = max(self.it, self.iw, self.i_src, self.i_dst) + 1
        self.path, self.delimiter, self.strict = path, delimiter, strict
        self.lineno = 0  # csv records read so far
        self.skipped = dict.fromkeys(("short", "unparsable", "nonfinite", "zero_weight",
                                      "self_loop"), 0)
        self.code: dict[str, int] = {}  # raw cell -> code
        self.named: dict[str, int] = {}  # stripped raw id -> code
        empty = np.empty(0)
        self.blocks = [(empty, empty, empty.astype(np.int64), empty.astype(np.int64))]

    def add(self, time: np.ndarray, weight: np.ndarray, src: list[str], dst: list[str]):
        code = self.code
        for raw in dict.fromkeys(chain(src, dst)):
            if raw not in code:
                code[raw] = self.named.setdefault(raw.strip(), len(self.named))
        n = len(src)
        self.blocks.append((time, weight, np.fromiter(map(code.__getitem__, src), np.int64, n),
                            np.fromiter(map(code.__getitem__, dst), np.int64, n)))

    def read(self, fh) -> None:
        """Line 1 and, from the first line with a quote character, the rest
        of the file through the row loop; the lines between in chunks of
        about ``_CHUNK_BYTES`` characters."""
        records = partial(csv.reader, delimiter=self.delimiter)
        head = fh.readline()
        if '"' in head:
            self.rows(records(chain([head], fh)))
            return
        self.rows(records([head]))
        while text := fh.read(_CHUNK_BYTES):
            if not text.endswith("\n"):
                text += fh.readline()
            quote = text.find('"')
            if quote >= 0:
                start = text.rfind("\n", 0, quote) + 1
                if start:
                    self.chunk(text[:start])
                self.rows(records(chain(io.StringIO(text[start:]), fh)))
                return
            self.chunk(text)

    def rows(self, records) -> None:
        """The row loop: csv records, numbered on from ``lineno``, each
        kept, counted as skipped, or (in strict mode) an error."""
        it, iw, needed = self.it, self.iw, self.needed
        kept = []
        for self.lineno, cells in enumerate(records, start=self.lineno + 1):
            try:
                t, w = float(cells[it]), float(cells[iw])
                ok = len(cells) >= needed and math.isfinite(t) and math.isfinite(w)
            except (IndexError, ValueError):
                ok = False
            if ok:
                kept.append((t, w, cells[self.i_src], cells[self.i_dst]))
                continue
            problem = _row_problem(cells, self.lineno, needed, it, iw)
            if problem is not None:
                if self.strict:
                    raise DataError(f"{self.path}:{self.lineno}: {problem[1]}")
                self.skipped[problem[0]] += 1
        if kept:
            time, weight, src, dst = zip(*kept)
            del kept
            self.add(np.array(time), np.array(weight), src, dst)

    def chunk(self, text: str) -> None:
        """Whole lines that hold no quote character (see ``lines``)."""
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        n = len(lines)
        # counted once here, so a failed run's halves check their shape in numpy
        cells = np.fromiter(map(str.count, lines, repeat(self.delimiter, n)), np.intp, n) + 1
        chars = np.fromiter(map(len, lines), np.intp, n)
        self.lines(lines, cells, chars)

    def lines(self, lines: list[str], cells: np.ndarray, chars: np.ndarray) -> None:
        """In bulk when every line has the same number of cells, at least
        ``needed``, and a finite time and weight; else in two halves, each
        tried the same way, down to runs of fewer than ``_BULK_FLOOR``
        lines, which go through the row loop.  ``cells`` and ``chars``
        count each line's cells and characters."""
        if self._bulk(lines, cells, chars):
            return
        if len(lines) < _BULK_FLOOR:
            self.rows(csv.reader(lines, delimiter=self.delimiter))
            return
        half = len(lines) // 2
        self.lines(lines[:half], cells[:half], chars[:half])
        self.lines(lines[half:], cells[half:], chars[half:])

    def _bulk(self, lines: list[str], cells: np.ndarray, chars: np.ndarray) -> bool:
        n, width = len(lines), int(cells[0])
        # csv.reader raises on a field over its limit, so such lines go to it
        if (width < self.needed or chars.max() > csv.field_size_limit()
                or (cells != width).any()):
            return False
        sep = self.delimiter
        fields = sep.join(lines).split(sep)
        try:
            time = np.fromiter(map(float, fields[self.it::width]), np.float64, n)
            weight = np.fromiter(map(float, fields[self.iw::width]), np.float64, n)
        except ValueError:
            return False
        if not (np.isfinite(time).all() and np.isfinite(weight).all()):
            return False
        self.add(time, weight, fields[self.i_src::width], fields[self.i_dst::width])
        self.lineno += n
        return True


def _raw_id_array(ids: list[str]) -> np.ndarray:
    """``ids`` as int64 when each is a canonical integer that int64 holds
    (``str(int(s)) == s``), else as fixed-width strings."""
    text = "\n".join(ids)
    if _CANONICAL_INTS.fullmatch(text):
        values = np.fromstring(text, np.int64, sep="\n")
        # an id holding a newline reads as two; fromstring clamps what int64
        # cannot hold to its bounds, so ids read as a bound are checked
        bounds = np.iinfo(np.int64)
        edge = np.flatnonzero((values == bounds.min) | (values == bounds.max))
        if values.size == len(ids) and all(str(values[i]) == ids[i] for i in edge.tolist()):
            return values
    return np.array(ids)


def parse_csv(path, columns=DEFAULT_COLUMNS, delimiter=",", strict=False,
              keep_self_loops=False) -> EventLog:
    """Parse a signed temporal edge list into a dense, time-sorted log.

    Rows with a missing, unparsable or non-finite timestamp or weight are
    dropped (in strict mode they abort), zero weights are dropped (they
    carry no sign), and self-loops are dropped unless requested.  Events are
    stably sorted by time and raw node ids remapped to dense int32 ids in
    order of first appearance.  A file that cannot be read or decoded, or
    that names 2**31 nodes or more, is a ``DataError``.

    Layout (see the module docstring): line 1 goes through the row loop,
    so a header is skipped, and so does everything from the first line
    that holds a quote character, so quoted delimiters and newlines keep
    their csv meaning.  The lines between are read in chunks of about
    ``_CHUNK_BYTES`` characters.  A chunk is parsed in bulk when all its
    lines have the same delimiter count, at least the needed columns, none
    longer than the csv field limit, and a finite time and weight; any
    other chunk is halved and each half tried again, and runs of fewer than
    ``_BULK_FLOOR`` lines that fail go through the row loop.  Either way
    every value, skip count and line number is what a row-by-row read
    gives.  The transient peak is ~120 bytes per event on a 200k-row file,
    plus ~3 MB.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    parsed = _Columns(path, columns, delimiter, strict)
    try:
        with _open_text(path) as fh:
            parsed.read(fh)
    except (OSError, UnicodeDecodeError, EOFError, zlib.error, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    time, weight, src, dst = (np.concatenate(c) for c in zip(*parsed.blocks))
    del parsed.blocks
    skipped = parsed.skipped
    drop = weight == 0.0
    skipped["zero_weight"] = int(np.count_nonzero(drop))
    if not keep_self_loops:
        loops = (src == dst) & ~drop
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
    ends = np.column_stack([src[order], dst[order]]).ravel()
    names = list(parsed.named)
    first = np.full(len(names), ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    codes = np.flatnonzero(first < ends.size)
    codes = codes[np.argsort(first[codes])]  # in order of first appearance
    if codes.size > np.iinfo(_NODE_ID).max:
        raise DataError(f"{path}: {codes.size} nodes, more than dense "
                        f"{np.dtype(_NODE_ID).name} ids hold")
    dense = np.empty(len(names), _NODE_ID)
    dense[codes] = np.arange(codes.size)
    ids = dense[ends]
    return EventLog(time[order], ids[0::2].copy(), ids[1::2].copy(), weight[order],
                    codes.size, _raw_id_array([names[c] for c in codes.tolist()]))


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
