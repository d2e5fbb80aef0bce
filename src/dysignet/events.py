"""Timestamped signed edge streams: parsing, splits, batches, statistics.

Input: one link per line as ``src,dst,weight,time``, comma-separated as in
the SNAP files, plain or gzipped; cells after the fourth are ignored and
node ids are strings compared after stripping blanks.  Filtering follows
the paper (PAPER.md): links with no timestamp or no weight are removed,
and so are zero weights, which carry no sign (WikiRfA's abstentions).
Rows whose time or weight is not a finite number and self-loops are
removed too.  A first line that does not parse is a header and is
skipped; every other removed row is counted by kind in one warning.

Layout: an :class:`EventLog` is four numpy columns, ``time`` and
``weight`` float64 and ``src`` and ``dst`` int32 (parsing rejects 2**31
nodes or more), so a parsed stream holds 24 bytes per event.  Raw ids
come one per node: int64 (8 bytes) when every raw id of the kept events
is a canonical integer, one ``str(int(s)) == s`` holds for and int64
holds, so ``007`` and ``7`` stay two nodes; else the fixed-width strings
of the input (20 bytes for a 5-digit id).  A split and its batches are
views of that one log and add no bytes per event.  On the bench streams
a parsed split holds 24-31 bytes per event.

Parsing: :func:`parse_csv` reads the lines after line 1 in chunks of about
``_CHUNK_BYTES`` characters of whole lines.  A run of lines is parsed in
bulk (one ``str.split``, ``float`` over column slices, raw ids coded to
int64 through one dict of the distinct ids) when it holds no quote
character and every line has the same comma count, at least four cells,
none longer than the csv field limit, and a finite time and weight.  A
chunk that fails is halved and each half retried, so one flawed line costs
a run of fewer than ``_BULK_FLOOR`` lines around it.  Line 1, those runs,
and everything from the first line with a quote character go through
``csv.reader`` row by row, so quoted commas and newlines keep their csv
meaning and the result is what a row-by-row read gives.  The filters, the
time sort and the remap then run in numpy on the codes.  The transient
peak under tracemalloc is ~120 bytes per event on a 200k-row file, plus
~3 MB for one chunk's strings: 184-279 bytes per event on the 24k-event
bench streams.  Chunks of 64 KB to 1 MB parse equally fast; at 1 MB a
bench stream is one chunk and peaks at 344-416.

Statistics: :func:`compute_stats` reads the columns.  The latest weight
per directed pair and per unordered pair each come from one ``np.unique``
over reversed int64 pair keys, so the newest event of a link sets its
sign whatever its direction.  Triangles come from the forward algorithm
(Schank & Wagner 2005; Latapy 2008): each link points at its
higher-(degree, id) endpoint, each pair of out-links of one tail is a
wedge, and a wedge is a triangle when the link between its heads is in
the sorted link keys; it is unbalanced when the product of its three
signs is negative.  Wedges go in blocks of at most as many as there are
links, so the extra memory is a few int64 arrays per link.  A self-loop
is no link between two nodes: a log that holds one is a ``DataError``.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
import re
import zlib
from dataclasses import astuple, dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400.0
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
        """``src,dst,weight,time`` rows of raw ids (dense ids when there are
        none) and ``repr`` floats.  Re-parsing a whole parsed log reproduces
        its columns and raw ids; a slice's ids are renumbered."""
        src, dst, ids = self.src, self.dst, self.raw_ids
        if ids is not None:
            src, dst = ids[src], ids[dst]
        with _open_text(Path(path), "wt", newline="") as fh:
            csv.writer(fh).writerows(zip(src.tolist(), dst.tolist(),
                                         map(repr, self.weight.tolist()),
                                         map(repr, self.time.tolist())))


def _open_text(path: Path, mode="rt", **kwargs):
    return (gzip.open if path.suffix == ".gz" else open)(path, mode, **kwargs)


def _row_problem(cells: list[str], header: bool):
    """Why a row whose time or weight did not read as a finite number is
    dropped, as its skip count's name, or None for a blank line or a
    header (an unparsable line 1)."""
    if not cells or (len(cells) == 1 and not cells[0].strip()):
        return None
    if len(cells) < 4 or not (cells[2].strip() and cells[3].strip()):
        return "short"
    try:
        float(cells[2]), float(cells[3])
    except ValueError:
        return None if header else "unparsable"
    return "nonfinite"


class _Columns:
    """Rows parsed so far, one block of columns per bulk run or row loop:
    time and weight as float64, endpoints as int64 codes.  A code numbers
    a distinct stripped raw id in order of first sight (``named``);
    ``code`` maps each distinct unstripped cell to it, so each id is
    stripped once."""

    def __init__(self):
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
        head = fh.readline()
        if '"' in head:
            records = csv.reader(chain([head], fh))
            self.rows(islice(records, 1), header=True)
            self.rows(records)
            return
        self.rows(csv.reader([head]), header=True)
        while text := fh.read(_CHUNK_BYTES):
            if not text.endswith("\n"):
                text += fh.readline()
            quote = text.find('"')
            if quote >= 0:
                start = text.rfind("\n", 0, quote) + 1
                if start:
                    self.chunk(text[:start])
                self.rows(csv.reader(chain(io.StringIO(text[start:]), fh)))
                return
            self.chunk(text)

    def rows(self, records, header: bool = False) -> None:
        """The row loop: csv records, each kept or counted as skipped;
        ``header`` says that they are line 1's."""
        kept = []
        for cells in records:
            try:
                t, w = float(cells[3]), float(cells[2])
                ok = math.isfinite(t) and math.isfinite(w)
            except (IndexError, ValueError):
                ok = False
            if ok:
                kept.append((t, w, cells[0], cells[1]))
                continue
            problem = _row_problem(cells, header)
            if problem is not None:
                self.skipped[problem] += 1
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
        cells = np.fromiter(map(str.count, lines, repeat(",", n)), np.intp, n) + 1
        chars = np.fromiter(map(len, lines), np.intp, n)
        self.lines(lines, cells, chars)

    def lines(self, lines: list[str], cells: np.ndarray, chars: np.ndarray) -> None:
        """In bulk when every line has the same number of cells, at least
        four, and a finite time and weight; else in two halves, each tried
        the same way, down to runs of fewer than ``_BULK_FLOOR`` lines,
        which go through the row loop.  ``cells`` and ``chars`` count each
        line's cells and characters."""
        if self._bulk(lines, cells, chars):
            return
        if len(lines) < _BULK_FLOOR:
            self.rows(csv.reader(lines))
            return
        half = len(lines) // 2
        self.lines(lines[:half], cells[:half], chars[:half])
        self.lines(lines[half:], cells[half:], chars[half:])

    def _bulk(self, lines: list[str], cells: np.ndarray, chars: np.ndarray) -> bool:
        n, width = len(lines), int(cells[0])
        # csv.reader raises on a field over its limit, so such lines go to it
        if width < 4 or chars.max() > csv.field_size_limit() or (cells != width).any():
            return False
        fields = ",".join(lines).split(",")
        try:
            time = np.fromiter(map(float, fields[3::width]), np.float64, n)
            weight = np.fromiter(map(float, fields[2::width]), np.float64, n)
        except ValueError:
            return False
        if not (np.isfinite(time).all() and np.isfinite(weight).all()):
            return False
        self.add(time, weight, fields[0::width], fields[1::width])
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


def parse_csv(path) -> EventLog:
    """Parse an edge list into a dense, time-sorted log, under the format
    and filtering of the module docstring.

    Events are stably sorted by time and raw node ids remapped to dense
    int32 ids in order of first appearance.  A file that cannot be read or
    decoded, that keeps no event, or that names 2**31 nodes or more, is a
    ``DataError``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    parsed = _Columns()
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
        keys = ("nodes", "links", "f_plus", "f_ub", "days", "events", "directed_pairs",
                "span_seconds", "triangles", "unbalanced_triangles", "has_triangles")
        return dict(zip(keys, astuple(self)))


def _latest(keys: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, sorted, and the weight of each one's last event."""
    uniq, last = np.unique(keys[::-1], return_index=True)  # first in reverse: the latest
    return uniq, weight[::-1][last]


def _triangles(u: np.ndarray, v: np.ndarray, sign: np.ndarray, n: int) -> tuple[int, int]:
    """(total, unbalanced) triangles over the distinct links ``u``-``v`` with
    their signs, by the forward algorithm of the module docstring."""
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rank = np.empty(n, np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)  # by (degree, id)
    u, v = rank[u], rank[v]
    out = np.minimum(u, v) * n + np.maximum(u, v)  # tail * n + head
    order = np.argsort(out)
    out, sign = out[order], sign[order]
    tail, head = np.divmod(out, n)
    # per out-link, the later out-links of its tail: one wedge each
    later = np.searchsorted(tail, tail, side="right") - np.arange(out.size) - 1
    done = np.cumsum(later)
    total = unbalanced = lo = 0
    while lo < out.size:  # links [lo, hi) own at most out.size wedges
        base = done[lo] - later[lo]
        hi = int(np.searchsorted(done, base + out.size, side="right"))
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        # the k-th wedge of out-link i pairs it with out-link i + 1 + k
        second = first + 1 + np.arange(first.size) - np.repeat(done[lo:hi] - count - base, count)
        close = head[first] * n + head[second]
        at = np.minimum(np.searchsorted(out, close), out.size - 1)
        hit = out[at] == close
        total += int(np.count_nonzero(hit))
        unbalanced += int(np.count_nonzero(
            sign[first[hit]] * sign[second[hit]] * sign[at[hit]] < 0))
        lo = hi
    return total, unbalanced


def compute_stats(logdata: EventLog) -> DatasetStats:
    """The dataset table's statistics (see the module docstring)."""
    if not len(logdata):
        raise DataError("cannot compute statistics of an empty log")
    src, dst = logdata.src.astype(np.int64), logdata.dst.astype(np.int64)
    if (src == dst).any():
        raise DataError(f"self-loop at event {np.argmax(src == dst)}: a link joins two nodes")
    n = int(max(src.max(), dst.max())) + 1
    _, directed = _latest(src * n + dst, logdata.weight)
    links, signs = _latest(np.minimum(src, dst) * n + np.maximum(src, dst), logdata.weight)
    triangles, unbalanced = _triangles(*np.divmod(links, n), np.sign(signs), n)
    t0, t1 = logdata.time_span()
    span = t1 - t0
    return DatasetStats(
        node_count=logdata.node_count, link_count=links.size,
        f_plus=int(np.count_nonzero(directed > 0)) / directed.size,
        f_ub=(unbalanced / triangles) if triangles else 0.0,
        days=round(span / SECONDS_PER_DAY), event_count=len(logdata),
        directed_pair_count=directed.size, span_seconds=span, triangle_count=triangles,
        unbalanced_triangle_count=unbalanced, has_triangles=triangles > 0)
