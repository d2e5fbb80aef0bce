"""Stream encoder for dynamic signed networks.

Each node carries a positive and a negative memory vector.  Every edge
addition emits messages routed by the edge sign: a positive edge mixes
memories of the same polarity, a negative edge mixes memories of opposite
polarity.  Each polarity has its own message net and recurrent cell.
Long-term embeddings attend over the node's full interaction history so
representations keep moving even for nodes with no recent events.

State layout (:class:`EncoderState`): a state is made with room for one
pass, node ids below ``nodes`` and ``rows`` history rows (two per event),
by the code that starts the pass.  Every array is allocated then, once,
as zeros from ``np.zeros`` (calloc), so the pages of nodes and rows never
written stay unmapped.  ``process_batch`` refuses a batch that does not
fit the room before it touches any array.

- memory arrays: ``mem[node, slot]`` holds one polarity memory and
  ``last_update[node]`` the time of the node's last memory write; ``size``
  is one past the largest id written, and an id never ingested reads as
  zeros;
- fresh-row overlay: rows written with gradient since the last
  ``detach_`` are also kept, in write order, in one ``fresh`` tensor, and
  ``fresh_row[node, slot]`` is one past the row there (0 for none, so the
  array also starts as calloc'd zeros).  A read under gradient is
  ``take_rows(fresh, fresh_row[...] - 1, mem[...])``, so gradients reach
  the batch that wrote a memory, and ``detach_`` only forgets the overlay;
- linked history log (:class:`HistoryLog`): one append-only row per
  (event, endpoint) with a pointer to the owner's previous row, so a
  node's most recent rows are a walk back from its head; ``append``
  writes into the room and never copies the log.

A snapshot (:meth:`EncoderState.save`, version 2) is these arrays as
they are, after the line ``dysignet-encoder-state 2``: one ``np.save``
record each of ``mem[:size]``, ``last_update``, the history's ``nbr``,
``t``, ``mag`` and ``prev`` up to ``length`` and ``head`` and ``deg`` up to
the last node with rows, then ``watermark`` and ``events_ingested``.  The
overlay is not saved, and the history's int32 columns are saved as intp.

Dtypes: the model computes in ``tensor.DTYPE``, float32, so ``mem``, the
fresh overlay and every activation are float32.  Times stay float64: the
event log's ``time``, ``HistoryLog.t``, ``last_update`` and ``watermark``.
Float32 spacing at 1.3e9 unix seconds is 128 s, which would erase
minute-scale gaps, so a gap is taken in float64 and cast only once
encoded (``_encode_dt``).  ``HistoryLog.mag`` keeps the log's float64
weights.  A snapshot records ``mem`` in its own dtype (the ``.npy`` header
says which), and ``load`` reads float32 or float64 and casts it.

Signs: the message extra and the history magnitude column carry ``|w|``,
so the sign acts only through balanced routing (which partner slot a
message reads), and the sign-blind ``ba`` and ``mem`` variants never see
it.  ``PAPER.md`` does not say whether the paper's message carries ``w``
or ``|w|``; ``|w|`` keeps routing the model's only access to the sign.

A temporal batch is ingested in one batched pass per polarity slot, which
keeps two invariants:

- every message reads pre-batch memories: all slots build their inputs
  before any slot's memory is written;
- per (node, polarity) the most recent message wins, and a time tie goes
  to the message generated later in the batch.

Per slot, the message net and the recurrent cell are each one fused op
(:func:`tensor.feedforward`, :func:`tensor.recurrent_cell`) that adds and
multiplies in the order of the primitives it replaces, so values and
gradients keep their bits; a stacked ``[w; u]`` matmul would reorder the
sums.  Embeddings read each distinct history neighbour's state once into
a table and run the self projection and the whole segmented attention
over ``[table[index], time gap, |w|]`` as one op
(:func:`tensor.segment_attention`), on rows that :meth:`HistoryLog.recent`
returns packed position-major, newest first.  A batch whose nodes have no
history yet passes zero rows down the same path.

Under gradient recording every winner's step is taped on ingest, its
inputs kept and its activations not, and joins the fresh overlay, so the
next batch's loss reaches back through it.  That loss reads few winners
on a wide stream, so the two memory ops' backward passes recompute and
work on only the rows whose gradient has a nonzero entry, regrouping the
parameter-gradient sums, and give the other rows zero input gradients.

Ablations: the run's ``TrainConfig.ablation`` is one of the paper's four
models (:class:`AblationConfig`).  A node's state is exactly its
memories, ``[s+, s−]``.  ``ba`` collapses them into one sign-blind slot,
and ``emb`` uses the state directly as the embedding.  ``mem`` drops
memories, so the node state is empty: the query has no columns, every
history row of a query weighs the same, and the embedding is the history
mean of the value projection of ``[time gap, |w|]``.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Sequence

import numpy as np

from . import tensor
from .events import EventLog
from .layers import Feedforward, MultiHeadAttention, RecurrentCell
from .params import ParameterSet
# gather_stack is not called here, but bench/spans.py patches this module's name
from .tensor import gather_stack  # noqa: F401
from .tensor import Tensor, concat, grad_enabled, take_rows

POS = 0
NEG = 1

STATE_FORMAT = "dysignet-encoder-state"
STATE_VERSION = 2
# the arrays of a version-2 snapshot, in file order, with the dtypes they
# may have: mem is saved as tensor.DTYPE and read in either float width
_F8, _IP = (np.dtype(np.float64),), (np.dtype(np.intp),)
_SNAPSHOT = {"mem": (np.dtype(np.float32),) + _F8, "last_update": _F8, "nbr": _IP, "t": _F8,
             "mag": _F8, "prev": _IP, "head": _IP, "deg": _IP, "watermark": _F8,
             "events_ingested": _IP}


class AblationConfig(Enum):
    """The four models of the paper's ablation study: the full model
    ``none`` and the three that each drop one part.  ``ba`` merges the two
    polarity memories into one sign-blind slot, ``emb`` uses the memories
    as the embedding, and ``mem`` keeps no memories: its query is empty,
    every attention logit is 0 whatever ``wk`` is, and ``wk`` gets zero
    gradient.  Dropping two parts is no variant: without memories balanced
    aggregation changes nothing, and without memories and the embedding
    layer no node representation is left."""

    none = "none"
    ba = "ba"
    emb = "emb"
    mem = "mem"

    @classmethod
    def from_name(cls, name: str) -> "AblationConfig":
        if name not in cls.NAMES:
            raise ValueError(f"unknown ablation {name!r} (choose from {cls.NAMES})")
        return cls[name]

    @property
    def balanced_aggregation(self) -> bool:
        return self is not AblationConfig.ba

    @property
    def use_embedding_layer(self) -> bool:
        return self is not AblationConfig.emb

    @property
    def use_memory(self) -> bool:
        return self is not AblationConfig.mem


AblationConfig.NAMES = tuple(AblationConfig.__members__)


class HistoryLog:
    """Every node's interaction history as one append-only log.

    Row ``i`` is an interaction with ``nbr[i]`` at time ``t[i]`` of
    magnitude ``mag[i]``; ``prev[i]`` is the same owner's previous row (-1
    before its first).  ``head[n]`` is node ``n``'s newest row and
    ``deg[n]`` its row count.  The arrays have room for ``rows`` rows and
    owner ids below ``nodes``, allocated here, and :meth:`append` writes
    into that room, so it never copies them.  Ids, links and counts are
    int32, as the event log's node ids are: both sizes stay below 2**31."""

    def __init__(self, rows: int, nodes: int):
        if max(rows, nodes) >= 2 ** 31:
            raise ValueError(f"a history log holds < 2**31 rows and nodes, not {rows}, {nodes}")
        self.length = 0
        self.nbr = np.zeros(rows, dtype=np.int32)
        self.t = np.zeros(rows)
        self.mag = np.zeros(rows)
        self.prev = np.zeros(rows, dtype=np.int32)
        self.head = np.full(nodes, -1, dtype=np.int32)
        self.deg = np.zeros(nodes, dtype=np.int32)

    def append(self, owners: np.ndarray, nbrs, times, mags) -> None:
        """Log one row per owner, in the given order, into the room."""
        start, end = self.length, self.length + owners.size
        if end > self.nbr.size or owners.max() >= self.head.size:
            raise ValueError(f"no room for the rows or their owners: the log holds "
                             f"{self.nbr.size} rows of owners below {self.head.size}")
        self.nbr[start:end], self.t[start:end], self.mag[start:end] = nbrs, times, mags
        # link each row to its owner's previous row: the row before it in a
        # stable sort by owner, or the owner's head for its first row here
        order = np.argsort(owners, kind="stable")
        owner = owners[order]
        rows = start + order
        first = np.r_[True, owner[1:] != owner[:-1]]
        prev = np.r_[-1, rows[:-1]]
        prev[first] = self.head[owner[first]]
        self.prev[rows] = prev
        last = np.r_[first[1:], True]
        self.head[owner[last]] = rows[last]
        # each owner's row count is the size of its group in the sort
        self.deg[owner[first]] += np.diff(np.flatnonzero(first), append=owner.size)
        self.length = end

    def recent(self, nodes: np.ndarray, cap: int | None):
        """Each node's ``cap`` most recent rows (all of them for None),
        packed position-major for :func:`tensor.segment_attention`.

        ``order`` lists the positions in ``nodes`` of the nodes with rows,
        by row count descending (ties keep their order in ``nodes``), and
        block p of ``rows``, ``sizes[p]`` long, holds the p-th newest row of
        each of the first ``sizes[p]`` nodes in ``order``.  The walk back
        from the heads visits the rows in exactly this order: a step's
        survivors are a prefix of the last step's.  Returns (order, sizes,
        rows)."""
        counts = self.deg[nodes]
        if cap is not None:
            np.minimum(counts, cap, out=counts)
        live = np.flatnonzero(counts)
        order = live[np.argsort(-counts[live], kind="stable")]
        # sizes[p] = how many nodes have more than p rows
        sizes = order.size - np.cumsum(np.bincount(counts[order]))[:-1]
        starts = np.cumsum(sizes) - sizes
        rows = np.empty(sizes.sum(), dtype=np.intp)
        rows[:order.size] = self.head[nodes[order]]
        for a, b, m in zip(starts[:-1].tolist(), starts[1:].tolist(), sizes[1:].tolist()):
            rows[b:b + m] = self.prev[rows[a:a + m]]
        return order, sizes, rows

    def columns(self) -> list[np.ndarray]:
        """``nbr``, ``t``, ``mag`` and ``prev`` up to ``length``, then ``head``
        and ``deg`` up to the last node with rows."""
        live = np.flatnonzero(self.deg)
        nodes = live[-1] + 1 if live.size else 0
        return ([a[:self.length] for a in (self.nbr, self.t, self.mag, self.prev)]
                + [self.head[:nodes], self.deg[:nodes]])

    def tuples(self, rows: np.ndarray) -> list[tuple[int, float, float]]:
        return list(zip(self.nbr[rows].tolist(), self.t[rows].tolist(),
                        self.mag[rows].tolist()))

    def items(self) -> list[tuple[int, list[tuple[int, float, float]]]]:
        """(node, time-ordered rows) for every node with history."""
        nodes = np.flatnonzero(self.deg)
        order, sizes, rows = self.recent(nodes, None)
        ends = np.cumsum(sizes)
        owner = order[np.arange(rows.size) - np.repeat(ends - sizes, sizes)]
        # reversed, the packed rows run oldest first per node; a stable
        # sort by owner then groups them node by node
        flat = self.tuples(rows[::-1][np.argsort(owner[::-1], kind="stable")])
        counts = self.deg[nodes].tolist()
        return [(n, flat[e - c:e])
                for n, c, e in zip(nodes.tolist(), counts, itertools.accumulate(counts))]

    def values(self) -> list[list[tuple[int, float, float]]]:
        return [rows for _, rows in self.items()]


class EncoderState:
    """Mutable per-stream state: memories, histories, last-update times,
    shaped by ``config``, the run's :class:`~dysignet.harness.TrainConfig`.
    Its arrays are allocated here with room for node ids below ``nodes``
    and for ``rows`` history rows, and never grow."""

    def __init__(self, config, nodes: int, rows: int):
        self.config = config
        slots = config.slot_count if config.ablation.use_memory else 0
        self.size = 0
        self.mem = np.zeros((nodes, slots, config.slot_dim), dtype=tensor.DTYPE)
        self._last_update = np.zeros(nodes)
        self._fresh: Tensor | None = None
        self._fresh_row = np.zeros((nodes, slots), dtype=np.int32)
        self._fresh_nodes: list[np.ndarray] = []
        self.history = HistoryLog(rows, nodes)
        self.watermark = 0.0
        self.events_ingested = 0

    @property
    def last_update(self) -> np.ndarray:
        """Last memory-write time per node id below ``size``."""
        return self._last_update[:self.size]

    def last_update_at(self, nodes: np.ndarray) -> np.ndarray:
        """Last memory-write times; 0.0 for nodes never written."""
        return self._last_update[nodes]

    def read_memory(self, nodes: np.ndarray, slots) -> Tensor:
        """Memories of (nodes[i], slots[i]) as rows; ``slots`` may be one
        slot for all.  Rows written with gradient since the last
        ``detach_`` carry it; the rest are constants."""
        # rows past ``size`` are calloc'd zeros with no overlay row
        fill = self.mem[nodes, slots]
        if self._fresh is None or not grad_enabled():
            return Tensor(fill)
        return take_rows(self._fresh, self._fresh_row[nodes, slots] - 1, fill)

    def write_memory(self, nodes: np.ndarray, slot: int, new: Tensor, times) -> None:
        """Set the memories of (nodes[i], slot) to ``new[i]`` and advance
        each node's last update to ``times[i]``; ``nodes`` are distinct."""
        self.size = max(self.size, int(nodes.max()) + 1)
        self._last_update[nodes] = np.maximum(self._last_update[nodes], times)
        self.mem[nodes, slot] = new.data
        if new.requires_grad:
            base = 0 if self._fresh is None else self._fresh.data.shape[0]
            self._fresh = new if self._fresh is None else concat([self._fresh, new])
            self._fresh_row[nodes, slot] = base + 1 + np.arange(nodes.size)
            self._fresh_nodes.append(nodes)
        else:
            self._fresh_row[nodes, slot] = 0

    def detach_(self) -> None:
        """Freeze all memory values as constants, truncating gradient flow.
        Costs the rows written since the last detach, not the node count."""
        for nodes in self._fresh_nodes:
            self._fresh_row[nodes] = 0
        self._fresh_nodes.clear()
        self._fresh = None

    def clear(self) -> None:
        """Drop everything ingested, arrays included: the state is new again,
        with no room."""
        self.__init__(self.config, 0, 0)

    def save(self, path) -> None:
        """Write the state's arrays as they are (layout in the module docstring)."""
        with open(path, "wb") as fh:
            fh.write(f"{STATE_FORMAT} {STATE_VERSION}\n".encode())
            for a in (self.mem[:self.size], self.last_update, *self.history.columns(),
                      np.float64(self.watermark), np.intp(self.events_ingested)):
                np.save(fh, a.astype(np.intp) if a.dtype == np.int32 else a, allow_pickle=False)

    @classmethod
    def load(cls, path, config, nodes: int = 0, rows: int = 0) -> "EncoderState":
        """Read a version-2 snapshot into a state with room for node ids
        below ``nodes`` and for ``rows`` history rows, or for no more than
        the snapshot holds.  Raises ValueError naming ``path`` unless its
        arrays fit ``config`` and each other, are finite, and link history
        rows inside the log."""
        slots = config.slot_count if config.ablation.use_memory else 0
        with open(path, "rb") as fh:
            tag = fh.readline()
            try:
                if not tag.startswith(f"{STATE_FORMAT} ".encode()):
                    raise ValueError("not an encoder state snapshot")
                if tag != f"{STATE_FORMAT} {STATE_VERSION}\n".encode():
                    raise ValueError("unsupported snapshot version")
                arrays = [np.load(fh, allow_pickle=False) for _ in _SNAPSHOT]
                mem, last, nbr, t, mag, prev, head, deg, watermark, ingested = arrays
                if mem.ndim == 3 and mem.shape[2] != config.slot_dim:
                    raise ValueError(f"slot dim {mem.shape[2]} != {config.slot_dim}")
                n, logged, owners = (a.shape[:1] for a in (mem, nbr, head))
                if ([a.shape for a in arrays] != [n + (slots, config.slot_dim), n, *[logged] * 4,
                                                  owners, owners, (), ()]
                        or any(a.dtype not in dtypes
                               for a, dtypes in zip(arrays, _SNAPSHOT.values()))):
                    raise ValueError("arrays do not fit the config or each other")
                with np.errstate(over="ignore"):   # overflow fails the check below
                    mem = mem.astype(tensor.DTYPE)
                if not all(np.isfinite(a).all() for a in (mem, last, t, mag, watermark)):
                    raise ValueError("non-finite values")
                links, ids = np.concatenate([prev, head]), np.concatenate([nbr, deg])
                if (links < -1).any() or (links >= nbr.size).any() or (ids < 0).any():
                    raise ValueError(f"history links outside [-1, {nbr.size}) "
                                     f"or negative node ids or counts")
                # checked before the walk, whose time grows with the claimed counts;
                # no count above the row count keeps the sum from wrapping around
                if (deg > nbr.size).any() or deg.sum() != nbr.size:
                    raise ValueError(f"history row counts do not sum to the log's "
                                     f"{nbr.size} rows")
                if (nbr >= head.size).any():   # each neighbour also owns rows
                    raise ValueError(f"history neighbours outside the log's {head.size} owners")
                state = cls(config, max(nodes, len(mem), head.size), max(rows, nbr.size))
                h = state.history
                h.length = nbr.size
                for room, a in zip((h.nbr, h.t, h.mag, h.prev, h.head, h.deg), arrays[2:8]):
                    room[:a.size] = a
                # walking deg[n] rows back from each head stays on rows and visits each once
                walked = h.recent(np.flatnonzero(deg), None)[2]
                if (walked < 0).any() or np.unique(walked).size != nbr.size:
                    raise ValueError("history row counts disagree with the links")
            except (ValueError, KeyError, TypeError, IndexError, AttributeError, EOFError) as exc:
                raise ValueError(f"{path}: bad snapshot: {exc}") from None
        state.size = len(mem)
        state.mem[:len(mem)], state._last_update[:len(mem)] = mem, last
        state.watermark, state.events_ingested = float(watermark), int(ingested)
        return state


def _encode_dt(config, dt: np.ndarray) -> np.ndarray:
    """Encoded float64 time gaps; the model casts them to its dtype."""
    # time_scale is None or > 0 (TrainConfig checks), and None means 1.0
    return (config.time_scale or 1.0) * np.log1p(np.maximum(dt, 0.0))


class EncoderModel:
    """Owns the learned encoder layers, shaped by ``config``, the run's
    :class:`~dysignet.harness.TrainConfig`; operates on an
    :class:`EncoderState`."""

    def __init__(self, params: ParameterSet, config,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        ab = config.ablation
        if ab.use_memory:
            # One full memory module (message net + cell) per polarity slot.
            # Sharing them across polarities would pin s+ == s- forever under
            # zero initialization: both slots of a node always update together,
            # and at equal slot values the routed inputs coincide.
            slot_tag = {POS: "plus", NEG: "minus"} if ab.balanced_aggregation else {0: "all"}
            # a message reads the own slot, the partner slot, the time gap and |w|
            self._msg_nets = [
                Feedforward(params, f"encoder.msg_{slot_tag[slot]}", 2 * config.slot_dim + 2,
                            config.slot_dim, rng=rng)
                for slot in range(config.slot_count)
            ]
            self._mem_cells = [
                RecurrentCell(params, f"encoder.mem_{slot_tag[slot]}",
                              config.slot_dim, config.slot_dim, rng=rng)
                for slot in range(config.slot_count)
            ]
        if ab.use_embedding_layer:
            # keys and values are the node state plus a time-gap and a |w| column
            h = config.node_state_dim
            self.attn = MultiHeadAttention(
                params, "encoder.emb", query_dim=h, out_dim=config.embedding_dim,
                heads=config.heads, key_dim=h + 2, rng=rng)

    # ------------------------------------------------------------------
    # message generation and memory update

    def process_batch(self, batch: EventLog, state: EncoderState) -> None:
        """Ingest one temporal batch: generate, aggregate, update, then log
        the events into the history.  Predictions for a batch must be made
        by the caller before ingesting it."""
        if not len(batch):
            return
        start, end = batch.time_span()
        if start < state.watermark:
            raise ValueError(
                f"out-of-order batch: starts at {start} before "
                f"already-ingested time {state.watermark}")
        hist = state.history
        if (max(batch.src.max(), batch.dst.max()) >= hist.head.size
                or hist.length + 2 * len(batch) > hist.nbr.size):
            raise ValueError(f"batch does not fit the state's room of {hist.head.size} "
                             f"nodes and {hist.nbr.size} history rows")
        # one row per endpoint, (src -> dst, dst -> src) for each event, as
        # intp once here so that no index below pays a cast
        ends = np.stack([batch.src, batch.dst], axis=1, dtype=np.intp)
        owner, partner = ends.ravel(), ends[:, ::-1].ravel()
        time, weight = np.repeat(batch.time, 2), np.repeat(batch.weight, 2)
        if self.config.ablation.use_memory:
            self._ingest_memory(owner, partner, time, weight, state)
        state.history.append(owner, partner, time, np.abs(weight))
        state.watermark = max(state.watermark, end)
        state.events_ingested += len(batch)

    def _ingest_memory(self, owner, partner, time, weight, state: EncoderState) -> None:
        if (weight == 0.0).any():
            raise ValueError("signed events must have non-zero weight")
        # Keep only the winning (most recent) endpoint row per node before
        # running the message net: selection does not depend on the payload,
        # so this equals generating everything and then aggregating.  A
        # stable sort makes the later row win a time tie; winners are
        # ordered by each node's first appearance in the batch.
        order = np.lexsort((time, owner))
        last = order[np.flatnonzero(np.diff(owner[order], append=-1))]
        _, first = np.unique(owner, return_index=True)
        win = last[np.argsort(first)]
        nodes, others, sign, t = owner[win], partner[win], weight[win], time[win]
        extras = np.empty((nodes.size, 2), dtype=tensor.DTYPE)  # cast once, no float64 copy
        extras[:, 0] = _encode_dt(self.config, t - state.last_update_at(nodes))
        extras[:, 1] = np.abs(sign)
        ex = Tensor(extras)
        balanced = self.config.ablation.balanced_aggregation
        news = []
        for slot in range(self.config.slot_count):
            own = state.read_memory(nodes, slot)
            other_slot = np.where(sign > 0, slot, 1 - slot) if balanced else slot
            x = concat([own, state.read_memory(others, other_slot), ex], axis=1)
            news.append(self._mem_cells[slot].apply(self._msg_nets[slot].apply(x), own))
        # written only now, so that no slot read another slot's fresh memory
        for slot, new in enumerate(news):
            state.write_memory(nodes, slot, new, t)

    # ------------------------------------------------------------------
    # embeddings

    def _node_state_matrix(self, nodes: np.ndarray, state: EncoderState) -> Tensor:
        """Each node's memory slots side by side: ``[s+, s−]``, the one
        sign-blind slot, or no columns at all without memory."""
        if not self.config.ablation.use_memory:
            return Tensor(np.zeros((nodes.size, 0)))
        parts = [state.read_memory(nodes, slot) for slot in range(self.config.slot_count)]
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def compute_embeddings(self, nodes: Sequence[int], t: float,
                           state: EncoderState) -> tuple[Tensor, dict[int, int]]:
        """Batched embeddings for distinct nodes; returns (matrix, node->row)."""
        nodes = list(dict.fromkeys(nodes))
        index = {n: i for i, n in enumerate(nodes)}
        ids = np.asarray(nodes, dtype=np.intp)
        hq = self._node_state_matrix(ids, state)
        if not self.config.ablation.use_embedding_layer:
            return hq, index
        hist = state.history
        order, sizes, rows = hist.recent(ids, self.config.neighbor_cap)
        uniq, inv = np.unique(hist.nbr[rows], return_inverse=True)
        extras = np.empty((rows.size, 2), dtype=tensor.DTYPE)  # cast once, no float64 copy
        extras[:, 0] = _encode_dt(self.config, t - hist.t[rows])
        extras[:, 1] = hist.mag[rows]
        out, _ = self.attn.apply(hq, self._node_state_matrix(uniq, state), inv, extras,
                                 order, sizes)
        return out, index
