"""Stream encoder for dynamic signed networks.

Each node carries a positive and a negative memory vector.  Every edge
addition emits messages routed by the edge sign: a positive edge mixes
memories of the same polarity, a negative edge mixes memories of opposite
polarity.  Each polarity has its own message net and recurrent cell.
Long-term embeddings attend over the node's full interaction history so
representations keep moving even for nodes with no recent events.

State layout (:class:`EncoderState`): a state is made for one pass over
an event log, by the code that starts the pass, and ingests that log's
events in order.  Every array is allocated then, once, for the log's
node ids, as zeros from ``np.zeros`` (calloc), so the pages of nodes
never written stay unmapped.  ``process_batch`` refuses a batch that is
not the log's next events before it touches any array.

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
- history (:class:`HistoryLog`): a view of the log, whose row ``2e + j``
  is endpoint ``j`` of event ``e``.  One stable argsort of the pass's
  endpoints lists each node's rows in order, and a per-node count, which
  each batch advances, says how many of them are ingested, so a node's
  most recent rows are a slice read by index, with no copy of the log.

A snapshot (:meth:`EncoderState.save`, version 3) is, after the line
``dysignet-encoder-state 3``, one ``np.save`` record each of
``mem[:size]``, ``last_update``, ``watermark``, ``events_ingested`` and the
sha256 of the ingested events' columns.  The history is not saved: it is
the log's, and :meth:`EncoderState.load` rebuilds it over a log that
must begin with those events.  The overlay is not saved either.

Dtypes: the model computes in ``tensor.DTYPE``, float32, so ``mem``, the
fresh overlay and every activation are float32.  Times stay float64: the
event log's ``time``, which the history reads, ``last_update`` and
``watermark``.  Float32 spacing at 1.3e9 unix seconds is 128 s, which
would erase minute-scale gaps, so a gap is taken in float64 and cast only
once encoded (``_encode_dt``).  The history reads ``|w|`` from the log's
float64 weights.  A snapshot records ``mem`` in its own dtype (the
``.npy`` header says which), and ``load`` reads float32 or float64 and
casts it.

Signs: the message extra and the history's magnitude column carry ``|w|``,
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

import hashlib
from enum import Enum

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
STATE_VERSION = 3
# the arrays of a version-3 snapshot, in file order, with the dtypes they
# may have: mem is saved as tensor.DTYPE and read in either float width
_F8 = (np.dtype(np.float64),)
_SNAPSHOT = {"mem": (np.dtype(np.float32),) + _F8, "last_update": _F8, "watermark": _F8,
             "events_ingested": (np.dtype(np.intp),), "log_digest": (np.dtype(np.uint8),)}


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
    """Every node's interaction history, read from the event log of one pass.

    Row ``2e + j`` is endpoint ``j`` of event ``e`` (0 the source, 1 the
    destination): its owner is that endpoint, its neighbour the other one,
    its time ``log.time[e]`` and its magnitude ``|log.weight[e]|``.  One
    stable argsort of the owners, ``perm``, lists each node's rows in row
    order, node ``n``'s from ``perm[offsets[n]]`` on.  The first ``events``
    events are logged, and ``deg[n]`` counts node ``n``'s rows among them:
    the first ``deg[n]`` of its run in ``perm``."""

    def __init__(self, log: EventLog):
        self.log = log
        self.events = 0
        owners = np.stack([log.src, log.dst], axis=1).ravel()
        # a stable argsort by owner, as numpy's faster unstable sort of the
        # distinct (owner, row) keys; exact for fewer than 2**31 events
        self.perm = owners.astype(np.int64) << 32 | np.arange(owners.size)
        self.perm.sort()
        self.perm &= 0xFFFFFFFF
        counts = np.bincount(owners, minlength=log.node_count)
        self.offsets = np.cumsum(counts) - counts
        self.deg = np.zeros(log.node_count, dtype=np.int32)

    def advance(self, n: int) -> None:
        """Log the next ``n`` events."""
        stop = self.events + n
        for ends in (self.log.src, self.log.dst):
            # an int32 one keeps np.add.at on its fast path
            np.add.at(self.deg, ends[self.events:stop], np.int32(1))
        self.events = stop

    def read(self, rows: np.ndarray):
        """(neighbour, time, ``|w|``) columns of history rows."""
        e, log = rows >> 1, self.log
        return np.where(rows & 1, log.src[e], log.dst[e]), log.time[e], np.abs(log.weight[e])

    def recent(self, nodes: np.ndarray, cap: int | None):
        """Each node's ``cap`` most recent rows (all of them for None),
        packed position-major for :func:`tensor.segment_attention`.

        ``order`` lists the positions in ``nodes`` of the nodes with rows,
        by row count descending (ties keep their order in ``nodes``), and
        block p of ``rows``, ``sizes[p]`` long, holds the p-th newest row of
        each of the first ``sizes[p]`` nodes in ``order``.  Returns (order,
        sizes, rows)."""
        counts = self.deg[nodes]
        if cap is not None:
            np.minimum(counts, cap, out=counts)
        live = np.flatnonzero(counts)
        order = live[np.argsort(-counts[live], kind="stable")]
        # sizes[p] = how many nodes have more than p rows
        sizes = order.size - np.cumsum(np.bincount(counts[order]))[:-1]
        # the p-th newest row of a node is deg - 1 - p into its run of perm
        p = np.repeat(np.arange(sizes.size), sizes)
        k = np.arange(p.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        newest = (self.offsets[nodes] + self.deg[nodes] - 1)[order]
        return order, sizes, self.perm[newest[k] - p]

    def values(self) -> list[list[tuple[int, float, float]]]:
        """Each node's logged rows as (neighbour, time, ``|w|``), oldest
        first, for every node with history, by node id."""
        nodes = np.flatnonzero(self.deg)
        counts = self.deg[nodes]
        ends = np.cumsum(counts)
        # entry i of the flat list is entry i - (end - count) of its node's run
        at = np.arange(counts.sum()) + np.repeat(self.offsets[nodes] - (ends - counts), counts)
        flat = list(zip(*(a.tolist() for a in self.read(self.perm[at]))))
        return [flat[e - c:e] for c, e in zip(counts.tolist(), ends.tolist())]


def _log_digest(log: EventLog, events: int) -> np.ndarray:
    """The sha256 of the first ``events`` events' columns, as 32 bytes."""
    h = hashlib.sha256()
    for column, dtype in (log.time, "<f8"), (log.src, "<i8"), (log.dst, "<i8"), (log.weight, "<f8"):
        h.update(column[:events].astype(dtype).tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


class EncoderState:
    """Mutable state of one pass over ``log``: memories, last-update times
    and the history, shaped by ``config``, the run's
    :class:`~dysignet.harness.TrainConfig`.  Its arrays are allocated here
    for the log's node ids and never grow, and it ingests the log's events
    in order."""

    def __init__(self, config, log: EventLog):
        self.config = config
        nodes = log.node_count
        slots = config.slot_count if config.ablation.use_memory else 0
        self.size = 0
        self.mem = np.zeros((nodes, slots, config.slot_dim), dtype=tensor.DTYPE)
        self._last_update = np.zeros(nodes)
        self._fresh: Tensor | None = None
        self._fresh_row = np.zeros((nodes, slots), dtype=np.int32)
        self._fresh_nodes: list[np.ndarray] = []
        self.history = HistoryLog(log)
        self.watermark = 0.0

    @property
    def events_ingested(self) -> int:
        """How many of the log's events the state has ingested."""
        return self.history.events

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
        over a log of no events and no nodes."""
        empty = self.history.log.slice(0, 0)
        empty.node_count = 0
        self.__init__(self.config, empty)

    def save(self, path) -> None:
        """Write the state's arrays (layout in the module docstring)."""
        with open(path, "wb") as fh:
            fh.write(f"{STATE_FORMAT} {STATE_VERSION}\n".encode())
            for a in (self.mem[:self.size], self.last_update, np.float64(self.watermark),
                      np.intp(self.events_ingested),
                      _log_digest(self.history.log, self.events_ingested)):
                np.save(fh, a, allow_pickle=False)

    @classmethod
    def load(cls, path, config, log: EventLog) -> "EncoderState":
        """Read a version-3 snapshot into a state over ``log``.  Raises
        ValueError naming ``path`` unless its arrays fit ``config``, ``log``
        and each other and are finite, and ``log`` begins with the events
        the saved state ingested."""
        slots = config.slot_count if config.ablation.use_memory else 0
        with open(path, "rb") as fh:
            tag = fh.readline()
            try:
                if not tag.startswith(f"{STATE_FORMAT} ".encode()):
                    raise ValueError("not an encoder state snapshot")
                if tag != f"{STATE_FORMAT} {STATE_VERSION}\n".encode():
                    raise ValueError("unsupported snapshot version")
                arrays = [np.load(fh, allow_pickle=False) for _ in _SNAPSHOT]
                mem, last, watermark, ingested, digest = arrays
                if mem.ndim == 3 and mem.shape[2] != config.slot_dim:
                    raise ValueError(f"slot dim {mem.shape[2]} != {config.slot_dim}")
                n = mem.shape[:1]
                if ([a.shape for a in arrays] != [n + (slots, config.slot_dim), n, (), (), (32,)]
                        or any(a.dtype not in dtypes
                               for a, dtypes in zip(arrays, _SNAPSHOT.values()))
                        or len(mem) > log.node_count):
                    raise ValueError("arrays do not fit the config, the log or each other")
                with np.errstate(over="ignore"):   # overflow fails the check below
                    mem = mem.astype(tensor.DTYPE)
                if not all(np.isfinite(a).all() for a in (mem, last, watermark)):
                    raise ValueError("non-finite values")
                if not 0 <= ingested <= len(log):
                    raise ValueError(f"{ingested} events ingested, but the log has {len(log)}")
                if not np.array_equal(digest, _log_digest(log, int(ingested))):
                    raise ValueError(f"saved over another log: its first {ingested} events differ")
            except (ValueError, KeyError, TypeError, IndexError, AttributeError, EOFError) as exc:
                raise ValueError(f"{path}: bad snapshot: {exc}") from None
        state = cls(config, log)
        state.size = len(mem)
        state.mem[:len(mem)], state._last_update[:len(mem)] = mem, last
        state.watermark = float(watermark)
        state.history.advance(int(ingested))
        return state


def first_seen(nodes: np.ndarray) -> np.ndarray:
    """The distinct ids in ``nodes`` in the order they first appear."""
    _, first = np.unique(nodes, return_index=True)
    return nodes[np.sort(first)]


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
        """Ingest one temporal batch, the next events of the state's log:
        generate, aggregate, update, then log the events into the history.
        Predictions for a batch must be made by the caller before ingesting
        it."""
        if not len(batch):
            return
        start, end = batch.time_span()
        if start < state.watermark:
            raise ValueError(
                f"out-of-order batch: starts at {start} before "
                f"already-ingested time {state.watermark}")
        hist = state.history
        logged = hist.log.slice(hist.events, hist.events + len(batch))
        if not all(np.array_equal(getattr(batch, c), getattr(logged, c))
                   for c in ("time", "src", "dst", "weight")):
            raise ValueError(f"the batch is not the next {len(batch)} events of the state's log: "
                             f"{hist.events} of its {len(hist.log)} are ingested")
        if (batch.weight == 0.0).any():
            raise ValueError("signed events must have non-zero weight")
        if self.config.ablation.use_memory:
            self._ingest_memory(batch, state)
        hist.advance(len(batch))
        state.watermark = max(state.watermark, end)

    def _ingest_memory(self, batch: EventLog, state: EncoderState) -> None:
        # one row per endpoint, (src -> dst, dst -> src) for each event, as
        # intp once here so that no index below pays a cast
        ends = np.stack([batch.src, batch.dst], axis=1, dtype=np.intp)
        owner, partner = ends.ravel(), ends[:, ::-1].ravel()
        time, weight = np.repeat(batch.time, 2), np.repeat(batch.weight, 2)
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

    def compute_embeddings(self, nodes: np.ndarray, t: float,
                           state: EncoderState) -> tuple[Tensor, np.ndarray]:
        """Embeddings of the ids in ``nodes``, which may repeat: (z, ids), where
        ``ids = first_seen(nodes)`` and row ``i`` of ``z`` embeds ``ids[i]``."""
        ids = first_seen(nodes)
        hq = self._node_state_matrix(ids, state)
        if not self.config.ablation.use_embedding_layer:
            return hq, ids
        order, sizes, rows = state.history.recent(ids, self.config.neighbor_cap)
        nbr, times, mags = state.history.read(rows)
        uniq, inv = np.unique(nbr, return_inverse=True)
        extras = np.empty((rows.size, 2), dtype=tensor.DTYPE)  # cast once, no float64 copy
        extras[:, 0] = _encode_dt(self.config, t - times)
        extras[:, 1] = mags
        out, _ = self.attn.apply(hq, self._node_state_matrix(uniq, state), inv, extras,
                                 order, sizes)
        return out, ids
