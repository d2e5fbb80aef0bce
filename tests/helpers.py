"""Shared test utilities: finite-difference oracles, tiny model configs,
event logs from rows and messy edge-list files.  A state ingests only the
next events of the log it was made over, so a test builds that log from
every batch it will ingest (:func:`log_of`) and may pass each batch as a
log of its own rows."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

import dysignet.tensor
from dysignet.encoder import AblationConfig
from dysignet.events import EventLog
from dysignet.harness import TrainConfig
from dysignet.heads import TaskKind
from dysignet.tensor import Tensor, backward


@contextmanager
def model_dtype(dtype):
    """Run the model at ``dtype`` inside the block: monkeypatch
    ``dysignet.tensor.DTYPE``, which every array the model makes reads."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dysignet.tensor, "DTYPE", dtype)
        yield


def weighted(out, w):
    """``(out, value, seed)`` for the objective ``(out * w).sum()``: its
    gradient with respect to ``out`` is ``w``."""
    w = np.asarray(w, dtype=np.float64)
    return out, float((out.data * w).sum()), w


def max_grad_error(build, params, eps=1e-5):
    """Worst relative error (absolute near zero) between ``backward(out,
    seed)`` and central differences of ``value`` with respect to every
    parameter.  ``build`` reruns the full forward pass and returns ``(out,
    value, seed)``: the tape's root, a scalar objective of it and the
    objective's gradient with respect to it, as :func:`weighted` or
    ``task_loss`` give them."""
    out, _, seed = build()
    grads = backward(out, seed, leaves=params.tensors())
    worst = 0.0
    for p in params.tensors():
        flat = p.data.ravel()
        for i, x in enumerate(grads[p].ravel()):
            orig = flat[i]
            flat[i] = orig + eps
            up = build()[1]
            flat[i] = orig - eps
            down = build()[1]
            flat[i] = orig
            y = (up - down) / (2 * eps)
            scale = max(abs(x), abs(y))
            if scale >= 1e-7:
                worst = max(worst, abs(x - y) / scale)
    return worst


def pack_rows(seg, n_q):
    """The packed position-major layout of rows that belong to queries
    ``seg[i]``, given in any order.  Each query's rows go last row first,
    as ``HistoryLog.recent`` packs a history newest first.  Returns
    (perm, order, sizes): packed row k is given row ``perm[k]``."""
    seg = np.asarray(seg, dtype=np.intp)
    counts = np.bincount(seg, minlength=n_q)
    live = np.flatnonzero(counts)
    order = live[np.argsort(-counts[live], kind="stable")]
    by_query = [np.flatnonzero(seg == q)[::-1] for q in order]
    sizes = np.array([sum(len(r) > p for r in by_query) for p in range(counts.max(initial=0))],
                     dtype=np.intp)
    perm = np.array([r[p] for p in range(sizes.size) for r in by_query[:sizes[p]]],
                    dtype=np.intp)
    return perm, order, sizes


def attend_segments(attend, n_q, index, extra, seg):
    """Run ``attend(index, extra, order, sizes)``, an attention op or layer
    bound to its other inputs, on rows given with query ids ``seg`` in any
    order: packs them with :func:`pack_rows` and returns (output, weights
    in the given row order)."""
    perm, order, sizes = pack_rows(seg, n_q)
    out, w = attend(np.asarray(index)[perm], np.asarray(extra)[perm], order, sizes)
    weights = np.empty_like(w.data)
    weights[perm] = w.data
    return out, Tensor(weights)


def tiny_config(task=TaskKind.SIGN, ablation="none", **overrides) -> TrainConfig:
    base = dict(
        task=task,
        batch_size=8,
        embedding_dim=8,
        memory_dim=4,
        heads=2,
        neighbor_cap=16,
        time_scale=0.25,
        lr=1e-2,
        max_epochs=2,
        patience=2,
        seed=0,
        ablation=AblationConfig.from_name(ablation),
    )
    base.update(overrides)
    return TrainConfig(**base)


def log_of(events, node_count=None) -> EventLog:
    """An ``EventLog`` holding ``SignedEvent`` rows (or ``(time, src, dst,
    weight)`` tuples) in the given order, with the int32 endpoint columns
    ``parse_csv`` makes; ``node_count`` defaults to the largest id plus one."""
    time, src, dst, weight = np.array(list(events), dtype=np.float64).reshape(-1, 4).T
    if node_count is None:
        node_count = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    return EventLog(time, src.astype(np.int32), dst.astype(np.int32), weight, node_count)


_NUMBERS = ["1", "-2", " 3 ", "2.5", "1e308", "0", "-0.0"]
_FLAWED = ["", " ", "x", "nan", "inf", "-inf", "1e400"]
_IDS = ["1", "2", " 1", "3 ", "7", "007", "a"]  # numeric, as in the SNAP files
_QUOTED = ['"a"', '"b,c"', '"d\ne"', '"4"', '"x""y"', 'q"r']


@st.composite
def edge_list_texts(draw):
    """An ``src,dst,weight,time`` edge list with LF or CRLF line ends, and at
    a drawn rate blank, short, long and flawed rows (empty, unparsable or
    non-finite numbers) and quoted cells, some holding a comma or a
    newline.  Line 1 may be a header or a row whose first cell is quoted
    across two lines."""
    columns = ("src", "dst", "weight", "time")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    flaw, quote = draw(st.sampled_from([0.0, 0.1, 0.5])), draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cell(name):
        if rng.random() < quote:
            return str(rng.choice(_QUOTED)).replace("\n", newline)
        if name in ("src", "dst"):
            return str(rng.choice(_IDS))
        return str(rng.choice(_FLAWED if rng.random() < flaw else _NUMBERS))

    lines = []
    first = rng.random()
    if first < 0.3:
        lines.append(",".join(columns))
    elif first < 0.4:
        lines.append(",".join(['"h' + newline + 'h"'] + [cell(c) for c in columns[1:]]))
    for _ in range(draw(st.integers(0, 40))):
        row = [cell(c) for c in columns]
        kind = rng.random()
        if kind < flaw / 4:
            row = [""] if rng.random() < 0.5 else [" "]
        elif kind < flaw / 2:
            row = row[:int(rng.integers(1, len(row)))]
        elif kind < flaw:
            row += [str(rng.choice(["", "9"])) for _ in range(int(rng.integers(1, 3)))]
        lines.append(",".join(row))
    end = newline if rng.random() < 0.8 else ""
    return newline.join(lines) + end
