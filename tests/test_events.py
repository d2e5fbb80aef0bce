import csv
import gzip
import logging
import re
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dysignet.events
from dysignet.events import (
    DataError,
    SignedEvent,
    batches,
    chronological_split,
    compute_stats,
    parse_csv,
)

import oracles
from helpers import edge_list_texts, log_of


def write_rows(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


def test_parse_sorts_by_time(tmp_path):
    path = tmp_path / "d.csv"
    write_rows(path, [("a", "b", 1, 30), ("c", "d", -2, 10), ("b", "c", 3, 20)])
    log = parse_csv(path)
    assert [ev.time for ev in log.events] == [10.0, 20.0, 30.0]
    assert log.node_count == 4
    assert log.events[0] == SignedEvent(10.0, 0, 1, -2.0)  # ids dense by first appearance


def test_parse_drops_zero_weight_rows(tmp_path):
    path = tmp_path / "d.csv"
    write_rows(path, [("a", "b", 1, 1), ("a", "c", 0, 2), ("b", "c", -1, 3)])
    log = parse_csv(path)
    assert len(log) == 2
    assert all(ev.weight != 0 for ev in log.events)


def test_parse_drops_missing_fields_and_bad_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,1,1\na,c,,2\nc,d,2,\nx,y,oops,5\nb,c,-1,3\n")
    log = parse_csv(path)
    assert len(log) == 2


def test_parse_skips_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("SOURCE,TARGET,RATING,TIME\na,b,2,5\n")
    log = parse_csv(path)
    assert len(log) == 1 and log.events[0].weight == 2.0


def test_parse_drops_self_loops_by_default(tmp_path):
    path = tmp_path / "d.csv"
    write_rows(path, [("a", "a", 1, 1), ("a", "b", 1, 2)])
    assert len(parse_csv(path)) == 1


def test_parse_gzip(tmp_path):
    path = tmp_path / "d.csv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("a,b,1,1\nb,c,-4,2\n")
    assert len(parse_csv(path)) == 2


def test_parse_drops_nonfinite_rows(tmp_path, caplog):
    path = tmp_path / "d.csv"
    path.write_text("a,b,1,1\na,c,nan,2\nb,c,-1,inf\nc,d,inf,3\nd,a,2,-inf\nc,a,3,4\n")
    log = parse_csv(path)
    assert [(ev.time, ev.weight) for ev in log.events] == [(1.0, 1.0), (4.0, 3.0)]
    assert "nonfinite=4" in caplog.text


def test_parse_missing_file():
    with pytest.raises(DataError):
        parse_csv("/nonexistent/file.csv")


def test_parse_empty_result(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,0,1\n")
    with pytest.raises(DataError):
        parse_csv(path)


def test_csv_roundtrip_identity(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('alice,bob,1,5\nbob,carol,-2,7\n007,7,3,9\n"x,y",alice,-1.5,11\n')
    log = parse_csv(path)
    out = tmp_path / "canon.csv"
    log.write_csv(out)
    again = parse_csv(out)
    assert again.events == log.events
    assert again.node_count == log.node_count
    assert again.raw_ids.dtype == log.raw_ids.dtype
    assert again.raw_ids.tolist() == ["alice", "bob", "carol", "007", "7", "x,y"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 40))
def test_csv_roundtrip_property(tmp_path_factory, seed, n):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 1e6, size=n))
    events = []
    next_id = 0
    ids = {}
    for t in times:
        u_raw, v_raw = rng.integers(0, 10, size=2)
        if u_raw == v_raw:
            v_raw = (v_raw + 1) % 10
        for raw in (u_raw, v_raw):
            if raw not in ids:
                ids[raw] = next_id
                next_id += 1
        w = float(np.round(rng.normal() * 10, 6)) or 1.0
        events.append(SignedEvent(float(t), ids[u_raw], ids[v_raw], w))
    log = log_of(events, next_id)
    path = tmp_path_factory.mktemp("rt") / "log.csv"
    log.write_csv(path)
    again = parse_csv(path)
    assert again.events == log.events


_COLUMNS = ("time", "src", "dst", "weight")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 60), size=st.integers(1, 9))
def test_columns_roundtrip_and_batches_are_views(tmp_path_factory, seed, n, size):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.choice([rng.uniform(-1e9, 1e9), 0.1, 1e-300, 2.0 ** 60], size=n))
    src = rng.integers(0, 30, size=n)
    dst = (src + rng.integers(1, 30, size=n)) % 30
    weights = rng.choice([-1e-7, 0.1, 3.0, -2.5e15], size=n) * rng.uniform(0.5, 2.0, size=n)
    _, dense = np.unique(np.column_stack([src, dst]).ravel(), return_inverse=True)
    first = np.unique(dense, return_index=True)[1]   # ids by first appearance
    dense = np.argsort(np.argsort(first))[dense]
    log = log_of(np.column_stack([times, dense.reshape(-1, 2), weights]))
    path = tmp_path_factory.mktemp("cols") / "log.csv"
    log.write_csv(path)
    again = parse_csv(path)
    for name in _COLUMNS:  # write_csv -> parse_csv is bitwise on every column
        a, b = getattr(log, name), getattr(again, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    parts = list(batches(again, size))
    for name in _COLUMNS:  # views whose rows concatenate back to the log
        column = getattr(again, name)
        assert all(np.shares_memory(getattr(b, name), column) for b in parts)
        assert np.concatenate([getattr(b, name) for b in parts]).tobytes() == column.tobytes()
    rows = [ev for b in parts for ev in b]
    assert rows == again.events
    for ev in rows:  # rows hold Python numbers, not numpy scalars
        assert isinstance(ev, SignedEvent)
        assert [type(x) for x in ev] == [float, int, int, float]


def test_split_parts_are_views_of_one_log():
    log = _mklog([(i, i % 3, 3 + i % 4, 1 - 2 * (i % 2)) for i in range(40)])
    split = chronological_split(log)
    for part in (split.train, split.val, split.test):
        assert all(np.shares_memory(getattr(part, c), getattr(log, c)) for c in _COLUMNS)
    assert [split.bounds(p) for p in ("train", "val", "test")] == [(0, 28), (28, 34), (34, 40)]
    with pytest.raises(ValueError, match="unknown split"):
        split.bounds("all")


def test_parsed_split_holds_at_most_28_bytes_per_event(tmp_path):
    rng = np.random.default_rng(0)
    n = 20_000
    src = rng.integers(0, 3000, size=n)
    dst = (src + rng.integers(1, 3000, size=n)) % 3000
    path = tmp_path / "big.csv"
    with open(path, "w") as fh:
        fh.write("src,dst,weight,time\n")
        for u, v, w, t in zip(src.tolist(), dst.tolist(), rng.choice([-3, -1, 1, 2, 5], n).tolist(),
                              np.sort(rng.integers(1_300_000_000, 1_450_000_000, n)).tolist()):
            fh.write(f"u{u},u{v},{w},{t}\n")
    tracemalloc.start()
    try:
        split = chronological_split(parse_csv(path))
        with_split = tracemalloc.get_traced_memory()[0]
        events = len(split.log)
        del split
        held = with_split - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events == n
    # two 8-byte and two 4-byte columns plus one 20-byte raw id per node
    # (27.1 bytes per event here); with int64 endpoints it held 35.1, and a
    # list of SignedEvent tuples held 138-219
    assert held / events <= 28, f"{held / events:.1f} bytes per event"


@pytest.mark.parametrize("ids, want", [
    (["5", "-3", "0", "12"], [5, -3, 0, 12]),
    (["-9223372036854775808", "9223372036854775807"], [-2 ** 63, 2 ** 63 - 1]),
    (["007", "7"], None),                        # two nodes, not one
    (["9223372036854775808", "1"], None),        # past int64
    (["-9223372036854775809", "1"], None),
    (["u12", "3"], None),
    (["-0", "1"], None),
    (["+5", "1"], None),
    (["1_000", "1"], None),
], ids=["canonical", "int64-bounds", "leading-zero", "past-int64-max", "past-int64-min",
        "letters", "minus-zero", "plus-sign", "underscore"])
def test_raw_ids_are_int64_only_when_every_id_is_a_canonical_integer(tmp_path, ids, want):
    path = tmp_path / "d.csv"
    # row i joins ids[i] to partner 1000 + i, so dense ids alternate the two
    write_rows(path, [(u, 1000 + t, 1, t) for t, u in enumerate(ids)])
    raw = parse_csv(path).raw_ids
    if want is None:
        assert raw.dtype.kind == "U" and raw.tolist()[::2] == ids
    else:
        assert raw.dtype == np.int64 and raw.tolist()[::2] == want
        assert raw.tolist()[1::2] == list(range(1000, 1000 + len(ids)))


def test_quoted_raw_id_holding_a_newline_stays_a_string(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('"1\n2",3,1,1\n4,5,1,2\n')
    raw = parse_csv(path).raw_ids
    assert raw.dtype.kind == "U" and raw.tolist() == ["1\n2", "3", "4", "5"]


def test_endpoints_are_int32_and_too_many_nodes_is_a_data_error(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    write_rows(path, [(f"a{i}", f"b{i}", 1, i) for i in range(64)])
    log = parse_csv(path)
    assert log.src.dtype == log.dst.dtype == np.int32 and log.node_count == 128
    # the limit is what the id dtype holds: 127 nodes fit int8, 128 do not
    monkeypatch.setattr(dysignet.events, "_NODE_ID", np.int8)
    with pytest.raises(DataError, match="128 nodes, more than dense int8 ids hold"):
        parse_csv(path)
    write_rows(path, [(f"a{i}", f"b{i}", 1, i) for i in range(63)] + [("a0", "c", 1, 63)])
    assert parse_csv(path).src.dtype == np.int8


def test_one_blank_line_per_2000_rows_sends_few_rows_through_the_row_loop(tmp_path,
                                                                          monkeypatch):
    rng = np.random.default_rng(4)
    n = 20_000
    lines = [f"{u},{v},{w},{t}" for u, v, w, t in zip(
        rng.integers(0, 500, n).tolist(), rng.integers(500, 1000, n).tolist(),
        rng.choice([-2, -1, 1, 3], n).tolist(), np.sort(rng.integers(0, 10 ** 6, n)).tolist())]
    clean, blanks = tmp_path / "clean.csv", tmp_path / "blanks.csv"
    clean.write_text("src,dst,weight,time\n" + "\n".join(lines) + "\n")
    blanked = [x for i, line in enumerate(lines) for x in ([""] * (i % 2000 == 1999) + [line])]
    blanks.write_text("src,dst,weight,time\n" + "\n".join(blanked) + "\n")
    rows = dysignet.events._Columns.rows
    looped = []

    def counted(self, records, **kwargs):
        records = list(records)
        looped.append(len(records))
        return rows(self, records, **kwargs)

    monkeypatch.setattr(dysignet.events._Columns, "rows", counted)
    want = parse_csv(clean)
    assert looped == [1]   # the header
    looped.clear()
    got = parse_csv(blanks)
    assert sum(looped) < 0.05 * n, looped
    for name in ("time", "src", "dst", "weight", "raw_ids"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _write_messy_csv(path, rng, n):
    """Rows with every kind of flaw parse_csv filters: blanks, a header,
    short rows, empty or unparsable or non-finite fields, zero weights,
    self-loops, padded ids and tied times."""
    cells = ["", " ", "nan", "inf", "-inf", "x", "0", "-0.0", "1", "-2", " 3 ", "1e308", "2.5"]
    ids = ["a", "b", " a", "c ", "d", "e"]
    lines = ["src,dst,weight,time"] if rng.random() < 0.5 else []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.05:
            lines.append("")
        elif kind < 0.1:
            lines.append(",".join(rng.choice(ids, size=int(rng.integers(1, 4)))))
        else:
            u, v = rng.choice(ids, size=2)
            w = rng.choice(cells) if rng.random() < 0.3 else str(rng.choice([-2, -1, 1, 4]))
            t = rng.choice(cells) if rng.random() < 0.2 else str(int(rng.integers(0, 6)))
            lines.append(",".join([u, v, w, t]))
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(0, 40))
def test_parse_equals_row_by_row_oracle(tmp_path_factory, seed, n):
    path = tmp_path_factory.mktemp("messy") / "d.csv"
    _write_messy_csv(path, np.random.default_rng(seed), n)
    try:
        events, raw_ids, skipped = oracles.parse_rows(path)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            parse_csv(path)
        return
    logger = logging.getLogger("dysignet.events")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        log = parse_csv(path)
    finally:
        logger.removeHandler(handler)
    assert log.events == events
    assert log.raw_ids.dtype == raw_ids.dtype and log.raw_ids.tolist() == raw_ids.tolist()
    assert log.node_count == len(raw_ids)
    counts = ", ".join(f"{k}={v}" for k, v in skipped.items() if v)
    assert [r.getMessage().split("(")[-1] for r in records] == ([counts + ")"] if counts else [])


@contextmanager
def _logged():
    """The records ``dysignet.events`` logs inside the block."""
    logger = logging.getLogger("dysignet.events")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


@settings(max_examples=300, deadline=None)
@given(text=edge_list_texts(), chunk=st.integers(1, 300), gz=st.booleans())
# a long and a short row whose cells add up to whole rows; a row with a
# trailing fifth cell before a whole one
@example(text="1,2,3,4\n1,2,3,4\n1,2,3,4,9\n1,2,3\n", chunk=300, gz=False)
@example(text="1,5,2,3,4\n1,5,2,3\n", chunk=300, gz=False)
def test_chunked_parse_equals_row_by_row_oracle(tmp_path_factory, text, chunk, gz):
    """Chunks of 1 to 300 characters put chunk ends everywhere: inside
    quoted fields, next to blank or flawed rows and at the quote that
    hands the rest of the file to the csv reader."""
    path = tmp_path_factory.mktemp("chunks") / ("d.csv.gz" if gz else "d.csv")
    path.write_bytes(gzip.compress(text.encode()) if gz else text.encode())
    try:
        events, raw_ids, skipped = oracles.parse_rows(path)
        error = None
    except DataError as exc:
        error = str(exc)
    with pytest.MonkeyPatch.context() as patch, _logged() as records:
        patch.setattr(dysignet.events, "_CHUNK_BYTES", chunk)
        if error is not None:
            with pytest.raises(DataError, match=re.escape(error)):
                parse_csv(path)
            return
        log = parse_csv(path)
    assert log.events == events
    assert log.time.tobytes() == np.array([ev.time for ev in events]).tobytes()
    assert log.weight.tobytes() == np.array([ev.weight for ev in events]).tobytes()
    assert log.raw_ids.dtype == raw_ids.dtype and log.raw_ids.tolist() == raw_ids.tolist()
    assert log.node_count == len(raw_ids)
    dropped = sum(skipped.values())
    counts = ", ".join(f"{k}={v}" for k, v in skipped.items() if v)
    assert [r.getMessage() for r in records] == (
        [f"{path.name}: dropped {dropped} rows ({counts})"] if dropped else [])


def test_parse_field_over_csv_limit_is_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,1,1\n" + "x" * (csv.field_size_limit() + 1) + ",b,1,2\n")
    with pytest.raises(DataError, match="field larger than field limit"):
        parse_csv(path)


def test_parse_transient_peak_is_at_most_250_bytes_per_event(tmp_path):
    rng = np.random.default_rng(1)
    n = 200_000
    src = rng.integers(0, 3000, size=n)
    dst = (src + rng.integers(1, 3000, size=n)) % 3000
    weight = rng.choice([-3, -1, 1, 2, 5], n)
    time = np.sort(rng.integers(1_300_000_000, 1_450_000_000, n))
    path = tmp_path / "big.csv"
    path.write_text("src,dst,weight,time\n" + "".join(
        map("u{},u{},{},{}\n".format, src.tolist(), dst.tolist(), weight.tolist(), time.tolist())))
    tracemalloc.start()
    try:
        events = len(parse_csv(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events == n
    # the row-by-row parse held every row's tuple, ``zip(*rows)`` and an
    # object array of raw ids at once: 367 bytes per event here
    assert peak / events <= 250, f"{peak / events:.1f} bytes per event"


def _mklog(rows, n=None):
    return log_of([SignedEvent(float(t), u, v, float(w)) for t, u, v, w in rows], n)


def test_split_floor_arithmetic_10():
    log = _mklog([(i, 0, 1, 1) for i in range(10)])
    split = chronological_split(log)
    assert (len(split.train), len(split.val), len(split.test)) == (7, 1, 2)


def test_split_exact_100():
    log = _mklog([(i, 0, 1, 1) for i in range(100)])
    split = chronological_split(log)
    assert (len(split.train), len(split.val), len(split.test)) == (70, 15, 15)


def test_split_is_chronological_and_partitions():
    rng = np.random.default_rng(0)
    log = _mklog([(t, int(rng.integers(5)), int(rng.integers(5, 9)), 1)
                  for t in sorted(rng.uniform(0, 100, size=37))])
    split = chronological_split(log)
    assert split.train.events + split.val.events + split.test.events == log.events
    assert max(e.time for e in split.train.events) <= min(e.time for e in split.val.events)
    assert max(e.time for e in split.val.events) <= min(e.time for e in split.test.events)


@pytest.mark.parametrize("fractions", [(0.8, -0.1, 0.3), (0.7, 0.3, 0.0), (0.5, 0.2, 0.2)])
def test_split_rejects_nonpositive_or_unsummed_fractions(fractions):
    # (0.8, -0.1, 0.3) sums to 1 but would cut the val part backwards
    log = _mklog([(i, 0, 1, 1) for i in range(100)])
    with pytest.raises(ValueError, match="split fractions must be > 0 and sum to 1"):
        chronological_split(log, fractions)


def test_split_ties_cut_by_index():
    # four events at the same timestamp: the boundary falls inside the tie
    log = _mklog([(1, 0, 1, 1), (5, 1, 2, 1), (5, 2, 3, 1), (5, 3, 4, 1), (5, 4, 5, 1),
                  (6, 0, 2, 1), (7, 0, 3, 1), (8, 0, 4, 1), (9, 0, 5, 1), (9, 1, 3, 1)])
    split = chronological_split(log)
    assert len(split.train) == 7  # ties are not regrouped


def test_split_rejects_empty_parts():
    log = _mklog([(1, 0, 1, 1), (2, 1, 2, 1)])
    with pytest.raises(DataError):
        chronological_split(log)
    with pytest.raises(ValueError):
        chronological_split(_mklog([(i, 0, 1, 1) for i in range(100)]), (0.5, 0.2, 0.2))


def test_batches_slicing():
    log = _mklog([(i, 0, 1, 1) for i in range(2500)])
    sizes = [len(b) for b in batches(log, 1000)]
    assert sizes == [1000, 1000, 500]


def test_batches_single_when_oversized():
    log = _mklog([(i, 0, 1, 1) for i in range(5)])
    out = list(batches(log, 100))
    assert len(out) == 1 and len(out[0]) == 5


def test_batches_partition_law():
    log = _mklog([(i, 0, 1, 1) for i in range(103)])
    rebuilt = [ev for b in batches(log, 10) for ev in b.events]
    assert rebuilt == log.events
    assert [len(b) for b in batches(log, 10)] == [10] * 10 + [3]


def test_batches_reject_bad_size():
    with pytest.raises(ValueError):
        list(batches(_mklog([(1, 0, 1, 1)]), 0))


def test_triangle_sign_table():
    # one triangle per case, signs chosen per the balance rules
    cases = [((1, 1, 1), 0), ((1, 1, -1), 1), ((1, -1, -1), 0), ((-1, -1, -1), 1)]
    for signs, unbalanced in cases:
        edges = {(0, 1): signs[0], (1, 2): signs[1], (0, 2): signs[2]}
        assert oracles.triangle_census(edges) == (1, unbalanced)


def test_stats_all_positive_graph():
    log = _mklog([(1, 0, 1, 2), (2, 1, 2, 1), (3, 0, 2, 5)])
    stats = compute_stats(log)
    assert stats.f_plus == 1.0 and stats.f_ub == 0.0 and stats.has_triangles


def test_stats_no_triangles_flagged():
    log = _mklog([(1, 0, 1, 1), (2, 1, 2, -1)])
    stats = compute_stats(log)
    assert not stats.has_triangles and stats.f_ub == 0.0


def test_stats_triangles_match_triple_enumeration():
    rng = np.random.default_rng(3)
    rows = []
    t = 0
    for u in range(5):
        for v in range(u + 1, 5):
            if rng.random() < 0.8:
                t += 1
                rows.append((t, u, v, float(rng.choice([-3, -1, 1, 2]))))
    log = _mklog(rows, n=5)
    stats = compute_stats(log)

    edges = oracles.collapse_undirected(log.events)
    total = unbalanced = 0
    for a in range(5):
        for b in range(a + 1, 5):
            for c in range(b + 1, 5):
                tri = [(a, b), (b, c), (a, c)]
                if all(e in edges for e in tri):
                    total += 1
                    if np.prod([np.sign(edges[e]) for e in tri]) < 0:
                        unbalanced += 1
    assert stats.triangle_count == total
    assert stats.unbalanced_triangle_count == unbalanced
    assert stats.f_ub == pytest.approx(unbalanced / total)


def test_stats_collapse_uses_latest_sign():
    log = _mklog([(1, 0, 1, 5), (2, 1, 0, -3), (3, 2, 0, 1), (4, 1, 2, 1)])
    # undirected pair {0,1} resolves to the later event's sign (-3)
    und = oracles.collapse_undirected(log.events)
    assert und[(0, 1)] == -3.0
    stats = compute_stats(log)
    assert stats.link_count == 3
    assert stats.directed_pair_count == 4
    assert stats.f_plus == pytest.approx(3 / 4)


def test_collapse_idempotent():
    rng = np.random.default_rng(4)
    rows = [(t, int(rng.integers(6)), int(rng.integers(6, 12)), float(rng.choice([-1, 1])))
            for t in range(40)]
    log = _mklog(rows)
    once = oracles.collapse_undirected(log.events)
    again = oracles.collapse_undirected(
        SignedEvent(float(i), u, v, w) for i, ((u, v), w) in enumerate(once.items()))
    assert once == again
    directed = oracles.collapse_directed(log.events)
    assert oracles.collapse_directed(
        SignedEvent(float(i), u, v, w) for i, ((u, v), w) in enumerate(directed.items())
    ) == directed


def test_stats_day_span():
    log = _mklog([(0, 0, 1, 1), (86400 * 10 + 30000, 1, 2, 1)])
    stats = compute_stats(log)
    assert stats.days == 10
    assert stats.span_seconds == pytest.approx(86400 * 10 + 30000)


def test_stats_empty_rejected():
    with pytest.raises(DataError):
        compute_stats(log_of([], 0))


def test_stats_refuse_a_self_loop():
    # the neighbour sets of a self-loop's node hold the node itself, so
    # next to the link 0-1 the loop 0-0 was counted as a triangle
    log = _mklog([(1, 0, 1, 1), (2, 0, 0, 1)])
    with pytest.raises(DataError, match="self-loop at event 1"):
        compute_stats(log)


@st.composite
def signed_streams(draw):
    """Time-ordered signed events over a few nodes, so that directed pairs
    repeat, reciprocal pairs meet with either sign and links share many
    endpoints; times tie, ids below ``node_count`` may have no event, and
    the signs may all be negative."""
    nodes, n = draw(st.integers(2, 9)), draw(st.integers(1, 60))
    times = sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    ends = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(1, nodes - 1)),
                         min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from([-3.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                            min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = [-abs(w) for w in weights]
    rows = [(t, u, (u + k) % nodes, w) for t, (u, k), w in zip(times, ends, weights)]
    return _mklog(rows, nodes + draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(log=signed_streams())
@example(log=_mklog([(1, 0, 1, 1), (1, 1, 0, -1), (1, 1, 2, 1), (2, 2, 0, 1), (3, 0, 1, 2)]))
@example(log=_mklog([(5, 3, 1, -1)], 6))
def test_stats_equal_the_oracle_on_drawn_streams(log):
    assert compute_stats(log).to_dict() == oracles.compute_stats(log).to_dict()


@pytest.fixture(scope="module")
def flipped_bench_logs(tmp_path_factory):
    """The three bench streams (stream seed 11) with 5% of their signs
    flipped, generated, written and parsed as ``scripts/fingerprint.py``
    does.  Every bench stream is balanced, so these are the only inputs
    here with unbalanced triangles at scale."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from stream import generate, write_csv
    from workloads import WORKLOADS

    rng = np.random.default_rng(11)
    logs = {}
    for name, workload in WORKLOADS.items():
        rows = generate(workload.stream, 11)
        rows[rng.random(len(rows)) < 0.05, 2] *= -1
        path = tmp_path_factory.mktemp("bench") / f"{name}.csv"
        write_csv(rows, path)
        logs[name] = parse_csv(path)
    return logs


@pytest.mark.parametrize("name", ["btc-sign", "dense-history", "wide-cold"])
def test_stats_equal_the_oracle_on_flipped_bench_streams(flipped_bench_logs, name):
    log = flipped_bench_logs[name]
    stats = compute_stats(log).to_dict()
    assert stats == oracles.compute_stats(log).to_dict()
    assert stats["unbalanced_triangles"] > 0


def test_stats_peak_is_at_most_the_oracles(flipped_bench_logs):
    # wedges go in blocks of at most one per link; made all at once, they
    # peaked at 26 MB on this stream against the oracle's 8.2 MB
    log = flipped_bench_logs["dense-history"]
    peaks = []
    for stats in (compute_stats, oracles.compute_stats):
        tracemalloc.start()
        try:
            stats(log)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], f"{peaks[0] / 1e6:.1f} MB, the oracle {peaks[1] / 1e6:.1f} MB"
