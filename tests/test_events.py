import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysignet.events import (
    DataError,
    EventLog,
    SignedEvent,
    batches,
    chronological_split,
    collapse_directed,
    collapse_undirected,
    compute_stats,
    parse_csv,
    triangle_census,
)


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


def test_parse_strict_mode_aborts(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,1,1\na,c,,2\n")
    with pytest.raises(DataError):
        parse_csv(path, strict=True)


def test_parse_skips_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("SOURCE,TARGET,RATING,TIME\na,b,2,5\n")
    log = parse_csv(path)
    assert len(log) == 1 and log.events[0].weight == 2.0


def test_parse_drops_self_loops_by_default(tmp_path):
    path = tmp_path / "d.csv"
    write_rows(path, [("a", "a", 1, 1), ("a", "b", 1, 2)])
    assert len(parse_csv(path)) == 1
    assert len(parse_csv(path, keep_self_loops=True)) == 2


def test_parse_column_order_and_delimiter(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("5\t1\tx\ty\n")
    log = parse_csv(path, columns=("time", "weight", "src", "dst"), delimiter="\t")
    assert log.events[0] == SignedEvent(5.0, 0, 1, 1.0)


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
    with pytest.raises(DataError):
        parse_csv(path, strict=True)


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
    write_rows(path, [("a", "b", 1.5, 30), ("c", "d", -2.25, 10), ("b", "c", 3, 20)])
    log = parse_csv(path)
    out = tmp_path / "canon.csv"
    log.write_csv(out)
    again = parse_csv(out)
    assert again.events == log.events
    assert again.node_count == log.node_count


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
    log = EventLog(events, next_id)
    path = tmp_path_factory.mktemp("rt") / "log.csv"
    log.write_csv(path)
    again = parse_csv(path)
    assert again.events == log.events


def _mklog(rows, n=None):
    events = [SignedEvent(float(t), u, v, float(w)) for t, u, v, w in rows]
    nodes = {x for ev in events for x in (ev.src, ev.dst)}
    return EventLog(events, n if n is not None else max(nodes) + 1)


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
    idx = [b.index for b in batches(log, 10)]
    assert idx == list(range(11))


def test_batches_reject_bad_size():
    with pytest.raises(ValueError):
        list(batches(_mklog([(1, 0, 1, 1)]), 0))


def test_triangle_sign_table():
    # one triangle per case, signs chosen per the balance rules
    cases = [((1, 1, 1), 0), ((1, 1, -1), 1), ((1, -1, -1), 0), ((-1, -1, -1), 1)]
    for signs, unbalanced in cases:
        edges = {(0, 1): signs[0], (1, 2): signs[1], (0, 2): signs[2]}
        assert triangle_census(edges) == (1, unbalanced)


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

    edges = collapse_undirected(log.events)
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
    und = collapse_undirected(log.events)
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
    once = collapse_undirected(log.events)
    again = collapse_undirected(
        SignedEvent(float(i), u, v, w) for i, ((u, v), w) in enumerate(once.items()))
    assert once == again
    directed = collapse_directed(log.events)
    assert collapse_directed(
        SignedEvent(float(i), u, v, w) for i, ((u, v), w) in enumerate(directed.items())
    ) == directed


def test_stats_day_span():
    log = _mklog([(0, 0, 1, 1), (86400 * 10 + 30000, 1, 2, 1)])
    stats = compute_stats(log)
    assert stats.days == 10
    assert stats.span_seconds == pytest.approx(86400 * 10 + 30000)


def test_stats_empty_rejected():
    with pytest.raises(DataError):
        compute_stats(EventLog([], 0))
