import dataclasses

import numpy as np
import pytest

from stream import describe, generate, write_csv
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream_other_seed_other_stream(name):
    shape = WORKLOADS[name].stream
    first = generate(shape, 7)
    assert np.array_equal(first, generate(shape, 7))
    assert not np.array_equal(first, generate(shape, 8))


def test_stream_shape_is_signed_integer_and_time_sorted():
    rows = generate(WORKLOADS["btc-sign"].stream, 3)
    src, dst, weight, time = rows.T
    assert rows.shape == (WORKLOADS["btc-sign"].stream.events, 4)
    assert np.all(src != dst)
    assert np.all(np.diff(time) >= 0)
    assert set(np.unique(np.abs(weight))) <= set(range(1, 11))
    shape = describe(rows)
    assert 0.85 < shape["positive_share"] < 0.97
    assert shape["tied_time_share"] > 0.1
    assert shape["top1pct_degree_share"] > 0.1


def test_program_parses_the_written_stream(tmp_path, program):
    shape = dataclasses.replace(WORKLOADS["btc-sign"].stream, events=500)
    rows = generate(shape, 1)
    path = tmp_path / "s.csv"
    write_csv(rows, path)
    log = program.events.parse_csv(path)
    assert len(log) == 500
    assert log.node_count == describe(rows)["nodes_seen"]
    assert [ev.weight for ev in log.events] == rows[:, 2].tolist()
