import pytest

import run
import spans
from workloads import WORKLOADS


def _namespaces(program):
    return [program.events, program.harness, program.encoder, program.heads,
            program.encoder.EncoderModel, program.encoder.EncoderState,
            program.heads.PairDecoder, program.layers.Feedforward,
            program.layers.RecurrentCell]


def _snapshot(program):
    return [dict(vars(ns)) for ns in _namespaces(program)]


def test_probes_restore_every_attribute_even_when_the_run_raises(program, small_stream):
    _, path = small_stream("btc-sign", events=1500)
    before = _snapshot(program)
    with pytest.raises(RuntimeError, match="mid-run"):
        with spans.probed(program, spans.Tracer()):
            assert program.harness.backward is not before[1]["backward"]
            program.events.parse_csv(path)
            raise RuntimeError("mid-run")
    assert _snapshot(program) == before


def test_output_watch_restores_score_rows_even_when_the_run_raises(program):
    original = vars(program.heads.PairDecoder)["score_rows"]
    with pytest.raises(RuntimeError):
        with run.Checks().watch_outputs(program):
            assert vars(program.heads.PairDecoder)["score_rows"] is not original
            raise RuntimeError
    assert vars(program.heads.PairDecoder)["score_rows"] is original


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: sum(range(10000))))
    own, total = tracer.self_times(), tracer.total_times()
    assert own["outer"] + own["inner"] == pytest.approx(total["outer"])
    assert 0 <= own["outer"] <= total["outer"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_no_more_than_wall_time(program, small_stream, name):
    workload, path = small_stream(name)
    checks = run.Checks()
    with checks.watch_outputs(program):
        report = run.traced_iteration(program, workload, path, checks, traced=True)
    assert checks.failed == 0 and checks.attempted > 0
    times = {k: v for k, v in report.items() if k.endswith(".s")}
    assert all(v >= 0 for v in times.values()), times
    assert sum(times.values()) <= report["trace.wall_s"]
    assert report["events.parse_csv.rows"] == 3000
    assert report["encoder.compute_embeddings.queries"] > 0
    assert report["tensor.gather_stack.calls"] > 0
    negatives = report["heads.negative_sample.draws"]
    assert (negatives > 0) == (workload.task == "existence")


def test_reported_metrics_match_benchmark_json(program, small_stream):
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload, path = small_stream("dense-history", events=2000)
    layers = run.measure_layers(program, workload, path, 0, run.Checks())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in layers}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
