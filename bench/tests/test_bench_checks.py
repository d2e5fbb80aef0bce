import numpy as np

import run
import spans


def _setup(program, small_stream, name):
    workload, path = small_stream(name, events=2500)
    config = run.train_config(program, workload)
    _, split = run.set_up(program, path, config)
    return config, split


def test_clean_run_has_no_failures(program, small_stream):
    config, split = _setup(program, small_stream, "dense-history")
    checks = run.Checks()
    with checks.watch_outputs(program):
        out = run.iterate(program, config, split, checks)
    assert out and checks.failed == 0
    batches = sum(-(-len(part) // run.BATCH_SIZE) for part in (split.train, split.val, split.test))
    assert checks.attempted == batches


def test_injected_causality_violation_counts_as_failed(program, small_stream):
    config, split = _setup(program, small_stream, "btc-sign")
    process_batch = vars(program.encoder.EncoderModel)["process_batch"]
    true_watermark = {}

    def leaky(model, batch_events, state):
        # Ingest against the true watermark, then claim to have seen the
        # future, so the next batch is scored against a "later" state.
        state.watermark = true_watermark.get(id(state), state.watermark)
        process_batch(model, batch_events, state)
        true_watermark[id(state)] = state.watermark
        state.watermark += 1e9

    checks = run.Checks()
    with spans.patched(program.encoder.EncoderModel, "process_batch", leaky):
        out = run.iterate(program, config, split, checks)
    assert out and checks.failed >= 1
    assert any("causality" in why for why in checks.problems)


def test_injected_non_finite_output_counts_as_failed(program, small_stream):
    config, split = _setup(program, small_stream, "btc-sign")
    score_rows = vars(program.heads.PairDecoder)["score_rows"]

    def poisoned(decoder, z, index, pairs):
        out = score_rows(decoder, z, index, pairs)
        out.data[0] = np.nan
        return out

    checks = run.Checks()
    with spans.patched(program.heads.PairDecoder, "score_rows", poisoned):
        with checks.watch_outputs(program):
            out = run.iterate(program, config, split, checks)
    assert out == {}          # training stops at the NaN loss
    assert checks.failed == 1 and checks.attempted == 1


def test_broken_eval_report_counts_each_check(program):
    from types import SimpleNamespace

    existence = program.heads.TaskKind.EXISTENCE
    report = SimpleNamespace(causality_violations=2, params_frozen=False, n_real=9,
                             n_negative=8, metrics={"auroc": float("nan")})
    checks = run.Checks()
    checks.check_eval(report, existence, n_test=10)
    assert checks.failed == 2 + 1 + 1 + 1 + 1


def test_out_of_order_batch_counts_as_failed(program, small_stream):
    config, split = _setup(program, small_stream, "btc-sign")
    process_batch = vars(program.encoder.EncoderModel)["process_batch"]

    def ahead(model, batch_events, state):
        process_batch(model, batch_events, state)
        state.watermark += 1e9

    checks = run.Checks()
    with spans.patched(program.encoder.EncoderModel, "process_batch", ahead):
        assert run.iterate(program, config, split, checks) == {}
    assert checks.failed == 1
    assert "out-of-order" in checks.problems[0]
