import json
from pathlib import Path

import numpy as np
import pytest

import dysignet.tensor as T
from dysignet.harness import build_model
from dysignet.params import NumericError, ParameterSet, _decode, _encode, adam_step

from helpers import tiny_config

# Written at float64 from build_model(tiny_config()).params after one Adam
# step on standard-normal gradients (generator seed 0) at lr 1e-2.
FLOAT64_CHECKPOINT = Path(__file__).parent / "data" / "params_v1_float64.json"


def _single(value):
    ps = ParameterSet()
    p = ps.add("p", np.asarray(value, dtype=float))
    return ps, p


def test_zero_gradients_leave_everything_unchanged():
    ps, p = _single([1.0, -2.0, 3.0])
    before = p.data.copy()
    adam_step(ps, {p: np.zeros(3)}, lr=0.1)
    assert np.array_equal(p.data, before)
    m, v = ps.moments("p")
    assert np.all(m == 0.0) and np.all(v == 0.0)
    assert ps.step == 1


@pytest.mark.usefixtures("float64")
def test_first_step_matches_hand_evaluation():
    ps, p = _single([1.0, -2.0])
    g = np.array([0.5, -0.25])
    adam_step(ps, {p: g}, lr=0.1)
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.abs(p.data - expected).max() < 1e-12


def test_quadratic_loss_decreases_monotonically():
    ps, p = _single([5.0])
    losses = [float(p.data[0] ** 2)]
    for _ in range(2):
        adam_step(ps, {p: 2.0 * p.data}, lr=0.05)
        losses.append(float(p.data[0] ** 2))
    assert losses[0] > losses[1] > losses[2]


def test_nan_gradient_aborts_naming_parameter():
    ps, p = _single([1.0])
    with pytest.raises(NumericError, match="'p'"):
        adam_step(ps, {p: np.array([np.nan])}, lr=0.1)


def test_missing_gradient_rejected():
    ps, p = _single([1.0])
    with pytest.raises(ValueError, match="missing"):
        adam_step(ps, {}, lr=0.1)


def test_duplicate_name_rejected():
    ps, _ = _single([1.0])
    with pytest.raises(ValueError):
        ps.add("p", np.ones(2))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ps = ParameterSet()
    a = ps.add("layer.w", rng.normal(size=(3, 4)) * 1e-7)
    b = ps.add("layer.b", rng.normal(size=4) * 1e9)
    adam_step(ps, {a: rng.normal(size=(3, 4)), b: rng.normal(size=4)}, lr=0.37)
    path = tmp_path / "ckpt.json"
    ps.save(path)
    loaded = ParameterSet.load(path)
    assert loaded.step == ps.step
    assert loaded.names() == ps.names()
    for name in ps.names():
        assert np.array_equal(loaded[name].data, ps[name].data)
        for got, want in zip(loaded.moments(name), ps.moments(name)):
            assert np.array_equal(got, want)
    assert loaded.checksum() == ps.checksum()


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        ParameterSet.load(path)


def test_checksum_sensitive_to_values():
    ps, p = _single([1.0, 2.0])
    before = ps.checksum()
    p.data[0] = 1.5
    assert ps.checksum() != before


def test_load_values_shape_mismatch():
    ps, _ = _single([1.0, 2.0])
    with pytest.raises(ValueError):
        ps.load_values({"p": np.zeros(3)})
    with pytest.raises(ValueError):
        ps.load_values({"q": np.zeros(2)})


def test_float64_checkpoint_loads_cast_to_the_model_dtype():
    loaded = ParameterSet.load(FLOAT64_CHECKPOINT)
    doc = json.loads(FLOAT64_CHECKPOINT.read_text())
    assert loaded.step == 1 and loaded.meta == {}
    assert loaded.names() == list(doc["params"])
    for name, entry in doc["params"].items():
        arrays = (loaded[name].data, *loaded.moments(name))
        for key, got in zip(("data", "m", "v"), arrays):
            want = _decode(entry[key], entry["shape"]).astype(T.DTYPE)
            assert got.dtype == T.DTYPE and got.tobytes() == want.tobytes(), (name, key)
    build_model(tiny_config()).params.load_values(loaded.copy_values())


@pytest.mark.usefixtures("float64")
def test_float64_checkpoint_round_trips_byte_for_byte(tmp_path):
    path = tmp_path / "again.json"
    ParameterSet.load(FLOAT64_CHECKPOINT).save(path)
    assert path.read_bytes() == FLOAT64_CHECKPOINT.read_bytes()


@pytest.mark.usefixtures("float64")
def test_float64_checkpoint_is_rebuilt_from_a_fresh_model():
    # rebuilding the fixture as its comment says pins every parameter's
    # name, registration order and initial draw, which old checkpoints need
    params = build_model(tiny_config()).params
    rng = np.random.default_rng(0)
    adam_step(params, {p: rng.standard_normal(p.data.shape) for p in params.tensors()}, lr=1e-2)
    doc = json.loads(FLOAT64_CHECKPOINT.read_text())
    assert params.names() == list(doc["params"])
    for name, entry in doc["params"].items():
        assert params[name].data.tobytes() == _decode(entry["data"], entry["shape"]).tobytes(), name


def test_checkpoint_value_beyond_float32_is_rejected(tmp_path):
    # 1e39 is finite at float64, the checkpoint's width, and inf once cast
    path = tmp_path / "ckpt.json"
    doc = json.loads(FLOAT64_CHECKPOINT.read_text())
    entry = next(iter(doc["params"].values()))
    entry["v"] = _encode(np.full(entry["shape"], 1e39))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="non-finite"):
        ParameterSet.load(path)


def test_checkpoint_records_meta(tmp_path):
    ps, _ = _single([1.0])
    ps.meta = {"task": "sign", "ablation": "ba"}
    path = tmp_path / "ckpt.json"
    ps.save(path)
    assert ParameterSet.load(path).meta == ps.meta
    doc = json.loads(path.read_text())
    for bad in ([], {"task": 1}):
        doc["meta"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bad checkpoint"):
            ParameterSet.load(path)
