"""Named parameter registry with Adam state and bit-exact checkpoints.

Parameters and both Adam moments are ``tensor.DTYPE``.  A checkpoint
stores every array as little-endian float64, which holds a float32 value
exactly, so a round trip keeps the bits at either width; ``load`` casts to
``tensor.DTYPE``.  A checkpoint may also record the run it came from
(``meta``, string to string), for callers to check on load."""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from . import tensor
from .tensor import Tensor

CHECKPOINT_FORMAT = "dysignet-params"
CHECKPOINT_VERSION = 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericError(RuntimeError):
    """Optimization produced a non-finite value."""


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


class ParameterSet:
    """Flat map of named weight tensors plus per-parameter Adam moments."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0
        self.meta: dict[str, str] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(value, dtype=tensor.DTYPE), requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def tensors(self):
        return list(self._params.values())

    def items(self):
        return self._params.items()

    def moments(self, name: str):
        return self._m[name], self._v[name]

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            missing = set(self._params) - set(values)
            extra = set(values) - set(self._params)
            raise ValueError(f"parameter name mismatch (missing={missing}, extra={extra})")
        for name, arr in values.items():
            t = self._params[name]
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data[...] = arr

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.step).encode())
        for name in sorted(self._params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self._params[name].data).tobytes())
            h.update(np.ascontiguousarray(self._m[name]).tobytes())
            h.update(np.ascontiguousarray(self._v[name]).tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        doc = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "step": self.step,
            "params": {},
        }
        for name, t in self._params.items():
            doc["params"][name] = {
                "shape": list(t.data.shape),
                "data": _encode(t.data),
                "m": _encode(self._m[name]),
                "v": _encode(self._v[name]),
            }
        if self.meta:
            doc["meta"] = self.meta
        Path(path).write_text(json.dumps(doc))

    @classmethod
    def load(cls, path) -> "ParameterSet":
        """Read a checkpoint written by :meth:`save`.  Raises ValueError
        naming ``path`` when it is missing, malformed or non-finite."""
        try:
            doc = json.loads(Path(path).read_text())
            if (doc.get("format"), doc.get("version")) != (CHECKPOINT_FORMAT, CHECKPOINT_VERSION):
                raise ValueError(f"not a version-{CHECKPOINT_VERSION} parameter checkpoint")
            ps = cls()
            ps.step = int(doc["step"])
            ps.meta = doc.get("meta", {})
            if not all(isinstance(x, str) for item in ps.meta.items() for x in item):
                raise ValueError("meta must map strings to strings")
            for name, entry in doc["params"].items():
                shape = tuple(entry["shape"])
                with np.errstate(over="ignore"):   # overflow fails the check below
                    data, m, v = (_decode(entry[k], shape).astype(tensor.DTYPE)
                                  for k in ("data", "m", "v"))
                if not all(np.isfinite(a).all() for a in (data, m, v)):
                    raise ValueError(f"non-finite values in parameter {name!r}")
                ps.add(name, data)
                ps._m[name], ps._v[name] = m, v
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: bad checkpoint: {exc}") from None
        return ps


def adam_step(params: ParameterSet, grads, lr: float) -> None:
    """One in-place Adam update.  ``grads`` maps parameter tensor -> array."""
    params.step += 1
    t = params.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            raise ValueError(f"gradient map is missing parameter {name!r}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = params._m[name]
        v = params._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
