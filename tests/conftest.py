"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from helpers import model_dtype


@pytest.fixture
def float64():
    """Run the model at float64.  Every array the model makes reads
    ``tensor.DTYPE`` when it is made, so finite-difference gradchecks and
    bitwise comparisons with the per-event oracles check the same code as
    the float32 runs, at double precision."""
    with model_dtype(np.float64):
        yield
