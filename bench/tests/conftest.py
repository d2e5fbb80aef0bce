"""Make the benchmark's modules importable as top-level names, as they are
when ``bench/run.py`` runs as a script."""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def program():
    import run

    return run.load_program()


@pytest.fixture
def small_stream(tmp_path):
    """Writes a short stream of a workload; returns (workload, csv path)."""
    from stream import generate, write_csv
    from workloads import WORKLOADS

    def make(name, seed=1, events=3000):
        workload = WORKLOADS[name]
        workload = dataclasses.replace(
            workload, stream=dataclasses.replace(workload.stream, events=events))
        path = tmp_path / f"{name}-{seed}.csv"
        write_csv(generate(workload.stream, seed), path)
        return workload, path

    return make
