import os
import threading

# Single-threaded BLAS keeps kernel calls deterministic and makes the
# task-parallel speedup measurements meaningful; must be set before the
# first numpy import.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def bounded():
    """Runs ``fn()`` in a thread joined with a timeout, failing the test if it
    is still running then; returns fn's result, or the exception it raised."""

    def call(fn, timeout=60):
        outcome = []

        def target():
            try:
                outcome.append(fn())
            except Exception as exc:  # noqa: BLE001 - handed to the test
                outcome.append(exc)

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout)
        assert not runner.is_alive(), f"still running after {timeout} s"
        return outcome[0]

    return call


def find_one(graph, label):
    """The one task of a TaskGraph with this label; KeyError if none or several."""
    hits = [t for t in graph.tasks if t.label == label]
    if len(hits) != 1:
        raise KeyError(f"{len(hits)} tasks labeled {label!r}")
    return hits[0]
