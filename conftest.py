"""Session set-up shared by `tests/` and `perfbench/tests/`."""
import gc
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")


def pytest_configure(config):
    # Both suites test this checkout's source. The CLI runs OpenBLAS on one
    # thread, and so do the tests that call the library directly.
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from hiercl.numerics import single_thread_blas

    single_thread_blas()


def pytest_collection_finish(session):
    # Collecting imports Hypothesis and every test module: about 49,000
    # long-lived objects, which make each full garbage collection take tens
    # of milliseconds. The benchmark harness collects before every command
    # and leaves that time out of the command's share, so its one-second
    # runs in `perfbench/tests` would see every step fall behind. Freezing
    # the objects that exist after collection keeps them out of every
    # later collection.
    gc.collect()
    gc.freeze()
