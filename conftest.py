"""Session set-up shared by `tests/` and `perfbench/tests/`."""
import gc


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
