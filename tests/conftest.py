"""Suite-wide pytest hooks and fixtures."""
import multiprocessing
import resource
import tracemalloc

import pytest


def pytest_collection_modifyitems(config, items):
    """Run the tests marked `slow` after all the others.

    Criterion 6 trains PPO for tens of minutes; run first, it would hold back
    every other result, and an interrupted run would report almost nothing.
    The sort is stable, so the order within each group is unchanged.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when a test left a child process running."""
    leaked = multiprocessing.active_children()
    if leaked:
        pids = ", ".join(str(child.pid) for child in leaked)
        writer = session.config.get_terminal_writer()
        writer.line()
        writer.line(f"child processes left running: {pids}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def traced_peak():
    """A function that runs fn(*args, **kwargs) under tracemalloc and returns
    (its result, the peak bytes allocated above what was live at the start);
    numpy arrays count, as numpy reports its buffers to tracemalloc."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return result, peak
    return run


@pytest.fixture
def minor_faults():
    """A function that runs fn(*args, **kwargs) and returns (its result, the
    minor page faults this process took meanwhile, from `ru_minflt`)."""
    def run(fn, *args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = fn(*args, **kwargs)
        return result, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return run
