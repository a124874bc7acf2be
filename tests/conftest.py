"""Suite-wide pytest hooks."""
import multiprocessing

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
