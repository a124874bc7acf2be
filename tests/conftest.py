"""Suite-wide pytest hooks."""


def pytest_collection_modifyitems(config, items):
    """Run the tests marked `slow` after all the others.

    Criterion 6 trains PPO for tens of minutes; run first, it would hold back
    every other result, and an interrupted run would report almost nothing.
    The sort is stable, so the order within each group is unchanged.
    """
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
