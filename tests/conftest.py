"""Shared pytest hooks."""


def pytest_collection_modifyitems(items):
    """Run the tests that need the acceptance battery after every other test.

    The battery takes most of the suite's time, so every other test reports
    before it starts. The sort is stable: each part keeps its own order.
    """
    items.sort(key=lambda item: "battery" in getattr(item, "fixturenames", ()))
