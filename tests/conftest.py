"""Shared pytest hooks."""

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    """Mark the tests that need the acceptance battery ``battery`` and run
    them after every other test.

    The battery takes most of the suite's time, so every other test reports
    before it starts, and ``-m "not battery"`` runs everything else. The sort
    is stable: each part keeps its own order. The hook runs before ``-m``
    deselects, so the marker can select.
    """
    for item in items:
        if "battery" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.battery)
    items.sort(key=lambda item: item.get_closest_marker("battery") is not None)
