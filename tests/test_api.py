"""The package's export list."""

import semifix


def test_every_export_resolves():
    missing = [name for name in semifix.__all__ if not hasattr(semifix, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert semifix.__all__ == sorted(set(semifix.__all__))
