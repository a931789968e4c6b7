"""The package's export list names only what the package holds, once each."""

import collections

import sympulse


def test_every_export_resolves():
    missing = [name for name in sympulse.__all__ if not hasattr(sympulse, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    counts = collections.Counter(sympulse.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
