"""The package's public names: ``parshin.__all__`` lists what it exports.

A deleted or renamed export cannot stay listed: every name must resolve,
and the list holds each name once, in sorted order.
"""

import parshin


def test_every_exported_name_resolves():
    missing = [name for name in parshin.__all__ if not hasattr(parshin, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(parshin.__all__)) == len(parshin.__all__)


def test_exports_are_sorted():
    assert parshin.__all__ == sorted(parshin.__all__)
