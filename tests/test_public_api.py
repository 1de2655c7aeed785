"""The package's public names: ``parshin.__all__`` lists what it exports.

A deleted or renamed export cannot stay listed: every name must resolve,
and the list holds each name once, in sorted order.  Some names load their
module on first use, so they are also checked in a new interpreter, where
nothing has loaded them yet.
"""

import pytest

import parshin


def test_every_exported_name_resolves():
    missing = [name for name in parshin.__all__ if not hasattr(parshin, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(parshin.__all__)) == len(parshin.__all__)


def test_exports_are_sorted():
    assert parshin.__all__ == sorted(parshin.__all__)


# run where nothing is imported yet: the chain type and the seeded checks
# load on first use, through the package's __getattr__
LAZY_EXPORTS = """
import importlib, sys
import parshin

lazy = ("parshin.chains", "parshin.sampling", "parshin.verify")
assert not any(name in sys.modules for name in lazy)
assert set(parshin.__all__) <= set(dir(parshin))
star = {}
exec("from parshin import *", star)
assert set(parshin.__all__) <= set(star)
assert all(getattr(parshin, name) is star[name] for name in parshin.__all__)
for name in lazy:
    assert getattr(parshin, name.split(".")[1]) is sys.modules[name]
assert parshin.TensorChain is parshin.chains.TensorChain
assert parshin.verify_cocycle is parshin.verify.verify_cocycle
assert parshin.operator_vs_closed_form is parshin.verify.operator_vs_closed_form
import parshin.residue
import parshin.verify
assert parshin.residue is importlib.import_module("parshin.residue").residue
"""


def test_lazy_exports_resolve_in_a_fresh_interpreter(fresh_python):
    run = fresh_python("-c", LAZY_EXPORTS)
    assert run.returncode == 0, run.stderr


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        parshin.no_such_name
    assert not hasattr(parshin, "verify_cocycles")
