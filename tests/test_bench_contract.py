"""The parshin names that the benchmark's tracer and cube probe reach into.

``perfbench/tracing.py`` wraps functions and methods by name, and the
``cube_n2`` probe builds kernel atoms by hand; a rename or deletion of any of
them breaks the traced run and the probe without failing another test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from parshin import opalg
from parshin.matrices import matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for module_name, fn_name in tracing.FUNCTIONS:
        module = importlib.import_module(f"parshin.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for module_name, class_name, method, is_static in tracing.METHODS:
        cls = getattr(importlib.import_module(f"parshin.{module_name}"), class_name)
        raw = inspect.getattr_static(cls, method)
        assert isinstance(raw, staticmethod) == is_static, f"{class_name}.{method}"


def test_cube_probe_names_resolve():
    weight = opalg.WeightPoly.make(2, {(1, 0): 2, (0, 0): -1})
    atom = opalg.KernelAtom((1, 0), matrix([[1]]), weight, opalg.Box.of([(0, 3), (None, 2)]))
    op = opalg.LatticeOperator.make(2, 1, [atom])
    assert op.atoms == (atom,)
    assert not op.is_zero()
