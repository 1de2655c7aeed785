"""The parshin names and figures that the benchmark's tracer and checks rely on.

``perfbench/tracing.py`` wraps functions and methods by name, and the
``cube_n2`` probe builds kernel atoms by hand; a rename or deletion of any of
them breaks the traced run and the probe without failing another test.  The
``cube_n2`` check also counts the identities the cube battery records, so an
edit that adds or drops one fails the benchmark before it fails here.  The
traced ``cube.*`` spans read 0 if the battery stops calling a wrapped
function, so one battery run must reach every one of them.  The tracer also
looks up every module it wraps in ``sys.modules``, so ``import parshin,
parshin.cli`` must load each of them.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from parshin import cube, opalg, verify
from parshin.matrices import matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_perfbench("tracing")
    for module_name, fn_name in tracing.FUNCTIONS:
        module = importlib.import_module(f"parshin.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for module_name, class_name, method, is_static in tracing.METHODS:
        cls = getattr(importlib.import_module(f"parshin.{module_name}"), class_name)
        raw = inspect.getattr_static(cls, method)
        assert isinstance(raw, staticmethod) == is_static, f"{class_name}.{method}"


# snapshots of the parshin modules loaded: after the imports the runner
# makes, after one residue, and after one cocycle
LOADED_MODULES = """
import contextlib, io, json, sys
import parshin, parshin.cli

snapshots = [sorted(m for m in sys.modules if m.split(".")[0] == "parshin")]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["residue", "--form", "t1^-1*t2^-1 ; t1 ; t2", "--json"],
                 ["cocycle", "--input", sys.argv[1], "--json"]):
        assert parshin.cli.main(argv) == 0, argv
        snapshots.append(sorted(m for m in sys.modules if m.split(".")[0] == "parshin"))
print(json.dumps(snapshots))
"""


def test_a_command_loads_only_what_it_runs(tmp_path, fresh_python):
    # the tracer looks up every module it wraps in sys.modules, before a
    # residue run has loaded anything beyond these imports
    tracing = _load_perfbench("tracing")
    traced = {f"parshin.{entry[0]}" for entry in tracing.FUNCTIONS + tracing.METHODS}
    chain = tmp_path / "chain.json"
    chain.write_text('{"n": 1, "algebra": "scalar", "terms": [{"factors": [{"exp": [-1]}, {"exp": [1]}]}]}')
    run = fresh_python("-c", LOADED_MODULES, str(chain))
    assert run.returncode == 0, run.stderr
    imported, after_residue, after_cocycle = map(set, json.loads(run.stdout))
    assert traced <= imported
    assert not after_residue & {"parshin.chains", "parshin.sampling", "parshin.verify"}
    assert "parshin.chains" in after_cocycle
    assert not after_cocycle & {"parshin.sampling", "parshin.verify"}


def test_cube_probe_names_resolve():
    weight = opalg.WeightPoly.make(2, {(1, 0): 2, (0, 0): -1})
    atom = opalg.KernelAtom((1, 0), matrix([[1]]), weight, opalg.Box.of([(0, 3), (None, 2)]))
    op = opalg.LatticeOperator.make(2, 1, [atom])
    assert op.atoms == (atom,)
    assert not op.is_zero()


def test_cube_check_count_matches_the_benchmark():
    checks = _load_perfbench("checks")
    for n in (1, 2, 3):
        for trials in (1, 2):
            report = verify.check_cube_identities(n, trials, seed=1)
            assert report.checks == checks.expected_cube_checks(n, trials), (n, trials)


def _counting(fn, calls, name):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_cube_battery_reaches_every_traced_cube_function(monkeypatch):
    tracing = _load_perfbench("tracing")
    names = [fn_name for module_name, fn_name in tracing.FUNCTIONS if module_name == "cube"]
    assert names
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(cube, name, _counting(getattr(cube, name), calls, name))
    assert verify.check_cube_identities(2, 1, seed=1).passed
    assert all(calls.values()), calls
