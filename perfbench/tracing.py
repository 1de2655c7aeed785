"""Spans around the calls into parshin's layers, recorded from outside the program.

``Tracer.install`` wraps each public function named in ``FUNCTIONS`` in
every ``parshin`` module that binds it (a function imported by name into
another module is a second binding, and calls through it would otherwise
escape the trace), and each method in ``METHODS`` on its class.  A span is
(operation, span id, parent span id, function, start, end); spans stay in
memory, packed into arrays (a residue run makes about a million), and are
written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans.  Count hooks record
work at the same boundaries: atom pairs and structurally zero results of
``compose``, atoms into and out of ``make``, and projectors rebuilt with the
same parameters within one operation.
"""

from __future__ import annotations

import functools
import gzip
from array import array
import sys
import time
from collections import Counter

# (module, function) pairs wrapped wherever parshin binds them.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "parse_form"),
    ("laurent", "parshin_oracle"),
    ("residue", "raw_sum"),
    ("cocycle", "phi"),
    ("liealg", "load_algebra"),
    ("liealg", "ad"),
    ("cube", "homotopy"),
    ("cube", "homotopy_axis"),
    ("cube", "epsilon"),
    ("cube", "boundary_axis"),
    ("opalg", "projector"),
)
# (module, class, method, is_static)
METHODS = (
    ("opalg", "LatticeOperator", "compose", False),
    ("opalg", "LatticeOperator", "make", True),
    ("opalg", "WeightPoly", "shift_argument", False),
    ("opalg", "LatticeOperator", "trace", False),
    ("opalg", "LatticeOperator", "is_zero", False),
)

TIMED = (
    "cli.main", "cli.parse_form", "laurent.parshin_oracle", "residue.raw_sum", "cocycle.phi",
    "liealg.load_algebra", "liealg.ad", "cube.homotopy", "cube.homotopy_axis", "cube.epsilon",
    "cube.boundary_axis", "opalg.compose", "opalg.make", "opalg.shift_argument", "opalg.trace",
    "opalg.is_zero",
)
COUNTED = (
    "residue.raw_sum", "liealg.ad", "opalg.projector", "opalg.compose", "opalg.make",
    "opalg.shift_argument", "opalg.trace", "opalg.is_zero",
)


def _projector_key(n, axis, sign, d=1, cut=0):
    return (n, axis, sign, d, cut)


def _count_projector(tracer, args, kwargs, result):
    key = _projector_key(*args, **kwargs)
    if key in tracer.projector_keys:
        tracer.counts["projector_repeats"] += 1
    else:
        tracer.projector_keys.add(key)


def _count_compose(tracer, args, kwargs, result):
    left, right = args[0], args[1] if len(args) > 1 else kwargs["other"]
    tracer.counts["compose_pairs"] += len(left.atoms) * len(right.atoms)
    if not result.atoms:
        tracer.counts["compose_zero"] += 1


def _count_make(tracer, args, kwargs, result):
    atoms = args[2] if len(args) > 2 else kwargs["atoms"]
    tracer.counts["make_in"] += len(atoms)
    tracer.counts["make_out"] += len(result.atoms)


HOOKS = {
    "opalg.projector": _count_projector,
    "opalg.compose": _count_compose,
    "opalg.make": _count_make,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.self_time = []
        self.calls = []
        self.span_ids = array("q")  # op, span, parent, function index: four per span
        self.span_times = array("d")  # start, end: two per span
        self.counts = Counter()
        self.projector_keys = set()
        self.op = -1
        self._stack = []
        self._next_span = 0

    def begin_op(self, index):
        self.op = index
        self.projector_keys.clear()

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.self_time.append(0.0)
        self.calls.append(0)
        hook = HOOKS.get(name)
        stack, ids, times, clock = self._stack, self.span_ids, self.span_times, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_time[index] += duration - frame[1]
                self.calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                ids.extend((self.op, span, parent, index))
                times.extend((start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every traced function and method of the imported parshin package."""
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for module_name, fn_name in FUNCTIONS:
            # sys.modules, not package attributes: parshin.residue is the function
            original = getattr(sys.modules[f"{prefix}.{module_name}"], fn_name)
            traced = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        for module_name, class_name, method, is_static in METHODS:
            cls = getattr(sys.modules[f"{prefix}.{module_name}"], class_name)
            traced = self.wrap(f"{module_name}.{method}", getattr(cls, method))
            setattr(cls, method, staticmethod(traced) if is_static else traced)

    def metrics(self, ops):
        """Per-operation layer metrics over ``ops`` traced operations."""
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        calls = {name: self.calls[i] for name, i in by_name.items()}
        for name in TIMED:
            put(f"{name}.self_ms", self.self_time[by_name[name]] * 1000.0 / ops, "ms")
        for name in COUNTED:
            put(f"{name}.calls", calls[name] / ops, "count")
        c = self.counts
        put("opalg.projector.repeat_share", _share(c["projector_repeats"], calls["opalg.projector"]), "share")
        put("opalg.compose.atom_pairs", c["compose_pairs"] / ops, "count")
        put("opalg.compose.zero_share", _share(c["compose_zero"], calls["opalg.compose"]), "share")
        put("opalg.make.atoms_in", c["make_in"] / ops, "count")
        put("opalg.make.atoms_out", c["make_out"] / ops, "count")
        return out

    @property
    def span_count(self):
        return len(self.span_times) // 2

    def write_spans(self, path):
        """One line per span, in the order spans ended: op, span, parent, function, start_ns, end_ns."""
        ids, times = self.span_ids, self.span_times
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("op\tspan\tparent\tfunction\tstart_ns\tend_ns\n")
            for k in range(self.span_count):
                op, span, parent, index = ids[4 * k:4 * k + 4]
                handle.write(f"{op}\t{span}\t{parent}\t{self.names[index]}\t"
                             f"{int(times[2 * k] * 1e9)}\t{int(times[2 * k + 1] * 1e9)}\n")


def _share(part, whole):
    return part / whole if whole else 0.0
