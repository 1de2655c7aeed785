"""Time parshin's command line on one seeded workload and check every output.

    python3 perfbench/run.py --workload residue_n3 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
beside this directory.  One process calls ``parshin.cli.main`` in a closed
loop on one thread, with stdout captured, over whole passes of the
workload's seeded inputs (see workloads.py) until ``--seconds`` have passed
and at least MIN_OPS operations are done.  Every output is then checked
(checks.py) and the checks' self-tests run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:
ops_per_s, latency_p50_ms, latency_p90_ms, setup_s (the median of
SETUP_PROBES fresh interpreter starts, each timed until its first operation
is ready) and peak_rss_mb of this process.  The timings are stated at the
reference speed of the host, read from reference work run between the
operations and between the starts (speed.py); the raw figures are printed
above the JSON line.
With ``--trace 1`` the calls into each layer are wrapped (tracing.py) and
the metrics are per layer and per operation; the spans are written to
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

MIN_OPS = 100  # the 90th percentile then has at least ten samples beyond it
MAX_LOOP_SECONDS = 120.0  # stop widening the loop for MIN_OPS here
# setup_s is the median of SETUP_PROBES fresh starts, half made before the
# timed loop and half after it, stated at the reference speed of starts:
# times REFERENCE_START_SECONDS over the median of the reference starts
# made between them (speed.py, README.md).
SETUP_PROBES = 8


def import_program():
    """Import parshin from this checkout's src/, never from anywhere else."""
    if not (SRC / "parshin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}/parshin; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import parshin
    import parshin.cli  # noqa: F401  (binds parshin.cli)

    return parshin


def new_workdir():
    path = WORK / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(workload, seed):
    """Child side of the setup_s measurement: set up, then print the clock."""
    import_program()
    workdir = new_workdir()
    try:
        workloads.build(workload, seed, workdir)
        print(repr(time.perf_counter()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload, seed, count):
    """Fresh starts timed from spawn until the first operation is ready.

    perf_counter is CLOCK_MONOTONIC, which parent and child share.  Each
    start is followed by one reference start (speed.py).  Returns the
    starts' and the reference starts' times.
    """
    samples, references = [], []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
        references.append(speed.reference_start())
    return samples, references


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_op(main, op):
    """One operation; returns (exit status or exception text, captured stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(list(op.argv))
    except SystemExit as exc:
        status = exc.code
    except Exception:  # the loop must go on; the failure is counted and shown
        status = traceback.format_exc()
    return status, buf.getvalue()


def timed_loop(main, ops, seconds, min_ops, before_op=None):
    """Whole passes over ops until seconds have passed and min_ops are done.

    A reference block (speed.py) runs before the first operation, after
    the last, and between operations whenever REFERENCE_INTERVAL seconds
    have passed.  Returns the operations' latencies grouped between
    blocks, the blocks' times, and every (op, status, output).
    """
    groups, blocks, results = [[]], [speed.reference_block()], []
    clock = time.perf_counter
    start = last_block = clock()
    while True:
        for op in ops:
            if before_op is not None:
                before_op(len(results))
            t0 = clock()
            status, output = run_op(main, op)
            t1 = clock()
            groups[-1].append(t1 - t0)
            results.append((op, status, output))
            if t1 - last_block >= speed.REFERENCE_INTERVAL:
                blocks.append(speed.reference_block())
                groups.append([])
                last_block = clock()
        elapsed = clock() - start
        if elapsed >= seconds and (len(results) >= min_ops or elapsed >= MAX_LOOP_SECONDS):
            break
    if groups[-1]:
        blocks.append(speed.reference_block())
    else:
        groups.pop()
    return groups, blocks, results


def check_results(program, results):
    """Count failed operations and check the outputs of the others."""
    failed, wrong = 0, []
    verdicts, probes = {}, {}
    for op, status, output in results:
        if status != 0:
            failed += 1
            if failed <= 3:
                print(f"failed: {' '.join(op.argv)}: {status}", file=sys.stderr)
            continue
        key = (op.argv, output)
        if key not in verdicts:
            if op.kind == "residue":
                verdicts[key] = checks.check_residue(op.expect, output)
            elif op.kind == "cocycle":
                verdicts[key] = checks.check_cocycle(op.expect, output)
            else:
                seed = op.expect["seed"]
                if seed not in probes:
                    probes[seed] = checks.cube_probe(seed, program.opalg, program.cube)
                verdicts[key] = checks.check_cube(op.expect, output, probes[seed])
        if verdicts[key] is not None:
            wrong.append(f"{' '.join(op.argv)}: {verdicts[key]}")
    return failed, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    probes = 0 if args.trace else SETUP_PROBES // 2
    setup, setup_references = setup_samples(args.workload, args.seed, probes)
    program = import_program()
    workdir = new_workdir()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        # Untimed, uncounted warm-up: one call settles lazy imports; a traced
        # run makes a whole pass, so that every traced pass finds the same
        # cache state and the count metrics repeat exactly.
        for op in ops if args.trace else ops[:1]:
            run_op(program.cli.main, op)
        tracer = None
        before_op = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(program)
            before_op = tracer.begin_op
        min_ops = 1 if args.trace else MIN_OPS
        groups, blocks, results = timed_loop(program.cli.main, ops, args.seconds, min_ops, before_op)
        attempted = len(results)
        if tracer is not None:
            metrics = tracer.metrics(attempted)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write_spans(spans_path)
        failed, wrong = check_results(program, results)
        wrong += [f"self-test: {name}" for name in checks.self_test(program)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    more, more_references = setup_samples(args.workload, args.seed, probes)
    setup += more
    setup_references += more_references

    latencies, factors = speed.scale(groups, blocks)
    raw = [x for group in groups for x in group]
    ops_per_s = attempted / sum(latencies)
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
            "latency_p90_ms": {"value": p90(latencies) * 1000.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup) / statistics.median(setup_references)
                        * speed.REFERENCE_START_SECONDS, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        print("setup samples (s): " + " ".join(f"{x:.4f}" for x in setup))
        print("reference starts (s): " + " ".join(f"{x:.4f}" for x in setup_references))
        print(f"raw: ops_per_s = {attempted / sum(raw):.4f} 1/s, latency_p50_ms = "
              f"{statistics.median(raw) * 1000.0:.4f}, latency_p90_ms = {p90(raw) * 1000.0:.4f}")
    else:
        print(f"traced ops_per_s = {ops_per_s!r} 1/s ({tracer.span_count} spans in {spans_path})")
    for problem in wrong[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"host slowness factor over {len(factors)} groups: min {min(factors):.3f}, "
          f"median {statistics.median(factors):.3f}, max {max(factors):.3f}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} attempted in {attempted // len(ops)} passes, "
          f"{failed} failed, {len(wrong)} wrong, {sum(raw):.1f} s in operations")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
