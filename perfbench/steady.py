"""Repeat benchmark runs and show how steady each end-to-end metric is.

    python3 perfbench/steady.py                         # 10 seeds on every workload
    python3 perfbench/steady.py --workloads cube_n2 --runs 5
    python3 perfbench/steady.py --compare perfbench/_work/steady-A.json
    python3 perfbench/steady.py --traced --runs 0       # traced runs only

For every workload and end-to-end metric it prints the median over the runs,
the first and third quartiles (statistics.quantiles, n=4), and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.  setup_s
is gated only by its median, so its spread is shown but not judged.  With
``--compare`` it also shows how far each median moved from an earlier saved
set, in the metric's worse direction.  With ``--traced`` it makes two
untraced/traced pairs per workload on the first seed, checks that the count
metrics repeat exactly, and reports the traced ops/s against the untraced
ops/s of the same pairs (the tracing overhead) and each layer's share of
self time.  Every set is saved as JSON under perfbench/_work/.
Exits 1 when a spread or a move exceeds its bound, a run is incorrect, the
failed share differs between runs, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".atom_pairs", ".atoms_in", ".atoms_out", ".repeat_share", ".zero_share")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("traced ops_per_s = "):
            result["traced_ops_per_s"] = float(line.split()[3])
    return result


def summarize(spec, runs, previous=None):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, results in runs.items():
        if not results:
            continue
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, "
              f"failed/attempted in {sorted(shares)}")
        ok &= correct and len(share_set) == 1
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
              f"{'spread/bound':>14}{'moved':>9}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ratio = spread / meta["bound"]
            verdict = "" if name == "setup_s" else ("  over bound" if ratio > 1 else
                                                    ("  over a third" if ratio > 1 / 3 else ""))
            if name != "setup_s" and ratio > 1:
                ok = False
            moved = ""
            if previous and workload in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                worse = (med - old) / old if meta["better"] == "lower" else (old - med) / old
                moved = f"{worse:+.3f}"
                if worse > meta["bound"]:
                    verdict += "  moved past bound"
                    ok = False
            print(f"  {name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{meta['bound']:>7}"
                  f"{ratio:>14.3f}{moved:>9}{verdict}")
    return ok


def traced_check(workloads, seed, seconds):
    """Two untraced/traced pairs per workload on one seed.

    The pairs run back to back, so machine-speed drift between minutes
    cancels out of the overhead.
    """
    ok = True
    print("\ntraced runs (seed %d): untraced, traced, untraced, traced" % seed)
    for workload in workloads:
        untraced, traced = [], []
        for _ in range(2):
            untraced.append(run_once(workload, seed, seconds, 0))
            traced.append(run_once(workload, seed, seconds, 1))
        first, second = (r["metrics"] for r in traced)
        counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
        differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
        ok &= not differ and all(r["correct"] for r in untraced + traced)
        base = statistics.mean(r["metrics"]["ops_per_s"]["value"] for r in untraced)
        rate = statistics.mean(r["traced_ops_per_s"] for r in traced)
        print(f"  {workload}: {len(counts)} counts {'differ: ' + ', '.join(differ) if differ else 'repeat exactly'}; "
              f"traced {rate:.4g} ops/s vs untraced {base:.4g} (overhead {1 - rate / base:.1%})")
        total = sum(v["value"] for k, v in first.items() if k.endswith(".self_ms"))
        shares = sorted(((v["value"] / total, k) for k, v in first.items()
                         if k.endswith(".self_ms") and v["value"] > 0), reverse=True)
        print("    self-time shares: " + ", ".join(f"{k[:-8]} {s:.1%}" for s, k in shares))
        print("    per operation: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in first.items()
                                                if v["value"] and not k.endswith(".self_ms")))
    return ok


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--compare", type=Path, help="an earlier set saved by this command")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, 0)
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} ({time.perf_counter() - start:.1f} s)", flush=True)
    if args.runs:
        save = args.save or HERE / "_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(json.dumps(runs, indent=1))
        print(f"saved {save}")
    previous = json.loads(args.compare.read_text()) if args.compare else None
    ok = summarize(spec, runs, previous)
    if args.traced:
        ok &= traced_check(workloads, args.first_seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
