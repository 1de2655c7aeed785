"""Digests of parshin's output over the benchmark's workloads and fixed verify commands.

    python3 tools/output_digest.py [--root CHECKOUT] [--workloads W,W] [--seeds 1,2,3] [--no-verify]

Imports parshin from ``CHECKOUT/src`` and builds each workload's seeded pass
of operations with ``CHECKOUT/perfbench/workloads.py`` (CHECKOUT defaults to
the checkout holding this script), writing any chain files into a temporary
directory.  Each operation runs through ``parshin.cli.main`` with stdout
captured, in order.  Prints one line per (workload, seed) and one per fixed
``verify`` command: the sha256 over every operation's argv, exit status and
stdout, with the temporary directory written as ``<workdir>``.  Two
checkouts whose outputs agree byte for byte print the same lines, so the
digests of a change and of its parent can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

VERIFY_COMMANDS = (
    *(("verify", "--suite", "all", "--n", str(n), "--json") for n in (2, 3)),
    *(("verify", "--suite", "cube", "--n", str(n), "--trials", "6", "--seed", "11", "--json")
      for n in (1, 2, 3)),
)


def run(main, argv):
    """(exit status, stdout) of one command; an exception escaping main is its status."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a traceback is an output to compare too
        status = f"raised {type(exc).__name__}: {exc}"
    return status, buf.getvalue()


def digest(main, commands, workdir=None):
    """sha256 over the commands' argv, exit status and stdout, in order."""
    sha = hashlib.sha256()
    for argv in commands:
        status, out = run(main, argv)
        record = json.dumps([list(argv), status, out])
        if workdir is not None:
            record = record.replace(str(workdir), "<workdir>")
        sha.update(record.encode() + b"\n")
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--workloads", default="residue_n3,kac_moody_n3,cube_n2,trace_wide")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--no-verify", action="store_true", help="leave out the fixed verify commands")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import parshin.cli
    import workloads

    for name in args.workloads.split(","):
        for seed in args.seeds.split(","):
            with tempfile.TemporaryDirectory() as tmp:
                ops = workloads.build(name, int(seed), Path(tmp))
                print(f"{name} seed {seed} {digest(parshin.cli.main, [op.argv for op in ops], tmp)}")
    if not args.no_verify:
        for command in VERIFY_COMMANDS:
            print(f"{' '.join(command)} {digest(parshin.cli.main, [command])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
