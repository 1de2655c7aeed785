"""The host's momentary speed, read from a fixed block of reference work.

The benchmark's host is a shared virtual machine whose speed swings by up
to a factor of two over periods of seconds to minutes, and CPU time tracks
wall time there, so a plain timing measures the host as much as the
program.  The timed loop therefore runs one reference block before its
first operation and again whenever REFERENCE_INTERVAL seconds have passed
since the last block.  Each operation is timed as usual and then divided
by the host's slowness around it, ``factor = mean of the blocks on either
side / REFERENCE_SECONDS``.  Timings are thus stated in seconds of a host
on which one block takes REFERENCE_SECONDS, which is the usual speed of
the reference machine named in README.md.  The raw timings are printed
beside the scaled ones.

The block is half a small-integer loop and half Fraction additions, in
about equal time.  The host's swings do not slow every kind of Python
work alike: the integer loop alone followed ``residue_n3`` far better than
``trace_wide`` (Fraction sums), Fraction work alone over-corrected
``residue_n3``, and the even mix followed the four workloads best
(README.md, "How the timings are made steady").
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Median time of one block on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11) in its usual state.  It fixes the unit, not the steadiness.
REFERENCE_SECONDS = 0.013
# A block every this many seconds costs about 5 % of the loop.
REFERENCE_INTERVAL = 0.25
INTEGER_STEPS = 50_000
FRACTION_STEPS = 1_500

# A fresh interpreter that imports a fixed set of standard modules: the
# same kind of work as the program's start (process creation, site, imports,
# page faults), without the program.  Starts slow down about twice as much
# as the reference block when the host does, so they get their own
# reference.  REFERENCE_START_SECONDS is its median time on the reference
# machine in its usual state.
REFERENCE_START = (sys.executable, "-c",
                   "import argparse, contextlib, dataclasses, fractions, json, random, statistics, subprocess")
REFERENCE_START_SECONDS = 0.13


def reference_block():
    """Run the fixed reference work; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(INTEGER_STEPS):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, FRACTION_STEPS):
        total += Fraction(i % 11 + 1, 3)
    if acc < 0 or total < 0:  # never true; the results are used
        raise AssertionError
    return time.perf_counter() - start


def reference_start():
    """Start the reference interpreter once; returns its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_START, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def scale(groups, blocks):
    """State grouped timings at the reference speed.

    ``groups[i]`` holds the timings made between ``blocks[i]`` and
    ``blocks[i + 1]``; each is divided by the mean of those two blocks
    relative to REFERENCE_SECONDS.  Returns the scaled timings, flat, and
    the factors used.
    """
    scaled, factors = [], []
    for i, group in enumerate(groups):
        factor = (blocks[i] + blocks[i + 1]) / 2 / REFERENCE_SECONDS
        factors.append(factor)
        scaled.extend(x / factor for x in group)
    return scaled, factors
