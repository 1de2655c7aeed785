"""tools/output_digest.py: one stable digest per (workload, seed) of parshin's output."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def digests(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_runs_give_equal_digests():
    # kac_moody_n3's chain files land in a new temporary directory on each run
    args = ("--workloads", "cube_n2,residue_n3,kac_moody_n3", "--seeds", "1", "--no-verify")
    first = digests(*args)
    assert [line.rsplit(" ", 1)[0] for line in first] == [
        "cube_n2 seed 1", "residue_n3 seed 1", "kac_moody_n3 seed 1"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in first)
    assert len({line.rsplit(" ", 1)[1] for line in first}) == 3
    assert digests(*args) == first
