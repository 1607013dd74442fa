"""Smoke test of tools/output_digest.py: two runs in one work directory
print the same per-job digests."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_two_runs_print_the_same_digests(tmp_path):
    runs = [subprocess.run([sys.executable, str(TOOL), "--work", str(tmp_path / "work"),
                            "--seeds", "0"], capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 16 and lines[-1].startswith("total ")
    # 3 sweep, 4 flow, 4 verify jobs, then the n=1 and n=2 flows and the
    # n=1 and n=2 ball-suite writer jobs
    assert all(" exit=0 " in line for line in lines[:-1])
    assert [line.split()[:3] for line in lines[-5:-1]] == [["writers", "0", "flow-n1"],
                                                           ["writers", "0", "flow-n2"],
                                                           ["writers", "0", "ball-n1"],
                                                           ["writers", "0", "ball-n2"]]
    assert runs[1].stdout == runs[0].stdout
