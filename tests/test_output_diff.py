"""Smoke test of tools/output_diff.py on two small work trees."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_diff.py"


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_tool(a, b):
    r = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                       capture_output=True, text=True, timeout=60)
    lines = dict(line.split(" ", 1) for line in r.stdout.splitlines()[:-1])
    return r.returncode, lines, r.stdout.splitlines()[-1]


def test_numeric_differences_and_flags(tmp_path):
    header = "# gaussflow 0.1.0 config=3e5a0f1b2c4d\nze_0,alpha,note\n"
    write_tree(tmp_path / "a", {
        "w-0/jobs/x/same.csv": header + "1.5,-2e-3,ok\n",
        "w-0/jobs/x/rounding.csv": header + "1.0000000000000002,nan,-inf\n",
        "w-0/jobs/x/large.csv": header + "-4000,4e-3,ok\n",
        "w-0/jobs/y/body.json": '{"values": [1, 2.5, 3]}\n',
        "w-0/jobs/y/text.csv": header + "1,2,ok\n",
        "w-0/jobs/y/gone.svg": "<svg/>\n",
    })
    write_tree(tmp_path / "b", {
        "w-0/jobs/x/same.csv": header + "1.5,-2e-3,ok\n",
        "w-0/jobs/x/rounding.csv": header + "1,nan,-inf\n",
        "w-0/jobs/x/large.csv": header + "-4000.004,4.0001e-3,ok\n",
        "w-0/jobs/y/body.json": '{"values": [1, 2.5, 3, 4]}\n',
        "w-0/jobs/y/text.csv": header + "1,2,failed\n",
    })
    code, lines, total = run_tool(tmp_path / "a", tmp_path / "b")
    assert code == 1
    # the version, the hex digest and ze_0 are text; a sign is the number's
    assert lines["w-0/jobs/x/same.csv"] == "tokens=2 max_abs=0 max_rel=0"
    assert lines["w-0/jobs/x/rounding.csv"] == "tokens=3 max_abs=2.22e-16 max_rel=2.22e-16"
    # relative to |a| above 1 (4e-3 at 4000), absolute below it (1e-7 at 4e-3)
    assert lines["w-0/jobs/x/large.csv"] == "tokens=2 max_abs=0.004 max_rel=1e-06"
    assert "FLAG: token count 3 != 4" in lines["w-0/jobs/y/body.json"]
    assert "FLAG: text differs" in lines["w-0/jobs/y/text.csv"]
    assert "FLAG: only in A" in lines["w-0/jobs/y/gone.svg"]
    assert total == "files=6 changed=2 flagged=3 max_abs=0.004 max_rel=1e-06"


def test_identical_trees_exit_zero(tmp_path):
    files = {"s-1/jobs/alpha=2/sweep.csv": "alpha,seed\n2,7\n", "s-1/inputs/b.json": "[0.5]\n"}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    code, lines, total = run_tool(tmp_path / "a", tmp_path / "b")
    assert code == 0
    assert total == "files=2 changed=0 flagged=0 max_abs=0 max_rel=0"
