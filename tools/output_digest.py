"""Per-job digests of the benchmark's outputs, to show that a change keeps
every output byte.

Runs the make-body set-up and every job of every workload in
`perfbench/workloads.py` at each seed through `gaussflow.cli.main`,
imported from `src/` of the checkout named by --repo (default: the one
this file sits in). A last group, `writers`, adds jobs that no workload
runs: an n=1 flow, which writes boundaries.svg, an n=2 flow whose radius
solves start warm from bases that move, and `verify --suite ball` at n=1
(the only ball suite with curvature-image rows) and n=2. Prints one line
per job: workload, seed, job key, exit code, and a sha256 over the job's
output files, its stdout and its input body, if it has one. A total line
over the job lines comes last.

Flow's config digest includes its input path, so two checkouts compare
only when both runs use the same --work directory:

    python3 tools/output_digest.py --work /tmp/digest --repo ../parent > a.txt
    python3 tools/output_digest.py --work /tmp/digest > b.txt
    diff a.txt b.txt

Each (workload, seed) writes under WORK/<workload>-<seed>, which a run
empties first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py of this checkout, loaded as a plain module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def import_cli(repo: Path):
    src = (repo / "src").resolve()
    sys.path.insert(0, str(src))
    import gaussflow.cli

    if Path(gaussflow.cli.__file__).resolve().parent != src / "gaussflow":
        raise SystemExit(f"imported gaussflow from {gaussflow.cli.__file__}, not {src}")
    return gaussflow.cli


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def job_digest(out: Path, stdout: str, input_path: Path | None) -> str:
    files = sorted(p for p in out.iterdir() if p.is_file()) if out.is_dir() else []
    h = hashlib.sha256()
    for p in ([input_path] if input_path else []) + files:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    h.update(stdout.encode())
    return h.hexdigest()


def writers(workloads, seed: int, work: Path):
    """The `writers` group at a seed: an n=1 random body flowed for a few
    samples, an n=2 random body flowed for 11 samples (long enough for
    the warm-started radius bases to pivot between samples), and the
    ball suite at n=1 and n=2."""
    body, body2 = (work / "inputs" / f"body_n{n}_{seed}.json" for n in (1, 2))
    setup = [["make-body", "--shape", "random", "--seed", str(seed), "--dim", "1",
              "--bandlimit", "16", "--out", str(body)],
             ["make-body", "--shape", "random", "--seed", str(seed), "--dim", "2",
              "--bandlimit", "8", "--out", str(body2)]]
    jobs = [workloads.Job("flow-n1", ["flow", "--input", str(body), "--kind", "normalized",
                                      "--alpha", "1", "--t-end", "0.05",
                                      "--sample-every", "0.01"], None),
            workloads.Job("flow-n2", ["flow", "--input", str(body2), "--kind", "normalized",
                                      "--alpha", "1", "--t-end", "0.5",
                                      "--sample-every", "0.05"], None),
            workloads.Job("ball-n1", ["verify", "--suite", "ball", "--dim", "1"], None),
            workloads.Job("ball-n2", ["verify", "--suite", "ball", "--dim", "2",
                                      "--bandlimit", "8"], None)]
    return workloads.Workload("writers", [], jobs, setup)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, required=True, help="directory for all outputs")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout whose src/ is imported")
    parser.add_argument("--seeds", default="0,1", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = load_workloads()
    cli = import_cli(args.repo)
    total = hashlib.sha256()
    for name in workloads.NAMES + ("writers",):
        for seed in seeds:
            work = args.work.resolve() / f"{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            workload = (writers(workloads, seed, work) if name == "writers"
                        else workloads.make(name, seed, work))
            for setup in workload.setup_argvs:
                code, _ = run_cli(cli, setup)
                if code != 0:
                    raise SystemExit(f"set-up exited {code}: {' '.join(setup)}")
            for job in workload.jobs:
                out = work / "jobs" / job.key
                code, stdout = run_cli(cli, job.argv + ["--out-dir", str(out)])
                argv = job.argv
                input_path = Path(argv[argv.index("--input") + 1]) if "--input" in argv else None
                line = f"{name} {seed} {job.key} exit={code} {job_digest(out, stdout, input_path)}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
