"""Running a workload: set-up, the closed job loop, output checks, and
the statistics and process figures the results are built from.

gaussflow is imported from the checkout's `src/` (never from an installed
copy) and driven in-process through `gaussflow.cli.main(argv)`, one job
at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class NoProgram(RuntimeError):
    """The checkout holds no gaussflow sources to benchmark."""


def check_sources() -> None:
    if not (SRC / "gaussflow" / "cli.py").is_file():
        raise NoProgram(f"no gaussflow sources under {SRC}")


def import_gaussflow():
    """Import gaussflow from `src/` of the checkout this file sits in."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import gaussflow
    import gaussflow.cli

    if Path(gaussflow.__file__).resolve().parent != SRC / "gaussflow":
        raise NoProgram(f"imported gaussflow from {gaussflow.__file__}, not {SRC}")
    return gaussflow


def environment() -> dict:
    """Where the figures were measured."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "src_loc": sum(len(p.read_text(encoding="utf-8").splitlines())
                       for p in sorted((SRC / "gaussflow").glob("*.py"))),
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


@dataclass
class JobRecord:
    key: str
    seconds: float
    failure: str | None  # None when the job passed its checks


@dataclass
class Runner:
    """Runs the jobs of one workload and checks every output."""

    cli: object
    workload: object
    work: Path
    after_job: object = None  # called with the output dir before the check
    records: list[JobRecord] = field(default_factory=list)
    _digests: dict = field(default_factory=dict)

    def run_job(self, job) -> JobRecord:
        out = fresh_dir(self.work / "jobs" / job.key)
        argv = job.argv + ["--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        if self.after_job is not None:
            self.after_job(out)
        failure = f"exit code {code}" if code != 0 else None
        if failure is None:
            try:
                failure = job.check(out)
            except (OSError, ValueError, KeyError) as e:
                failure = f"unreadable output: {type(e).__name__}: {e}"
        if failure is None:
            digest = _digest(out)
            first = self._digests.setdefault(job.key, digest)
            if digest != first:
                changed = sorted(k for k in digest.keys() | first.keys()
                                 if digest.get(k) != first.get(k))
                failure = f"output differs from the job's first run: {changed}"
        if failure is not None:
            print(f"job {job.key} failed: {failure}", file=sys.stderr)
        rec = JobRecord(job.key, seconds, failure)
        self.records.append(rec)
        return rec

    def run_for(self, seconds: float) -> list[JobRecord]:
        """Closed loop, one client: run jobs round-robin until `seconds`
        have passed."""
        jobs = self.workload.jobs
        done = []
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            done.append(self.run_job(jobs[len(done) % len(jobs)]))
        return done

    def warm_up(self) -> None:
        """Run the first job once outside the timed loop; its checked
        output is the reference for its repeats."""
        warm = self.run_job(self.workload.jobs[0])
        if warm.failure is not None:
            raise RuntimeError(f"warm-up job {warm.key} failed: {warm.failure}")
        self.records.clear()


def setup(workload, work: Path, cli, sphere_grid) -> float:
    """What a CLI user pays before the first job: cold grid builds and the
    input bodies through `make-body`. Returns the seconds of the grid builds."""
    start = time.perf_counter()
    for dim, bandlimit in workload.grids:
        sphere_grid.build_grid(dim, bandlimit)
    grid_s = time.perf_counter() - start
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    for argv in workload.setup_argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv} exited with {code}")
    return grid_s


def dense_bytes(sphere_grid, grids) -> int:
    """Bytes held in dense node-by-coefficient operator matrices."""
    total = 0
    for dim, bandlimit in grids:
        g = sphere_grid.build_grid(dim, bandlimit)
        full = g.node_count * g.coeff_count
        total += sum(v.nbytes for v in vars(g).values()
                     if hasattr(v, "ndim") and v.ndim == 2 and v.size >= full)
    return total


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it,
    and its value (the median when there are too few samples)."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 50, -1):
        k = math.ceil(p * n / 100) - 1
        if n - 1 - k >= 10:
            return p, xs[k]
    return 50, statistics.median(xs)


def job_p50(records: list[JobRecord]) -> float:
    """The median time of each job of the cycle, averaged over the cycle's
    jobs, so that every job kind counts (a pooled median would only see
    the kind that holds the middle sample)."""
    by_key: dict[str, list[float]] = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.seconds)
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
