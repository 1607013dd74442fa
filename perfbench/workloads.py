"""The benchmark's workloads: inputs made from the workload seed, the
cycle of CLI jobs each run repeats, and the output check of every job.

A job is one `gaussflow` invocation (`cli.main(argv)`); the harness adds
`--out-dir`. A workload's jobs form a fixed cycle that the timed loop
runs round-robin, so every job is repeated within a run and its output
bytes can be compared with its first run.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# sweep-n1: one alpha per job; seed blocks sized so every job takes about
# the same number of RK4 steps (steps per unit time grow like alpha).
SWEEP_BLOCKS = {0.5: 4, 1.0: 2, 2.0: 1}
SWEEP_T_END = 0.5
# Twice the largest hausdorff_to_ball seen over 120 random seeds at t = 0.5.
SWEEP_HAUSDORFF_TOL = {0.5: 4.2e-2, 1.0: 1.9e-2, 2.0: 4.2e-3}

# flow-n2: 4 bodies; the sample interval holds 3 stable steps for every
# amplitude-0.1 body, so each job is 12 steps and 5 diagnostics samples.
FLOW_BANDLIMIT = 32
FLOW_BODIES = 4
FLOW_T_END = 7e-5
FLOW_SAMPLE_EVERY = FLOW_T_END / 4

# verify-fuzz: alternating n=1 / n=2 jobs over disjoint seed blocks.
VERIFY_CYCLE = ((1, 16), (2, 8), (1, 16), (2, 8))
VERIFY_BLOCK = {1: 16, 2: 20}


@dataclass
class Job:
    key: str
    argv: list[str]
    check: Callable[[Path], str | None]  # returns why the output is wrong


@dataclass
class Workload:
    name: str
    grids: list[tuple[int, int]]  # (dim, bandlimit) built cold in set-up
    jobs: list[Job]
    setup_argvs: list[list[str]] = field(default_factory=list)  # make-body calls


def _seed_base(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}").randrange(1_000_000)


def _seed_list(seeds) -> str:
    return ",".join(str(s) for s in seeds)


def _read_csv(path: Path) -> list[dict]:
    """Rows of a gaussflow CSV (first line is the version/config header)."""
    with open(path, encoding="utf-8", newline="") as f:
        header = f.readline()
        if not header.startswith("# gaussflow"):
            raise ValueError(f"{path.name}: missing gaussflow header")
        return list(csv.DictReader(f))


def check_sweep(out: Path, alpha: float, seeds: list[int]) -> str | None:
    rows = _read_csv(out / "sweep.csv")
    if sorted(int(r["seed"]) for r in rows) != sorted(seeds):
        return f"sweep.csv has seeds {[r['seed'] for r in rows]}, expected {seeds}"
    tol = SWEEP_HAUSDORFF_TOL[alpha]
    for r in rows:
        if r["status"] != "ok":
            return f"seed {r['seed']}: status {r['status']}"
        if float(r["alpha"]) != alpha:
            return f"seed {r['seed']}: alpha {r['alpha']}"
        haus = float(r["hausdorff_to_ball"])
        if not haus <= tol:
            return f"seed {r['seed']}: hausdorff_to_ball {haus:.3g} > {tol:g}"
    return None


def check_flow(out: Path, bandlimit: int) -> str | None:
    rows = _read_csv(out / "trajectory.csv")
    if len(rows) < 2:
        return f"trajectory.csv has {len(rows)} samples"
    target = 4.0 * math.pi / 3.0
    for i, r in enumerate(rows):
        vol = float(r["volume"])
        if not abs(vol - target) <= 1e-8 * target:
            return f"sample {i}: volume {vol!r} is not 4pi/3"
    entropy = [float(r["entropy"]) for r in rows]
    for i in range(1, len(entropy)):
        if not entropy[i] - entropy[i - 1] <= 1e-8:
            return f"sample {i}: entropy rose by {entropy[i] - entropy[i - 1]:.3g}"
    with open(out / "body_final.json", encoding="utf-8") as f:
        if json.load(f).get("format") != "gaussflow-body":
            return "body_final.json is not a body file"
    nt, nphi = bandlimit + 1, 2 * bandlimit + 2
    counts = {"v": 0, "f": 0}
    with open(out / "body_final.obj", encoding="utf-8") as f:
        for line in f:
            tag = line[:2]
            if tag in ("v ", "f "):
                counts[tag[0]] += 1
    expected = {"v": nt * nphi + 2, "f": 2 * nphi + 2 * (nt - 1) * nphi}
    if counts != expected:
        return f"body_final.obj has {counts}, expected {expected}"
    return None


def check_verify(out: Path) -> str | None:
    with open(out / "checks.json", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("passed") is not True:
        return f"checks.json: passed={doc.get('passed')}, failures={doc.get('failures')}"
    rows = _read_csv(out / "checks.csv")
    if doc.get("checks") != len(rows):
        return f"checks.json counts {doc.get('checks')} checks, checks.csv has {len(rows)} rows"
    return None


def sweep_n1(seed: int, work: Path) -> Workload:
    base = _seed_base("sweep-n1", seed)
    jobs = []
    for alpha, count in SWEEP_BLOCKS.items():
        seeds = list(range(base, base + count))
        argv = ["sweep", "--dim", "1", "--bandlimit", "16", "--workers", "1",
                "--alpha", f"{alpha:g}", "--seeds", _seed_list(seeds),
                "--t-end", f"{SWEEP_T_END:g}"]
        jobs.append(Job(f"alpha={alpha:g}", argv,
                        lambda out, a=alpha, s=seeds: check_sweep(out, a, s)))
    return Workload("sweep-n1", [(1, 16)], jobs)


def flow_n2(seed: int, work: Path) -> Workload:
    base = _seed_base("flow-n2", seed)
    L = FLOW_BANDLIMIT
    setup, jobs = [], []
    for s in range(base, base + FLOW_BODIES):
        body = work / "inputs" / f"body_{s}.json"
        setup.append(["make-body", "--shape", "random", "--seed", str(s), "--dim", "2",
                      "--bandlimit", str(L), "--out", str(body)])
        argv = ["flow", "--input", str(body), "--kind", "normalized", "--alpha", "1",
                "--t-end", repr(FLOW_T_END), "--sample-every", repr(FLOW_SAMPLE_EVERY)]
        jobs.append(Job(f"body={s}", argv, lambda out: check_flow(out, L)))
    return Workload("flow-n2", [(2, L)], jobs, setup)


def verify_fuzz(seed: int, work: Path) -> Workload:
    base = _seed_base("verify-fuzz", seed)
    jobs = []
    start = base
    for dim, L in VERIFY_CYCLE:
        seeds = list(range(start, start + VERIFY_BLOCK[dim]))
        start += VERIFY_BLOCK[dim]
        argv = ["verify", "--suite", "fuzz", "--dim", str(dim), "--bandlimit", str(L),
                "--seeds", _seed_list(seeds)]
        jobs.append(Job(f"dim={dim},seeds={seeds[0]}", argv, check_verify))
    return Workload("verify-fuzz", sorted(set(VERIFY_CYCLE)), jobs)


FACTORIES = {"sweep-n1": sweep_n1, "flow-n2": flow_n2, "verify-fuzz": verify_fuzz}
NAMES = tuple(FACTORIES)


def make(name: str, seed: int, work: Path) -> Workload:
    """The workload `name` with inputs drawn from `seed`; input files go
    under `work`."""
    return FACTORIES[name](seed, work)
