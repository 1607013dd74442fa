"""Command-line front door: build bodies, run flows, verify inequality
suites, sweep over exponents and seeds.

Subcommands
-----------
make-body  write a body file: ball, ellipse/ellipsoid, or seeded random
flow       evolve a body file; diagnostics CSV, final body, SVG (n=1)
           or OBJ (n=2) geometry
verify     run inequality check suites; CSV + JSON reports
sweep      normalized runs over an alpha x seed matrix; aggregated CSV

Options can come from a flat key=value config file (--config); explicit
flags override the file, the file overrides built-in defaults. Every
output file carries the tool version and a digest of the resolved
config, and identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 solver failure, 3 usage.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import body as gb
from . import entropy as ge
from . import fileio
from . import flow as gf
from . import inequalities as gi
from . import sphere_grid as sg
from .errors import GaussFlowError, StepFailure

__all__ = ["RunConfig", "main"]


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one subcommand invocation."""

    subcommand: str
    dim: int = 1
    bandlimit: int = 16
    alpha: tuple[float, ...] = ()
    kind: str = "normalized"
    t_end: float = 1.0
    sample_every: float | None = None
    seed: int = 0
    seeds: tuple[int, ...] | None = None
    seed_count: int | None = None
    stop_residual: float | str | None = "default"
    u_floor: float = 0.05
    out_dir: str = "."
    out: str | None = None
    shape: str = "ball"
    radius: float = 1.0
    axes: tuple[float, ...] | None = None
    amplitude: float = 0.1
    symmetric: bool = False
    normalize: bool = False
    input: str | None = None
    suite: str = "fuzz"
    workers: int = 1
    svg_curves: int = 12


def _float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _opt_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else float(text)


def _residual(text: str) -> float | str | None:
    low = text.strip().lower()
    if low in ("default", "none"):
        return None if low == "none" else "default"
    return float(text)


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_COERCERS = {
    "dim": int, "bandlimit": int, "seed": int, "seed_count": int,
    "workers": int, "svg_curves": int,
    "t_end": float, "u_floor": float, "radius": float, "amplitude": float,
    "sample_every": _opt_float, "stop_residual": _residual,
    "alpha": _float_list, "axes": _float_list, "seeds": _int_list,
    "symmetric": _bool, "normalize": _bool,
    "kind": str, "out_dir": str, "out": str, "shape": str, "input": str,
    "suite": str,
}


def _load_config_file(path: str) -> dict:
    """Flat key=value lines; # comments and blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _COERCERS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _COERCERS[key](value.strip())
        except ValueError as e:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussflow",
                     description="Gauss curvature flows in support-function form.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--dim", type=int, default=argparse.SUPPRESS,
                       help="1 (curves) or 2 (surfaces)")
        p.add_argument("--bandlimit", type=int, default=argparse.SUPPRESS,
                       help="spectral bandlimit L")
        p.add_argument("--out-dir", default=argparse.SUPPRESS,
                       help="output directory")

    p = sub.add_parser("make-body", help="write a body file")
    common(p)
    p.add_argument("--shape", choices=("ball", "ellipse", "random"),
                   default=argparse.SUPPRESS)
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS)
    p.add_argument("--axes", type=_float_list, default=argparse.SUPPRESS,
                   help="comma-separated semi-axes (dim+1 of them)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    p.add_argument("--symmetric", action="store_true", default=argparse.SUPPRESS,
                   help="centrally symmetric random body")
    p.add_argument("--normalize", action="store_true", default=argparse.SUPPRESS,
                   help="rescale to unit-ball volume")
    p.add_argument("--out", default=argparse.SUPPRESS, help="output file")

    p = sub.add_parser("flow", help="run a flow from a body file")
    common(p)
    p.add_argument("--input", default=argparse.SUPPRESS, help="body file")
    p.add_argument("--kind", choices=gf.KINDS, default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=_float_list, default=argparse.SUPPRESS,
                   help="curvature exponent (exactly one)")
    p.add_argument("--t-end", type=float, default=argparse.SUPPRESS)
    p.add_argument("--sample-every", type=_opt_float, default=argparse.SUPPRESS)
    p.add_argument("--stop-residual", type=_residual, default=argparse.SUPPRESS,
                   help="float, 'default' or 'none'")
    p.add_argument("--u-floor", type=float, default=argparse.SUPPRESS)
    p.add_argument("--svg-curves", type=int, default=argparse.SUPPRESS,
                   help="max snapshot curves in the SVG overlay (n=1)")

    p = sub.add_parser("verify", help="run inequality check suites")
    common(p)
    p.add_argument("--suite", choices=("ball", "fuzz"), default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=_float_list, default=argparse.SUPPRESS,
                   help="exponent grid (default: built-in grid)")
    p.add_argument("--seeds", type=_int_list, default=argparse.SUPPRESS,
                   help="explicit seed list")
    p.add_argument("--seed-count", type=int, default=argparse.SUPPRESS,
                   help="use seeds 0..N-1")
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("sweep", help="alpha x seed sweep of normalized runs")
    common(p)
    p.add_argument("--alpha", type=_float_list, default=argparse.SUPPRESS,
                   help="exponent grid (required, nonempty)")
    p.add_argument("--seeds", type=_int_list, default=argparse.SUPPRESS)
    p.add_argument("--seed-count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--shape", choices=("ball", "ellipse", "random"),
                   default=argparse.SUPPRESS)
    p.add_argument("--axes", type=_float_list, default=argparse.SUPPRESS)
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    p.add_argument("--symmetric", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--t-end", type=float, default=argparse.SUPPRESS)
    p.add_argument("--stop-residual", type=_residual, default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="parallel runs")
    return parser


def resolve(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and explicit flags into a RunConfig."""
    data = {}
    cfgpath = getattr(ns, "config", None)
    if cfgpath:
        data.update(_load_config_file(cfgpath))
    data.update({k: v for k, v in vars(ns).items()
                 if k not in ("config", "subcommand")})
    if ns.subcommand == "sweep":
        data.setdefault("shape", "random")
    try:
        cfg = RunConfig(subcommand=ns.subcommand, **data)
    except TypeError as e:
        raise UsageError(str(e)) from e
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    def fail(msg):
        raise UsageError(msg)

    if cfg.dim not in (1, 2):
        fail(f"dim must be 1 or 2, got {cfg.dim}")
    if cfg.bandlimit < 4:
        fail(f"bandlimit must be >= 4, got {cfg.bandlimit}")
    if any(a == 0.0 for a in cfg.alpha):
        fail("alpha entries must be nonzero")
    if cfg.t_end < 0.0:
        fail("t-end must be nonnegative")
    if cfg.sample_every is not None and cfg.sample_every <= 0.0:
        fail("sample-every must be positive")
    if not 0.0 <= cfg.amplitude < 1.0:
        fail("amplitude must be in [0, 1)")
    if cfg.workers < 1:
        fail("workers must be >= 1")
    if cfg.u_floor <= 0.0:
        fail("u-floor must be positive")
    if cfg.radius <= 0.0:
        fail("radius must be positive")
    if cfg.svg_curves < 2:
        fail("svg-curves must be >= 2")
    if cfg.subcommand in ("make-body", "sweep") and cfg.shape == "ellipse":
        if cfg.axes is None or len(cfg.axes) != cfg.dim + 1:
            fail(f"ellipse needs --axes with {cfg.dim + 1} entries")
        if any(a <= 0 for a in (cfg.axes or ())):
            fail("semi-axes must be positive")
    if cfg.subcommand == "flow":
        if cfg.input is None:
            fail("flow needs --input")
        if len(cfg.alpha) != 1:
            fail("flow needs exactly one alpha")
    if cfg.subcommand == "sweep" and not cfg.alpha:
        fail("alpha list must not be empty")


_NON_SEMANTIC_FIELDS = ("out_dir", "out", "workers")


def config_digest(cfg: RunConfig) -> str:
    """Digest of the resolved config, embedded in output headers.

    Fields that cannot change the computed data (output paths, worker
    count) are excluded, so moving the output directory keeps files
    byte-identical."""
    parts = []
    for f in dataclasses.fields(cfg):
        if f.name in _NON_SEMANTIC_FIELDS:
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            v = f"{v:.17g}"
        elif isinstance(v, tuple):
            v = ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in v)
        parts.append(f"{f.name}={v}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def _resolve_seeds(cfg: RunConfig, default_count: int) -> tuple[int, ...]:
    if cfg.seeds is not None:
        return cfg.seeds
    if cfg.seed_count is not None:
        return tuple(range(cfg.seed_count))
    return tuple(range(default_count))


def _out_dir(cfg: RunConfig) -> Path:
    d = Path(cfg.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _build_shape(cfg: RunConfig, seed: int):
    grid = sg.build_grid(cfg.dim, cfg.bandlimit)
    if cfg.shape == "ball":
        return gb.ball(grid, cfg.radius)
    if cfg.shape == "ellipse":
        return gb.ellipse(grid, cfg.axes)
    return gb.random_body(seed, cfg.dim, cfg.bandlimit, cfg.amplitude,
                          centrally_symmetric=cfg.symmetric)


def cmd_make_body(cfg: RunConfig) -> int:
    u = _build_shape(cfg, cfg.seed)
    if cfg.normalize:
        u = gb.normalize_volume(u)
    path = Path(cfg.out) if cfg.out else _out_dir(cfg) / "body.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_body(path, u, config_digest(cfg))
    print(f"wrote {path}: {cfg.shape}, dim {cfg.dim}, bandlimit {cfg.bandlimit}, "
          f"volume {gb.volume(u):.12g}")
    return 0


def cmd_flow(cfg: RunConfig) -> int:
    try:
        u0 = fileio.read_body(cfg.input)
    except (OSError, ValueError, GaussFlowError) as e:
        raise UsageError(f"cannot load input body: {e}") from e
    digest = config_digest(cfg)
    out = _out_dir(cfg)
    code = 0
    try:
        rr = gf.run(u0, cfg.kind, cfg.alpha[0], cfg.t_end, cfg.sample_every,
                    stop_residual=cfg.stop_residual, u_floor=cfg.u_floor)
    except StepFailure as e:
        print(f"solver failure: {e}; writing partial outputs", file=sys.stderr)
        rr = e.partial
        code = 2
    except ValueError as e:
        raise UsageError(str(e)) from e
    fileio.write_trajectory(out / "trajectory.csv", rr.records, u0.dim, digest)
    fileio.write_body(out / "body_final.json", rr.final_state.u, digest)
    if u0.dim == 1:
        ns = len(rr.samples)
        idx = sorted({round(i * (ns - 1) / (min(cfg.svg_curves, ns) - 1))
                      for i in range(min(cfg.svg_curves, ns))}) if ns > 1 else [0]
        curves = [gb.boundary_points(rr.samples[i][1]) for i in idx]
        fileio.write_svg(out / "boundaries.svg", curves, digest)
    else:
        fileio.write_obj(out / "body_final.obj", rr.final_state.u, digest)
    print(f"flow {cfg.kind} alpha={cfg.alpha[0]:g}: {rr.steps} steps, "
          f"{len(rr.records)} samples, stop={rr.stop_reason}, outputs in {out}")
    return code


def _ball_suite(dim: int, bandlimit: int, alphas) -> list:
    u = gb.ball(sg.build_grid(dim, bandlimit))
    reports = [gi.check_blaschke_santalo(u)]
    reports.extend(gi.check_width_bounds(u))
    reports.append(gi.check_affine_isoperimetric(u))
    for alpha in alphas:
        reports.append(gi.check_entropy_nonneg(u, alpha))
        if alpha >= 1.0 / (dim + 2) - 1e-12:
            reports.append(gi.check_z_vs_entropy(u, alpha))
        if dim == 1 and (alpha >= 1.0 / 3 - 1e-12 or alpha < 0.0):
            reports.append(gi.check_entropy_stability(u, alpha))
    return reports


def cmd_verify(cfg: RunConfig) -> int:
    alphas = tuple(cfg.alpha) if cfg.alpha else None
    if cfg.suite == "ball":
        reports = _ball_suite(cfg.dim, cfg.bandlimit,
                              alphas or gi.alpha_grid(cfg.dim))
    else:
        reports = []
        for seed in _resolve_seeds(cfg, default_count=10):
            try:
                reports.extend(gi.fuzz_suite(cfg.dim, [seed], alphas=alphas,
                                             bandlimit=cfg.bandlimit,
                                             amplitude=cfg.amplitude))
            except GaussFlowError as e:
                reports.append(gi.CheckReport(
                    name="check-error", inputs={"seed": seed, "error": str(e)},
                    lhs=math.nan, rhs=math.nan, slack=math.nan,
                    tolerance=0.0, passed=False))
    digest = config_digest(cfg)
    out = _out_dir(cfg)
    fileio.write_checks_csv(out / "checks.csv", reports, digest)
    fileio.write_checks_json(out / "checks.json", reports, digest)
    gating = [r for r in reports if "(reported)" not in r.name]
    failures = sum(not r.passed for r in gating)
    print(f"{len(reports)} checks, {failures} failures, outputs in {out}")
    return 1 if failures else 0


def _sweep_one(cfg: RunConfig, alpha: float, seed: int):
    try:
        u0 = _build_shape(cfg, seed)
        u0 = gb.normalize_volume(u0)
        rr = gf.run(u0, "normalized", alpha, cfg.t_end,
                    stop_residual=cfg.stop_residual)
        final = rr.final_state.u
        res = gf.soliton_residual(final, alpha)
        centered = gb.support_about(final, ge.entropy_point(final, alpha).point)
        haus = float(np.abs(centered.values - 1.0).max())
        return (alpha, seed, rr.steps, rr.stop_reason, res.residual, haus,
                res.lam, "ok")
    except (GaussFlowError, ValueError) as e:
        return (alpha, seed, 0, "failed", math.nan, math.nan, math.nan,
                f"failed:{type(e).__name__}")


def cmd_sweep(cfg: RunConfig) -> int:
    seeds = _resolve_seeds(cfg, default_count=3)
    if not seeds:
        raise UsageError("seed list must not be empty")
    tasks = [(a, s) for a in cfg.alpha for s in seeds]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda t: _sweep_one(cfg, *t), tasks))
    else:
        rows = [_sweep_one(cfg, *t) for t in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))
    out = _out_dir(cfg)
    path = out / "sweep.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# gaussflow {fileio.__version__} config={config_digest(cfg)}\n")
        f.write("alpha,seed,steps,stop_reason,residual,hausdorff_to_ball,"
                "lambda,status\n")
        for a, s, steps, reason, res, haus, lam, status in rows:
            f.write(f"{a:.17g},{s},{steps},{reason},{res:.17g},{haus:.17g},"
                    f"{lam:.17g},{status}\n")
    failed = sum(r[7] != "ok" for r in rows)
    print(f"{len(rows)} runs, {failed} failed, wrote {path}")
    return 2 if failed else 0


_DISPATCH = {
    "make-body": cmd_make_body,
    "flow": cmd_flow,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _keep_freed_heap() -> None:
    """Raise glibc's heap trim threshold to 64 MB. HiGHS frees about 1.7 MB
    after each width/radius LP at n=2, L=32; at the default threshold each
    solve faulted it back in: 4400 page faults, 16 ms per flow job."""
    try:
        ctypes.CDLL("libc.so.6").mallopt(-1, 64 << 20)  # -1: M_TRIM_THRESHOLD
    except (OSError, AttributeError):  # not glibc
        pass


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        print("gaussflow: error: a subcommand is required", file=sys.stderr)
        return 3
    try:
        cfg = resolve(ns)
        return _DISPATCH[cfg.subcommand](cfg)
    except UsageError as e:
        print(f"gaussflow: error: {e}", file=sys.stderr)
        return 3
    except GaussFlowError as e:
        print(f"gaussflow: solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
