"""Command-line front door: build bodies, run flows, verify inequality
suites, sweep over exponents and seeds.

Subcommands
-----------
make-body  write a body file: ball, ellipse/ellipsoid, or seeded random
flow       evolve a body file; diagnostics CSV, final body, SVG (n=1)
           or OBJ (n=2) geometry
verify     run inequality check suites; CSV + JSON reports
sweep      normalized runs over an alpha x seed matrix; aggregated CSV

Options can come from a flat key=value config file (--config). Its keys
are the subcommand's own flag names, and its lines are parsed as those
flags placed before the command line's, so explicit flags override the
file and the file overrides built-in defaults; any other key is a usage
error. Every output file carries the tool version and a digest of the
resolved config, and identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 solver failure, 3 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import body as gb
from . import fileio
from . import flow as gf
from . import inequalities as gi
from . import sphere_grid as sg
from .errors import GaussFlowError, StepFailure

__all__ = ["RunConfig", "main"]


_SHAPES = ("ball", "ellipse", "random")
_SUITES = ("ball", "fuzz")


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


def _config_args(parser: argparse.ArgumentParser, subcommand: str,
                 path: str) -> list[str]:
    """A config file's key = value lines as --key=value arguments.

    `_` in a key becomes `-`, `#` starts a comment anywhere on a line, and
    each line is parsed alone first so an error names its line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from e
    args = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not eq or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another")
        arg = f"--{key}={value.strip()}"
        try:
            parser.parse_args([subcommand, arg])
        except UsageError as e:
            raise UsageError(f"{path}:{lineno}: {e}") from e
        args.append(arg)
    return args


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaussflow",
                     description="Gauss curvature flows in support-function form.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def subcommand(name, help):
        # allow_abbrev=False: a config key must be a whole flag name
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value file; keys are this "
                       "subcommand's flag names, # starts a comment")
        p.add_argument("--dim", type=int, default=argparse.SUPPRESS,
                       help="1 (curves) or 2 (surfaces)")
        p.add_argument("--bandlimit", type=int, default=argparse.SUPPRESS,
                       help="spectral bandlimit L")
        p.add_argument("--out-dir", default=argparse.SUPPRESS,
                       help="output directory")
        return p

    p = subcommand("make-body", "write a body file")
    p.add_argument("--shape", choices=_SHAPES, default=argparse.SUPPRESS)
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS)
    p.add_argument("--axes", type=_float_list, default=argparse.SUPPRESS,
                   help="comma-separated semi-axes (dim+1 of them)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    p.add_argument("--symmetric", type=_bool, nargs="?", const=True,
                   default=argparse.SUPPRESS,
                   help="centrally symmetric random body (optional true/false)")
    p.add_argument("--normalize", type=_bool, nargs="?", const=True,
                   default=argparse.SUPPRESS,
                   help="rescale to unit-ball volume (optional true/false)")
    p.add_argument("--out", default=argparse.SUPPRESS, help="output file")

    p = subcommand("flow", "run a flow from a body file")
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

    p = subcommand("verify", "run inequality check suites")
    p.add_argument("--suite", choices=_SUITES, default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=_float_list, default=argparse.SUPPRESS,
                   help="exponent grid (default: built-in grid)")
    p.add_argument("--seeds", type=_int_list, default=argparse.SUPPRESS,
                   help="explicit seed list")
    p.add_argument("--seed-count", type=int, default=argparse.SUPPRESS,
                   help="use seeds 0..N-1")
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)

    p = subcommand("sweep", "alpha x seed sweep of normalized runs")
    p.add_argument("--alpha", type=_float_list, default=argparse.SUPPRESS,
                   help="exponent grid (required, nonempty)")
    p.add_argument("--seeds", type=_int_list, default=argparse.SUPPRESS)
    p.add_argument("--seed-count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--shape", choices=_SHAPES, default=argparse.SUPPRESS)
    p.add_argument("--axes", type=_float_list, default=argparse.SUPPRESS)
    p.add_argument("--amplitude", type=float, default=argparse.SUPPRESS)
    p.add_argument("--symmetric", type=_bool, nargs="?", const=True,
                   default=argparse.SUPPRESS, help="optional true/false")
    p.add_argument("--t-end", type=float, default=argparse.SUPPRESS)
    p.add_argument("--stop-residual", type=_residual, default=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="parallel runs")
    return parser


def resolve(ns: argparse.Namespace) -> RunConfig:
    """Fill built-in defaults in around the parsed flags."""
    data = {k: v for k, v in vars(ns).items() if k not in ("config", "subcommand")}
    if ns.subcommand == "sweep":
        data.setdefault("shape", "random")
    cfg = RunConfig(subcommand=ns.subcommand, **data)
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


def cmd_verify(cfg: RunConfig) -> int:
    alphas = tuple(cfg.alpha) if cfg.alpha else None
    solver_failures = 0
    if cfg.suite == "ball":
        reports = gi.body_checks(gb.ball(sg.build_grid(cfg.dim, cfg.bandlimit)),
                                 alphas or gi.alpha_grid(cfg.dim))
    else:
        reports = []
        for seed in _resolve_seeds(cfg, default_count=10):
            try:
                reports.extend(gi.fuzz_suite(cfg.dim, [seed], alphas=alphas,
                                             bandlimit=cfg.bandlimit,
                                             amplitude=cfg.amplitude))
            except GaussFlowError as e:
                solver_failures += 1
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
    if solver_failures:  # written as check-error rows, exit as a solver failure
        return 2
    return 1 if failures else 0


def _sweep_one(cfg: RunConfig, alpha: float, seed: int):
    try:
        u0 = _build_shape(cfg, seed)
        u0 = gb.normalize_volume(u0)
        rr = gf.run(u0, "normalized", alpha, cfg.t_end,
                    stop_residual=cfg.stop_residual)
        final, last = rr.final_state.u, rr.records[-1]  # last describes final
        haus = float(np.abs(final.values - final.grid.nodes @ last.entropy_point
                            - 1.0).max())
        return (alpha, seed, rr.steps, rr.stop_reason, last.soliton_res, haus,
                gf.soliton_residual(final, alpha).lam, "ok")
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.subcommand is None:
            parser.error("a subcommand is required")
        if ns.config:
            rest = argv[argv.index(ns.subcommand) + 1:]
            file_args = _config_args(parser, ns.subcommand, ns.config)
            ns = parser.parse_args([ns.subcommand, *file_args, *rest])
        cfg = resolve(ns)
        return _DISPATCH[cfg.subcommand](cfg)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"gaussflow: error: {e}", file=sys.stderr)
        return 3
    except GaussFlowError as e:
        print(f"gaussflow: solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
