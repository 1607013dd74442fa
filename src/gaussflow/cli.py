"""Command-line front door: build bodies, run flows, verify inequality
suites, sweep over exponents and seeds.

Subcommands
-----------
make-body  write a body file: ball, ellipse/ellipsoid, or seeded random
flow       evolve a body file; diagnostics CSV, final body, SVG (n=1)
           or OBJ (n=2) geometry
verify     run inequality check suites; CSV + JSON reports
sweep      normalized runs over an alpha x seed matrix; aggregated CSV

Each flag is declared once, and its type carries its own value rule;
only rules that tie flags together are checked after parsing. Options
can come from a flat key=value config file (--config). Its keys are the
subcommand's own flag names, and its lines are parsed one at a time as
those flags placed before the command line's, so explicit flags override
the file, the file overrides built-in defaults, and a bad key or value
names its file and line. Every output file carries the tool version and
a digest of the resolved config, and identical configs produce
byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 solver failure, 3 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def _list(item):
    """Comma-separated item values; blank text is the empty tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(tok) for tok in text.split(",")) if text.strip() else ()
    parse.__name__ = f"{item.__name__} list"
    return parse


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


# the type names argparse prints in "invalid <name> value: ..."
_opt_float.__name__ = "float or 'none'"
_residual.__name__ = "float, 'default' or 'none'"
_bool.__name__ = "boolean"


def _rule(convert, holds, rule: str):
    """A flag type that converts its text and then requires holds(value)."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid <name> value"
    return parse


# Every flag once: its argparse keywords, value rule included.
_FLAGS = {
    "config": dict(help="flat key = value file; keys are this subcommand's "
                   "flag names, # starts a comment"),
    "dim": dict(type=int, choices=(1, 2), help="1 (curves) or 2 (surfaces)"),
    "bandlimit": dict(type=_rule(int, lambda v: v >= 4, "must be >= 4"),
                      help="spectral bandlimit L"),
    "out-dir": dict(help="output directory"),
    "out": dict(help="output file"),
    "input": dict(help="body file"),
    "shape": dict(choices=_SHAPES),
    "radius": dict(type=_rule(float, lambda v: v > 0, "must be positive")),
    "axes": dict(type=_rule(_list(float), lambda v: all(a > 0 for a in v),
                            "entries must be positive"),
                 help="comma-separated semi-axes (dim+1 of them)"),
    "seed": dict(type=_rule(int, lambda v: v >= 0, "must be >= 0")),
    "amplitude": dict(type=_rule(float, lambda v: 0 <= v < 1, "must be in [0, 1)")),
    "symmetric": dict(type=_bool, nargs="?", const=True,
                      help="centrally symmetric random body (optional true/false)"),
    "normalize": dict(type=_bool, nargs="?", const=True,
                      help="rescale to unit-ball volume (optional true/false)"),
    "kind": dict(choices=gf.KINDS),
    "alpha": dict(type=_rule(_list(float),
                             lambda v: all(math.isfinite(a) and a != 0 for a in v),
                             "entries must be finite and nonzero"),
                  help="comma-separated exponents: one for flow, at least one "
                  "for sweep; verify defaults to a built-in grid"),
    "t-end": dict(type=_rule(float, lambda v: v >= 0, "must be nonnegative")),
    "sample-every": dict(type=_rule(_opt_float, lambda v: v is None or v > 0,
                                    "must be positive or 'none'")),
    "stop-residual": dict(type=_residual, help="float, 'default' or 'none'"),
    "u-floor": dict(type=_rule(float, lambda v: v > 0, "must be positive")),
    "svg-curves": dict(type=_rule(int, lambda v: v >= 2, "must be >= 2"),
                       help="max snapshot curves in the SVG overlay (n=1)"),
    "suite": dict(choices=_SUITES),
    "seeds": dict(type=_rule(_list(int), lambda v: v and min(v) >= 0,
                             "must be nonempty, each >= 0"),
                  help="explicit seed list"),
    "seed-count": dict(type=_rule(int, lambda v: v >= 1, "must be >= 1"),
                       help="use seeds 0..N-1"),
    "workers": dict(type=_rule(int, lambda v: v >= 1, "must be >= 1"),
                    help="parallel runs"),
}

# Each subcommand's help and its flags after --config --dim --bandlimit --out-dir.
_SUBCOMMANDS = {
    "make-body": ("write a body file",
                  "shape radius axes seed amplitude symmetric normalize out"),
    "flow": ("run a flow from a body file",
             "input kind alpha t-end sample-every stop-residual u-floor svg-curves"),
    "verify": ("run inequality check suites", "suite alpha seeds seed-count amplitude"),
    "sweep": ("alpha x seed sweep of normalized runs", "alpha seeds seed-count shape "
              "axes amplitude symmetric t-end sample-every stop-residual workers"),
}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every subcommand, built once per process; parsing
    reads it without changing it, so no call sees an earlier call's flags."""
    parser = _Parser(prog="gaussflow",
                     description="Gauss curvature flows in support-function form.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, (help, flags) in _SUBCOMMANDS.items():
        # allow_abbrev=False: a config key must be a whole flag name
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in ["config", "dim", "bandlimit", "out-dir", *flags.split()]:
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **_FLAGS[flag])
    sub.choices["sweep"].set_defaults(shape="random")
    return parser


def resolve(ns: argparse.Namespace) -> RunConfig:
    """Fill built-in defaults in around the parsed flags."""
    data = {k: v for k, v in vars(ns).items() if k not in ("config", "subcommand")}
    cfg = RunConfig(subcommand=ns.subcommand, **data)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The rules that tie flags together; a flag's own rule is in its type."""
    if cfg.shape == "ellipse" and len(cfg.axes or ()) != cfg.dim + 1:
        raise UsageError(f"ellipse needs --axes with {cfg.dim + 1} entries")
    if cfg.subcommand == "flow" and cfg.input is None:
        raise UsageError("flow needs --input")
    if cfg.subcommand == "flow" and len(cfg.alpha) != 1:
        raise UsageError("flow needs exactly one alpha")
    if cfg.subcommand == "sweep" and not cfg.alpha:
        raise UsageError("alpha list must not be empty")


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
    if cfg.suite == "ball":
        (reports,) = gi.body_checks([gb.ball(sg.build_grid(cfg.dim, cfg.bandlimit))],
                                    alphas or gi.alpha_grid(cfg.dim))
        if isinstance(reports, GaussFlowError):
            raise reports
    else:
        reports = gi.fuzz_suite(cfg.dim, _resolve_seeds(cfg, default_count=10),
                                alphas=alphas, bandlimit=cfg.bandlimit,
                                amplitude=cfg.amplitude)
    digest = config_digest(cfg)
    out = _out_dir(cfg)
    fileio.write_checks_csv(out / "checks.csv", reports, digest)
    fileio.write_checks_json(out / "checks.json", reports, digest)
    gating = [r for r in reports if "(reported)" not in r.name]
    failures = sum(not r.passed for r in gating)
    print(f"{len(reports)} checks, {failures} failures, outputs in {out}")
    if any(r.name == "check-error" for r in reports):  # a seed's solver failure
        return 2
    return 1 if failures else 0


def _sweep_one(cfg: RunConfig, alpha: float, seed: int):
    try:
        u0 = _build_shape(cfg, seed)
        u0 = gb.normalize_volume(u0)
        rr = gf.run(u0, "normalized", alpha, cfg.t_end, cfg.sample_every,
                    stop_residual=cfg.stop_residual)
        final, last = rr.final_state.u, rr.records[-1]  # last describes final
        haus = float(np.abs(final.values - final.grid.nodes @ last.entropy_point
                            - 1.0).max())
        return (alpha, seed, rr.steps, rr.stop_reason, last.soliton_res, haus,
                gf.soliton_residual(final, alpha).lam, "ok")
    except (GaussFlowError, ValueError) as e:
        partial = e.partial if isinstance(e, StepFailure) else None
        steps = 0 if partial is None else partial.steps  # those before a failed step
        return (alpha, seed, steps, "failed", math.nan, math.nan, math.nan,
                f"failed:{type(e).__name__}")


def cmd_sweep(cfg: RunConfig) -> int:
    tasks = [(a, s) for a in cfg.alpha for s in _resolve_seeds(cfg, default_count=3)]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda t: _sweep_one(cfg, *t), tasks))
    else:
        rows = [_sweep_one(cfg, *t) for t in tasks]
    rows.sort(key=lambda r: (r[0], r[1]))
    path = _out_dir(cfg) / "sweep.csv"
    fileio.write_sweep(path, rows, config_digest(cfg))
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
        if getattr(ns, "config", None):
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
