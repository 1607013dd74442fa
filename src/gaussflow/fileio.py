"""File formats for bodies, trajectories, check reports and geometry.

Data files are plain text with a one-line header carrying the tool
version and the config digest of the producing command. Floats in data
files use 17 significant digits so a reload reproduces the exact bits;
geometry exports (SVG, OBJ) use 9, they feed plots rather than further
computation. All writers are deterministic: the same inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from numpy.typing import NDArray

from . import __version__
from . import sphere_grid as sg
from .body import SupportFunction, boundary_points

__all__ = [
    "write_body",
    "read_body",
    "trajectory_columns",
    "write_trajectory",
    "write_checks_csv",
    "write_checks_json",
    "write_svg",
    "write_obj",
]

BODY_FORMAT = "gaussflow-body"
CHECKS_FORMAT = "gaussflow-checks"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt9(x: float) -> str:
    return f"{float(x):.9g}"


def _header(digest: str) -> str:
    return f"# gaussflow {__version__} config={digest}"


def _render_json(obj) -> str:
    """Canonical JSON text: sorted keys, floats at 17 significant digits,
    NaN/Infinity in the json-module dialect."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return _fmt(x)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_render_json(v)}"
                               for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_body(path, u: SupportFunction, digest: str = "none") -> None:
    """Body file: JSON with grid parameters, basepoint and node values."""
    if not (np.isfinite(u.values).all() and np.isfinite(u.basepoint).all()):
        raise ValueError("body contains non-finite values")
    doc = (
        "{\n"
        f'  "format": {json.dumps(BODY_FORMAT)},\n'
        f'  "version": {json.dumps(__version__)},\n'
        f'  "config": {json.dumps(digest)},\n'
        f'  "dim": {u.dim},\n'
        f'  "bandlimit": {u.grid.bandlimit},\n'
        f'  "basepoint": {_render_json(u.basepoint)},\n'
        f'  "values": {_render_json(u.values)}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(doc)


def read_body(path) -> SupportFunction:
    """Load a body file; validates the format tag and reconstructs the
    grid, so convexity is re-checked on load."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict) or doc.get("format") != BODY_FORMAT:
        raise ValueError(f"{path}: not a {BODY_FORMAT} file")
    try:
        grid = sg.build_grid(int(doc["dim"]), int(doc["bandlimit"]))
        values = np.asarray(doc["values"], dtype=float)
        basepoint = np.asarray(doc["basepoint"], dtype=float)
    except KeyError as e:
        raise ValueError(f"{path}: missing field {e}") from e
    return SupportFunction(grid, values, basepoint)


def trajectory_columns(dim: int) -> list[str]:
    """CSV column names for DiagnosticsRecord rows in dimension n."""
    cols = ["time", "volume", "entropy", "entropy_origin"]
    cols += [f"ze_{i}" for i in range(dim + 1)]
    cols += ["zalpha", "u_min", "u_max", "k_min", "k_max",
             "w_plus", "w_minus", "rho_plus", "rho_minus",
             "soliton_residual", "dissipation", "j1", "j2", "j3", "q"]
    return cols


def _record_values(rec) -> list[float]:
    vals = [rec.time, rec.volume, rec.entropy, rec.entropy_origin]
    vals += [float(c) for c in rec.entropy_point]
    vals += [rec.zalpha, rec.u_min, rec.u_max, rec.k_min, rec.k_max,
             rec.w_plus, rec.w_minus, rec.rho_plus, rec.rho_minus,
             rec.soliton_res, rec.dissipation, rec.j1, rec.j2, rec.j3, rec.q]
    return vals


def write_trajectory(path, records, dim: int, digest: str = "none") -> None:
    """Diagnostics CSV: header line, column names, one row per sample."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_header(digest) + "\n")
        f.write(",".join(trajectory_columns(dim)) + "\n")
        for rec in records:
            f.write(",".join(_fmt(v) for v in _record_values(rec)) + "\n")


def write_checks_csv(path, reports, digest: str = "none") -> None:
    """Check reports as CSV; the inputs dict is JSON in the last column."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_header(digest) + "\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["name", "passed", "lhs", "rhs", "slack", "tolerance", "inputs"])
        for r in reports:
            w.writerow([r.name, str(r.passed).lower(), _fmt(r.lhs), _fmt(r.rhs),
                        _fmt(r.slack), _fmt(r.tolerance),
                        json.dumps(r.inputs, sort_keys=True)])


def write_checks_json(path, reports, digest: str = "none") -> None:
    """Check reports as one JSON document with an overall verdict
    (informational "(reported)" rows do not gate it)."""
    gating = [r for r in reports if "(reported)" not in r.name]
    doc = {
        "format": CHECKS_FORMAT,
        "version": __version__,
        "config": digest,
        "passed": all(r.passed for r in gating),
        "checks": len(reports),
        "failures": sum(not r.passed for r in gating),
        "reports": [
            {"name": r.name, "inputs": r.inputs, "lhs": r.lhs, "rhs": r.rhs,
             "slack": r.slack, "tolerance": r.tolerance, "passed": r.passed}
            for r in reports
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_render_json(doc) + "\n")


_PALETTE = ["#1f4e79", "#2e75b6", "#5b9bd5", "#9dc3e6", "#c55a11",
            "#ed7d31", "#f4b183", "#548235", "#70ad47", "#a9d18e",
            "#7030a0", "#b27fd4"]


def write_svg(path, curves, digest: str = "none") -> None:
    """Overlay of closed planar curves (lists of (N, 2) point arrays),
    e.g. flow snapshots of an n=1 boundary."""
    curves = [np.asarray(c, dtype=float) for c in curves]
    if not curves:
        raise ValueError("need at least one curve")
    allpts = np.vstack(curves)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    # svg y grows downward, so flip the second coordinate
    vb = (lo[0] - pad, -hi[1] - pad, (hi[0] - lo[0]) + 2 * pad,
          (hi[1] - lo[1]) + 2 * pad)
    stroke = 0.004 * span
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- gaussflow {__version__} config={digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt9(vb[0])} {_fmt9(vb[1])} {_fmt9(vb[2])} {_fmt9(vb[3])}">',
    ]
    for i, c in enumerate(curves):
        pts = " L ".join(f"{_fmt9(p[0])} {_fmt9(-p[1])}" for p in c)
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(f'  <path d="M {pts} Z" fill="none" stroke="{color}" '
                     f'stroke-width="{_fmt9(stroke)}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_obj(path, u: SupportFunction, digest: str = "none") -> None:
    """Triangle mesh of an n=2 body boundary, outward-oriented.

    Vertices are the boundary points over the grid plus two pole
    vertices obtained by evaluating the boundary map's bandlimited
    interpolant at the poles; faces are two fans and quad strips split
    into triangles."""
    if u.dim != 2:
        raise ValueError("OBJ export needs a 2-sphere body")
    grid = u.grid
    X = boundary_points(u)
    poles = np.column_stack([sg.evaluate_at(grid, X[:, i], [0.0, np.pi], [0.0, 0.0])
                             for i in range(3)])
    nt = grid.bandlimit + 1
    nphi = 2 * grid.bandlimit + 2
    M = nt * nphi
    faces = [(M, k, (k + 1) % nphi) for k in range(nphi)]
    for j in range(nt - 1):
        for k in range(nphi):
            k1 = (k + 1) % nphi
            a, b = j * nphi + k, (j + 1) * nphi + k
            c, d = (j + 1) * nphi + k1, j * nphi + k1
            faces.append((a, b, c))
            faces.append((a, c, d))
    base = (nt - 1) * nphi
    faces += [(M + 1, base + (k + 1) % nphi, base + k) for k in range(nphi)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# gaussflow {__version__} config={digest}\n")
        for v in np.vstack([X, poles]):
            f.write(f"v {_fmt9(v[0])} {_fmt9(v[1])} {_fmt9(v[2])}\n")
        for a, b, c in faces:
            f.write(f"f {a + 1} {b + 1} {c + 1}\n")
