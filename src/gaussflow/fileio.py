"""File formats for bodies, trajectories, check reports and geometry.

Data files are plain text with a one-line header carrying the tool
version and the config digest of the producing command. Floats in data
files use 17 significant digits so a reload reproduces the exact bits,
except in the checks.csv `inputs` column: that is json-module text, with
Python's shortest round-trip repr (1.0 and 0.3333333333333333 where
checks.json has 1 and 0.33333333333333331), which reloads exactly too.
Geometry exports (SVG, OBJ) use 9, they feed plots rather than further
computation. All writers are deterministic: the same inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np
from numpy.typing import NDArray

from . import __version__
from . import sphere_grid as sg
from .body import SupportFunction, boundary_points
from .flow import DiagnosticsRecord

__all__ = [
    "write_body",
    "read_body",
    "trajectory_columns",
    "write_trajectory",
    "write_checks_csv",
    "write_checks_json",
    "write_sweep",
    "write_svg",
    "write_obj",
]

BODY_FORMAT = "gaussflow-body"
CHECKS_FORMAT = "gaussflow-checks"
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _header(digest: str) -> str:
    return f"# gaussflow {__version__} config={digest}"


def _render_json(obj) -> str:
    """Canonical JSON text: sorted keys, floats at 17 significant digits,
    NaN/Infinity in the json-module dialect. The common cases come first:
    a finite 1-D float array is one format call."""
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return "%.17g" % x
        if math.isnan(x):
            return "NaN"
        return "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_json_str(str(k))}: {_render_json(obj[k])}"
                               for k in sorted(obj, key=str)) + "}"
    if (type(obj) is np.ndarray and obj.dtype == float and obj.ndim == 1
            and np.isfinite(obj).all()):
        return "[" + ("%.17g, " * obj.size % tuple(obj.tolist()))[:-2] + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_body(path, u: SupportFunction, digest: str = "none") -> None:
    """Body file: JSON with grid parameters, basepoint and node values."""
    if not (np.isfinite(u.values).all() and np.isfinite(u.basepoint).all()):
        raise ValueError("body contains non-finite values")
    doc = (
        "{\n"
        f'  "format": {_json_str(BODY_FORMAT)},\n'
        f'  "version": {_json_str(__version__)},\n'
        f'  "config": {_json_str(digest)},\n'
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
    """CSV column names for DiagnosticsRecord rows in dimension n: the
    record's fields in order, with entropy_point as ze_0..ze_n and
    soliton_res as soliton_residual."""
    renamed = {"entropy_point": [f"ze_{i}" for i in range(dim + 1)],
               "soliton_res": ["soliton_residual"]}
    return [col for name in _RECORD_FIELDS for col in renamed.get(name, [name])]


def _write_csv(path, digest: str, columns, rows) -> None:
    """The one CSV layout: header line, column names, one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_header(digest) + "\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def write_trajectory(path, records, dim: int, digest: str = "none") -> None:
    """Diagnostics CSV: one row per sample, the record's fields in order."""
    _write_csv(path, digest, trajectory_columns(dim),
               ([_fmt(v) for v in np.hstack([getattr(rec, n) for n in _RECORD_FIELDS])]
                for rec in records))


def write_checks_csv(path, reports, digest: str = "none") -> None:
    """Check reports as CSV; the inputs dict is JSON in the last column."""
    _write_csv(path, digest, ["name", "passed", "lhs", "rhs", "slack", "tolerance", "inputs"],
               ([r.name, str(r.passed).lower(), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.slack),
                 _fmt(r.tolerance), json.dumps(r.inputs, sort_keys=True)] for r in reports))


def write_sweep(path, rows, digest: str = "none") -> None:
    """Sweep CSV: one (alpha, seed, steps, stop_reason, residual,
    hausdorff_to_ball, lambda, status) row per run."""
    _write_csv(path, digest, ["alpha", "seed", "steps", "stop_reason", "residual",
                              "hausdorff_to_ball", "lambda", "status"],
               ([_fmt(a), s, steps, reason, _fmt(res), _fmt(haus), _fmt(lam), status]
                for a, s, steps, reason, res, haus, lam, status in rows))


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
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.9g %.9g %.9g %.9g">' % vb,
    ]
    for i, c in enumerate(curves):
        xy = np.column_stack([c[:, 0], -c[:, 1]])
        pts = ("%.9g %.9g L " * len(c))[:-3] % tuple(xy.ravel().tolist())
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(f'  <path d="M {pts} Z" fill="none" stroke="{color}" '
                     f'stroke-width="{stroke:.9g}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _obj_faces(bandlimit: int) -> str:
    """Face lines of the OBJ mesh at a bandlimit: a fan about each pole
    vertex and two triangles per quad between neighbouring rings."""
    nt, nphi = bandlimit + 1, 2 * bandlimit + 2
    M = nt * nphi  # index of the first pole vertex
    ring = np.arange(nt)[:, None] * nphi  # index of each ring's first vertex
    k, k1 = np.arange(nphi), np.roll(np.arange(nphi), -1)  # k1 = (k + 1) % nphi
    a, b, c, d = ring[:-1] + k, ring[1:] + k, ring[1:] + k1, ring[:-1] + k1
    faces = np.vstack([np.column_stack([np.full(nphi, M), k, k1]),
                       np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3),
                       np.column_stack([np.full(nphi, M + 1), ring[-1] + k1, ring[-1] + k])]) + 1
    return "f %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist())


def write_obj(path, u: SupportFunction, digest: str = "none") -> None:
    """Triangle mesh of an n=2 body boundary, outward-oriented.

    Vertices are the boundary points over the grid plus two pole
    vertices obtained by evaluating the boundary map's bandlimited
    interpolant at the poles; faces are two fans and quad strips split
    into triangles."""
    if u.dim != 2:
        raise ValueError("OBJ export needs a 2-sphere body")
    X = boundary_points(u)
    V = np.vstack([X, sg.evaluate_at(u.grid, X.T, [0.0, np.pi], [0.0, 0.0]).T])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_header(digest) + "\n")
        f.write("v %.9g %.9g %.9g\n" * len(V) % tuple(V.ravel().tolist()))
        f.write(_obj_faces(u.grid.bandlimit))
