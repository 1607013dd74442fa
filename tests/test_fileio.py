"""Round trips and determinism of the file formats."""

import csv
import dataclasses
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import __version__
from gaussflow import body as gb
from gaussflow import fileio
from gaussflow import flow as gf
from gaussflow import inequalities as gi
from gaussflow import sphere_grid as sg
from gaussflow.errors import ConvexityLost
from gaussflow.inequalities import CheckReport


def short_run():
    u0 = gb.ball(sg.build_grid(1, 8))
    return gf.run(u0, "normalized", 1.0, 0.02, 0.01, stop_residual=None)


class TestBodyFiles:
    @pytest.mark.parametrize("make", [
        lambda: gb.random_body(3, 1, 16, 0.1),
        lambda: gb.ellipse(sg.build_grid(2, 8), (1.2, 1.0, 0.9)),
    ])
    def test_round_trip_exact(self, tmp_path, make):
        u = make()
        p = tmp_path / "b.json"
        fileio.write_body(p, u, "cafe01234567")
        v = fileio.read_body(p)
        assert np.array_equal(u.values, v.values)
        assert np.array_equal(u.basepoint, v.basepoint)
        assert v.grid is u.grid
        p2 = tmp_path / "b2.json"
        fileio.write_body(p2, v, "cafe01234567")
        assert p.read_bytes() == p2.read_bytes()

    def test_header_fields(self, tmp_path):
        p = tmp_path / "b.json"
        fileio.write_body(p, gb.ball(sg.build_grid(1, 8)), "deadbeef0123")
        doc = json.loads(p.read_text())
        assert doc["format"] == "gaussflow-body"
        assert doc["config"] == "deadbeef0123"
        assert doc["dim"] == 1
        assert doc["bandlimit"] == 8

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            fileio.read_body(p)

    def test_rejects_wrong_format_tag(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="gaussflow-body"):
            fileio.read_body(p)

    def test_rejects_missing_field(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "gaussflow-body", "dim": 1, "bandlimit": 8}')
        with pytest.raises(ValueError, match="missing field"):
            fileio.read_body(p)

    def test_convexity_rechecked_on_load(self, tmp_path):
        g = sg.build_grid(1, 8)
        u = gb.ball(g)
        p = tmp_path / "x.json"
        fileio.write_body(p, u)
        doc = json.loads(p.read_text())
        doc["values"] = [1.0 + 0.8 * math.cos(2 * t) for t in g.thetas]
        p.write_text(json.dumps(doc))
        with pytest.raises(ConvexityLost):
            fileio.read_body(p)

    def test_rejects_nonfinite(self, tmp_path):
        u = gb.ball(sg.build_grid(1, 8))
        bad = gb.SupportFunction.__new__(gb.SupportFunction)
        object.__setattr__(bad, "grid", u.grid)
        object.__setattr__(bad, "values", np.full(u.grid.node_count, np.nan))
        object.__setattr__(bad, "basepoint", np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            fileio.write_body(tmp_path / "x.json", bad)


class TestTrajectoryCsv:
    def test_layout_and_values(self, tmp_path):
        rr = short_run()
        p = tmp_path / "t.csv"
        fileio.write_trajectory(p, rr.records, 1, "0123456789ab")
        lines = p.read_text().splitlines()
        assert lines[0] == "# gaussflow 0.1.0 config=0123456789ab"
        cols = lines[1].split(",")
        assert cols == fileio.trajectory_columns(1)
        assert len(cols) == 21
        rows = np.array([[float(x) for x in l.split(",")] for l in lines[2:]])
        assert rows.shape[0] == len(rr.records)
        t = rows[:, cols.index("time")]
        assert np.all(np.diff(t) > 0)
        assert_allclose(rows[:, cols.index("volume")], np.pi, atol=1e-10)
        # expanding-only quantities are recorded as nan here
        assert np.isnan(rows[:, cols.index("j1")]).all()
        assert np.isfinite(rows[:, cols.index("dissipation")]).all()

    def test_byte_determinism(self, tmp_path):
        rr = short_run()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_trajectory(a, rr.records, 1, "d")
        fileio.write_trajectory(b, rr.records, 1, "d")
        assert a.read_bytes() == b.read_bytes()

    def test_n2_columns(self):
        cols = fileio.trajectory_columns(2)
        assert len(cols) == 22
        assert "ze_2" in cols


def sample_reports():
    return [
        CheckReport(name="alpha-check", inputs={"alpha": 0.5, "body": "ab12"},
                    lhs=1.0, rhs=2.0, slack=1.0, tolerance=1e-8, passed=True),
        CheckReport(name="beta-check (reported)", inputs={"z": ["0.1", "0.2"]},
                    lhs=3.0, rhs=2.5, slack=-0.5, tolerance=1e-8, passed=False),
    ]


class TestChecksFiles:
    def test_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        fileio.write_checks_csv(p, sample_reports(), "beef")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# gaussflow")
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["name", "passed", "lhs", "rhs", "slack",
                          "tolerance", "inputs"]
        assert rows[1][0] == "alpha-check"
        assert rows[1][1] == "true"
        assert json.loads(rows[1][6]) == {"alpha": 0.5, "body": "ab12"}
        assert rows[2][1] == "false"

    def test_json_gating_ignores_reported_rows(self, tmp_path):
        p = tmp_path / "c.json"
        fileio.write_checks_json(p, sample_reports(), "beef")
        doc = json.loads(p.read_text())
        assert doc["format"] == "gaussflow-checks"
        assert doc["passed"] is True  # the failing row is informational
        assert doc["checks"] == 2
        assert doc["failures"] == 0
        assert doc["reports"][0]["slack"] == 1.0

    def test_json_gating_fails_on_real_failure(self, tmp_path):
        bad = CheckReport(name="gating", inputs={}, lhs=math.nan, rhs=0.0,
                          slack=math.nan, tolerance=0.0, passed=False)
        p = tmp_path / "c.json"
        fileio.write_checks_json(p, [bad], "x")
        doc = json.loads(p.read_text())
        assert doc["passed"] is False
        assert doc["failures"] == 1
        assert math.isnan(doc["reports"][0]["lhs"])

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        fileio.write_checks_json(a, sample_reports(), "z")
        fileio.write_checks_json(b, sample_reports(), "z")
        assert a.read_bytes() == b.read_bytes()


class TestGeometry:
    def test_svg(self, tmp_path):
        u = gb.ellipse(sg.build_grid(1, 24), (2.0, 0.5))
        curves = [gb.boundary_points(u), gb.boundary_points(gb.scale(u, 0.5))]
        p = tmp_path / "c.svg"
        fileio.write_svg(p, curves, "feed")
        text = p.read_text()
        assert "config=feed" in text
        root = ET.fromstring(text)
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == 2
        vb = [float(x) for x in root.attrib["viewBox"].split()]
        assert vb[0] < -2.0 and vb[0] + vb[2] > 2.0

    def test_svg_needs_curves(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_svg(tmp_path / "x.svg", [])

    def test_obj_mesh_closes_and_orients(self, tmp_path):
        u = gb.ball(sg.build_grid(2, 8))
        p = tmp_path / "b.obj"
        fileio.write_obj(p, u, "0b0b")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# gaussflow")
        verts = np.array([[float(x) for x in l.split()[1:]]
                          for l in lines if l.startswith("v ")])
        faces = np.array([[int(x) for x in l.split()[1:]]
                          for l in lines if l.startswith("f ")]) - 1
        assert verts.shape == (9 * 18 + 2, 3)
        assert faces.shape == (18 * 2 + 8 * 18 * 2, 3)
        assert_allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-9)
        vol = sum(np.dot(verts[a], np.cross(verts[b], verts[c]))
                  for a, b, c in faces) / 6.0
        assert vol > 0
        assert abs(vol - 4 * np.pi / 3) < 0.06 * 4 * np.pi / 3
        # every edge is shared by exactly two faces, opposite orientation
        edges = {}
        for a, b, c in faces:
            for e in ((a, b), (b, c), (c, a)):
                edges[e] = edges.get(e, 0) + 1
        assert all(n == 1 for n in edges.values())
        assert all((b, a) in edges for a, b in edges)

    def test_obj_needs_n2(self, tmp_path):
        with pytest.raises(ValueError, match="2-sphere"):
            fileio.write_obj(tmp_path / "x.obj", gb.ball(sg.build_grid(1, 8)))


# Reference writers: the one-value-per-call renderers the formats were
# first written with. The writers must give their bytes exactly.

def ref_fmt(x):
    return f"{float(x):.17g}"


def ref_fmt9(x):
    return f"{float(x):.9g}"


def ref_render_json(obj):
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
        return ref_fmt(x)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(ref_render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {ref_render_json(v)}"
                               for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_body_text(u, digest):
    return ("{\n"
            f'  "format": {json.dumps("gaussflow-body")},\n'
            f'  "version": {json.dumps(__version__)},\n'
            f'  "config": {json.dumps(digest)},\n'
            f'  "dim": {u.dim},\n'
            f'  "bandlimit": {u.grid.bandlimit},\n'
            f'  "basepoint": {ref_render_json(u.basepoint)},\n'
            f'  "values": {ref_render_json(u.values)}\n'
            "}\n")


def ref_obj_text(u, digest):
    grid = u.grid
    X = gb.boundary_points(u)
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
    lines = [f"# gaussflow {__version__} config={digest}"]
    lines += [f"v {ref_fmt9(v[0])} {ref_fmt9(v[1])} {ref_fmt9(v[2])}"
              for v in np.vstack([X, poles])]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def ref_svg_text(curves, digest):
    curves = [np.asarray(c, dtype=float) for c in curves]
    allpts = np.vstack(curves)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    pad = 0.05 * span
    vb = (lo[0] - pad, -hi[1] - pad, (hi[0] - lo[0]) + 2 * pad,
          (hi[1] - lo[1]) + 2 * pad)
    stroke = 0.004 * span
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- gaussflow {__version__} config={digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{ref_fmt9(vb[0])} {ref_fmt9(vb[1])} {ref_fmt9(vb[2])} {ref_fmt9(vb[3])}">',
    ]
    for i, c in enumerate(curves):
        pts = " L ".join(f"{ref_fmt9(p[0])} {ref_fmt9(-p[1])}" for p in c)
        color = fileio._PALETTE[i % len(fileio._PALETTE)]
        lines.append(f'  <path d="M {pts} Z" fill="none" stroke="{color}" '
                     f'stroke-width="{ref_fmt9(stroke)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def ref_checks_csv_text(reports, digest):
    f = io.StringIO()
    f.write(f"# gaussflow {__version__} config={digest}\n")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["name", "passed", "lhs", "rhs", "slack", "tolerance", "inputs"])
    w.writerows([r.name, str(r.passed).lower(), ref_fmt(r.lhs), ref_fmt(r.rhs),
                 ref_fmt(r.slack), ref_fmt(r.tolerance), json.dumps(r.inputs, sort_keys=True)]
                for r in reports)
    return f.getvalue()


def ref_trajectory_text(records, dim, digest):
    f = io.StringIO()
    f.write(f"# gaussflow {__version__} config={digest}\n")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(fileio.trajectory_columns(dim))
    fields = [fld.name for fld in dataclasses.fields(gf.DiagnosticsRecord)]
    w.writerows([ref_fmt(v) for v in np.hstack([getattr(rec, n) for n in fields])]
                for rec in records)
    return f.getvalue()


def ref_sweep_text(rows, digest):
    f = io.StringIO()
    f.write(f"# gaussflow {__version__} config={digest}\n")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["alpha", "seed", "steps", "stop_reason", "residual",
                "hausdorff_to_ball", "lambda", "status"])
    w.writerows([ref_fmt(a), s, steps, reason, ref_fmt(res), ref_fmt(haus), ref_fmt(lam), status]
                for a, s, steps, reason, res, haus, lam, status in rows)
    return f.getvalue()


N2_BODIES = {
    "ball": lambda L: gb.ball(sg.build_grid(2, L)),
    "ellipsoid": lambda L: gb.ellipse(sg.build_grid(2, L), (1.2, 0.9, 0.93)),
    "random0": lambda L: gb.random_body(0, 2, L, 0.1),
    "random1": lambda L: gb.random_body(1, 2, L, 0.1),
}


def edge_reports():
    """Reports holding every kind of value a checks file can carry."""
    nested = {"alpha": 1.0 / 3.0, "pair": (1, 2.5), "flag": False, "none": None,
              "tiny": 5e-324, "big": 1e308, "neg_zero": -0.0, "inner": {"alpha": 2.0}}
    return [
        CheckReport(name="edge \"quoted\" \u00e9", inputs={"alpha": 0.25, "nested": nested,
                                                           "z": ["1e-05", "-0"]},
                    lhs=math.nan, rhs=math.inf, slack=-math.inf, tolerance=-0.0, passed=False),
        CheckReport(name="scalars (reported)", inputs={"alpha": np.float64(0.1), "seed": 7,
                                                      "b": True},
                    lhs=np.float64(1.0 / 7.0), rhs=5e-324, slack=1e308, tolerance=1e-8,
                    passed=True),
        CheckReport(name="check-error", inputs={}, lhs=np.float64(math.nan), rhs=1.0,
                    slack=np.float64(-math.inf), tolerance=0.0, passed=False),
    ]


class TestAgainstReferenceWriters:
    """Each writer gives the bytes of its one-value-per-call reference."""

    @pytest.mark.parametrize("name", N2_BODIES)
    def test_obj(self, tmp_path, name):
        # alternate bandlimits so that face text cached under the wrong
        # bandlimit would show
        for L in (32, 8, 32):
            u = N2_BODIES[name](L)
            p = tmp_path / f"{L}.obj"
            fileio.write_obj(p, u, "0b0b")
            assert p.read_bytes() == ref_obj_text(u, "0b0b").encode()

    @pytest.mark.parametrize("name", N2_BODIES)
    def test_body(self, tmp_path, name):
        for L in (8, 32):
            u = N2_BODIES[name](L)
            p = tmp_path / f"{L}.json"
            fileio.write_body(p, u, "cafe")
            assert p.read_bytes() == ref_body_text(u, "cafe").encode()

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1.0, 0.1, 1.0 / 3.0,
        np.float64(-0.0), np.float64(math.nan), np.float32(0.1), np.int64(-4), True, None,
        7, "caf\u00e9 \"x\"\n", (1, 2.5, "a"), [], np.array([]), np.array([1.5, -0.0, 5e-324]),
        np.array([1.0, math.nan, -math.inf]), np.arange(4), np.eye(2), np.float32([0.1, 2.0]),
        {"b": 1, "a": [np.float64(2.0), {"alpha": 0.5}], 2: np.int64(3), "10": -0.0},
    ], ids=repr)
    def test_render_json(self, value):
        assert fileio._render_json(value) == ref_render_json(value)

    def test_checks_json(self, tmp_path):
        reports = edge_reports() + sample_reports()
        p = tmp_path / "c.json"
        fileio.write_checks_json(p, reports, "beef")
        doc = {"format": "gaussflow-checks", "version": __version__, "config": "beef",
               "passed": False, "checks": 5, "failures": 2,
               "reports": [{"name": r.name, "inputs": r.inputs, "lhs": r.lhs, "rhs": r.rhs,
                            "slack": r.slack, "tolerance": r.tolerance, "passed": r.passed}
                           for r in reports]}
        assert p.read_bytes() == (ref_render_json(doc) + "\n").encode()

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_checks_of_a_verify_run(self, tmp_path, dim, L):
        # rows as `verify` makes them: a body's checks, whose rows share
        # inputs dicts, then a solver failure's NaN check-error row
        reports = gi.body_checks(gb.random_body(0, dim, L, 0.1), gi.alpha_grid(dim)) + [
            CheckReport(name="check-error", inputs={"seed": 7, "error": "no convergence after "
                                                    "0 iterations (residual 1.393e-04)"},
                        lhs=math.nan, rhs=math.nan, slack=math.nan, tolerance=0.0,
                        passed=False)]
        p = tmp_path / "c.json"
        fileio.write_checks_json(p, reports, "beef")
        gating = [r for r in reports if "(reported)" not in r.name]
        doc = {"format": "gaussflow-checks", "version": __version__, "config": "beef",
               "passed": all(r.passed for r in gating), "checks": len(reports),
               "failures": sum(not r.passed for r in gating),
               "reports": [{"name": r.name, "inputs": r.inputs, "lhs": r.lhs, "rhs": r.rhs,
                            "slack": r.slack, "tolerance": r.tolerance, "passed": r.passed}
                           for r in reports]}
        assert p.read_bytes() == (ref_render_json(doc) + "\n").encode()
        p = tmp_path / "c.csv"
        fileio.write_checks_csv(p, reports, "beef")
        assert p.read_bytes() == ref_checks_csv_text(reports, "beef").encode()

    def test_checks_csv(self, tmp_path):
        reports = edge_reports() + sample_reports()
        p = tmp_path / "c.csv"
        fileio.write_checks_csv(p, reports, "beef")
        assert p.read_bytes() == ref_checks_csv_text(reports, "beef").encode()

    def test_checks_csv_quotes_like_csv_writer(self, tmp_path):
        reports = [
            CheckReport(name='rows, "quoted"', inputs={"note": 'a, "b"', "alpha": 0.5},
                        lhs=math.nan, rhs=math.inf, slack=-math.inf, tolerance=1e-8,
                        passed=False),
            CheckReport(name="two\nlines", inputs={"s": "\r\n,"}, lhs=-0.0, rhs=5e-324,
                        slack=np.float64(1e308), tolerance=0.0, passed=np.True_),
            CheckReport(name="", inputs={}, lhs=1, rhs=np.float32(0.1), slack=-1.5,
                        tolerance=1e-8, passed=True),
        ]
        p = tmp_path / "c.csv"
        fileio.write_checks_csv(p, reports, "beef")
        assert p.read_bytes() == ref_checks_csv_text(reports, "beef").encode()
        fileio.write_checks_csv(p, [], "beef")
        assert p.read_bytes() == ref_checks_csv_text([], "beef").encode()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trajectory(self, tmp_path, dim):
        u0 = gb.ellipse(sg.build_grid(dim, 16 if dim == 1 else 8),
                        (1.3, 0.8) if dim == 1 else (1.2, 0.9, 0.93))
        records = gf.run(u0, "expanding", 1.0, 0.02, 0.01).records
        edge = dataclasses.replace(records[-1], volume=math.nan, entropy=math.inf,
                                   entropy_origin=-math.inf, u_min=-0.0, u_max=5e-324,
                                   k_max=1e308, entropy_point=np.full(dim + 1, math.nan))
        records = records + [edge]
        p = tmp_path / "t.csv"
        fileio.write_trajectory(p, records, dim, "d00d")
        assert p.read_bytes() == ref_trajectory_text(records, dim, "d00d").encode()
        fileio.write_trajectory(p, [], dim, "d00d")
        assert p.read_bytes() == ref_trajectory_text([], dim, "d00d").encode()

    def test_sweep(self, tmp_path):
        rows = [(0.5, 3, 48, "residual", 1e-9, 4.2e-3, 1.0 / 3.0, "ok"),
                (1.0, 4, 0, "failed", math.nan, math.nan, math.nan, "failed:StepFailure"),
                (2.0, 5, 186, "t_end", math.inf, -math.inf, -0.0, 'odd, "status"'),
                (np.float64(0.25), np.int64(6), 7, "a\nb", 5e-324, 1e308, np.float64(2.5), "")]
        p = tmp_path / "s.csv"
        fileio.write_sweep(p, rows, "5eed")
        assert p.read_bytes() == ref_sweep_text(rows, "5eed").encode()
        fileio.write_sweep(p, [], "5eed")
        assert p.read_bytes() == ref_sweep_text([], "5eed").encode()

    def test_svg(self, tmp_path):
        u = gb.random_body(2, 1, 16, 0.1)
        curves = [gb.boundary_points(u), gb.boundary_points(gb.scale(u, 0.5)),
                  np.array([[0.0, -0.0], [1e-300, 5e-324]])]
        p = tmp_path / "c.svg"
        fileio.write_svg(p, curves, "feed")
        assert p.read_bytes() == ref_svg_text(curves, "feed").encode()
