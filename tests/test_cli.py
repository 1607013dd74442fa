"""End-to-end tests of the command-line interface.

Each invocation goes through main() so exit codes are checked exactly;
a couple of subprocess smoke tests cover the module entry point.
"""

import json
import platform
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import body as gb
from gaussflow import cli
from gaussflow import entropy as ge
from gaussflow import fileio
from gaussflow import flow as gf
from gaussflow import inequalities as gi
from gaussflow import sphere_grid as sg
from gaussflow.cli import RunConfig, build_parser, config_digest, main, resolve
from gaussflow.errors import NonConvergence, RadiiNonConvergence, StepFailure


def read_traj(path):
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[2:]])
    return cols, rows


def make_ellipse_file(tmp_path, name="e.json", axes="2,0.5", bandlimit=24):
    path = tmp_path / name
    rc = main(["make-body", "--dim", "1", "--bandlimit", str(bandlimit),
               "--shape", "ellipse", "--axes", axes, "--out", str(path)])
    assert rc == 0
    return path


class TestMakeBody:
    def test_ball_round_trips_to_one(self, tmp_path):
        p = tmp_path / "b.json"
        rc = main(["make-body", "--dim", "1", "--bandlimit", "8",
                   "--shape", "ball", "--out", str(p)])
        assert rc == 0
        u = fileio.read_body(p)
        assert np.all(u.values == 1.0)

    def test_ellipse_volume(self, tmp_path):
        p = make_ellipse_file(tmp_path, bandlimit=32)
        assert abs(gb.volume(fileio.read_body(p)) - np.pi) <= 1e-10

    def test_seeded_random_is_reproducible(self, tmp_path):
        args = ["make-body", "--dim", "1", "--bandlimit", "12",
                "--shape", "random", "--seed", "42"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_symmetric_flag(self, tmp_path):
        p = tmp_path / "s.json"
        rc = main(["make-body", "--dim", "1", "--bandlimit", "12", "--shape",
                   "random", "--seed", "7", "--symmetric", "--out", str(p)])
        assert rc == 0
        u = fileio.read_body(p)
        assert_allclose(u.values, u.values[u.grid.antipode], atol=1e-14)

    def test_normalize_flag(self, tmp_path):
        p = tmp_path / "n.json"
        rc = main(["make-body", "--dim", "2", "--bandlimit", "8", "--shape",
                   "ellipse", "--axes", "1.3,1.0,0.8", "--normalize",
                   "--out", str(p)])
        assert rc == 0
        vol = gb.volume(fileio.read_body(p))
        assert abs(vol - sg.ball_volume(2)) <= 1e-10 * vol

    @pytest.mark.parametrize("args", [
        ["make-body", "--dim", "3"],
        ["make-body", "--dim", "1", "--bandlimit", "2"],
        ["make-body", "--shape", "ellipse"],
        ["make-body", "--shape", "ellipse", "--axes", "1,2,3"],
        ["make-body", "--shape", "ellipse", "--axes", "2,-1"],
    ])
    def test_usage_errors(self, tmp_path, args):
        assert main(args + ["--out-dir", str(tmp_path)]) == 3

    @pytest.mark.filterwarnings("ignore:field is marginally resolved")
    def test_under_resolved_ellipsoid_is_a_solver_failure(self, tmp_path, capsys):
        args = ["make-body", "--shape", "ellipse", "--axes", "2,1,0.5", "--dim", "2"]
        assert main(args + ["--bandlimit", "8", "--out", str(tmp_path / "e8.json")]) == 2
        assert ("solver failure: convexity lost at node 90: lambda_min = -6.682e-02"
                in capsys.readouterr().err)
        assert main(args + ["--bandlimit", "12", "--out", str(tmp_path / "e12.json")]) == 0


class TestFlow:
    def test_shrinking_circle_matches_ode(self, tmp_path):
        p = tmp_path / "c.json"
        main(["make-body", "--dim", "1", "--bandlimit", "16", "--shape",
              "ball", "--radius", "1.3", "--out", str(p)])
        rc = main(["flow", "--input", str(p), "--kind", "unnormalized",
                   "--alpha", "1", "--t-end", "0.676", "--sample-every",
                   "0.0676", "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        cols, rows = read_traj(tmp_path / "run" / "trajectory.csv")
        t = rows[:, cols.index("time")]
        r = rows[:, cols.index("u_min")]
        assert_allclose(r, np.sqrt(1.3**2 - 2 * t), rtol=1e-6)

    def test_ball_entropy_column_is_zero(self, tmp_path):
        p = tmp_path / "b.json"
        main(["make-body", "--dim", "1", "--bandlimit", "8", "--shape",
              "ball", "--out", str(p)])
        rc = main(["flow", "--input", str(p), "--kind", "normalized",
                   "--alpha", "1", "--t-end", "0.02", "--sample-every", "0.005",
                   "--stop-residual", "none", "--out-dir", str(tmp_path / "run")])
        assert rc == 0
        cols, rows = read_traj(tmp_path / "run" / "trajectory.csv")
        assert rows.shape[0] >= 4
        assert np.abs(rows[:, cols.index("entropy")]).max() <= 1e-10

    def test_ellipse_entropy_nonincreasing_and_svg(self, tmp_path):
        p = make_ellipse_file(tmp_path)
        out = tmp_path / "run"
        rc = main(["flow", "--input", str(p), "--kind", "normalized",
                   "--alpha", "1", "--t-end", "0.02", "--sample-every", "0.005",
                   "--stop-residual", "none", "--out-dir", str(out)])
        assert rc == 0
        cols, rows = read_traj(out / "trajectory.csv")
        ent = rows[:, cols.index("entropy")]
        assert np.all(np.diff(ent) <= 1e-8)
        assert_allclose(rows[:, cols.index("volume")], np.pi, atol=1e-8)
        root = ET.fromstring((out / "boundaries.svg").read_text())
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == rows.shape[0]
        u_final = fileio.read_body(out / "body_final.json")
        assert u_final.dim == 1

    def test_n2_writes_obj(self, tmp_path):
        p = tmp_path / "s.json"
        main(["make-body", "--dim", "2", "--bandlimit", "8", "--shape",
              "ellipse", "--axes", "1.1,1.0,0.9090909090909091",
              "--normalize", "--out", str(p)])
        out = tmp_path / "run"
        rc = main(["flow", "--input", str(p), "--kind", "normalized",
                   "--alpha", "1", "--t-end", "0.005",
                   "--stop-residual", "none", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "body_final.obj").exists()
        cols, rows = read_traj(out / "trajectory.csv")
        assert len(cols) == 22
        assert np.isfinite(rows[:, : cols.index("j1")]).all()

    def test_step_failure_gives_partials_and_exit_2(self, tmp_path, monkeypatch):
        p = make_ellipse_file(tmp_path)
        real_run = gf.run

        def explode(u0, kind, alpha, t_end, *args, **kwargs):
            rr = real_run(u0, kind, alpha, 0.0, stop_residual=None)
            err = StepFailure(None, 1e-3, 12)
            err.partial = rr
            raise err

        monkeypatch.setattr(gf, "run", explode)
        out = tmp_path / "run"
        rc = main(["flow", "--input", str(p), "--kind", "normalized",
                   "--alpha", "1", "--t-end", "1.0", "--out-dir", str(out)])
        assert rc == 2
        assert (out / "trajectory.csv").exists()
        assert (out / "body_final.json").exists()

    def test_radius_solve_on_recentred_random_body(self, tmp_path):
        # the entropy-point recentring once made a radius basis singular,
        # which surfaced as a usage error (exit 3)
        p = tmp_path / "r.json"
        assert main(["make-body", "--shape", "random", "--seed", "880042", "--dim", "2",
                     "--bandlimit", "32", "--out", str(p)]) == 0
        rc = main(["flow", "--input", str(p), "--kind", "normalized", "--alpha", "1",
                   "--t-end", "7e-05", "--sample-every", "1.75e-05",
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 0

    def test_missing_input(self, tmp_path):
        rc = main(["flow", "--input", str(tmp_path / "nope.json"),
                   "--alpha", "1", "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_corrupt_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["flow", "--input", str(bad), "--alpha", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("field,value", [("dim", None), ("bandlimit", [16]),
                                             ("values", {"a": 1}), ("basepoint", {"x": 0})],
                             ids=["dim-null", "bandlimit-list", "values-dict", "basepoint-dict"])
    def test_malformed_body_field(self, tmp_path, capsys, field, value):
        p = make_ellipse_file(tmp_path, axes="1.4,0.8", bandlimit=16)
        doc = json.loads(p.read_text())
        doc[field] = value
        p.write_text(json.dumps(doc))
        rc = main(["flow", "--input", str(p), "--alpha", "1", "--out-dir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cannot load input body" in err and str(p) in err

    def test_unnormalized_body_into_normalized_kind(self, tmp_path):
        p = make_ellipse_file(tmp_path, axes="1.4,0.8", bandlimit=16)
        rc = main(["flow", "--input", str(p), "--kind", "normalized",
                   "--alpha", "1", "--t-end", "0.1", "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_alpha_must_be_single(self, tmp_path):
        p = make_ellipse_file(tmp_path)
        rc = main(["flow", "--input", str(p), "--alpha", "1,2",
                   "--out-dir", str(tmp_path)])
        assert rc == 3


class TestVerify:
    def test_ball_suite_all_pass(self, tmp_path):
        rc = main(["verify", "--suite", "ball", "--dim", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert doc["passed"] is True
        assert doc["checks"] == 23
        assert doc["failures"] == 0

    def test_ball_suite_rows_match_one_fuzz_body(self, tmp_path):
        assert main(["verify", "--suite", "ball", "--dim", "1",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert [r["name"] for r in doc["reports"]] == \
               [r.name for r in gi.fuzz_suite(1, [0])]

    def test_fuzz_suite(self, tmp_path):
        rc = main(["verify", "--suite", "fuzz", "--dim", "1", "--bandlimit",
                   "12", "--seed-count", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert doc["checks"] == 2 * 23
        names = {r["name"] for r in doc["reports"]}
        # the alpha = -1 rows exercise the reversed entropy bound
        assert "entropy-vs-curvature-image-bound-reversed" in names
        lines = (tmp_path / "checks.csv").read_text().splitlines()
        assert len(lines) == 2 + 2 * 23

    def test_explicit_alpha_list(self, tmp_path):
        rc = main(["verify", "--suite", "fuzz", "--dim", "1", "--bandlimit",
                   "12", "--seeds", "0", "--alpha", "0.5,1",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert doc["checks"] == 12

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        bad = gi.CheckReport(name="forced", inputs={}, lhs=1.0, rhs=0.0,
                             slack=-1.0, tolerance=1e-8, passed=False)
        monkeypatch.setattr(gi, "fuzz_suite", lambda *a, **k: [bad])
        rc = main(["verify", "--suite", "fuzz", "--seeds", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert doc["passed"] is False

    def test_solver_failure_exits_2_and_keeps_its_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gb, "_MAX_PIVOTS", 1)
        rc = main(["verify", "--suite", "fuzz", "--dim", "2", "--bandlimit", "8",
                   "--seeds", "0", "--out-dir", str(tmp_path)])
        assert rc == 2
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert [r["name"] for r in doc["reports"]] == ["check-error"]
        assert "radius solve stalled" in doc["reports"][0]["inputs"]["error"]
        assert "check-error" in (tmp_path / "checks.csv").read_text()

    def test_a_stalled_seed_leaves_the_other_seeds_rows(self, tmp_path, monkeypatch):
        # a pivot cap between two seeds' cold pivot counts stalls one
        # row of the stacked radius solve and no other
        def pivots_needed(seed):
            u = gb.random_body(seed, 2, 8, 0.1)
            with monkeypatch.context() as m:
                for cap in range(gb._MAX_PIVOTS + 1):
                    m.setattr(gb, "_MAX_PIVOTS", cap)
                    try:
                        gb.width_radii(u)
                        return cap
                    except RadiiNonConvergence:
                        pass
        stalled, kept = 2, 3
        assert pivots_needed(kept) < pivots_needed(stalled)
        args = ["verify", "--suite", "fuzz", "--dim", "2", "--bandlimit", "8",
                "--seeds", f"{stalled},{kept}"]
        assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
        monkeypatch.setattr(gb, "_MAX_PIVOTS", pivots_needed(kept))
        assert main(args + ["--out-dir", str(tmp_path / "capped")]) == 2
        plain, capped = (json.loads((tmp_path / d / "checks.json").read_text())["reports"]
                         for d in ("plain", "capped"))
        assert capped[0]["name"] == "check-error"
        assert capped[0]["inputs"]["seed"] == stalled
        assert "radius solve stalled" in capped[0]["inputs"]["error"]
        kept_rows = len(capped) - 1
        assert capped[1:] == plain[-kept_rows:]
        plain_csv, capped_csv = ((tmp_path / d / "checks.csv").read_text().splitlines()
                                 for d in ("plain", "capped"))
        assert capped_csv[-kept_rows:] == plain_csv[-kept_rows:]
        assert len(plain) == 2 * kept_rows

    def test_an_unconverged_seed_leaves_the_other_seeds_rows(self, tmp_path, monkeypatch):
        # the middle seed's entropy rows never step, so its solve fails in
        # the job-wide Newton stack; only its rows become a check-error row
        seeds = [3, 5, 8]
        args = ["verify", "--suite", "fuzz", "--dim", "1", "--bandlimit", "16",
                "--seeds", ",".join(map(str, seeds))]
        assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
        failing = gb.random_body(seeds[1], 1, 16, 0.1)
        real = ge._newton_steps

        def stuck(ex, at):
            dz = real(ex, at)
            dz[(ex.values == failing.values).all(axis=1)] = 0.0
            return dz

        monkeypatch.setattr(ge, "_newton_steps", stuck)
        with pytest.raises(NonConvergence) as alone:
            ge.entropy_points(failing, gi.alpha_grid(1))
        assert main(args + ["--out-dir", str(tmp_path / "stuck")]) == 2
        plain, stuck_doc = (json.loads((tmp_path / d / "checks.json").read_text())["reports"]
                            for d in ("plain", "stuck"))
        rows = len(plain) // 3
        assert stuck_doc[rows]["name"] == "check-error"
        assert stuck_doc[rows]["inputs"] == {"error": str(alone.value), "seed": seeds[1]}
        assert [r["name"] for r in stuck_doc].count("check-error") == 1
        assert stuck_doc[:rows] + stuck_doc[rows + 1:] == plain[:rows] + plain[2 * rows:]
        plain_csv, stuck_csv = ((tmp_path / d / "checks.csv").read_text().splitlines()
                                for d in ("plain", "stuck"))
        assert stuck_csv[2:2 + rows] == plain_csv[2:2 + rows]
        assert stuck_csv[-rows:] == plain_csv[-rows:]

    @pytest.mark.parametrize("sub", ["verify", "sweep"])
    @pytest.mark.parametrize("seeds", [["--seeds="], ["--seed-count=0"],
                                       ["--seed-count=-2"], ["--seeds=1,-1"]],
                             ids=["empty-list", "zero-count", "negative-count",
                                  "negative-seed"])
    def test_bad_seed_list_is_usage_error(self, tmp_path, sub, seeds):
        out = tmp_path / "out"
        assert main([sub, "--alpha", "1", *seeds, "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_determinism(self, tmp_path):
        args = ["verify", "--suite", "fuzz", "--dim", "1", "--bandlimit", "12",
                "--seeds", "0,1"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("checks.csv", "checks.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


class TestSweep:
    def test_symmetric_seeds_converge(self, tmp_path):
        rc = main(["sweep", "--alpha", "1", "--seeds", "0,1", "--dim", "1",
                   "--bandlimit", "12", "--symmetric", "--t-end", "8",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1] == ("alpha,seed,steps,stop_reason,residual,"
                            "hausdorff_to_ball,lambda,status")
        rows = [l.split(",") for l in lines[2:]]
        assert [int(r[1]) for r in rows] == [0, 1]
        for r in rows:
            assert float(r[4]) <= 1e-6
            assert float(r[5]) <= 1e-4
            assert abs(float(r[6]) - 1.0) <= 1e-6
            assert r[7] == "ok"

    def test_affine_soliton_row(self, tmp_path):
        rc = main(["sweep", "--alpha", "0.3333333333333333", "--seeds", "0",
                   "--dim", "1", "--bandlimit", "24", "--shape", "ellipse",
                   "--axes", "2,0.5", "--t-end", "0.2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[2].split(",")
        assert float(row[4]) <= 1e-4   # it is (numerically) a soliton
        assert float(row[5]) >= 0.4    # and nowhere near the ball

    def test_sampled_sweep_stops_by_residual(self, tmp_path, monkeypatch):
        # bodies without symmetry; each run stops at a sample time before t_end
        real_run, finals = gf.run, []

        def recording(*args, **kwargs):
            rr = real_run(*args, **kwargs)
            finals.append(rr.final_state.time)
            return rr

        monkeypatch.setattr(gf, "run", recording)
        rc = main(["sweep", "--alpha", "1,2", "--seeds", "0,1", "--dim", "1",
                   "--sample-every", "0.25", "--t-end", "14", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
        assert len(rows) == 4 and all(r[3] == "residual" and r[7] == "ok" for r in rows)
        assert len(finals) == 4
        for t in finals:
            assert t < 14.0 and abs(t / 0.25 - round(t / 0.25)) <= 1e-9

    def test_empty_alpha_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--alpha", "", "--seeds", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_worker_count_keeps_bytes(self, tmp_path):
        args = ["sweep", "--alpha", "1", "--seeds", "0,1", "--dim", "1",
                "--bandlimit", "8", "--symmetric", "--t-end", "2"]
        assert main(args + ["--workers", "1", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--workers", "2", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
               (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_failed_run_recorded(self, tmp_path, monkeypatch):
        def explode(*a, **k):
            raise StepFailure(3, 1e-4, 12)

        monkeypatch.setattr(gf, "run", explode)
        rc = main(["sweep", "--alpha", "1", "--seeds", "0", "--dim", "1",
                   "--bandlimit", "8", "--t-end", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        row = (tmp_path / "sweep.csv").read_text().splitlines()[2]
        assert row.endswith("failed:StepFailure")

    def test_failed_row_reports_steps_taken(self, tmp_path, monkeypatch):
        real_step = gf.step
        taken = []

        def fail_after_five(state, dt):
            if len(taken) == 5:
                raise StepFailure(7, dt, 12)
            taken.append(dt)
            return real_step(state, dt)

        monkeypatch.setattr(gf, "step", fail_after_five)
        rc = main(["sweep", "--alpha", "1", "--seeds", "0", "--dim", "1",
                   "--bandlimit", "8", "--t-end", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        row = (tmp_path / "sweep.csv").read_text().splitlines()[2].split(",")
        assert row[2] == "5"
        assert row[3] == "failed"
        assert row[7] == "failed:StepFailure"


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        body = make_ellipse_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# flow settings\n"
            "\n"
            f"input = {body}\n"
            "kind = normalized\n"
            "alpha = 1\n"
            "t-end = 0.5        # flags still override this\n"
            "sample-every = 0.005\n"
            "stop-residual = none\n"
        )
        out = tmp_path / "run"
        rc = main(["flow", "--config", str(cfg), "--t-end", "0.01",
                   "--out-dir", str(out)])
        assert rc == 0
        cols, rows = read_traj(out / "trajectory.csv")
        assert 0.009 <= rows[-1, cols.index("time")] <= 0.011

    def test_run_is_reproducible(self, tmp_path):
        body = make_ellipse_file(tmp_path)
        args = ["flow", "--input", str(body), "--kind", "normalized",
                "--alpha", "1", "--t-end", "0.01", "--sample-every", "0.005",
                "--stop-residual", "none"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "body_final.json", "boundaries.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("walrus = 7\n")
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_key_error_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("dim = 1\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert f"{cfg}:2: unrecognized arguments: --seed=3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, line", [
        ("verify", "seed = 3"),
        ("make-body", "workers = 4"),
        ("verify", "config = other.cfg"),
    ], ids=["seed-for-verify", "workers-for-make-body", "config"])
    def test_keys_must_be_the_subcommands_flags(self, tmp_path, sub, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("line, flags", [
        ("symmetric = true", ["--symmetric"]),
        ("symmetric = false", []),
    ], ids=["true", "false"])
    def test_boolean_key_matches_flag(self, tmp_path, line, flags):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(line + "\n")
        args = ["make-body", "--dim", "1", "--bandlimit", "12", "--shape",
                "random", "--seed", "7"]
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "a.json")]) == 0
        assert main(args + flags + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 3

    @pytest.mark.parametrize("sub, line", [
        ("verify", "suite = bogus"),
        ("make-body", "shape = triangle"),
        ("flow", "kind = sideways\ninput = body.json\nalpha = 1"),
    ], ids=["suite", "shape", "kind"])
    def test_file_values_obey_flag_choices(self, tmp_path, sub, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert not out.exists()


# One bad value per single-flag rule, each on a subcommand that has the flag.
FLAG_RULES = [
    ("make-body", "dim", "3"),
    ("make-body", "bandlimit", "2"),
    ("sweep", "alpha", "1,0"),
    ("verify", "alpha", "nan"),
    ("flow", "t-end", "-1"),
    ("flow", "sample-every", "0"),
    ("verify", "amplitude", "1"),
    ("sweep", "workers", "0"),
    ("flow", "u-floor", "0"),
    ("make-body", "radius", "-1"),
    ("flow", "svg-curves", "1"),
    ("make-body", "axes", "2,-1"),
    ("make-body", "seed", "-1"),
]

# flags whose converter is not a builtin; argparse prints its type name
CONVERTER_NAMES = [
    ("make-body", "symmetric", "maybe", "boolean"),
    ("flow", "sample-every", "abc", "float or 'none'"),
    ("flow", "stop-residual", "abc", "float, 'default' or 'none'"),
]


class TestFlagRules:
    @pytest.mark.parametrize("sub, flag, value", FLAG_RULES,
                             ids=[f"{r[1]}={r[2]}" for r in FLAG_RULES])
    def test_on_the_command_line(self, tmp_path, capsys, sub, flag, value):
        out = tmp_path / "out"
        assert main([sub, f"--{flag}={value}", "--out-dir", str(out)]) == 3
        assert f"argument --{flag}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, flag, value", FLAG_RULES,
                             ids=[f"{r[1]}={r[2]}" for r in FLAG_RULES])
    def test_in_a_config_file_names_the_line(self, tmp_path, capsys, sub, flag, value):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"# one bad value\n{flag} = {value}\n")
        out = tmp_path / "out"
        assert main([sub, "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert f"{cfg}:2: argument --{flag}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, flag, value, name", CONVERTER_NAMES,
                             ids=[r[1] for r in CONVERTER_NAMES])
    def test_converter_has_a_readable_name(self, tmp_path, capsys, sub, flag, value, name):
        message = f"argument --{flag}: invalid {name} value: {value!r}"
        out = tmp_path / "out"
        assert main([sub, f"--{flag}={value}", "--out-dir", str(out)]) == 3
        assert message in capsys.readouterr().err
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"# one bad value\n{flag} = {value}\n")
        assert main([sub, "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert f"{cfg}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, flags", [
        ("make-body", "amplitude axes normalize out radius seed shape symmetric"),
        ("flow", "alpha input kind sample-every stop-residual svg-curves t-end u-floor"),
        ("verify", "alpha amplitude seed-count seeds suite"),
        ("sweep", "alpha amplitude axes sample-every seed-count seeds shape "
                  "stop-residual symmetric t-end workers"),
    ], ids=["make-body", "flow", "verify", "sweep"])
    def test_help_lists_the_subcommands_flags(self, capsys, sub, flags):
        assert main([sub, "--help"]) == 0
        shared = {"--help", "--config", "--dim", "--bandlimit", "--out-dir"}
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == \
               shared | {f"--{f}" for f in flags.split()}


class TestOneParser:
    def test_a_call_sees_no_flag_of_an_earlier_one(self, tmp_path, monkeypatch):
        # main builds the parser once per process and parses every argv
        # into a fresh namespace: each call resolves its own flags only
        seen = []
        monkeypatch.setattr(cli, "_DISPATCH", dict.fromkeys(
            cli._DISPATCH, lambda cfg: seen.append(cfg) or 0))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("input = x.json\nt-end = 3\nstop-residual = none\n")
        calls = [
            ["sweep", "--dim", "2", "--alpha", "0.5,2", "--seeds", "4,5", "--workers",
             "2", "--shape", "ball", "--symmetric"],
            ["sweep", "--alpha", "1"],
            ["make-body", "--seed", "7", "--normalize", "--out", "b.json"],
            ["flow", "--config", str(cfg), "--alpha", "1"],
            ["flow", "--input", "y.json", "--alpha", "2"],
            ["make-body"],
        ]
        for argv in calls:
            assert main(argv) == 0
        assert main(["verify", "--bogus"]) == 3
        assert main(["verify", "--suite", "ball"]) == 0
        assert build_parser() is build_parser()
        assert seen == [
            RunConfig("sweep", dim=2, alpha=(0.5, 2.0), seeds=(4, 5), workers=2,
                      shape="ball", symmetric=True),
            RunConfig("sweep", alpha=(1.0,), shape="random"),
            RunConfig("make-body", seed=7, normalize=True, out="b.json"),
            RunConfig("flow", input="x.json", t_end=3.0, stop_residual=None,
                      alpha=(1.0,)),
            RunConfig("flow", input="y.json", alpha=(2.0,)),
            RunConfig("make-body"),
            RunConfig("verify", suite="ball"),
        ]


class TestConfigDigest:
    # computed with the parser that declared flags per subcommand; the
    # digest is the output headers' link to their settings
    @pytest.mark.parametrize("argv, digest", [
        ("sweep --dim 1 --bandlimit 16 --workers 1 --alpha 0.5 --seeds 1,2,3,4 "
         "--t-end 0.5", "0589441ac355"),
        ("flow --input x.json --kind normalized --alpha 1 --t-end 7e-05 "
         "--sample-every 1.75e-05", "6fefe5272fdc"),
        ("verify --suite fuzz --dim 2 --bandlimit 8 --seeds 5,6", "28ec1a0bc7c4"),
        ("make-body --shape random --seed 3 --dim 2 --bandlimit 32 --out b.json",
         "1d8445f32f64"),
        ("sweep --alpha 1 --seeds 0,1 --symmetric", "36cac92fa85a"),
    ], ids=["sweep-n1", "flow-n2", "verify-fuzz", "make-body", "sweep-defaults"])
    def test_pinned(self, argv, digest):
        assert config_digest(resolve(build_parser().parse_args(argv.split()))) == digest


class TestEntryPoint:
    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "gaussflow.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "make-body" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "gaussflow.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 3

    def test_runtime_imports_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gaussflow.cli; print(sorted(m for m in "
             "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussflow.cli", "verify", "--bogus"],
            capture_output=True, text=True)
        assert proc.returncode == 3


# Page faults of repeated width/radius solves at n=2, L=32 after the CLI
# has run once in a fresh interpreter, at glibc's default heap trimming.
_LP_FAULTS_SCRIPT = """
import resource, sys
from gaussflow import body as gb, fileio
from gaussflow.cli import build_parser, config_digest, main, resolve
path = sys.argv[1]
assert main(["make-body", "--dim", "2", "--bandlimit", "32", "--shape", "random",
             "--seed", "5", "--out", path]) == 0
u = fileio.read_body(path)
gb.width_radii(u)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    gb.width_radii(u)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trimming is glibc's")
def test_lp_solves_do_not_refault_the_heap(tmp_path):
    # Scratch memory that a solve frees, and glibc trims back to the
    # system, is faulted in again by the next call (3.4 MB per call would
    # cost some 860 faults). The exchange solves allocate only small
    # arrays, so repeated calls fault in almost nothing.
    proc = subprocess.run([sys.executable, "-c", _LP_FAULTS_SCRIPT, str(tmp_path / "b.json")],
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout.split()[-1]) < 100
