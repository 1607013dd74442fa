"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE NN name: PASS|FAIL (...)`` line
(run with -s to watch them live; on failure the line is in the assert
message). Tolerances and time budgets are asserted, not just reported.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_entropy import concavity_probe

import gaussflow.body as gb
import gaussflow.entropy as ge
import gaussflow.flow as gf
import gaussflow.inequalities as gi
import gaussflow.sphere_grid as sg

FUZZ_SEEDS = 100
FUZZ_BANDLIMIT = {1: 16, 2: 8}


def _verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def circle_oracle():
    """Max relative error of the shrinking circle against sqrt(R0^2 - 2t)
    at three bandlimits, run to 80% of the extinction time, with wall
    times. R0 = 1.3, so extinction is at 0.845."""
    out = {}
    for L in (8, 16, 32):
        t0 = time.perf_counter()
        res = gf.run(gb.ball(sg.SphereGrid(1, L), 1.3), "unnormalized", 1.0,
                     0.676, sample_every=0.0676, stop_residual=None)
        err = 0.0
        for r in res.records:
            radius = math.sqrt(1.69 - 2.0 * r.time)
            err = max(err, abs(r.u_min - radius) / radius,
                      abs(r.u_max - radius) / radius)
        out[L] = (err, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def fuzz_bodies():
    """The same body population the fuzz suite draws: seeds 0..99 per
    dimension at the suite's default bandlimit and amplitude."""
    return {dim: [gb.random_body(s, dim, FUZZ_BANDLIMIT[dim], 0.1)
                  for s in range(FUZZ_SEEDS)] for dim in (1, 2)}


def test_criterion_01_stationary_sphere():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, L in ((1, 16), (2, 8)):
        u = gb.ball(sg.SphereGrid(dim, L), 1.0)
        for alpha in (0.4, 1.0 / dim, 1.0, 2.0):
            state = gf.FlowState(kind="normalized", alpha=alpha, time=0.0, u=u)
            worst = max(worst, float(np.abs(gf.rhs(state)).max()))
            after = gf.step(state, 0.01)
            worst = max(worst, float(np.abs(after.u.values - 1.0).max()) / after.time)
    took = time.perf_counter() - t0
    ok = worst <= 1e-10 and took < 1.0
    line = _verdict(1, "stationary-sphere", ok,
                    f"max |du/dt| {worst:.1e}, {took:.2f}s")
    assert ok, line


def test_criterion_02_shrinking_circle_oracle(circle_oracle):
    err, took = circle_oracle[16]
    ok = err <= 1e-6 and took < 5.0
    line = _verdict(2, "shrinking-circle-oracle", ok,
                    f"max rel err {err:.1e} at bandlimit 16, {took:.2f}s")
    assert ok, line


def test_criterion_03_extinction_time_bracket():
    t0 = time.perf_counter()
    br = gf.extinction_bracket(gb.ball(sg.SphereGrid(2, 16), 1.0), 1.0,
                               u_stop=0.4)
    took = time.perf_counter() - t0
    third = 1.0 / 3.0
    ok = (br.lower <= br.upper and br.lower >= third - 1e-4
          and br.upper <= third + 1e-4 and took < 120.0)
    line = _verdict(3, "extinction-time-bracket", ok,
                    f"[{br.lower:.8f}, {br.upper:.8f}] vs 1/3, {took:.1f}s")
    assert ok, line


def test_criterion_04_entropy_monotonicity_dissipation():
    t0 = time.perf_counter()
    grid = sg.SphereGrid(1, 24)
    worst_rise, worst_fd = -np.inf, 0.0
    for alpha, dt_s, t_end in ((0.5, 5e-4, 0.02), (1.0, 2.5e-4, 0.01),
                               (2.0, 2.5e-5, 0.001)):
        res = gf.run(gb.ellipse(grid, (2.0, 0.5)), "normalized", alpha, t_end,
                     sample_every=dt_s, stop_residual=None)
        rec = res.records
        assert len(rec) >= 30
        ents = [r.entropy for r in rec]
        worst_rise = max(worst_rise, max(b - a for a, b in zip(ents, ents[1:])))
        for k in range(1, len(rec) - 1):
            fd = (rec[k + 1].entropy - rec[k - 1].entropy) / (
                rec[k + 1].time - rec[k - 1].time)
            worst_fd = max(worst_fd, abs(fd + rec[k].dissipation)
                           / abs(rec[k].dissipation))
    took = time.perf_counter() - t0
    ok = worst_rise <= 1e-8 and worst_fd <= 1e-3 and took < 30.0
    line = _verdict(4, "entropy-monotonicity-dissipation", ok,
                    f"max rise {worst_rise:.1e}, fd-vs-D rel {worst_fd:.1e}, "
                    f"{took:.1f}s")
    assert ok, line


def test_criterion_05_convergence_to_ball():
    budgets = {1: 60.0, 2: 1200.0}
    tols = {1: (1e-6, 1e-4), 2: (1e-5, 1e-3)}
    details, ok = [], True
    for dim, L, nseeds in ((1, 16, 10), (2, 8, 3)):
        t0 = time.perf_counter()
        worst_res, worst_hd = 0.0, 0.0
        for seed in range(nseeds):
            u0 = gb.random_body(seed, dim, L, 0.1, centrally_symmetric=True)
            res = gf.run(u0, "normalized", 1.0, 12.0, sample_every=0.5,
                         stop_residual=tols[dim][0] / 10.0)
            final = res.final_state.u
            worst_res = max(worst_res, gf.soliton_residual(final, 1.0).residual)
            worst_hd = max(worst_hd, float(np.abs(final.values - 1.0).max()))
        took = time.perf_counter() - t0
        res_tol, hd_tol = tols[dim]
        ok = ok and worst_res <= res_tol and worst_hd <= hd_tol
        ok = ok and took < budgets[dim]
        details.append(f"n={dim}: res {worst_res:.1e}, hausdorff {worst_hd:.1e}, "
                       f"{took:.1f}s")
    line = _verdict(5, "convergence-to-ball", ok, "; ".join(details))
    assert ok, line


def test_criterion_06_affine_ellipse_soliton():
    t0 = time.perf_counter()
    u0 = gb.ellipse(sg.SphereGrid(1, 128), (2.0, 0.5))
    res = gf.run(u0, "normalized", 1.0 / 3.0, 0.02, sample_every=2e-3,
                 stop_residual=None)
    ents = [r.entropy for r in res.records]
    drift = max(abs(e - ents[0]) for e in ents)
    worst_res = max(r.soliton_res for r in res.records)
    took = time.perf_counter() - t0
    ok = drift <= 1e-8 and worst_res <= 1e-8 and took < 30.0
    line = _verdict(6, "affine-ellipse-soliton", ok,
                    f"entropy drift {drift:.1e}, residual {worst_res:.1e}, "
                    f"{took:.1f}s")
    assert ok, line


def test_criterion_07_inequality_fuzz():
    t0 = time.perf_counter()
    failures, counts = [], {}
    for dim in (1, 2):
        reports = gi.fuzz_suite(dim, range(FUZZ_SEEDS))
        counts[dim] = len(reports)
        failures += [r for r in reports if not r.passed]
    took = time.perf_counter() - t0
    ok = not failures and counts == {1: 2300, 2: 1700} and took < 600.0
    line = _verdict(7, "inequality-fuzz", ok,
                    f"{counts[1]}+{counts[2]} checks, {len(failures)} failed, "
                    f"{took:.1f}s")
    assert ok, line


def test_criterion_08_entropy_point_solver(fuzz_bodies):
    shifts = {1: np.array([0.07, -0.04]), 2: np.array([0.05, 0.03, -0.06])}
    worst_grad, worst_eq, pairs = 0.0, 0.0, 0
    rng = np.random.default_rng(2024)
    for dim, bodies in fuzz_bodies.items():
        v = shifts[dim]
        for u in bodies:
            shifted = gb.support_about(u, -v)
            for alpha in gi.alpha_grid(dim):
                r0 = ge.entropy_point(u, alpha)
                r1 = ge.entropy_point(shifted, alpha)
                worst_grad = max(worst_grad, r0.gradient_norm, r1.gradient_norm)
                worst_eq = max(worst_eq,
                               float(np.abs(r1.point - (r0.point + v)).max()),
                               abs(r1.value - r0.value))
            # concavity along random interior chords, concave branch only
            for alpha in (0.5, 1.0, 2.0):
                for _ in range(2):
                    g1, g2 = rng.standard_normal((2, dim + 1))
                    z1 = 0.25 * g1 / (1.0 + np.linalg.norm(g1))
                    z2 = 0.25 * g2 / (1.0 + np.linalg.norm(g2))
                    assert concavity_probe(u, alpha, z1, z2)
                    pairs += 1
    ok = worst_grad <= 1e-10 and worst_eq <= 1e-10 and pairs >= 1000
    line = _verdict(8, "entropy-point-solver", ok,
                    f"gradient {worst_grad:.1e}, equivariance {worst_eq:.1e}, "
                    f"{pairs} concavity pairs")
    assert ok, line


def test_criterion_09_curvature_image_identity(fuzz_bodies):
    worst_mixed, worst_ratio = 0.0, np.inf
    for dim, bodies in fuzz_bodies.items():
        for u in bodies:
            vol = gb.volume(u)
            for alpha in gi.alpha_grid(dim):
                im = gi.curvature_image(u, alpha)
                worst_mixed = max(worst_mixed, abs(im.mixed_volume - vol) / vol)
                if dim == 1:
                    worst_ratio = min(worst_ratio, vol / gb.volume(im.body))
    ok = worst_mixed <= 1e-10 and worst_ratio >= 1.0 - 1e-8
    line = _verdict(9, "curvature-image-identity", ok,
                    f"mixed-volume rel err {worst_mixed:.1e}, "
                    f"min volume ratio {worst_ratio:.12f}")
    assert ok, line


def test_criterion_10_spectral_convergence(circle_oracle):
    errs = {L: circle_oracle[L][0] for L in (8, 16, 32)}
    ok = all(errs[2 * L] <= max(errs[L] / 100.0, 1e-10) for L in (8, 16))
    line = _verdict(10, "spectral-convergence", ok,
                    "err " + " -> ".join(f"{errs[L]:.1e}" for L in (8, 16, 32)))
    assert ok, line
