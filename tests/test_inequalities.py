"""Tests for the inequality verifiers.

Balls realize every comparison as an equality (up to quadrature
roundoff), ellipsoids realize the sharp cases of the dual-volume
product, the affine isoperimetric bound, and the curvature-image
entropy bound at the affine exponent, and seeded random bodies feed
the fuzz suite. Curvature images are checked against the exact
mixed-volume identity and (n=1) reconstructed explicitly.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import body as gb
from gaussflow import entropy as ge
from gaussflow import flow as gf
from gaussflow import inequalities as gi
from gaussflow import sphere_grid as sg
from gaussflow.errors import CompatibilityViolation, NotASoliton, UnsupportedDimension

BALL_L = {1: 16, 2: 8}


def ball(dim, radius=1.0):
    return gb.ball(sg.build_grid(dim, BALL_L[dim]), radius)


def ellipse_n1(a, b, L=128):
    return gb.ellipse(sg.build_grid(1, L), (a, b))


@pytest.fixture(scope="module")
def converged_n1():
    """Final state of a normalized run from a symmetric random body."""
    u0 = gb.random_body(5, 1, 16, 0.1, centrally_symmetric=True)
    rr = gf.run(u0, "normalized", 1.0, 12.0)
    return rr.final_state.u


class TestBallEqualities:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_dual_volume_product(self, dim):
        r = gi.check_blaschke_santalo(ball(dim))
        assert r.name == "volume-dual-volume-product"
        assert r.passed
        assert abs(r.slack) <= 1e-10 * r.rhs
        assert r.inputs["dim"] == dim
        assert r.inputs["bandlimit"] == BALL_L[dim]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_entropy_nonneg_all_exponents(self, dim):
        u = ball(dim)
        for alpha in gi.alpha_grid(dim):
            r = gi.check_entropy_nonneg(u, alpha)
            assert r.passed
            assert abs(r.rhs) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_curvature_mean_bound(self, dim):
        u = ball(dim)
        for alpha in (1.0 / (dim + 2), 1.0, 2.0, 5.0):
            r = gi.check_z_vs_entropy(u, alpha)
            assert r.passed
            assert_allclose([r.lhs, r.rhs], 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_affine_isoperimetric(self, dim):
        r = gi.check_affine_isoperimetric(ball(dim))
        assert r.passed
        assert abs(r.slack) <= 1e-10 * r.rhs

    @pytest.mark.parametrize("dim", [1, 2])
    def test_width_reports(self, dim):
        reports = gi.check_width_bounds(ball(dim))
        assert [r.name for r in reports] == [
            "half-max-width-below-outradius",
            "outradius-vs-max-width-factor",
            "inradius-below-half-min-width",
            "min-width-factor-below-inradius",
        ]
        assert all(r.passed for r in reports)
        # the half-width comparisons are equalities on a ball, the
        # dimensional-factor comparisons stay strictly slack
        assert abs(reports[0].slack) <= 1e-8
        assert abs(reports[2].slack) <= 1e-8
        assert reports[1].slack > 0.1
        assert reports[3].slack > 0.1

    @pytest.mark.parametrize("alpha", [1.0 / 3, 1.0, 5.0, -1.0])
    def test_stability_bound(self, alpha):
        r = gi.check_entropy_stability(ball(1), alpha)
        assert r.passed
        assert abs(r.slack) <= 1e-10
        assert ("reversed" in r.name) == (alpha < 0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("alpha", [1.0 / 3, 1.0, 2.0])
    def test_curvature_image(self, dim, alpha):
        ci = gi.curvature_image(ball(dim), alpha)
        assert_allclose(ci.density, 1.0, atol=1e-12)
        assert_allclose(ci.mixed_volume, sg.ball_volume(dim), rtol=1e-12)
        if dim == 1:
            assert_allclose(ci.body.values, 1.0, atol=1e-10)
        else:
            assert ci.body is None

    @pytest.mark.parametrize("dim", [1, 2])
    def test_soliton_properties(self, dim):
        reports = gi.check_soliton_properties(ball(dim), 2.0)
        assert all(r.passed for r in reports)
        assert max(abs(r.slack) for r in reports) <= 1e-9
        names = [r.name for r in reports]
        assert names[0] == "soliton-volume-matches-unit-ball"
        assert names[1] == "soliton-entropy-point-at-origin"
        assert names[2] == "soliton-dual-volume-above-ball"
        assert any("-at-0.666667 (reported)" in n for n in names)

    def test_scaled_ball_is_selfsimilar_but_not_normalized(self):
        # residual is scale-covariant so the gate passes, then the
        # volume report flags the mismatch
        reports = gi.check_soliton_properties(ball(1, 1.1), 2.0)
        by_name = {r.name: r for r in reports}
        assert not by_name["soliton-volume-matches-unit-ball"].passed
        assert by_name["soliton-entropy-point-at-origin"].passed


class TestEllipseEqualities:
    def test_dual_volume_product(self):
        r = gi.check_blaschke_santalo(ellipse_n1(2.0, 0.5))
        assert r.passed
        assert abs(r.slack) <= 1e-8 * r.rhs

    def test_affine_isoperimetric(self):
        r = gi.check_affine_isoperimetric(ellipse_n1(2.0, 0.5))
        assert r.passed
        assert abs(r.slack) <= 1e-8 * r.rhs

    def test_stability_equality_at_affine_exponent(self):
        r = gi.check_entropy_stability(ellipse_n1(2.0, 0.5), 1.0 / 3)
        assert r.passed
        assert abs(r.slack) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_stability_strict_away_from_affine_exponent(self, alpha):
        r = gi.check_entropy_stability(ellipse_n1(2.0, 0.5), alpha)
        assert r.passed
        assert r.slack > 1e-6

    def test_ellipsoid_n2(self):
        u = gb.ellipse(sg.build_grid(2, 32), (1.2, 0.9, 1.0 / 1.08))
        r_bs = gi.check_blaschke_santalo(u)
        assert r_bs.passed
        assert abs(r_bs.slack) <= 1e-8 * r_bs.rhs
        r_ai = gi.check_affine_isoperimetric(u)
        assert r_ai.passed
        assert abs(r_ai.slack) <= 1e-8 * r_ai.rhs


class TestAffineInvariance:
    def test_n1_entropy_and_affine_area(self):
        # volume-preserving diagonal map of one ellipse onto another
        g = sg.build_grid(1, 192)
        e1 = gb.ellipse(g, (2.0, 0.5))
        e2 = gb.ellipse(g, (2.4, 5.0 / 12.0))
        a = 1.0 / (1 + 2)
        assert abs(ge.entropy_point(e1, a).value
                   - ge.entropy_point(e2, a).value) <= 1e-8
        r1 = gb.affine_surface_area(e1) ** 3 / gb.volume(e1)
        r2 = gb.affine_surface_area(e2) ** 3 / gb.volume(e2)
        assert abs(r1 - r2) <= 1e-8 * abs(r1)

    def test_n2_entropy_and_affine_area(self):
        g = sg.build_grid(2, 32)
        ax = np.array([1.15, 0.95, 1.0 / (1.15 * 0.95)])
        lam = 1.1
        e1 = gb.ellipse(g, ax)
        e2 = gb.ellipse(g, ax * np.array([lam, 1.0 / lam, 1.0]))
        a = 1.0 / (2 + 2)
        assert abs(ge.entropy_point(e1, a).value
                   - ge.entropy_point(e2, a).value) <= 1e-8
        r1 = gb.affine_surface_area(e1) ** 4 / gb.volume(e1) ** 2
        r2 = gb.affine_surface_area(e2) ** 4 / gb.volume(e2) ** 2
        assert abs(r1 - r2) <= 1e-8 * abs(r1)


class TestCurvatureImageRandom:
    @pytest.mark.parametrize("dim,L,seeds", [(1, 16, range(4)), (2, 8, range(3))])
    def test_mixed_volume_identity_and_volume_drop(self, dim, L, seeds):
        for seed in seeds:
            u = gb.random_body(seed, dim, L, 0.1)
            vol = gb.volume(u)
            for alpha in gi.alpha_grid(dim):
                ci = gi.curvature_image(u, alpha)
                assert abs(ci.mixed_volume - vol) <= 1e-12 * vol
                if dim == 1:
                    assert vol / gb.volume(ci.body) >= 1.0 - 1e-8
                else:
                    assert ci.body is None

    def test_scale_covariance(self):
        u = ellipse_n1(1.5, 0.7, L=32)
        s = 1.3
        us = gb.scale(u, s)
        m1 = gi.curvature_image(u, 0.5).mixed_volume
        m2 = gi.curvature_image(us, 0.5).mixed_volume
        assert_allclose(m2, s**2 * m1, rtol=1e-10)

    def test_rejects_recentring_off_the_critical_point(self, monkeypatch):
        real = ge.entropy_point

        def off_center(u, alpha):
            r = real(u, alpha)
            return dataclasses.replace(r, point=r.point + np.array([0.05, 0.0]))

        monkeypatch.setattr(gi.ge, "entropy_point", off_center)
        with pytest.raises(CompatibilityViolation):
            gi.curvature_image(ellipse_n1(2.0, 0.5, L=32), 0.5)


class TestSolitonChecks:
    def test_converged_state(self, converged_n1):
        reports = gi.check_soliton_properties(converged_n1, 1.0)
        names = [r.name for r in reports]
        assert "soliton-dual-volume-above-ball" in names
        assert any(n.startswith("soliton-entropy-origin-nonpositive-at-0.333333")
                   and "(reported)" not in n for n in names)
        assert all(r.passed for r in reports)

    def test_curvature_mean_bound_near_soliton(self, converged_n1):
        r = gi.check_z_vs_entropy(converged_n1, 1.0)
        assert r.passed
        assert r.slack <= 1e-6

    def test_affine_soliton_ellipse(self):
        u = ellipse_n1(2.0, 0.5)
        reports = gi.check_soliton_properties(u, 1.0 / 3)
        by_name = {r.name: r for r in reports}
        assert by_name["soliton-volume-matches-unit-ball"].passed
        assert by_name["soliton-entropy-point-at-origin"].passed
        # dual bound is only proved from exponent 1 up, so it is
        # informational here, though the ellipse happens to meet it
        dual = by_name["soliton-dual-volume-above-ball (reported)"]
        assert abs(dual.slack) <= 1e-6
        low = by_name["soliton-entropy-origin-nonpositive-at-0.333333 (reported)"]
        assert abs(low.lhs) <= 1e-8
        low2 = by_name["soliton-entropy-origin-nonpositive-at-0.25 (reported)"]
        assert low2.lhs < 0.0
        assert low2.passed

    def test_rejects_non_soliton(self):
        with pytest.raises(NotASoliton):
            gi.check_soliton_properties(ellipse_n1(1.4, 0.8, L=16), 1.0)


class TestFuzzSuite:
    def test_n1(self):
        reports = gi.fuzz_suite(1, range(6))
        assert len(reports) == 6 * 23
        assert all(r.passed for r in reports)
        assert not any("(reported)" in r.name for r in reports)

    def test_n2(self):
        reports = gi.fuzz_suite(2, range(3))
        assert len(reports) == 3 * 17
        assert all(r.passed for r in reports)

    def test_custom_exponent_list(self):
        reports = gi.fuzz_suite(1, [0], alphas=(0.5,), bandlimit=12,
                                amplitude=0.05)
        names = [r.name for r in reports]
        assert len(reports) == 9
        assert names.count("entropy-nonnegative") == 1
        assert all(r.passed for r in reports)


def smoothed_triangle(eps=0.05, L=128):
    """u = eps log sum_i exp(cos(theta - theta_i)/eps) + 0.01 with
    theta_i = 0, 2pi/3, 4pi/3: close to the equilateral triangle, which
    is extremal for both planar width constants."""
    grid = sg.build_grid(1, L)
    th = 2.0 * np.pi * np.arange(3) / 3.0
    vertices = np.stack([np.cos(th), np.sin(th)], axis=1)
    lse = eps * np.log(np.exp(grid.nodes @ vertices.T / eps).sum(axis=1))
    return gb.SupportFunction(grid, lse + 0.01)


def test_width_constants_sharp_on_smoothed_triangle():
    # Jung's constant is attained by the triangle, so its row comes
    # within 1e-2 R of equality; Steinhagen's planar w/3 is attained too,
    # and the stronger w/(2 sqrt 2) is false here
    reports = gi.check_width_bounds(smoothed_triangle())
    assert all(r.passed for r in reports)
    jung = reports[1]
    assert jung.name == "outradius-vs-max-width-factor"
    assert 0.0 <= jung.slack < 1e-2 * jung.lhs


class TestBodyChecks:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_fuzz_suite_is_body_checks(self, dim):
        L = 16 if dim == 1 else 8
        fuzz = gi.fuzz_suite(dim, [3])
        direct = gi.body_checks(gb.random_body(3, dim, L, 0.1), gi.alpha_grid(dim))
        assert [(r.name, r.lhs, r.rhs) for r in fuzz] == \
               [(r.name, r.lhs, r.rhs) for r in direct]


class TestValidation:
    def test_curvature_mean_needs_exponent_above_threshold(self):
        with pytest.raises(ValueError, match="1/\\(n\\+2\\)"):
            gi.check_z_vs_entropy(ball(1), 0.2)

    def test_entropy_nonneg_needs_normalized_volume(self):
        with pytest.raises(ValueError, match="normalized"):
            gi.check_entropy_nonneg(ball(1, 1.3), 1.0)

    def test_stability_needs_n1(self):
        with pytest.raises(UnsupportedDimension):
            gi.check_entropy_stability(ball(2), 1.0)

    def test_stability_exponent_range(self):
        with pytest.raises(ValueError, match="alpha"):
            gi.check_entropy_stability(ball(1), 0.2)
