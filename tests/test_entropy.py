import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import body as gb
from gaussflow import entropy as ge
from gaussflow import inequalities as gi
from gaussflow import sphere_grid as sg
from gaussflow.errors import AlphaZero, NonConvergence, NotInterior

ALPHAS = [-1.0, 0.25, 0.5, 1.0, 2.0, 5.0]


def origin(dim):
    return np.zeros(dim + 1)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_of_unit_ball_is_zero(dim, alpha):
    u = gb.ball(sg.build_grid(dim, 8))
    assert_allclose(ge.entropy_at(u, origin(dim), alpha), 0.0, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_entropy_of_ball_is_log_radius(alpha):
    u = gb.ball(sg.build_grid(1, 8), radius=1.8)
    assert_allclose(ge.entropy_at(u, origin(1), alpha), np.log(1.8), rtol=1e-13)


def test_entropy_shifted_disk_log_oracle():
    # closed form: avg log(1 - r cos) = log((1 + sqrt(1 - r^2))/2)
    u = gb.ball(sg.build_grid(1, 8))
    got = ge.entropy_at(u, np.array([0.5, 0.0]), 1.0)
    assert_allclose(got, np.log((1.0 + np.sqrt(0.75)) / 2.0), atol=1e-10)


def test_entropy_alpha_one_window():
    u = gb.random_body(2, 1, 8, 0.2)
    z = np.array([0.05, 0.0])
    e1 = ge.entropy_at(u, z, 1.0)
    assert_allclose(ge.entropy_at(u, z, 1.0 + 1e-10), e1, atol=1e-12)
    assert_allclose(ge.entropy_at(u, z, 1.0 + 1e-7), e1, atol=1e-6)


def test_entropy_rejects_alpha_zero_and_exterior():
    u = gb.ball(sg.build_grid(1, 8))
    with pytest.raises(AlphaZero):
        ge.entropy_at(u, origin(1), 0.0)
    with pytest.raises(NotInterior):
        ge.entropy_at(u, np.array([1.2, 0.0]), 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_monotone_in_alpha(dim):
    u = gb.random_body(4, dim, 8, 0.3)
    z = origin(dim)
    vals = [ge.entropy_at(u, z, a) for a in (0.15, 0.25, 0.5, 1.0, 2.0, 5.0)]
    assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
    # strictly increasing for a non-ball body
    assert vals[-1] - vals[0] > 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_scaling_shift(dim):
    u = gb.random_body(6, dim, 8, 0.25)
    s = 1.7
    for alpha in (0.5, 1.0, 2.0):
        assert_allclose(ge.entropy_at(gb.scale(u, s), origin(dim), alpha),
                        ge.entropy_at(u, origin(dim), alpha) + np.log(s), rtol=1e-12)


def test_steiner_point_of_shifted_ball():
    grid = sg.build_grid(1, 8)
    c = 0.4 * grid.nodes[5]
    u = gb.ball(grid, 1.0, center=c)
    assert_allclose(ge.steiner_point(u), c, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_point_symmetric_body_is_origin(dim, alpha):
    u = gb.random_body(8, dim, 8, 0.3, centrally_symmetric=True)
    res = ge.entropy_point(u, alpha)
    assert np.linalg.norm(res.point) < 1e-10
    assert res.gradient_norm <= 1e-10


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0])
def test_entropy_point_translation_equivariance(alpha):
    u = gb.random_body(9, 1, 8, 0.3)
    v = np.array([0.12, -0.07])
    shifted = gb.support_about(u, -v)  # same body, origin moved by -v
    r0 = ge.entropy_point(u, alpha)
    r1 = ge.entropy_point(shifted, alpha)
    assert_allclose(r1.point, r0.point + v, atol=1e-10)
    assert_allclose(r1.value, r0.value, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_point_is_extremal(dim):
    u = gb.random_body(10, dim, 8, 0.3)
    for alpha in (-1.0, 0.5, 2.0):
        res = ge.entropy_point(u, alpha)
        e_star = ge.entropy_at(u, res.point, alpha)
        rng = np.random.default_rng(1)
        for _ in range(12):
            z = res.point + 0.05 * rng.standard_normal(dim + 1)
            e_z = ge.entropy_at(u, z, alpha)
            if alpha > 0:
                assert e_z <= e_star + 1e-12
            else:
                assert e_z >= e_star - 1e-12


def test_santalo_point_ball_and_symmetry():
    u = gb.ball(sg.build_grid(1, 8))
    res = ge.santalo_point(u)
    assert np.linalg.norm(res.point) < 1e-10
    assert_allclose(res.dual_volume, np.pi, rtol=1e-12)
    sym = gb.random_body(12, 2, 8, 0.3, centrally_symmetric=True)
    assert np.linalg.norm(ge.santalo_point(sym).point) < 1e-10


def test_santalo_point_minimizes_dual_volume():
    u = gb.random_body(13, 1, 8, 0.3)
    res = ge.santalo_point(u)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = res.point + 0.03 * rng.standard_normal(2)
        assert gb.dual_volume(u, z) >= res.dual_volume - 1e-12


def test_ellipse_blaschke_santalo_equality():
    u = gb.ellipse(sg.build_grid(1, 128), (2.0, 0.5))
    res = ge.santalo_point(u)
    assert_allclose(gb.volume(u) * res.dual_volume, np.pi**2, rtol=1e-8)


@pytest.mark.parametrize("dim", [1, 2])
def test_zalpha_balls(dim):
    grid = sg.build_grid(dim, 8)
    for alpha in (0.5, 1.0, 2.0):
        assert_allclose(ge.zalpha(gb.ball(grid), alpha), 1.0, rtol=1e-12)
        assert_allclose(ge.zalpha(gb.ball(grid, 1.6), alpha), 1.6 ** -dim, rtol=1e-12)


def test_zalpha_alpha_one_branch_continuous():
    u = gb.random_body(14, 1, 8, 0.25)
    assert_allclose(ge.zalpha(u, 1.0), ge.zalpha(u, 1.0 + 1e-7), rtol=1e-6)


def test_concavity_probe():
    u = gb.random_body(16, 1, 8, 0.3)
    z = np.array([0.02, 0.01])
    assert ge.concavity_probe(u, 1.0, z, z)
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(25):
            z1, z2 = 0.2 * rng.standard_normal((2, 2))
            assert ge.concavity_probe(u, alpha, z1, z2)


def test_entropy_decreases_away_from_entropy_point_along_lines():
    u = gb.random_body(17, 1, 8, 0.3)
    res = ge.entropy_point(u, 1.0)
    d = np.array([0.6, 0.8])
    vals = [ge.entropy_at(u, res.point + t * d, 1.0) for t in (0.0, 0.05, 0.1, 0.15)]
    assert all(b < a + 1e-14 for a, b in zip(vals, vals[1:]))


class TestStackedSolve:
    """entropy_points solves a body's whole exponent grid as one Newton
    iteration; each row must give its one-exponent solve."""

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_rows_match_one_exponent_solves(self, dim, L):
        alphas = gi.alpha_grid(dim)
        for seed in range(20):
            u = gb.random_body(seed, dim, L, 0.1)
            for alpha, row in zip(alphas, ge.entropy_points(u, alphas)):
                one = ge.entropy_point(u, alpha)
                assert np.abs(row.point - one.point).max() <= 1e-14
                assert abs(row.value - one.value) <= 1e-14
                assert row.iterations == one.iterations
                assert row.gradient_norm <= ge.GRAD_TOL

    def test_one_row_is_entropy_point(self):
        u = gb.random_body(3, 2, 8, 0.1)
        (row,) = ge.entropy_points(u, [0.5])
        one = ge.entropy_point(u, 0.5)
        assert np.array_equal(row.point, one.point)
        assert row.value == one.value

    def test_empty_and_repeated_exponents(self):
        u = gb.random_body(4, 1, 16, 0.1)
        assert ge.entropy_points(u, []) == []
        a, b = ge.entropy_points(u, [2.0, 2.0])
        assert np.array_equal(a.point, b.point)

    def test_first_unconverged_exponent_raises(self, monkeypatch):
        # with one iteration, the 1/3 and 1/2 rows of this body stop short
        # while the -1 row (first in grid order) converges
        u = gb.random_body(6, 1, 16, 0.1)
        alphas = gi.alpha_grid(1)
        monkeypatch.setattr(ge, "MAX_ITER", 1)
        errors = {}
        for alpha in alphas:
            try:
                ge.entropy_point(u, alpha)
            except NonConvergence as e:
                errors[alpha] = e
        assert list(errors) == [1.0 / 3.0, 0.5]
        with pytest.raises(NonConvergence) as caught:
            ge.entropy_points(u, alphas)
        first = errors[1.0 / 3.0]
        assert caught.value.iterations == first.iterations == 1
        assert caught.value.gradient_norm == pytest.approx(first.gradient_norm, rel=1e-9)
        assert caught.value.gradient_norm != pytest.approx(errors[0.5].gradient_norm)

    def test_no_iterations_raises_for_the_first_exponent(self, monkeypatch):
        # the Steiner point is the alpha = -1 point (p = 2), so only that
        # row is stationary before any step
        u = gb.random_body(2, 2, 8, 0.1)
        alphas = gi.alpha_grid(2)
        monkeypatch.setattr(ge, "MAX_ITER", 0)
        assert ge.entropy_point(u, alphas[0]).iterations == 0
        with pytest.raises(NonConvergence) as first:
            ge.entropy_point(u, alphas[1])
        with pytest.raises(NonConvergence) as caught:
            ge.entropy_points(u, alphas)
        assert caught.value.iterations == 0
        assert caught.value.gradient_norm == pytest.approx(first.value.gradient_norm,
                                                           rel=1e-12)



class TestSingularStep:
    """A row whose Newton matrix is singular takes the gradient step with
    no numpy warning; the other rows keep their solved step."""

    @staticmethod
    def start(u, alphas):
        """The stacked solve's rows and iterates at the Steiner point."""
        a = np.array(alphas)
        p = 1.0 - 1.0 / a
        ex = ge._Exponents(np.arange(len(a)), a[:, None, None], p, (p - 1.0)[:, None],
                           (a < 0.0)[:, None, None], np.where(a < 0.0, p - 1.0, -1.0)[:, None])
        z = ge.steiner_point(u)[None].repeat(len(a), axis=0)
        uz = u.values - z @ u.grid.nodes.T
        return ex, ge._Iterates(z, uz, uz.min(axis=1), *ge._moments(u.grid, uz, ex.pm1))

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_singular_row_takes_the_gradient_step(self, alpha):
        u = gb.random_body(3, 2, 8, 0.1)
        ex, at = self.start(u, [0.5, alpha, 2.0])
        # M = 0 leaves the middle row the rank-one (p/S) g g^T (ascent) or
        # nothing (descent)
        at.M[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dz = ge._newton_steps(ex, at)
        g = at.g[1]
        assert np.array_equal(dz[1], (g if alpha < 0 else -g) / np.linalg.norm(g) * at.m[1])
        for i in (0, 2):
            alone = ge._newton_steps(ge._take(ex, [i]), ge._take(at, [i]))
            assert np.array_equal(dz[i], alone[0])

    def test_a_singular_first_step_still_converges(self, monkeypatch):
        u = gb.random_body(5, 2, 8, 0.1)
        alphas = [0.5, 1.0, 2.0]
        real = ge._moments
        calls = []

        def first_singular(grid, uz, pm1):
            S, g, M, scale, res = real(grid, uz, pm1)
            if not calls:
                M[1] = 0.0  # the 1.0 row's matrix at the Steiner point
            calls.append(True)
            return S, g, M, scale, res

        monkeypatch.setattr(ge, "_moments", first_singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = ge.entropy_points(u, alphas)
        monkeypatch.setattr(ge, "_moments", real)
        for alpha, row in zip(alphas, rows):
            assert row.gradient_norm <= ge.GRAD_TOL
            assert_allclose(row.point, ge.entropy_point(u, alpha).point, atol=1e-11)
