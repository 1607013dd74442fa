import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import body as gb
from gaussflow import entropy as ge
from gaussflow import sphere_grid as sg
from gaussflow.errors import AlphaZero, NotInterior

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
