import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from test_inequalities import smoothed_triangle

from gaussflow import body as gb
from gaussflow import entropy as ge
from gaussflow import sphere_grid as sg
from gaussflow.cli import main
from gaussflow.errors import (
    ConvexityLost,
    GaussFlowError,
    NotInterior,
    RadiiNonConvergence,
    RandomBodyFailure,
)

ELL_AXES = (2.0, 0.5)


def ellipse_fine():
    # bandlimit high enough that the 2:0.5 ellipse's curvature is resolved
    # to ~1e-10 (support-function spectrum decays like exp(-0.2554 k))
    return gb.ellipse(sg.build_grid(1, 128), ELL_AXES)


def test_ball_support_and_curvature():
    for dim in (1, 2):
        grid = sg.build_grid(dim, 8)
        u = gb.ball(grid, radius=2.0)
        g = gb.curvature_data(u)
        assert_allclose(g.K, 2.0 ** (-dim), atol=1e-12)
        assert_allclose(g.lam_min, 2.0, atol=1e-12)


def test_support_about_shift_and_involution():
    grid = sg.build_grid(1, 8)
    u = gb.ball(grid)
    z = np.array([0.5, 0.0])
    shifted = gb.support_about(u, z)
    assert_allclose(shifted.values, 1.0 - 0.5 * np.cos(grid.thetas), atol=1e-14)
    assert_allclose(shifted.basepoint, z)
    back = gb.support_about(shifted, -z)
    assert_allclose(back.values, u.values, atol=1e-15)
    assert_allclose(back.basepoint, 0.0, atol=1e-16)


def test_ellipse_vertex_radius_of_curvature():
    # parametric oracle: radius of curvature at the long-axis vertex is b^2/a
    u = ellipse_fine()
    g = gb.curvature_data(u)
    assert u.grid.thetas[0] == 0.0
    assert_allclose(g.A[0, 0, 0], 0.125, atol=1e-8)
    # full parametric curvature oracle kappa = ab/(a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    a, b = ELL_AXES
    t = np.arctan2(b * np.sin(u.grid.thetas), a * np.cos(u.grid.thetas))
    kappa = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
    assert_allclose(g.K, kappa, atol=1e-8)


def test_large_perturbation_loses_convexity():
    grid = sg.build_grid(1, 8)
    with pytest.raises(ConvexityLost) as e:
        gb.SupportFunction(grid, 1.0 + 0.2 * np.cos(4 * grid.thetas),
                           np.zeros(2))
    assert e.value.lam_min <= 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_volume_and_scaling(dim):
    grid = sg.build_grid(dim, 8)
    assert_allclose(gb.volume(gb.ball(grid)), sg.ball_volume(dim), rtol=1e-12)
    assert_allclose(gb.volume(gb.ball(grid, 1.7)),
                    1.7 ** (dim + 1) * sg.ball_volume(dim), rtol=1e-12)


def test_ellipse_volume():
    u = ellipse_fine()
    assert_allclose(gb.volume(u), np.pi, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_surface_and_affine_area_of_balls(dim):
    grid = sg.build_grid(dim, 8)
    assert_allclose(gb.surface_area(gb.ball(grid)), sg.sphere_area(dim), rtol=1e-12)
    assert_allclose(gb.affine_surface_area(gb.ball(grid)), sg.sphere_area(dim), rtol=1e-12)
    if dim == 2:
        R = 1.3
        assert_allclose(gb.affine_surface_area(gb.ball(grid, R)),
                        4.0 * np.pi * R**1.5, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_scaling_laws(dim):
    n = dim
    u = gb.random_body(11, dim, 8, 0.2)
    s = 2.0
    us = gb.scale(u, s)
    assert_allclose(gb.volume(us), s ** (n + 1) * gb.volume(u), rtol=1e-10)
    assert_allclose(gb.surface_area(us), s**n * gb.surface_area(u), rtol=1e-10)
    assert_allclose(gb.affine_surface_area(us),
                    s ** (n * (n + 1) / (n + 2)) * gb.affine_surface_area(u), rtol=1e-10)


@pytest.mark.parametrize("dim,L", [(1, 16), (2, 8), (2, 16)])
@pytest.mark.parametrize("s,rtol", [(0.5, 0.0), (2.0, 0.0), (0.7, 1e-12), (1.3, 1e-12)])
def test_scaled_geometry_equals_rebuilt(dim, L, s, rtol):
    # a power of two commutes with every rounding, so there the rebuilt
    # geometry is the scaled one exactly; otherwise the rebuild's own
    # rounding, about 1e-13 at L = 16, sets the tolerance
    u0 = gb.random_body(3, dim, L, 0.1)
    u = gb.SupportFunction(u0.grid, u0.values)
    us = gb.scale(u, s)
    rebuilt = gb.SupportFunction(u.grid, s * u.values, u.basepoint)
    assert np.array_equal(us.values, rebuilt.values)
    assert not us.values.flags.writeable
    with pytest.raises(ValueError):
        us.values[0] = 1.0
    g, g_ref = gb.curvature_data(us), gb.curvature_data(rebuilt)
    for field in ("A", "f", "K", "lam_min", "gradient", "spectrum"):
        got, want = getattr(g, field), getattr(g_ref, field)
        assert np.abs(got - want).max() <= rtol * np.abs(want).max(), field


@pytest.mark.parametrize("dim", [1, 2])
def test_translation_invariance(dim):
    u = gb.random_body(5, dim, 8, 0.2)
    z = np.full(dim + 1, 0.08)
    v = gb.support_about(u, z)
    assert_allclose(gb.volume(v), gb.volume(u), rtol=1e-10)
    assert_allclose(gb.surface_area(v), gb.surface_area(u), rtol=1e-10)
    assert_allclose(gb.affine_surface_area(v), gb.affine_surface_area(u), rtol=1e-10)
    wr_u, wr_v = gb.width_radii(u), gb.width_radii(v)
    assert_allclose(wr_v.w_plus, wr_u.w_plus, atol=1e-10)
    assert_allclose(wr_v.w_minus, wr_u.w_minus, atol=1e-10)
    assert_allclose(wr_v.rho_plus, wr_u.rho_plus, atol=1e-10)
    assert_allclose(wr_v.rho_minus, wr_u.rho_minus, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2])
def test_width_radii_ball(dim):
    grid = sg.build_grid(dim, 8)
    wr = gb.width_radii(gb.ball(grid))
    assert_allclose([wr.w_plus, wr.w_minus], 2.0, atol=1e-12)
    assert_allclose([wr.rho_plus, wr.rho_minus], 1.0, atol=1e-10)
    assert_allclose(wr.center_out, 0.0, atol=1e-9)


def test_width_radii_ellipse():
    wr = gb.width_radii(ellipse_fine())
    assert_allclose(wr.rho_plus, 2.0, atol=1e-10)
    assert_allclose(wr.rho_minus, 0.5, atol=1e-10)
    assert_allclose(wr.w_plus, 4.0, atol=1e-12)
    assert_allclose(wr.w_minus, 1.0, atol=1e-12)


def test_width_radii_off_center():
    # shifting the body moves the witness centers along, radii unchanged
    grid = sg.build_grid(1, 16)
    z = np.array([0.3, -0.1])
    u = gb.ball(grid, 1.0, center=z)
    wr = gb.width_radii(u)
    assert_allclose(wr.rho_plus, 1.0, atol=1e-10)
    assert_allclose(wr.rho_minus, 1.0, atol=1e-10)
    assert_allclose(wr.center_out, z, atol=1e-9)
    assert_allclose(wr.center_in, z, atol=1e-9)


def highs_radii(u):
    """Outer and inner radius over the grid nodes from HiGHS, each
    re-evaluated as max/min of u - <z, x> at HiGHS's center."""
    nodes = u.grid.nodes
    m, d = nodes.shape
    radii = []
    for sign in (1.0, -1.0):
        # sign 1: min s with u_i - <z, x_i> <= s; sign -1: max t with t <= u_i - <z, x_i>
        res = linprog(np.r_[sign, np.zeros(d)],
                      A_ub=-sign * np.column_stack([np.ones(m), nodes]),
                      b_ub=-sign * u.values, bounds=[(None, None)] * (d + 1),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        assert res.success
        vals = u.values - nodes @ res.x[1:]
        radii.append(vals.max() if sign > 0 else vals.min())
    return radii


def assert_radii_match_highs(u, bases=None):
    wr = gb.width_radii(u, bases)
    rho_plus, rho_minus = highs_radii(u)
    assert abs(wr.rho_plus - rho_plus) <= 1e-12
    assert abs(wr.rho_minus - rho_minus) <= 1e-12
    return wr


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_exchange_radii_match_highs_on_fuzz_bodies(dim, L, symmetric):
    for seed in range(10):
        assert_radii_match_highs(gb.random_body(seed, dim, L, 0.1,
                                                centrally_symmetric=symmetric))


def recentred_fuzz_body(seed):
    # a basis node's excess reads above the optimality tolerance on these,
    # which once made it re-enter: a stall (880115, 882121) or a singular
    # basis (880042)
    u = gb.random_body(seed, 2, 32, 0.1)
    return gb.support_about(u, ge.entropy_point(u, 1.0).point)


@pytest.mark.parametrize("make", [
    lambda: gb.ball(sg.build_grid(1, 16)),  # every node active
    lambda: gb.ball(sg.build_grid(2, 8)),
    ellipse_fine,
    lambda: gb.ellipse(sg.build_grid(2, 32), (2.0, 1.0, 0.5)),
    smoothed_triangle,
    lambda: recentred_fuzz_body(880042),
    lambda: recentred_fuzz_body(880115),
    lambda: recentred_fuzz_body(882121),
], ids=["ball-n1", "ball-n2", "ellipse", "ellipsoid", "smoothed-triangle",
        "recentred-880042", "recentred-880115", "recentred-882121"])
def test_exchange_radii_match_highs_on_sharp_bodies(make):
    assert_radii_match_highs(make())


def test_start_basis_is_dual_feasible():
    # covers every grid the suite builds (n=1 up to L=128, n=2 up to L=32)
    for dim, bandlimits in ((1, range(4, 257)), (2, range(4, 65))):
        for L in bandlimits:
            nodes = sg.SphereGrid(dim, L).nodes
            basis = gb._start_basis(nodes)
            assert len(set(basis)) == dim + 2
            M = np.vstack([np.ones(dim + 2), nodes[basis].T])
            lam = np.linalg.solve(M, np.eye(dim + 2)[0])
            assert lam.min() > 0.0, (dim, L)


@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_warm_started_radii_match_highs(dim, L):
    # each body's solves start from the previous body's optimal bases
    wr = None
    for seed in range(8):
        wr = assert_radii_match_highs(gb.random_body(seed, dim, L, 0.1),
                                      wr and wr.bases)


def no_cold_start(nodes):
    raise AssertionError("started from the simplex basis")


@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_a_solve_from_its_optimal_basis_makes_no_pivot(dim, L, monkeypatch):
    u = gb.random_body(4, dim, L, 0.1)
    wr = gb.width_radii(u)
    monkeypatch.setattr(gb, "_MAX_PIVOTS", 0)
    monkeypatch.setattr(gb, "_start_basis", no_cold_start)
    again = gb.width_radii(u, wr.bases)
    assert again.rho_plus == wr.rho_plus and again.rho_minus == wr.rho_minus
    for b, b0 in zip(again.bases, wr.bases):
        assert (b == b0).all()


def rounding_negative_start(grid):
    """A basis of an antipodal node pair and n more nodes whose other
    weights, zero in exact arithmetic, round to a smallest one in
    (-1e-15, -1e-16): the first such basis in node order."""
    nodes, n = grid.nodes, grid.dim
    for i in range(grid.node_count):
        for k in range(grid.node_count - n):
            basis = np.array([i, grid.antipode[i], *range(k, k + n)])
            M = np.vstack([np.ones(n + 2), nodes[basis].T])
            if len(set(basis)) < n + 2 or abs(np.linalg.det(M)) < 1e-3:
                continue
            if -1e-15 < np.linalg.inv(M)[:, 0].min() < -1e-16:
                return basis
    raise AssertionError("no rounding-negative basis on this grid")


@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8)])
def test_rounding_negative_start_is_used_as_given(dim, L, monkeypatch):
    # a start weight of about -5e-16 is rounding (a carried basis can
    # have one); the solve takes the basis as it is, without a cold restart
    grid = sg.build_grid(dim, L)
    start = rounding_negative_start(grid)
    given = start.copy()
    u = gb.random_body(2, dim, L, 0.1)
    cold = gb.width_radii(u)
    monkeypatch.setattr(gb, "_start_basis", no_cold_start)
    wr = assert_radii_match_highs(u, (start, start))
    assert (start == given).all()
    assert abs(wr.rho_plus - cold.rho_plus) <= 1e-14
    assert abs(wr.rho_minus - cold.rho_minus) <= 1e-14


def test_start_below_rounding_is_refused():
    grid = sg.build_grid(1, 16)
    basis = gb._start_basis(grid.nodes)
    basis[0] = basis[1] + 1  # two nodes on one side of the origin
    with pytest.raises(RadiiNonConvergence) as exc:
        gb.width_radii(gb.ball(grid), (basis, basis))
    assert exc.value.gap == np.inf  # refused before any pivot


def assert_same_radii(got, want):
    # bit for bit: rho, centers and optimal bases
    assert (got.rho_plus, got.rho_minus) == (want.rho_plus, want.rho_minus)
    assert (got.w_plus, got.w_minus) == (want.w_plus, want.w_minus)
    assert (got.center_out == want.center_out).all()
    assert (got.center_in == want.center_in).all()
    for b, b0 in zip(got.bases, want.bases):
        assert (b == b0).all()


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_stacked_radii_are_the_one_row_radii_on_fuzz_bodies(dim, L, symmetric):
    # a body's two rows have the same bits in a stack of 20 rows as in
    # its own two-row stack
    bodies = [gb.random_body(seed, dim, L, 0.1, centrally_symmetric=symmetric)
              for seed in range(10)]
    for u, wr in zip(bodies, gb.width_radii_stack(bodies)):
        assert_same_radii(wr, gb.width_radii(u))


@pytest.mark.parametrize("make", [
    lambda: gb.ball(sg.build_grid(1, 16)),  # every node active, Bland breaks every tie
    lambda: gb.ball(sg.build_grid(2, 8)),
    ellipse_fine,
], ids=["ball-n1", "ball-n2", "ellipse"])
def test_stacked_radii_are_the_one_row_radii_on_sharp_bodies(make):
    # alone, and in a stack whose other rows stop at other pivots: a row's
    # bits do not depend on the stack's height
    u = make()
    others = [gb.random_body(seed, u.dim, u.grid.bandlimit, 0.1) for seed in range(3)]
    assert_same_radii(gb.width_radii_stack([u])[0], gb.width_radii(u))
    assert_same_radii(gb.width_radii_stack([*others, u])[-1], gb.width_radii(u))


def test_a_refused_stacked_start_leaves_the_other_rows():
    grid = sg.build_grid(1, 16)
    nodes = grid.nodes
    cold = gb._start_basis(nodes)
    bad = cold.copy()
    bad[0] = bad[1] + 1  # two nodes on one side of the origin
    U = np.array([gb.random_body(seed, 1, 16, 0.1).values for seed in range(3)])
    solved = gb._radius_lps(nodes, U, np.array([cold, bad, cold]))
    assert isinstance(solved[1], RadiiNonConvergence)
    assert solved[1].gap == np.inf  # refused before any pivot
    for r in (0, 2):
        assert_same_solve(solved[r], gb._radius_lps(nodes, U[r:r + 1], cold[None])[0])


def assert_same_solve(got, want):
    (rho, center, basis), (rho0, center0, basis0) = got, want
    assert rho == rho0 and (center == center0).all() and (basis == basis0).all()


@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_warm_started_stack_rows_are_their_one_row_solves(dim, L):
    # rows from different warm starts, each equal to its own one-row stack;
    # a ball row (every node active) stops at its start, and the centrally
    # symmetric row's degenerate pivots tie ratios that Bland's rule breaks
    grid = sg.build_grid(dim, L)
    nodes = grid.nodes
    bodies = [gb.random_body(seed, dim, L, 0.1) for seed in range(4)]
    symmetric = gb.random_body(5, dim, L, 0.1, centrally_symmetric=True)
    warm = [gb.width_radii(u).bases for u in bodies]
    U = np.array([u.values for u in bodies[1:]]
                 + [-bodies[0].values, gb.ball(grid).values, symmetric.values])
    starts = np.array([warm[0][0], warm[1][1], warm[2][0], warm[3][1], warm[3][0], warm[1][0]])
    for r, solved in enumerate(gb._radius_lps(nodes, U, starts)):
        assert_same_solve(solved, gb._radius_lps(nodes, U[r:r + 1], starts[r:r + 1])[0])


def singular_start(grid):
    """Two antipodal node pairs, which span a plane through the origin,
    whose basis matrix LAPACK finds exactly singular: the first in node
    order."""
    nodes = grid.nodes
    for i in range(grid.node_count):
        for k in range(i + 1, grid.node_count):
            basis = np.array([i, grid.antipode[i], k, grid.antipode[k]])
            try:
                np.linalg.inv(np.vstack([np.ones(4), nodes[basis].T]))
            except np.linalg.LinAlgError:
                return basis
    raise AssertionError("no singular basis on this grid")


def test_a_singular_basis_ends_its_row_in_radii_nonconvergence():
    # a pivot on a rounding-sized entry can make such a basis
    grid = sg.build_grid(2, 8)
    nodes = grid.nodes
    cold = gb._start_basis(nodes)
    U = np.array([gb.random_body(seed, 2, 8, 0.1).values for seed in range(3)])
    solved = gb._radius_lps(nodes, U, np.array([cold, singular_start(grid), cold]))
    assert isinstance(solved[1], RadiiNonConvergence)
    assert solved[1].gap == np.inf
    for r in (0, 2):
        assert_same_solve(solved[r], gb._radius_lps(nodes, U[r:r + 1], cold[None])[0])
    with pytest.raises(RadiiNonConvergence):
        gb.width_radii(gb.random_body(0, 2, 8, 0.1), (cold, singular_start(grid)))


def test_pivot_cap_ends_in_radii_nonconvergence(monkeypatch, tmp_path):
    monkeypatch.setattr(gb, "_MAX_PIVOTS", 1)
    with pytest.raises(RadiiNonConvergence):
        gb.width_radii(gb.random_body(0, 2, 8, 0.1))
    body = tmp_path / "b.json"
    assert main(["make-body", "--dim", "2", "--bandlimit", "8", "--shape",
                 "random", "--out", str(body)]) == 0
    assert main(["flow", "--input", str(body), "--alpha", "1", "--t-end", "0.01",
                 "--out-dir", str(tmp_path / "run")]) == 2


@pytest.mark.filterwarnings("ignore:field is marginally resolved")
def test_eccentric_ellipsoid_needs_its_bandlimit():
    # the 2:1:0.5 ellipsoid is under-resolved at L = 8, and says so
    with pytest.raises(ConvexityLost) as exc:
        gb.ellipse(sg.build_grid(2, 8), (2.0, 1.0, 0.5))
    assert exc.value.node == 90
    assert f"{exc.value.lam_min:.3e}" == "-6.682e-02"
    u = gb.ellipse(sg.build_grid(2, 12), (2.0, 1.0, 0.5))
    assert_allclose(gb.curvature_data(u).lam_min.min(), 0.0499, atol=5e-5)


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_volume_balls(dim):
    grid = sg.build_grid(dim, 8)
    assert_allclose(gb.dual_volume(gb.ball(grid), np.zeros(dim + 1)),
                    sg.ball_volume(dim), rtol=1e-12)
    R = 1.4
    assert_allclose(gb.dual_volume(gb.ball(grid, R), np.zeros(dim + 1)),
                    sg.ball_volume(dim) * R ** -(dim + 1), rtol=1e-12)


def test_dual_volume_shifted_disk_oracle():
    # (1/2) int (1 - 0.5 cos)^-2 = pi (1 - 0.25)^(-3/2)
    grid = sg.build_grid(1, 8)
    got = gb.dual_volume(gb.ball(grid), np.array([0.5, 0.0]))
    assert_allclose(got, np.pi * 0.75 ** -1.5, atol=1e-10)


def test_dual_volume_rejects_exterior_point():
    grid = sg.build_grid(1, 8)
    with pytest.raises(NotInterior):
        gb.dual_volume(gb.ball(grid), np.array([1.5, 0.0]))


def test_dual_volume_convex_along_segments():
    u = gb.random_body(3, 1, 8, 0.25)
    rng = np.random.default_rng(0)
    for _ in range(20):
        z1, z2 = 0.25 * rng.standard_normal((2, 2))
        mid = 0.5 * (z1 + z2)
        lhs = gb.dual_volume(u, mid)
        rhs = 0.5 * (gb.dual_volume(u, z1) + gb.dual_volume(u, z2))
        assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_boundary_points_ball_and_shift(dim):
    grid = sg.build_grid(dim, 8)
    assert_allclose(gb.boundary_points(gb.ball(grid)), grid.nodes, atol=1e-12)
    z = np.full(dim + 1, 0.2)
    X = gb.boundary_points(gb.ball(grid, 1.0, center=z))
    assert_allclose(X, grid.nodes + z, atol=1e-10)


def test_boundary_points_ellipse_oracle():
    u = ellipse_fine()
    X = gb.boundary_points(u)
    assert_allclose(np.linalg.norm(X, axis=1).max(), 2.0, atol=1e-8)
    a, b = ELL_AXES
    t = np.arctan2(b * np.sin(u.grid.thetas), a * np.cos(u.grid.thetas))
    assert_allclose(X, np.column_stack([a * np.cos(t), b * np.sin(t)]), atol=1e-8)


class GridMismatch(GaussFlowError):
    """Two support functions do not share a grid/basepoint frame."""


def hausdorff_distance(u1, u2) -> float:
    """Max absolute support difference; requires a common grid and basepoint.

    Grids are compared by (dim, bandlimit), which fixes their nodes, so a
    grid built directly or evicted from the `build_grid` cache still matches.
    """
    if (u1.grid.dim, u1.grid.bandlimit) != (u2.grid.dim, u2.grid.bandlimit):
        raise GridMismatch("support functions live on different grids")
    if not np.allclose(u1.basepoint, u2.basepoint, atol=1e-12):
        raise GridMismatch("support functions use different basepoints")
    return float(np.abs(u1.values - u2.values).max())


def test_hausdorff_distance():
    grid = sg.build_grid(1, 8)
    u1, u2 = gb.ball(grid), gb.ball(grid, 1.1)
    assert hausdorff_distance(u1, u1) == 0.0
    assert_allclose(hausdorff_distance(u1, u2), 0.1, atol=1e-14)
    z = 0.5 * grid.nodes[3]  # node-aligned so the sup is attained on the grid
    assert_allclose(hausdorff_distance(u1, gb.ball(grid, 1.0, center=z)),
                    0.5, atol=1e-12)
    with pytest.raises(GridMismatch):
        hausdorff_distance(u1, gb.ball(sg.build_grid(1, 16)))
    with pytest.raises(GridMismatch):
        hausdorff_distance(u1, gb.support_about(u2, np.array([0.2, 0.0])))


def test_hausdorff_distance_matches_equal_grids():
    # grids are equal by (dim, bandlimit), not by identity: a directly
    # constructed grid is not the cached one (nor is one rebuilt after
    # cache eviction)
    direct = sg.SphereGrid(1, 16)
    assert direct is not sg.build_grid(1, 16)
    assert hausdorff_distance(gb.ball(direct), gb.ball(sg.build_grid(1, 16))) == 0.0
    with pytest.raises(GridMismatch):
        hausdorff_distance(gb.ball(direct), gb.ball(sg.SphereGrid(2, 16)))


@pytest.mark.parametrize("dim", [1, 2])
def test_random_body_contract(dim):
    u = gb.random_body(42, dim, 8, 0.0)
    assert_allclose(u.values, 1.0, atol=1e-12)  # amplitude 0 -> unit ball
    for seed in range(5):
        u = gb.random_body(seed, dim, 8, 0.3)
        assert_allclose(gb.volume(u), sg.ball_volume(dim), rtol=1e-12)
        assert gb.curvature_data(u).lam_min.min() >= 0.04
    sym = gb.random_body(7, dim, 8, 0.3, centrally_symmetric=True)
    assert np.abs(sym.values - sym.values[sym.grid.antipode]).max() < 1e-14


def assert_same_build(got, want):
    """Two builds of one field agree bit for bit in every curvature array."""
    assert np.array_equal(got.values, want.values)
    g, w = gb.curvature_data(got), gb.curvature_data(want)
    for name in ("frame", "f", "K", "lam_min", "spectrum"):
        assert np.array_equal(getattr(g, name), getattr(w, name)), name


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8), (2, 32)])
def test_stacked_build_is_the_one_row_build_on_fuzz_bodies(dim, L, symmetric):
    grid = sg.build_grid(dim, L)
    values = [gb.random_body(seed, dim, L, 0.1, centrally_symmetric=symmetric).values
              for seed in range(10)]
    built = gb.support_functions(grid, values)
    assert len(built) == len(values)
    for v, u in zip(values, built):
        assert_same_build(u, gb.SupportFunction(grid, v))
        assert not u.values.flags.writeable
        assert (u.basepoint == 0.0).all()


@pytest.mark.parametrize("make", [
    lambda: gb.ball(sg.build_grid(1, 16)),
    lambda: gb.ball(sg.build_grid(2, 8)),
    ellipse_fine,
], ids=["ball-n1", "ball-n2", "ellipse"])
def test_stacked_build_is_the_one_row_build_on_sharp_bodies(make):
    # alone, and among fuzz bodies
    u = make()
    others = [gb.random_body(seed, u.dim, u.grid.bandlimit, 0.1).values for seed in range(3)]
    assert_same_build(gb.support_functions(u.grid, [u.values])[0], u)
    assert_same_build(gb.support_functions(u.grid, [*others, u.values])[-1], u)


def test_a_nonconvex_row_is_its_own_convexity_lost():
    # the 2:1:0.5 ellipsoid is not resolved at L = 8: only its row of the
    # stack fails, with the node and lambda_min of its one-row build
    grid = sg.build_grid(2, 8)
    ellipsoid = np.sqrt(((grid.nodes * [2.0, 1.0, 0.5]) ** 2).sum(axis=1))
    fuzz = [gb.random_body(seed, 2, 8, 0.1).values for seed in range(4)]
    with pytest.warns(RuntimeWarning), pytest.raises(ConvexityLost) as alone:
        gb.SupportFunction(grid, ellipsoid)
    assert alone.value.node == 90
    assert alone.value.lam_min == pytest.approx(-6.682e-02, abs=1e-5)
    with pytest.warns(RuntimeWarning):
        built = gb.support_functions(grid, [*fuzz[:2], ellipsoid, *fuzz[2:]])
    lost = built[2]
    assert isinstance(lost, ConvexityLost)
    assert (lost.node, lost.lam_min, str(lost)) == (alone.value.node, alone.value.lam_min,
                                                    str(alone.value))
    for v, u in zip(fuzz, built[:2] + built[3:]):
        assert_same_build(u, gb.SupportFunction(grid, v))


@pytest.mark.parametrize("dim", [1, 2])
def test_each_marginal_row_of_a_stack_warns(dim):
    grid = sg.build_grid(dim, 8)
    smooth = [gb.random_body(seed, dim, 8, 0.1).values for seed in range(3)]
    e = np.zeros(grid.coeff_count)
    e[np.argmax(grid.degrees)] = 1e-3
    rough = smooth[0] + sg.synthesize(grid, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gb.support_functions(grid, smooth)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        built = gb.support_functions(grid, [rough, smooth[1], rough])
        assert [str(w.message) for w in caught] == [sg._TAIL_MESSAGE] * 2
        assert_same_build(built[0], gb.SupportFunction(grid, rough))


@pytest.mark.parametrize("dim, L", [(1, 16), (2, 8)])
def test_random_bodies_are_the_one_seed_bodies(dim, L, monkeypatch):
    # amplitude 0.9 rejects some seeds' first draws, so the seeds leave
    # the stack in different rounds
    rounds = []
    real = gb.support_functions

    def counted(grid, values):
        rounds.append(len(values))
        return real(grid, values)

    monkeypatch.setattr(gb, "support_functions", counted)
    seeds = [3, 11, 4, 20, 7, 0]
    made = gb.random_bodies(seeds, dim, L, 0.9)
    assert len(rounds) > 1 and rounds[0] == len(seeds)
    for seed, u in zip(seeds, made):
        assert_same_build(u, gb.random_body(seed, dim, L, 0.9))


def test_random_bodies_give_up_seed_by_seed(monkeypatch):
    # every draw of the first seed is rejected: it fails alone, with the
    # one-seed error, and the next seed keeps its body
    want = gb.random_body(6, 1, 8, 0.3)
    real = gb.support_functions

    def reject_first_row(grid, values):
        built = real(grid, values)
        return [ConvexityLost(0, -1.0), *built[1:]]

    monkeypatch.setattr(gb, "support_functions", reject_first_row)
    failed, kept = gb.random_bodies([5, 6], 1, 8, 0.3)
    assert isinstance(failed, RandomBodyFailure)
    assert str(failed) == "no uniformly convex draw after 50 rejections (seed 5)"
    assert_same_build(kept, want)
    with pytest.raises(RandomBodyFailure, match=r"\(seed 5\)"):
        gb.random_body(5, 1, 8, 0.3)


def test_random_body_determinism():
    a = gb.random_body(9, 1, 8, 0.3)
    b = gb.random_body(9, 1, 8, 0.3)
    assert (a.values == b.values).all()


def test_random_body_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        gb.random_body(0, 1, 8, 1.5)


def test_width_radii_paper_bounds_on_random_bodies():
    # in R^d, d = n+1: w+/2 <= rho+ <= w+ sqrt(d/(2(d+1))) (Jung);
    # steinhagen w- <= rho- <= w-/2, steinhagen = 1/3 (d=2), 1/(2 sqrt 3) (d=3)
    for dim, steinhagen in ((1, 1 / 3), (2, 1 / (2 * np.sqrt(3)))):
        d = dim + 1
        for seed in range(8):
            u = gb.random_body(seed, dim, 8, 0.3)
            wr = gb.width_radii(u)
            assert 0.5 * wr.w_plus <= wr.rho_plus + 1e-10
            assert wr.rho_plus <= wr.w_plus * np.sqrt(d / (2 * (d + 1))) + 1e-10
            assert wr.rho_minus <= 0.5 * wr.w_minus + 1e-10
            assert wr.rho_minus >= wr.w_minus * steinhagen - 1e-10
