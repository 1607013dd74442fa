import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import sph_harm_y

from gaussflow import sphere_grid as sg


def random_field(grid, seed=0, max_degree=None):
    """Random bandlimited field with decaying spectrum."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.coeff_count)
    degs = np.maximum(grid.degrees, 1)
    if max_degree is not None:
        c[grid.degrees > max_degree] = 0.0
    return sg.synthesize(grid, c / degs**4)


@pytest.mark.parametrize("dim,L", [(1, 16), (1, 4), (2, 8), (2, 12)])
def test_weights_sum_to_sphere_area(dim, L):
    grid = sg.build_grid(dim, L)
    assert_allclose(grid.weights.sum(), sg.sphere_area(dim), rtol=1e-12)
    assert (grid.weights > 0).all()


def test_circle_node_count_matches_bandlimit():
    grid = sg.build_grid(1, 16)
    assert grid.node_count == 64


@pytest.mark.parametrize("dim,L", [(1, 8), (2, 8), (2, 9)])
def test_nodes_are_unit_and_paired(dim, L):
    grid = sg.build_grid(dim, L)
    assert_allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-14)
    paired = grid.nodes[grid.antipode]
    assert np.abs(paired + grid.nodes).max() < 1e-14
    # antipode is an involution
    assert (grid.antipode[grid.antipode] == np.arange(grid.node_count)).all()


def test_sphere_node_count_at_least_spec_minimum():
    for L in (4, 8, 16):
        grid = sg.build_grid(2, L)
        assert grid.node_count >= (L + 1) * (2 * L + 1)


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sg.build_grid(3, 8)
    with pytest.raises(ValueError):
        sg.build_grid(1, 3)


@pytest.mark.parametrize("dim", [1, 2])
def test_integrate_constants(dim):
    grid = sg.build_grid(dim, 8)
    assert_allclose(sg.integrate(grid, np.ones(grid.node_count)),
                    sg.sphere_area(dim), rtol=1e-13)
    assert_allclose(sg.average(grid, np.ones(grid.node_count)), 1.0, rtol=1e-13)


def test_integrate_odd_mode_vanishes():
    grid = sg.build_grid(1, 8)
    assert abs(sg.integrate(grid, np.cos(grid.thetas))) < 1e-14


def test_integrate_shape_mismatch():
    grid = sg.build_grid(1, 8)
    with pytest.raises(ValueError):
        sg.integrate(grid, np.ones(5))


@pytest.mark.parametrize("dim,L", [(1, 8), (2, 8), (2, 11), (2, 32)])
def test_basis_orthonormal_under_quadrature(dim, L):
    grid = sg.build_grid(dim, L)
    B = grid.coeff_count
    gram = np.empty((B, B))
    for b in range(B):
        e = np.zeros(B)
        e[b] = 1.0
        col = sg.synthesize(grid, e)
        gram[:, b] = sg.analyze(grid, col)
    assert_allclose(gram, np.eye(B), atol=1e-10)


def test_single_harmonic_normalized():
    # degree-3 harmonic integrates to 1 against itself
    grid = sg.build_grid(2, 8)
    e = np.zeros(grid.coeff_count)
    e[3 * 3 + 3 + 2] = 1.0  # l=3, m=2
    y = sg.synthesize(grid, e)
    assert_allclose(sg.integrate(grid, y * y), 1.0, atol=1e-10)


def test_circle_second_derivative_of_cos():
    grid = sg.build_grid(1, 8)
    u = np.cos(grid.thetas)
    hess, grad, _ = sg.frame_hessian(grid, u)
    assert_allclose(hess[:, 0, 0], -u, atol=1e-12)
    assert_allclose(grad[:, 0], -np.sin(grid.thetas), atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # top-degree mode trips the tail check
@pytest.mark.parametrize("ell,m", [(1, 0), (2, 1), (3, -2), (5, 5), (8, -7)])
def test_sphere_hessian_trace_is_laplacian(ell, m):
    grid = sg.build_grid(2, 8)
    e = np.zeros(grid.coeff_count)
    e[ell * ell + ell + m] = 1.0
    y = sg.synthesize(grid, e)
    hess, _, _ = sg.frame_hessian(grid, y)
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    assert_allclose(lap, -ell * (ell + 1) * y, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_has_zero_hessian(dim):
    grid = sg.build_grid(dim, 8)
    hess, grad, _ = sg.frame_hessian(grid, np.full(grid.node_count, 2.5))
    assert np.abs(hess).max() < 1e-12
    assert np.abs(grad).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_degree_one_in_kernel_of_A(dim):
    # u = <z, x>:  hess(u) + u*I = 0
    grid = sg.build_grid(dim, 8)
    z = np.arange(1.0, dim + 2.0)
    u = grid.nodes @ z
    hess, _, _ = sg.frame_hessian(grid, u)
    A = hess + u[:, None, None] * np.eye(dim)
    assert np.abs(A).max() < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_frame_hessian_linear(dim):
    grid = sg.build_grid(dim, 8)
    u = random_field(grid, seed=1)
    v = random_field(grid, seed=2)
    hu, gu, su = sg.frame_hessian(grid, u)
    hv, gv, sv = sg.frame_hessian(grid, v)
    hw, gw, sw = sg.frame_hessian(grid, 2.0 * u - 3.0 * v)
    assert_allclose(hw, 2.0 * hu - 3.0 * hv, atol=1e-11)
    assert_allclose(gw, 2.0 * gu - 3.0 * gv, atol=1e-11)
    assert_allclose(sw, 2.0 * su - 3.0 * sv, atol=1e-11)


def project_frame(grid, values):
    """The frame of the projection of node values onto the bandlimit, and
    its spectrum (layout of FrameDerivatives), by the band transforms."""
    band = sg.band_spectrum(grid, values)
    spectrum = band
    if grid.dim == 1:
        spectrum = np.zeros((2 * grid.bandlimit + 1, 2))
        spectrum[: grid.bandlimit + 1] = band
    return sg.synthesize_frame(grid, band), spectrum


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim,L", [(1, 8), (1, 16), (2, 8), (2, 16)])
def test_project_frame_is_project_then_frame_hessian(dim, L):
    # exp(x_0) carries every degree, so both must drop the modes above L
    grid = sg.build_grid(dim, L)
    u = random_field(grid, seed=7) + 0.3 * np.exp(2.0 * grid.nodes[:, 0])
    rows, pf_spectrum = project_frame(grid, u)
    p = sg.project(grid, u)
    hess, grad, spectrum = sg.frame_hessian(grid, p)
    expected = sg.frame_of(p, hess, grad)
    assert rows.shape == expected.shape == (3 * dim, grid.node_count)
    assert_allclose(rows[0], p, atol=1e-13 * np.abs(p).max())
    A = sg.tensor_rows(expected)
    assert_allclose(sg.tensor_rows(rows), A, atol=1e-13 * np.abs(A).max())
    assert_allclose(sg.frame_tensor(rows), hess + p[:, None, None] * np.eye(dim),
                    atol=1e-13 * np.abs(A).max())
    assert_allclose(pf_spectrum, spectrum, atol=1e-13 * np.abs(spectrum).max())
    assert pf_spectrum.shape == spectrum.shape


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim,L", [(1, 16), (2, 8), (2, 32)])
def test_project_frame_gradient_is_that_of_the_projection(dim, L):
    grid = sg.build_grid(dim, L)
    u = random_field(grid, seed=5) + 0.3 * np.exp(2.0 * grid.nodes[:, 0])
    gradient = sg.frame_hessian(grid, sg.project(grid, u)).gradient
    pf_gradient = sg.frame_gradient(project_frame(grid, u)[0])
    assert pf_gradient.shape == gradient.shape == (grid.node_count, dim)
    assert_allclose(pf_gradient, gradient, atol=1e-13 * np.abs(gradient).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
def test_band_rms_is_the_rms_of_the_projection(dim, L):
    grid = sg.build_grid(dim, L)
    u = random_field(grid, seed=9) + 0.3 * np.exp(2.0 * grid.nodes[:, 0])
    band = sg.band_spectrum(grid, u)
    assert band.shape[0] == L + 1
    p = sg.project(grid, u)
    assert sg.band_rms(grid, band) == pytest.approx(
        np.sqrt(sg.average(grid, p * p)), rel=1e-14)
    # a band is linear: the frame of a combination is the combination
    v = random_field(grid, seed=10)
    w = sg.synthesize_frame(grid, 2.0 * band - 3.0 * sg.band_spectrum(grid, v))
    expected = 2.0 * sg.synthesize_frame(grid, band) - 3.0 * project_frame(grid, v)[0]
    assert_allclose(w, expected, atol=1e-13 * np.abs(expected).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_integrates_to_zero(dim):
    grid = sg.build_grid(dim, 10)
    u = random_field(grid, seed=3)
    hess, _, _ = sg.frame_hessian(grid, u)
    lap = np.trace(hess, axis1=1, axis2=2)
    assert abs(sg.integrate(grid, lap)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_projection_fixes_bandlimited_fields(dim):
    grid = sg.build_grid(dim, 8)
    u = random_field(grid, seed=4)
    assert_allclose(sg.project(grid, u), u, atol=1e-12)
    assert_allclose(sg.project(grid, sg.project(grid, u)), sg.project(grid, u), atol=1e-12)


def test_projection_removes_high_circle_modes():
    grid = sg.build_grid(1, 8)
    u = np.cos(3 * grid.thetas) + 0.5 * np.cos(13 * grid.thetas)
    p = sg.project(grid, u)
    assert_allclose(p, np.cos(3 * grid.thetas), atol=1e-12)


def spectral_tail(grid, values) -> float:
    """Fraction of spectral energy in the top 10% of retained modes: all
    4L-point Fourier frequencies >= 0.9 L on the circle, harmonic degrees
    >= 0.9 L on the sphere. Values near 1e-8 or larger indicate the field
    is not resolved well enough for curvature work at this bandlimit."""
    if grid.dim == 1:
        power = np.abs(np.fft.rfft(values)) ** 2
        order = np.arange(power.size)
    else:
        power, order = sg.analyze(grid, values) ** 2, grid.degrees
    return float(power[order >= math.ceil(0.9 * grid.bandlimit)].sum() / power.sum())


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_tail_flags_marginal_fields(dim):
    grid = sg.build_grid(dim, 8)
    smooth = random_field(grid, seed=5, max_degree=4)
    assert spectral_tail(grid, smooth) < 1e-12
    e = np.zeros(grid.coeff_count)
    e[np.argmax(grid.degrees)] = 1.0
    rough = smooth + 0.1 * sg.synthesize(grid, e)
    assert spectral_tail(grid, rough) > 1e-8
    with pytest.warns(RuntimeWarning):
        sg.frame_hessian(grid, rough)


@pytest.mark.parametrize("dim", [1, 2])
def test_evaluate_at_reproduces_nodes(dim):
    grid = sg.build_grid(dim, 8)
    u = random_field(grid, seed=6)
    got = sg.evaluate_at(grid, u, grid.thetas, grid.phis)
    assert_allclose(got, u, atol=1e-10)


def test_evaluate_at_poles_is_finite():
    grid = sg.build_grid(2, 8)
    u = random_field(grid, seed=7)
    vals = sg.evaluate_at(grid, u, np.array([0.0, np.pi]), np.array([0.0, 1.0]))
    assert np.isfinite(vals).all()
    # pole value must not depend on the longitude argument
    v2 = sg.evaluate_at(grid, u, np.array([0.0, np.pi]), np.array([2.0, 4.0]))
    assert_allclose(vals, v2, atol=1e-12)


@pytest.mark.parametrize("dim,L", [(1, 16), (2, 8), (2, 32)])
def test_evaluate_at_stack_is_rowwise(dim, L):
    """A stack of fields gives, row for row, the bits of one call per field."""
    grid = sg.build_grid(dim, L)
    fields = np.array([random_field(grid, seed=s) for s in (1, 2, 3)])
    thetas = np.array([0.0, 0.4, 2.0, np.pi])
    phis = np.array([0.0, 1.0, 5.5, 0.0])
    stack = sg.evaluate_at(grid, fields, thetas, phis)
    assert stack.shape == (3, 4)
    for row, field in zip(stack, fields):
        np.testing.assert_array_equal(row, sg.evaluate_at(grid, field, thetas, phis))


def test_circle_analyze_and_synthesize_stacks_are_rowwise():
    grid = sg.build_grid(1, 16)
    fields = np.array([random_field(grid, seed=s) for s in (4, 5, 6)])
    coeffs = sg.analyze(grid, fields)
    assert coeffs.shape == (3, grid.coeff_count)
    back = sg.synthesize(grid, coeffs)
    assert back.shape == fields.shape
    for c, b, field in zip(coeffs, back, fields):
        one = sg.analyze(grid, field)
        assert_allclose(c, one, rtol=0, atol=1e-15)
        assert_allclose(b, sg.synthesize(grid, one), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sg.analyze(grid, fields[None])
    with pytest.raises(ValueError):
        sg.synthesize(grid, coeffs[:, :-1])
    sphere = sg.build_grid(2, 8)
    with pytest.raises(ValueError):
        sg.analyze(sphere, np.ones((2, sphere.node_count)))
    with pytest.raises(ValueError):
        sg.synthesize(sphere, np.ones((2, sphere.coeff_count)))


def test_pole_evaluation_uses_the_cached_table():
    grid = sg.build_grid(2, 12)
    u = random_field(grid, seed=8)
    poles = sg.evaluate_at(grid, u, [0.0, np.pi], [0.0, 0.0])
    assert not sg._pole_legendre(12).flags.writeable
    near = sg.evaluate_at(grid, u, [0.0, np.pi, 1.0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(poles, near[:2])


def test_build_grid_is_cached():
    assert sg.build_grid(1, 8) is sg.build_grid(1, 8)


def real_harmonic(ell, m, theta, phi):
    """Real orthonormal harmonic of degree ell and order m from scipy's
    complex Y_l^|m| (Condon-Shortley phase undone by (-1)^m)."""
    y = sph_harm_y(ell, abs(m), theta, phi)
    if m == 0:
        return y.real
    return np.sqrt(2.0) * (-1.0) ** m * (y.real if m > 0 else y.imag)


def test_sphere_basis_matches_scipy_harmonics_at_L32():
    grid = sg.build_grid(2, 32)
    for b in range(grid.coeff_count):
        ell = int(grid.degrees[b])
        m = b - ell * ell - ell
        e = np.zeros(grid.coeff_count)
        e[b] = 1.0
        assert_allclose(sg.synthesize(grid, e),
                        real_harmonic(ell, m, grid.thetas, grid.phis),
                        atol=1e-12, err_msg=f"l={ell} m={m}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # top-degree mode trips the tail check
@pytest.mark.parametrize("m", [-32, -31, -16, -1, 0, 1, 17, 31, 32])
def test_sphere_hessian_trace_is_laplacian_at_top_degree(m):
    ell = 32
    grid = sg.build_grid(2, ell)
    e = np.zeros(grid.coeff_count)
    e[ell * ell + ell + m] = 1.0
    y = sg.synthesize(grid, e)
    hess, _, _ = sg.frame_hessian(grid, y)
    lap = hess[:, 0, 0] + hess[:, 1, 1]
    scale = ell * (ell + 1) * np.abs(y).max()
    assert np.abs(lap + ell * (ell + 1) * y).max() < 1e-10 * scale


def test_sphere_grid_memory_is_cubic_in_bandlimit():
    # no node-by-coefficient matrix: at L = 32 one of those alone is 19 MB
    grid = sg.build_grid(2, 32)
    held = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
    assert held < 8e6
