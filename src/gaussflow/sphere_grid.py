"""Spectral quadrature grids on the unit circle and unit sphere.

Nodes, quadrature weights, and differentiation data for smooth scalar
fields sampled on S^1 or S^2. Differentiation is spectral throughout:
Fourier series on the circle, real spherical harmonics up to a fixed
bandlimit on the sphere. Fields resolved below the bandlimit are
differentiated to near machine accuracy.

The circle grid uses 4L uniform angles. The sphere grid pairs L+1
Gauss-Legendre colatitudes (rings) with 2L+2 equally spaced longitudes,
so that every node has its exact antipode on the grid and quadrature
integrates products of harmonics up to combined degree 2L. There are no
nodes at the poles; point evaluation anywhere (poles included) goes
through coefficient space via `evaluate_at`.

Sphere transforms are separable (Driscoll-Healy 1994; the per-order
layout of SHTns, Schaeffer 2013). A Fourier stage takes each latitude
ring against cos(m phi) and sin(m phi), m <= L, as one matmul: a ring
holds only 2L+2 points, often of awkward length for an FFT (34 = 2*17 at
L = 16), and the matmul is faster than an FFT call at the bandlimits
used here while costing O(L^3) like the next stage. A Legendre stage
then does, for every order m, one matmul against the normalized
associated Legendre values P_l^m, and their first and second colatitude
derivatives, at the L+1 rings. The tables hold O(L^3) numbers and no
node-by-coefficient matrix is formed.

The circle's own transforms are FFTs of the 4L nodes. The band
transforms of a flow step, `band_spectrum` and `synthesize_frame`, instead
take the circle as one ring of that Fourier stage: its analysis and
synthesis are matmuls against cos/sin tables of the 2L+1 retained
frequencies, a few microseconds each at the bandlimits used here, where
an FFT call takes about ten. At L = 128 (258 table rows) the four
synthesis matmuls are about half of a flow step's time.

A frame is the curvature data of a field as one array of shape
(3n, nodes) on S^n: row 0 holds the values u, the next 2n - 1 rows the
entries of A = hess u + u I in the orthonormal frame (A on the circle;
A11, A12, A22 on the sphere), and the last n rows the gradient (u' on
the circle; u_t, u_p / sin t on the sphere). A frame is linear in u, so
frames add as arrays. This module owns the row order: `frame_of`,
`synthesize_frame` and, on the sphere, `frame_hessian` write frames;
`tensor_rows`, `frame_tensor` and `frame_gradient` read them.

Grids are immutable after construction and safe to share across
threads; `build_grid` memoizes construction per (dim, bandlimit).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SphereGrid",
    "build_grid",
    "integrate",
    "average",
    "analyze",
    "synthesize",
    "project",
    "frame_hessian",
    "FrameDerivatives",
    "frame_of",
    "tensor_rows",
    "frame_tensor",
    "frame_gradient",
    "band_spectrum",
    "synthesize_frame",
    "band_rms",
    "warn_if_marginal",
    "row_power",
    "evaluate_at",
    "sphere_area",
    "ball_volume",
]

# Fraction of energy allowed in the top decile of retained modes before
# frame_hessian flags the field as under-resolved.
TAIL_WARN_THRESHOLD = 1e-8
_TAIL_MESSAGE = (
    "field is marginally resolved: top 10% of spectral modes carry more "
    "than 1e-8 of the energy"
)

# Colatitude orders and longitude orders of the derivatives synthesized
# on the sphere: the value alone; u_t, u_p, u_tt, u_tp, u_pp; and both.
_VALUE = (np.array([0]), np.array([0]))
_FRAME_DERIVATIVES = (np.array([1, 0, 2, 1, 0]), np.array([0, 1, 0, 1, 2]))
_VALUE_AND_FRAME = (np.array([0, 1, 0, 2, 1, 0]), np.array([0, 0, 1, 0, 1, 2]))


def sphere_area(dim: int) -> float:
    """Total measure of S^dim: 2*pi for the circle, 4*pi for the sphere."""
    _check_dim(dim)
    return 2.0 * np.pi if dim == 1 else 4.0 * np.pi


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^(dim+1)."""
    return sphere_area(dim) / (dim + 1)


def _check_dim(dim: int) -> None:
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")


class SphereGrid:
    """Quadrature nodes, weights and spectral differentiation data on S^dim.

    Attributes
    ----------
    dim : int
        1 for the circle, 2 for the sphere.
    bandlimit : int
        Maximum retained frequency / harmonic degree L.
    nodes : ndarray, shape (node_count, dim+1)
        Unit direction vectors.
    node_count : int
        Number of nodes.
    weights : ndarray, shape (node_count,)
        Positive quadrature weights summing to the sphere area.
    antipode : ndarray of int, shape (node_count,)
        Index of the node opposite to each node.
    thetas, phis : ndarray
        Angular coordinates of the nodes (phis is None on the circle).
    degrees : ndarray of int, shape (coeff_count,)
        Frequency / harmonic degree of each spectral coefficient: on the
        circle [0, 1..L, 1..L] for [const, cos k, sin k]; on the sphere
        degree l for the 2l+1 coefficients l^2 .. l^2+2l.

    The sphere nodes are stored ring by ring (node = ring * (2L+2) +
    longitude index), so a field reshapes to one row per ring. Its
    read-only transform tables are cos/sin(m phi) and their longitude
    derivatives at the ring longitudes (4 (2L+2)^2 numbers), and P,
    dP/dtheta and d2P/dtheta2 at the rings laid out per order m, with the
    quadrature weights folded into an analysis copy of P (4 (L+1)^3
    numbers). All arrays of the L = 32 grid take about 1.4 MB. The
    circle keeps cos/sin(k theta), k <= L, at its 4L nodes for the band
    transforms: one analysis table, and one synthesis table whose
    three blocks give the frame rows u, A = u'' + u and u' (4 (2L+2) 4L
    numbers, 70 kB at L = 16).

    Use :func:`build_grid` rather than the constructor; grids are cached.
    """

    def __init__(self, dim: int, bandlimit: int):
        _check_dim(dim)
        if bandlimit < 4:
            raise ValueError(f"bandlimit must be >= 4, got {bandlimit}")
        self.dim = dim
        self.bandlimit = bandlimit
        if dim == 1:
            self._init_circle(bandlimit)
        else:
            self._init_sphere(bandlimit)
        self.node_count = self.nodes.shape[0]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    # -- construction -------------------------------------------------

    def _init_circle(self, L: int) -> None:
        N = 4 * L
        theta = 2.0 * np.pi * np.arange(N) / N
        self.thetas = theta
        self.phis = None
        self.nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        self.weights = np.full(N, 2.0 * np.pi / N)
        self.antipode = (np.arange(N) + N // 2) % N
        self.tangent = np.column_stack([-np.sin(theta), np.cos(theta)])
        # coefficient layout: [const, cos 1..L, sin 1..L], orthonormal
        self.coeff_count = 2 * L + 1
        self.degrees = np.concatenate([[0], np.arange(1, L + 1), np.arange(1, L + 1)])
        # one ring of the Fourier stage, signed like rfft: columns 2k + 0/1
        # of _ring_dft give Re and Im of rfft(u)[k]; _frame_synthesis turns
        # those into the frame rows of the projection, one block of N
        # columns each: u, A = u'' + u and u' (weights 1/N for k = 0, 2/N
        # above)
        idft = _fourier_tables(L, theta) * np.tile([1.0, -1.0], L + 1)[:, None]
        self._ring_dft = idft[0].T.copy()
        weight = np.repeat(np.where(np.arange(L + 1) > 0, 2.0, 1.0) / N, 2)[:, None]
        self._frame_synthesis = np.hstack([idft[0], idft[2] + idft[0], idft[1]]) * weight

    def _init_sphere(self, L: int) -> None:
        nt, nphi = L + 1, 2 * L + 2
        x_gl, w_gl = np.polynomial.legendre.leggauss(nt)
        x_gl = 0.5 * (x_gl - x_gl[::-1])  # enforce exact symmetry of roots
        ct1 = x_gl[::-1]                  # cos(theta), theta ascending
        wt1 = 0.5 * (w_gl + w_gl[::-1])[::-1]
        theta1 = np.arccos(ct1)
        phi1 = 2.0 * np.pi * np.arange(nphi) / nphi

        theta = np.repeat(theta1, nphi)
        phi = np.tile(phi1, nt)
        st, ct = np.sin(theta), np.cos(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        self.thetas = theta
        self.phis = phi
        self.nodes = np.column_stack([st * cp, st * sp, ct])
        self.weights = np.repeat(wt1, nphi) * (2.0 * np.pi / nphi)

        j = np.repeat(np.arange(nt), nphi)
        k = np.tile(np.arange(nphi), nt)
        self.antipode = (nt - 1 - j) * nphi + (k + nphi // 2) % nphi

        # orthonormal tangent frame of spherical coordinates
        self.tangent = np.column_stack([ct * cp, ct * sp, -st])    # e_theta
        self.tangent2 = np.column_stack([-sp, cp, np.zeros_like(sp)])  # e_phi
        self._inv_sin = 1.0 / st
        self._cot = ct / st

        # coefficient b = l^2 + l + m is entry [|m|, l, m < 0] of the
        # per-order pairs (c_{l,|m|}, c_{l,-|m|})
        self.coeff_count = (L + 1) ** 2
        ell = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        m = np.arange(self.coeff_count) - ell * (ell + 1)
        self.degrees = ell
        self._pair_index = (np.abs(m) * (L + 1) + ell) * 2 + (m < 0)

        # Fourier stage and Legendre stage: per order, P (with the
        # quadrature weights) for analysis and P, dP, d2P for synthesis;
        # sqrt(2) for m > 0
        self._ring_idft = _fourier_tables(L, phi1)
        self._ring_dft = self._ring_idft[0].T.copy()
        orders = np.arange(L + 1)
        order_scale = np.where(orders > 0, np.sqrt(2.0), 1.0)[:, None]
        P, dP, d2P = _legendre_tables(L, theta1, derivatives=True)  # [l, m, ring]
        quad = wt1 * (2.0 * np.pi / nphi) * order_scale
        self._ring_analysis = np.ascontiguousarray((P * quad).transpose(1, 0, 2))
        tables = np.stack([P, dP, d2P]) * order_scale
        self._ring_synthesis = np.ascontiguousarray(tables.transpose(0, 2, 3, 1))

    # -- small conveniences -------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        return f"SphereGrid(dim={self.dim}, bandlimit={self.bandlimit}, nodes={self.node_count})"


def _fourier_tables(L: int, angles: NDArray) -> NDArray:
    """Row 2m + 0/1 of table [p] is the p-th derivative of cos/sin(m a),
    m <= L, at the given angles a; shape (3, 2L+2, len(angles))."""
    orders = np.arange(L + 1)
    m_a = np.outer(orders, angles)
    c, s, m = np.cos(m_a), np.sin(m_a), orders[:, None]
    tables = np.array([[c, s], [-m * s, m * c], [-m * m * c, -m * m * s]])
    return tables.transpose(0, 2, 1, 3).reshape(3, 2 * L + 2, angles.size)


def _legendre_tables(L: int, theta: NDArray, derivatives: bool = False):
    """Fully normalized associated Legendre values P[l, m] at the given
    colatitudes, such that P[l,m](theta) * sqrt(2)^{m>0} * cos/sin(m phi)
    is orthonormal on the sphere. Optionally also d/dtheta and d2/dtheta2
    (those require sin(theta) != 0).
    """
    ct, st = np.cos(theta), np.sin(theta)
    P = np.zeros((L + 1, L + 1, theta.size))
    P[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for m in range(1, L + 1):
        P[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * P[m - 1, m - 1]
    m = np.arange(L)
    P[m + 1, m] = np.sqrt(2.0 * m + 3.0)[:, None] * ct * P[m, m]
    for ell in range(2, L + 1):
        m = np.arange(ell - 1)[:, None]
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        P[ell, : ell - 1] = a * (ct * P[ell - 1, : ell - 1] - b * P[ell - 2, : ell - 1])
    if not derivatives:
        return P
    ell = np.arange(L + 1)[:, None, None]
    m = np.arange(L + 1)[:, None]
    c = np.sqrt(np.maximum(ell * ell - m * m, 0) * (2.0 * ell + 1.0) / (2.0 * ell - 1.0))
    low = np.concatenate([np.zeros_like(P[:1]), P[:-1]])  # P[l-1, m]
    dP = (ell * ct * P - c * low) / st
    d2P = -ct / st * dP - (ell * (ell + 1.0) - m * m / st**2) * P
    return P, dP, d2P


@lru_cache(maxsize=8)
def _pole_legendre(L: int) -> NDArray:
    """`_legendre_tables` at the two poles (colatitudes 0 and pi), where
    `fileio.write_obj` evaluates every body; read-only, made once per L."""
    P = _legendre_tables(L, np.array([0.0, np.pi]))
    P.setflags(write=False)
    return P


def _sphere_analysis(grid: SphereGrid, values: NDArray) -> NDArray:
    """Harmonic coefficients of sphere node values (..., nodes) as per-order
    pairs, shape (..., L+1, L+1, 2) indexed [m, l]: a Fourier transform
    along each ring, then one Legendre quadrature matmul per order. A
    stack of fields is one matmul per field and stage, so each field gets
    the bits of its own transform."""
    L = grid.bandlimit
    lead = values.shape[:-1]
    ring_sums = values.reshape(lead + (L + 1, 2 * L + 2)) @ grid._ring_dft  # [ring, (m, pair)]
    return grid._ring_analysis @ ring_sums.reshape(lead + (L + 1, L + 1, 2)).swapaxes(-3, -2)


def _sphere_synthesis(grid: SphereGrid, pairs: NDArray, derivatives) -> NDArray:
    """Node values (..., len(t), nodes) of derivatives of the fields with
    these per-order pairs (..., L+1, L+1, 2), one row per colatitude order
    t and longitude order p in `derivatives` = (t, p): one Legendre matmul
    per order, then a Fourier synthesis along each ring."""
    L = grid.bandlimit
    t, p = derivatives
    lead = pairs.shape[:-3]
    per_order = grid._ring_synthesis[: t.max() + 1] @ pairs[..., None, :, :, :]  # [t, m, ring, pair]
    # np.take writes [t, ring, m, pair] in C order, so the reshape is free
    per_ring = np.take(per_order.swapaxes(-3, -2), t, axis=-4)
    per_ring = per_ring.reshape(lead + (len(t), L + 1, 2 * L + 2))
    return (per_ring @ grid._ring_idft[p]).reshape(lead + (len(t), grid.node_count))


def _tail_fraction(spectrum: NDArray, bandlimit: int) -> float:
    """Share of the energy of `spectrum` at frequency or degree >= 0.9 *
    bandlimit; its first axis is the frequency (circle) or degree (sphere)."""
    total = float(np.vdot(spectrum, spectrum))
    if total == 0.0:
        return 0.0
    tail = spectrum[math.ceil(0.9 * bandlimit):]
    return float(np.vdot(tail, tail)) / total


@lru_cache(maxsize=8)
def _build_grid_cached(dim: int, bandlimit: int) -> SphereGrid:
    return SphereGrid(dim, bandlimit)


def build_grid(dim: int, bandlimit: int) -> SphereGrid:
    """Return the (cached) grid for S^dim, dim 1 or 2, with bandlimit
    (maximum retained frequency/degree) L >= 4."""
    return _build_grid_cached(dim, int(bandlimit))


def _check_values(grid: SphereGrid, values: NDArray, stack: bool = False) -> NDArray:
    """values as a float array of one field, or also of a (k, nodes)
    stack of fields if `stack`."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.node_count,) and not (
            stack and values.ndim == 2 and values.shape[1] == grid.node_count):
        raise ValueError(
            f"values shape {values.shape} does not match grid with {grid.node_count} nodes"
        )
    return values


# numpy takes x ** e as 1/x, sqrt(x) or x*x when e is one of these and a
# scalar or a one-element array, and as pow (which can differ in the last
# bit) when e is a column of several rows
_FAST_POWERS = ((-1.0, np.reciprocal), (0.5, np.sqrt), (2.0, np.square))


def row_power(x: NDArray, e: NDArray) -> NDArray:
    """x ** e for a (k, nodes) stack x and a (k, 1) column e of exponents,
    row i with the bits of x[i] ** e[i, 0] alone, whatever k is."""
    out = x ** e
    if len(e) == 1:
        return out
    for value, fast in _FAST_POWERS:
        rows = e[:, 0] == value
        if rows.any():
            out[rows] = fast(x[rows])
    return out


def integrate(grid: SphereGrid, values: NDArray) -> float:
    """Quadrature of per-node values against the sphere measure."""
    return float(grid.weights @ _check_values(grid, values))


def average(grid: SphereGrid, values: NDArray) -> float:
    """Mean of per-node values over the sphere (integral / total area)."""
    return integrate(grid, values) / sphere_area(grid.dim)


def analyze(grid: SphereGrid, values: NDArray) -> NDArray:
    """Expand node values in the orthonormal spectral basis.

    Circle layout: [constant, cos(1..L), sin(1..L)] scaled to unit L2 norm;
    sphere layout: real harmonics packed as b = l^2 + l + m. On the
    circle `values` may also be a (k, nodes) stack of fields, which gives
    one row of coefficients per field.
    """
    values = _check_values(grid, values, stack=grid.dim == 1)
    if grid.dim == 2:
        pairs = _sphere_analysis(grid, values)
        return pairs.ravel()[grid._pair_index]
    N, L = grid.node_count, grid.bandlimit
    ch = np.fft.rfft(values)
    out = np.empty(values.shape[:-1] + (2 * L + 1,))
    out[..., 0] = ch[..., 0].real * np.sqrt(2.0 * np.pi) / N
    out[..., 1: L + 1] = 2.0 * ch[..., 1: L + 1].real * np.sqrt(np.pi) / N
    out[..., L + 1:] = -2.0 * ch[..., 1: L + 1].imag * np.sqrt(np.pi) / N
    return out


def synthesize(grid: SphereGrid, coeffs: NDArray) -> NDArray:
    """Evaluate a coefficient vector (layout as in `analyze`) on the nodes;
    on the circle a (k, coefficients) stack gives one row per vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (grid.coeff_count,) or coeffs.ndim > 1 + (grid.dim == 1):
        raise ValueError(f"expected {grid.coeff_count} coefficients, got {coeffs.shape}")
    N, L = grid.node_count, grid.bandlimit
    if grid.dim == 2:
        pairs = np.zeros((L + 1, L + 1, 2))
        pairs.ravel()[grid._pair_index] = coeffs
        return _sphere_synthesis(grid, pairs, _VALUE)[0]
    ch = np.zeros(coeffs.shape[:-1] + (N // 2 + 1,), dtype=complex)
    ch[..., 0] = coeffs[..., 0] * N / np.sqrt(2.0 * np.pi)
    ch[..., 1: L + 1] = ((coeffs[..., 1: L + 1] - 1j * coeffs[..., L + 1:])
                         * N / (2.0 * np.sqrt(np.pi)))
    return np.fft.irfft(ch, n=N)


def project(grid: SphereGrid, values: NDArray) -> NDArray:
    """Project node values onto the space resolved by the bandlimit."""
    values = _check_values(grid, values)
    if grid.dim == 2:
        return _sphere_synthesis(grid, _sphere_analysis(grid, values), _VALUE)[0]
    c = np.fft.rfft(values)
    c[grid.bandlimit + 1:] = 0.0
    return np.fft.irfft(c, n=grid.node_count)


class FrameDerivatives(NamedTuple):
    """Covariant Hessian, gradient and spectrum of a field (`frame_hessian`);
    `frame_of` packs the first two with the values into the field's frame.

    spectrum holds the field's Fourier or harmonic content with the
    frequency or degree on its first axis: on the circle (2L+1, 2), the
    real and imaginary parts of the 4L-point rfft, frequencies 0..2L; on
    the sphere (L+1, L+1, 2), the per-order coefficient pairs indexed
    [l, m]. Like the other two, it is linear in the node values.
    """

    hessian: NDArray
    gradient: NDArray
    spectrum: NDArray


def warn_if_marginal(grid: SphereGrid, spectrum: NDArray) -> None:
    """Warn with a fixed RuntimeWarning when the top 10% of retained modes
    carry more than TAIL_WARN_THRESHOLD of the energy of `spectrum`
    (layout of FrameDerivatives.spectrum)."""
    if _tail_fraction(spectrum, grid.bandlimit) > TAIL_WARN_THRESHOLD:
        warnings.warn(_TAIL_MESSAGE, RuntimeWarning)


def _sphere_frame(grid: SphereGrid, u, u_t, u_p, u_tt, u_tp, u_pp) -> NDArray:
    """The frame (or the stack of frames) of sphere fields from their
    synthesized values and derivative rows; with u = 0 its tensor rows
    hold the frame Hessian (`frame_hessian`)."""
    inv_st, cot = grid._inv_sin, grid._cot
    frame = np.empty(u_t.shape[:-1] + (6, grid.node_count))
    rows = frame.swapaxes(0, -2)  # rows[r]: row r of each frame
    rows[0] = u
    rows[1] = u_tt + u
    rows[2] = (u_tp - cot * u_p) * inv_st
    rows[3] = u_pp * inv_st * inv_st + cot * u_t + u
    rows[4] = u_t
    rows[5] = u_p * inv_st
    return frame


def frame_of(values: NDArray, hessian: NDArray, gradient: NDArray) -> NDArray:
    """The frame (module docstring) of a field from its node values and
    its frame Hessian and gradient (as `frame_hessian` returns them); of
    a stack of fields, the (k, 3n, nodes) stack of their frames."""
    n = gradient.shape[-1]
    frame = np.empty(values.shape[:-1] + (3 * n, values.shape[-1]))
    rows = frame.swapaxes(0, -2)  # rows[r]: row r of each frame
    rows[0] = values
    rows[1] = hessian[..., 0, 0] + values
    if n == 2:
        rows[2] = hessian[..., 0, 1]
        rows[3] = hessian[..., 1, 1] + values
    frame[..., -n:, :] = gradient.swapaxes(-1, -2)
    return frame


def tensor_rows(frame: NDArray) -> NDArray:
    """The rows of a frame that hold the entries of A: A on the circle,
    A11, A12, A22 on the sphere."""
    return frame[1: 2 * (len(frame) // 3)]


def frame_tensor(frame: NDArray) -> NDArray:
    """A = hess u + u I of a C-contiguous frame, or stack of frames, as a
    read-only (..., nodes, n, n) view: entry (i, j) is row 1 + i + j, so
    A12 and A21 share a row."""
    row, item = frame.strides[-2:]
    n = frame.shape[-2] // 3
    A = np.ndarray(frame.shape[:-2] + (frame.shape[-1], n, n), frame.dtype, frame, row,
                   frame.strides[:-2] + (item, row, row))
    A.flags.writeable = False
    return A


def frame_gradient(frame: NDArray) -> NDArray:
    """The gradient of a frame (or of each frame of a stack) as a
    (..., nodes, n) view."""
    return frame[..., -(frame.shape[-2] // 3):, :].swapaxes(-1, -2)


def frame_hessian(grid: SphereGrid, values: NDArray) -> FrameDerivatives:
    """Covariant Hessian and gradient in the orthonormal spherical frame.

    Parameters
    ----------
    grid : SphereGrid
    values : ndarray, shape (node_count,) or (k, node_count)
        Samples of a function resolved below the bandlimit, or a stack of
        k such fields on the grid.

    Returns
    -------
    FrameDerivatives with
    hessian : ndarray, shape (node_count, dim, dim)
        On the circle this is u''(theta) of the 4L-point interpolant; on
        the sphere the components are H11 = u_tt,
        H12 = (u_tp - cot(t) u_p)/sin(t), H22 = u_pp/sin^2(t) + cot(t) u_t,
        a read-only view of the tensor rows of a frame with u = 0.
    gradient : ndarray, shape (node_count, dim)
        (u_t, u_p/sin(t)) on the sphere; u' on the circle.
    spectrum : ndarray
        See FrameDerivatives.
    A stack gives each of the three with a leading axis of k rows. The
    stack is one transform whose row i has the bits of the one-row call
    on values[i]: its FFTs and matmuls are taken row by row, never as one
    product over the whole stack, whose rounding would depend on k.

    Warns with a fixed RuntimeWarning when the spectral tail exceeds
    1e-8 of the energy (marginally resolved input), once for each such
    row of a stack.
    """
    values = _check_values(grid, values, stack=True)
    M = grid.node_count
    if grid.dim == 1:
        ch = np.fft.rfft(values)
        spectrum = ch.view(np.float64).reshape(ch.shape + (2,))
        k = np.arange(ch.shape[-1])
        der = np.fft.irfft(np.stack([1j * k * ch, -(k * k) * ch], axis=-2), n=M)
        hessian = der[..., 1, :].reshape(values.shape + (1, 1))
        gradient = der[..., 0, :].reshape(values.shape + (1,))
    else:
        pairs = _sphere_analysis(grid, values)
        spectrum = pairs.swapaxes(-3, -2)
        derivatives = _sphere_synthesis(grid, pairs, _FRAME_DERIVATIVES)
        frame = _sphere_frame(grid, 0.0, *derivatives.swapaxes(0, -2))
        hessian, gradient = frame_tensor(frame), frame_gradient(frame)
    for row in (spectrum if values.ndim == 2 else (spectrum,)):
        warn_if_marginal(grid, row)
    return FrameDerivatives(hessian, gradient, spectrum)


def band_spectrum(grid: SphereGrid, values: NDArray) -> NDArray:
    """The spectrum of node values up to the bandlimit, from one analysis:
    the first L+1 entries, frequencies or degrees 0..L, of the layout of
    FrameDerivatives.spectrum, which on the sphere is all of it. The
    first axis is the frequency or degree, so a multiplier per degree
    is a column. On the circle the analysis is a matmul against the
    cos/sin tables of the retained frequencies (see the module
    docstring)."""
    values = _check_values(grid, values)
    if grid.dim == 2:
        # a copy in degree order: a flow step's per-degree products on it
        # take about half the time they take on the swapped view
        return np.ascontiguousarray(_sphere_analysis(grid, values).swapaxes(0, 1))
    # the tables' sums of cos/sin(k theta) over the nodes are not exactly
    # 0, so a constant would pick up rounding in every mode; analysing
    # values - values[0] keeps a constant (a ball's increment) exactly
    # constant, as the FFT does
    shift = values[0]
    band = ((values - shift) @ grid._ring_dft).reshape(grid.bandlimit + 1, 2)
    band[0, 0] += grid.node_count * shift
    return band


def synthesize_frame(grid: SphereGrid, band: NDArray) -> NDArray:
    """The frame (module docstring) of the field with this `band_spectrum`,
    from one synthesis. On the circle one matmul gives all three frame
    rows, with the constant added apart: c has the rows (c, c, 0). On
    the sphere the frame comes from the value, u_t, u_p and second
    derivative rows of one synthesis."""
    if grid.dim == 2:
        return _sphere_frame(grid, *_sphere_synthesis(grid, band.swapaxes(0, 1),
                                                      _VALUE_AND_FRAME))
    frame = (band[1:].ravel() @ grid._frame_synthesis[2:]).reshape(3, grid.node_count)
    frame[:2] += band[0, 0] / grid.node_count
    return frame


def band_rms(grid: SphereGrid, band: NDArray) -> float:
    """Root mean square over the sphere of the field with this
    `band_spectrum` (Parseval: the sphere's coefficients are orthonormal,
    the circle's are those of the 4L-point rfft)."""
    total = float(np.vdot(band, band))
    if grid.dim == 2:
        return math.sqrt(total / sphere_area(2))
    # frequency k > 0 stands for both k and -k of the full spectrum
    return math.sqrt(2.0 * total - band[0, 0] ** 2 - band[0, 1] ** 2) / grid.node_count


def evaluate_at(grid: SphereGrid, values: NDArray, thetas: NDArray,
                phis: NDArray | None = None) -> NDArray:
    """Evaluate the bandlimited interpolant of node values at arbitrary angles.

    On the sphere `thetas`/`phis` are colatitude/longitude; the poles are
    admissible (evaluation goes through coefficient space). `values` is
    one field or a (k, nodes) stack of fields; a stack gives one row of
    results per field and shares the angle tables between them.
    """
    values = np.asarray(values, dtype=float)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    L, N = grid.bandlimit, grid.node_count
    if grid.dim == 1:
        k = np.arange(1, L + 1)
        cos_kt = np.cos(np.outer(thetas, k))
        sin_kt = np.sin(np.outer(thetas, k))

        def one(field):
            ch = np.fft.rfft(field)
            out = np.full(thetas.shape, ch[0].real / N)
            out += 2.0 / N * (cos_kt @ ch[1: L + 1].real - sin_kt @ ch[1: L + 1].imag)
            return out
    else:
        if phis is None:
            raise ValueError("phis required for sphere grids")
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        P = (_pole_legendre(L) if thetas.tolist() == [0.0, np.pi]
             else _legendre_tables(L, thetas))
        angle = np.arange(L + 1)[:, None] * phis
        cos_m, sin_m = np.cos(angle), np.sin(angle)

        def one(field):
            # per order m: sum_l P[l,m](theta) (c_{l,m}, c_{l,-m}), then against
            # (cos m phi, sin m phi), with sqrt(2) for m > 0
            z = np.einsum("lmp,mlc->cmp", P, _sphere_analysis(grid, field))
            z[:, 1:] *= np.sqrt(2.0)
            return (z[0] * cos_m + z[1] * sin_m).sum(axis=0)
    rows = [one(_check_values(grid, field)) for field in np.atleast_2d(values)]
    return np.array(rows) if values.ndim == 2 else rows[0]
