"""Convex bodies represented by sampled support functions.

A body is stored only through its support function u on a spectral grid,
together with a basepoint recording the origin choice. All geometric
quantities (curvature, volume, surface areas, radii, widths, polar-dual
volume, boundary points) are derived from u via the tensor
A = hess(u) + u*I in the orthonormal tangent frame; its determinant f is
the surface-area measure density and K = 1/f the Gauss curvature.

Uniform convexity (lambda_min(A) > 0 at every node) is enforced eagerly:
constructing a SupportFunction computes the curvature data once, caches
it, and raises ConvexityLost if A is not positive definite. `scale`
dilates a body by scaling that cached data, without a new build.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import sphere_grid as sg
from .errors import (
    ConvexityLost,
    GridMismatch,
    NotInterior,
    RadiiNonConvergence,
    RandomBodyFailure,
)

__all__ = [
    "SupportFunction",
    "BodyGeometry",
    "curvature_tensor",
    "curvature_invariants",
    "support_about",
    "curvature_data",
    "volume",
    "surface_area",
    "affine_surface_area",
    "width_radii",
    "WidthRadii",
    "dual_volume",
    "boundary_points",
    "hausdorff_distance",
    "random_body",
    "ball",
    "ellipse",
    "normalize_volume",
    "scale",
]


@dataclass(frozen=True)
class BodyGeometry:
    """Per-node curvature data of a uniformly convex body.

    A is the symmetric n x n tensor hess(u) + u*I, f = det(A) the
    surface-area measure density, K = 1/f the Gauss curvature, lam_min
    the smallest eigenvalue of A. The tangential gradient of u is kept
    for boundary-point reconstruction, and the spectrum of u (see
    `sphere_grid.FrameDerivatives`) so that a flow stage u + h k can check
    its resolution without a transform of its own.
    """

    A: NDArray
    f: NDArray
    K: NDArray
    lam_min: NDArray
    gradient: NDArray
    spectrum: NDArray


_IDENTITY = {1: np.eye(1), 2: np.eye(2)}


def curvature_tensor(hessian: NDArray, values: NDArray) -> NDArray:
    """A = hess(u) + u*I per node, from a frame Hessian and the values."""
    return hessian + values[:, None, None] * _IDENTITY[hessian.shape[1]]


def curvature_invariants(A: NDArray) -> tuple[NDArray, NDArray]:
    """det A and lambda_min(A) per node; raises ConvexityLost at the node
    of the smallest lambda_min unless every one is positive."""
    if A.shape[1] == 1:
        f = A[:, 0, 0].copy()
        lam = f.copy()
    else:
        a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        f = a * c - b * b
        lam = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + b * b)
    i = int(np.argmin(lam))
    if lam[i] <= 0.0:
        raise ConvexityLost(i, lam[i])
    return f, lam


def _curvature_arrays(grid: sg.SphereGrid, values: NDArray) -> BodyGeometry:
    fd = sg.frame_hessian(grid, values)
    A = curvature_tensor(fd.hessian, values)
    f, lam = curvature_invariants(A)
    return BodyGeometry(A=A, f=f, K=1.0 / f, lam_min=lam, gradient=fd.gradient,
                        spectrum=fd.spectrum)


@dataclass(frozen=True, eq=False)
class SupportFunction:
    """Support values of a uniformly convex body about a basepoint.

    values[i] = max over body points p of <p - basepoint, x_i>. The
    constructor validates uniform convexity (see module docstring) and
    caches the curvature data.
    """

    grid: sg.SphereGrid
    values: NDArray
    basepoint: NDArray | None = None
    _geometry: BodyGeometry = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.grid.node_count,):
            raise ValueError(f"values shape {values.shape} does not match grid")
        if self.basepoint is None:
            object.__setattr__(self, "basepoint", np.zeros(self.grid.dim + 1))
        basepoint = np.asarray(self.basepoint, dtype=float).copy()
        if basepoint.shape != (self.grid.dim + 1,):
            raise ValueError(f"basepoint must be a vector in R^{self.grid.dim + 1}")
        values.setflags(write=False)
        basepoint.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "_geometry", _curvature_arrays(self.grid, values))

    @property
    def dim(self) -> int:
        return self.grid.dim


def curvature_data(u: SupportFunction) -> BodyGeometry:
    """Curvature tensor A, density f = det A, and K = 1/f per node."""
    return u._geometry


def support_about(u: SupportFunction, z: NDArray) -> SupportFunction:
    """The same body described about the shifted origin basepoint + z."""
    z = np.asarray(z, dtype=float)
    return SupportFunction(u.grid, u.values - u.grid.nodes @ z, u.basepoint + z)


def scale(u: SupportFunction, s: float) -> SupportFunction:
    """Dilate the body by s > 0 about its current basepoint.

    The cached geometry is scaled instead of recomputed: A -> sA,
    f -> s^n f, K -> s^-n K, lambda -> s lambda, gradient and spectrum ->
    s times. A dilate of a valid body is valid, so nothing is re-checked.
    """
    if s <= 0:
        raise ValueError("scale factor must be positive")
    g = curvature_data(u)
    sn = s**u.dim
    values = s * u.values
    values.setflags(write=False)
    out = copy.copy(u)  # shares grid and basepoint; skips __post_init__
    object.__setattr__(out, "values", values)
    object.__setattr__(out, "_geometry", BodyGeometry(
        A=s * g.A, f=sn * g.f, K=g.K / sn, lam_min=s * g.lam_min,
        gradient=s * g.gradient, spectrum=s * g.spectrum))
    return out


def volume(u: SupportFunction) -> float:
    """Enclosed volume, (1/(n+1)) * integral of u * f."""
    g = curvature_data(u)
    return sg.integrate(u.grid, u.values * g.f) / (u.dim + 1)


def surface_area(u: SupportFunction) -> float:
    """Boundary measure, integral of f."""
    return sg.integrate(u.grid, curvature_data(u).f)


def affine_surface_area(u: SupportFunction) -> float:
    """Integral of f^((n+1)/(n+2)); invariant under volume-preserving
    linear maps."""
    n = u.dim
    return sg.integrate(u.grid, curvature_data(u).f ** ((n + 1) / (n + 2)))


def dual_volume(u: SupportFunction, z: NDArray) -> float:
    """Volume of the polar dual body taken about basepoint + z."""
    z = np.asarray(z, dtype=float)
    uz = u.values - u.grid.nodes @ z
    m = uz.min()
    if m <= 0.0:
        raise NotInterior(z, m)
    return sg.integrate(u.grid, uz ** (-(u.dim + 1))) / (u.dim + 1)


def boundary_points(u: SupportFunction) -> NDArray:
    """Boundary point with outer normal x_i for every node (inverse Gauss
    map X = u x + tangential gradient)."""
    g = curvature_data(u)
    X = u.values[:, None] * u.grid.nodes + g.gradient[:, 0][:, None] * u.grid.tangent
    if u.dim == 2:
        X = X + g.gradient[:, 1][:, None] * u.grid.tangent2
    return X


def hausdorff_distance(u1: SupportFunction, u2: SupportFunction) -> float:
    """Max absolute support difference; requires a common grid and basepoint.

    Grids are compared by (dim, bandlimit), which fixes their nodes, so a
    grid built directly or evicted from the `build_grid` cache still matches.
    """
    if (u1.grid.dim, u1.grid.bandlimit) != (u2.grid.dim, u2.grid.bandlimit):
        raise GridMismatch("support functions live on different grids")
    if not np.allclose(u1.basepoint, u2.basepoint, atol=1e-12):
        raise GridMismatch("support functions use different basepoints")
    return float(np.abs(u1.values - u2.values).max())


class WidthRadii(NamedTuple):
    """Extremal widths, and radii with their centers.

    w_plus/w_minus: max/min over nodes of the width u(x) + u(-x).
    rho_plus/rho_minus: circumradius and inradius as min-max/max-min of
    u(x) - <z, x> over grid nodes, solved exactly by `_radius_lp`, with
    the centers (relative to the basepoint).
    """

    w_plus: float
    w_minus: float
    rho_plus: float
    rho_minus: float
    center_out: NDArray
    center_in: NDArray


# Pivots allowed per exchange solve; fuzz bodies need at most 28 at (2, 32).
_MAX_PIVOTS = 200
# Regular simplices about the origin in R^2 and R^3 (unnormalized).
_SIMPLEX = {2: np.array([[2.0, 0.0], [-1.0, 3**0.5], [-1.0, -(3**0.5)]]),
            3: np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])}


def _start_basis(nodes: NDArray) -> NDArray:
    """The n+2 nodes nearest the vertices of a regular simplex; their hull
    holds the origin, so they start the dual feasibly."""
    return np.argmax(nodes @ _SIMPLEX[nodes.shape[1]].T, axis=0)


def _radius_lp(nodes: NDArray, u: NDArray) -> tuple[float, NDArray]:
    """Outer radius min over z of max_i u_i - <z, x_i>, and its center z,
    by Stiefel's exchange (Numer. Math. 2, 1960): a revised simplex on the
    dual max sum lam_i u_i, sum lam_i = 1, sum lam_i x_i = 0, lam >= 0, over
    n+2 basis nodes. A pivot brings in the node most above the basis level
    and drops the ratio test's node, the lowest index on ties (Bland).
    Raises RadiiNonConvergence past `_MAX_PIVOTS` pivots, or if max_i u_i -
    <z, x_i> at the center misses the dual objective by more than 1e-8."""
    d = nodes.shape[1]
    basis = _start_basis(nodes)
    tol = 1e-14 * max(1.0, float(np.abs(u).max()))
    M = np.ones((d + 1, d + 1))
    for pivots in range(_MAX_PIVOTS + 1):
        M[1:] = nodes[basis].T          # columns (1, x_i), i in the basis
        Minv = np.linalg.inv(M)
        lam = Minv[:, 0]                # dual weights: M lam = (1, 0)
        if pivots == 0 and lam.min() < 0.0:
            raise RadiiNonConvergence(np.nan, np.inf)  # start not dual-feasible
        y = Minv.T @ u[basis]           # level y[0] and center y[1:]
        excess = u - nodes @ y[1:] - y[0]
        excess[basis] = 0.0             # zero up to rounding; must not re-enter
        j = int(np.argmax(excess))
        if excess[j] <= tol:
            rho = float((u - nodes @ y[1:]).max())
            gap = abs(rho - float(lam @ u[basis]))
            if gap > 1e-8 * max(1.0, abs(rho)):
                raise RadiiNonConvergence(rho, gap)
            return rho, y[1:]
        if pivots == _MAX_PIVOTS:
            raise RadiiNonConvergence(float(y[0]), float(excess[j]))
        delta = Minv @ np.concatenate(([1.0], nodes[j]))
        ratio = np.where(delta > 1e-14, np.maximum(lam, 0.0) / np.maximum(delta, 1e-14), np.inf)
        ties = np.flatnonzero(ratio <= ratio.min() + 1e-15)
        basis[ties[np.argmin(basis[ties])]] = j


def width_radii(u: SupportFunction) -> WidthRadii:
    """Extremal widths w+/- over node directions and outer/inner radii
    rho+/rho- over the grid nodes (see `_radius_lp`); the inner radius is
    -(outer radius of -u), about the negated center."""
    w = u.values + u.values[u.grid.antipode]
    rho_plus, center_out = _radius_lp(u.grid.nodes, u.values)
    neg_rho, neg_center = _radius_lp(u.grid.nodes, -u.values)
    return WidthRadii(
        w_plus=float(w.max()),
        w_minus=float(w.min()),
        rho_plus=rho_plus,
        rho_minus=-neg_rho,
        center_out=center_out,
        center_in=-neg_center,
    )


def ball(grid: sg.SphereGrid, radius: float = 1.0,
         center: NDArray | None = None) -> SupportFunction:
    """Ball of the given radius; support function R + <c, x>."""
    values = np.full(grid.node_count, float(radius))
    if center is not None:
        center = np.asarray(center, dtype=float)
        values = values + grid.nodes @ center
    return SupportFunction(grid, values, np.zeros(grid.dim + 1))


def ellipse(grid: sg.SphereGrid, semi_axes) -> SupportFunction:
    """Centered ellipse/ellipsoid with the given semi-axes:
    u(x) = sqrt(sum (a_j x_j)^2)."""
    axes = np.asarray(semi_axes, dtype=float)
    if axes.shape != (grid.dim + 1,) or (axes <= 0).any():
        raise ValueError(f"need {grid.dim + 1} positive semi-axes")
    values = np.sqrt(((grid.nodes * axes) ** 2).sum(axis=1))
    return SupportFunction(grid, values, np.zeros(grid.dim + 1))


def normalize_volume(u: SupportFunction) -> SupportFunction:
    """Rescale about the basepoint so the volume equals the unit ball's."""
    target = sg.ball_volume(u.dim)
    out = u
    for _ in range(3):
        v = volume(out)
        if abs(v - target) <= 1e-13 * target:
            break
        out = scale(out, (target / v) ** (1.0 / (u.dim + 1)))
    return out


def random_body(seed: int, dim: int, bandlimit: int, amplitude: float,
                centrally_symmetric: bool = False) -> SupportFunction:
    """Seeded random perturbation of the unit ball, volume-normalized.

    u = 1 + sum of coefficients over degrees 2..min(6, L) decaying like
    degree^-3 (even degrees only when centrally_symmetric). Draws are
    rejected and retried with halved amplitude until lambda_min(A) >= 0.05;
    gives up after 50 rejections.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    grid = sg.build_grid(dim, bandlimit)
    rng = np.random.default_rng(seed)
    degrees = [d for d in range(2, min(6, bandlimit) + 1)
               if not (centrally_symmetric and d % 2)]
    amp = float(amplitude)
    for _ in range(51):
        coeffs = np.zeros(grid.coeff_count)
        for d in degrees:
            of_degree = grid.degrees == d
            coeffs[of_degree] = rng.standard_normal(of_degree.sum()) * amp / d**3
        values = 1.0 + sg.synthesize(grid, coeffs)
        try:
            u = SupportFunction(grid, values, np.zeros(dim + 1))
        except ConvexityLost:
            amp *= 0.5
            continue
        if curvature_data(u).lam_min.min() < 0.05:
            amp *= 0.5
            continue
        return normalize_volume(u)
    raise RandomBodyFailure(f"no uniformly convex draw after 50 rejections (seed {seed})")
