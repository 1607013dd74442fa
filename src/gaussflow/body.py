"""Convex bodies represented by sampled support functions.

A body is stored only through its support function u on a spectral grid,
together with a basepoint recording the origin choice. All geometric
quantities (curvature, volume, surface areas, radii, widths, polar-dual
volume, boundary points) are derived from u via the tensor
A = hess(u) + u*I in the orthonormal tangent frame; its determinant f is
the surface-area measure density and K = 1/f the Gauss curvature.

Uniform convexity (lambda_min(A) > 0 at every node) is enforced eagerly:
constructing a SupportFunction computes the curvature data once, caches
it, and raises ConvexityLost if A is not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import linprog

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
    for boundary-point reconstruction.
    """

    A: NDArray
    f: NDArray
    K: NDArray
    lam_min: NDArray
    gradient: NDArray


def _curvature_arrays(grid: sg.SphereGrid, values: NDArray) -> BodyGeometry:
    hess, grad = sg.frame_hessian(grid, values)
    n = grid.dim
    A = hess + values[:, None, None] * np.eye(n)
    if n == 1:
        f = A[:, 0, 0].copy()
        lam = f.copy()
    else:
        a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        f = a * c - b * b
        lam = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + b * b)
    i = int(np.argmin(lam))
    if lam[i] <= 0.0:
        raise ConvexityLost(i, lam[i])
    return BodyGeometry(A=A, f=f, K=1.0 / f, lam_min=lam, gradient=grad)


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
    """Dilate the body by s > 0 about its current basepoint."""
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return SupportFunction(u.grid, s * u.values, u.basepoint)


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
    """Extremal widths and radii with their witnesses.

    w_plus/w_minus: max/min over nodes of the width u(x) + u(-x), with
    the witnessing directions. rho_plus/rho_minus: circumradius and
    inradius as min-max/max-min of u(x) - <z, x> over grid nodes, with
    the witnessing centers (relative to the basepoint).
    """

    w_plus: float
    w_minus: float
    rho_plus: float
    rho_minus: float
    dir_w_plus: NDArray
    dir_w_minus: NDArray
    center_out: NDArray
    center_in: NDArray


def _radius_lp(nodes: NDArray, u: NDArray, outer: bool) -> tuple[float, NDArray]:
    """Solve the finite min-max (outer) or max-min (inner) radius problem
    over grid nodes: an LP in (radius, center), polished by an active-set
    least-squares solve to ~1e-12."""
    m, d = nodes.shape
    if outer:
        # minimize s subject to u_i - <z, x_i> <= s
        c = np.concatenate([[1.0], np.zeros(d)])
        A_ub = np.column_stack([-np.ones(m), -nodes])
        b_ub = -u
    else:
        # maximize t subject to t + <z, x_i> <= u_i
        c = np.concatenate([[-1.0], np.zeros(d)])
        A_ub = np.column_stack([np.ones(m), nodes])
        b_ub = u
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RadiiNonConvergence(np.nan, np.inf)
    r_lp, z_lp = res.x[0], res.x[1:]

    def certified(z: NDArray) -> float:
        vals = u - nodes @ z
        return float(vals.max() if outer else vals.min())

    best_z, best_r = z_lp, certified(z_lp)
    # polish: equality-solve on the near-active constraints
    vals = u - nodes @ z_lp
    act = np.abs(vals - r_lp) <= 1e-6 * max(1.0, abs(r_lp))
    if act.sum() >= 1:
        Aeq = np.column_stack([np.ones(act.sum()), nodes[act]])
        sol, *_ = np.linalg.lstsq(Aeq, u[act], rcond=None)
        z_p = sol[1:]
        r_p = certified(z_p)
        if (outer and r_p < best_r) or (not outer and r_p > best_r):
            best_z, best_r = z_p, r_p
    gap = abs(best_r - r_lp)
    if gap > 1e-8 * max(1.0, abs(best_r)):
        raise RadiiNonConvergence(best_r, gap)
    return best_r, best_z


def width_radii(u: SupportFunction) -> WidthRadii:
    """Extremal widths w+/- over node directions and inner/outer radii
    rho-/rho+ solved as finite min-max problems over the grid (1e-10
    tolerance)."""
    w = u.values + u.values[u.grid.antipode]
    i_max, i_min = int(np.argmax(w)), int(np.argmin(w))
    rho_plus, center_out = _radius_lp(u.grid.nodes, u.values, outer=True)
    rho_minus, center_in = _radius_lp(u.grid.nodes, u.values, outer=False)
    return WidthRadii(
        w_plus=float(w[i_max]),
        w_minus=float(w[i_min]),
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        dir_w_plus=u.grid.nodes[i_max].copy(),
        dir_w_minus=u.grid.nodes[i_min].copy(),
        center_out=center_out,
        center_in=center_in,
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
            if dim == 1:
                coeffs[d] = rng.standard_normal() * amp / d**3
                coeffs[bandlimit + d] = rng.standard_normal() * amp / d**3
            else:
                lo = d * d
                coeffs[lo: lo + 2 * d + 1] = rng.standard_normal(2 * d + 1) * amp / d**3
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
