"""Convex bodies represented by sampled support functions.

A body is stored only through its support function u on a spectral grid,
together with a basepoint recording the origin choice. All geometric
quantities (curvature, volume, surface areas, radii, widths, polar-dual
volume, boundary points) are derived from u via the tensor
A = hess(u) + u*I in the orthonormal tangent frame; its determinant f is
the surface-area measure density and K = 1/f the Gauss curvature.

Uniform convexity (lambda_min(A) > 0 at every node) is enforced eagerly:
constructing a SupportFunction computes the curvature data once, caches
it, and raises ConvexityLost if A is not positive definite;
`support_functions` builds a stack of fields in one transform, each row
as that build would. A body can also be made from curvature data
already in hand (`with_geometry`), without a transform: `scale` dilates
a body by scaling its cached data, and a flow step advances the cached
data by its stages' increments, which it checks as a build would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.typing import NDArray

from . import sphere_grid as sg
from .errors import (
    ConvexityLost,
    NotInterior,
    RadiiNonConvergence,
    RandomBodyFailure,
)

__all__ = [
    "SupportFunction",
    "BodyGeometry",
    "curvature_invariants",
    "support_about",
    "curvature_data",
    "volume",
    "surface_area",
    "affine_surface_area",
    "width_radii",
    "width_radii_stack",
    "WidthRadii",
    "values_about",
    "dual_volume",
    "boundary_points",
    "random_body",
    "ball",
    "ellipse",
    "normalize_volume",
    "scale",
    "with_geometry",
    "support_functions",
    "random_bodies",
]


@dataclass(frozen=True)
class BodyGeometry:
    """Per-node curvature data of a uniformly convex body.

    frame holds the support values u, the entries of the symmetric
    n x n tensor A = hess(u) + u*I and the tangential gradient of u as
    one (3n, nodes) array (the layout of `sphere_grid.frame_of`); A and
    gradient are views of it. f = det(A) is the surface-area measure
    density, K = 1/f the Gauss curvature, lam_min the smallest eigenvalue
    of A, and spectrum the spectrum of u (see
    `sphere_grid.FrameDerivatives`), so that a flow stage u + h k can check
    its resolution without a transform of its own. frame and spectrum are
    linear in u: a flow step gives its new body these two as the old
    body's plus those of the step's increment (`sphere_grid.band_spectrum`,
    `sphere_grid.synthesize_frame`), with f, K and lam_min from that A.
    """

    frame: NDArray
    f: NDArray
    K: NDArray
    lam_min: NDArray
    spectrum: NDArray

    @property
    def A(self) -> NDArray:
        return sg.frame_tensor(self.frame)

    @property
    def gradient(self) -> NDArray:
        return sg.frame_gradient(self.frame)


def curvature_invariants(frame: NDArray) -> tuple[NDArray, NDArray]:
    """det A and lambda_min(A) per node of a frame; raises ConvexityLost
    at the node of the smallest lambda_min unless every one is positive.
    Given the rows of k frames as one (3n, k, nodes) array (a stack with
    its first two axes swapped), it returns (k, nodes) arrays and leaves
    the check of each frame to the caller (`_geometries`)."""
    entries = sg.tensor_rows(frame)
    if len(entries) == 1:
        f = entries[0].copy()
        lam = f.copy()
    else:
        a, b, c = entries
        f = a * c - b * b
        lam = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + b * b)
    if lam.ndim == 1:
        i = int(lam.argmin())
        if lam[i] <= 0.0:
            raise ConvexityLost(i, lam[i])
    return f, lam


def _geometries(grid: sg.SphereGrid, values: NDArray) -> list[BodyGeometry | ConvexityLost]:
    """The curvature data of a field, or of each row of a (k, nodes)
    stack of fields, from one `frame_hessian`, or the ConvexityLost of a
    field whose A is not positive definite (at its node of the smallest
    lambda_min). Every step is row by row or elementwise, so a row's data
    has the bits of that field alone."""
    fd = sg.frame_hessian(grid, values)
    frames, spectra = sg.frame_of(values, fd.hessian, fd.gradient), fd.spectrum
    frames.setflags(write=False)
    if values.ndim == 1:
        frames, spectra = frames[None], spectra[None]
    f, lam = curvature_invariants(frames.swapaxes(0, 1))
    with np.errstate(divide="ignore"):  # a rejected row may have f = 0
        K = 1.0 / f
    return [BodyGeometry(*row) if row[3][j] > 0.0 else ConvexityLost(j, row[3][j])
            for j, row in zip(lam.argmin(axis=1).tolist(), zip(frames, f, K, lam, spectra))]


@dataclass(frozen=True, eq=False)
class SupportFunction:
    """Support values of a uniformly convex body about a basepoint.

    values[i] = max over body points p of <p - basepoint, x_i>. The
    constructor validates uniform convexity (see module docstring) and
    caches the curvature data; values is the read-only row 0 of its
    frame.
    """

    grid: sg.SphereGrid
    values: NDArray
    basepoint: NDArray | None = None
    _geometry: BodyGeometry = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.node_count,):
            raise ValueError(f"values shape {values.shape} does not match grid")
        if self.basepoint is None:
            object.__setattr__(self, "basepoint", np.zeros(self.grid.dim + 1))
        basepoint = np.asarray(self.basepoint, dtype=float).copy()
        if basepoint.shape != (self.grid.dim + 1,):
            raise ValueError(f"basepoint must be a vector in R^{self.grid.dim + 1}")
        basepoint.setflags(write=False)
        geometry = _geometries(self.grid, values)[0]
        if isinstance(geometry, ConvexityLost):
            raise geometry
        object.__setattr__(self, "values", geometry.frame[0])
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "_geometry", geometry)

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


def _attach(grid: sg.SphereGrid, basepoint: NDArray, geometry: BodyGeometry) -> SupportFunction:
    """The body with this grid, basepoint and curvature data, without a
    transform or a check; its values are row 0 of the frame."""
    geometry.frame.setflags(write=False)
    out = object.__new__(SupportFunction)  # skips __post_init__
    for name, value in (("grid", grid), ("values", geometry.frame[0]),
                        ("basepoint", basepoint), ("_geometry", geometry)):
        object.__setattr__(out, name, value)
    return out


def with_geometry(u: SupportFunction, geometry: BodyGeometry) -> SupportFunction:
    """The body on u's grid and basepoint with this curvature data, whose
    frame's row 0 gives its support values; made without a transform and
    without a check, so the caller answers for `geometry` being the data
    of a convex body (a dilate in `scale`, a checked step combination in
    `flow.step`). Takes ownership of the frame, which it makes read-only."""
    return _attach(u.grid, u.basepoint, geometry)


def support_functions(grid: sg.SphereGrid, values: NDArray) -> list[SupportFunction | ConvexityLost]:
    """A body about the origin for each row of the (k, nodes) stack
    `values`, from one transform of the stack: per row the body that
    `SupportFunction(grid, row)` builds, with its bits, or the
    ConvexityLost that build raises; both are `_geometries`."""
    origin = np.zeros(grid.dim + 1)
    origin.setflags(write=False)
    return [g if isinstance(g, ConvexityLost) else _attach(grid, origin, g)
            for g in _geometries(grid, np.asarray(values, dtype=float))]


def scale(u: SupportFunction, s: float) -> SupportFunction:
    """Dilate the body by s > 0 about its current basepoint.

    The cached geometry is scaled instead of recomputed: the frame (values,
    A and gradient) and spectrum -> s times, f -> s^n f, K -> s^-n K,
    lambda -> s lambda. A dilate of a valid body is valid, so nothing is
    re-checked.
    """
    if s <= 0:
        raise ValueError("scale factor must be positive")
    g = curvature_data(u)
    sn = s**u.dim
    return with_geometry(u, BodyGeometry(
        frame=s * g.frame, f=sn * g.f, K=g.K / sn, lam_min=s * g.lam_min,
        spectrum=s * g.spectrum))


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


def values_about(u: SupportFunction, z: NDArray) -> NDArray:
    """Support values u - <z, x> of the body about basepoint + z; raises
    NotInterior unless every one is positive (z inside the body)."""
    z = np.asarray(z, dtype=float)
    uz = u.values - u.grid.nodes @ z
    m = uz.min()
    if m <= 0.0:
        raise NotInterior(z, m)
    return uz


def dual_volume(u: SupportFunction, z: NDArray) -> float:
    """Volume of the polar dual body taken about basepoint + z."""
    return sg.integrate(u.grid, values_about(u, z) ** (-(u.dim + 1))) / (u.dim + 1)


def boundary_points(u: SupportFunction) -> NDArray:
    """Boundary point with outer normal x_i for every node (inverse Gauss
    map X = u x + tangential gradient)."""
    g = curvature_data(u)
    X = u.values[:, None] * u.grid.nodes + g.gradient[:, 0][:, None] * u.grid.tangent
    if u.dim == 2:
        X = X + g.gradient[:, 1][:, None] * u.grid.tangent2
    return X


class WidthRadii(NamedTuple):
    """Extremal widths, and radii with their centers.

    w_plus/w_minus: max/min over nodes of the width u(x) + u(-x).
    rho_plus/rho_minus: circumradius and inradius as min-max/max-min of
    u(x) - <z, x> over grid nodes, solved exactly by `_radius_lps`.
    center_out/center_in (relative to the basepoint) are one optimal point
    of each solve, not the only one: the optimum can be a face, as when an
    antipodal node pair (a width) is active, and then solves from
    different start bases agree on rho to rounding while their centers
    differ. No output file writes a center. bases holds the optimal bases
    of the outer and inner solves, to start the next body's on the same
    grid (see `width_radii`).

    One solver makes it: `width_radii` solves a flow's body as a two-row
    stack, cold or from given bases, and `width_radii_stack` solves the
    bodies of a verify suite cold as one stack; a row's bits do not
    depend on the stack's height.
    """

    w_plus: float
    w_minus: float
    rho_plus: float
    rho_minus: float
    center_out: NDArray
    center_in: NDArray
    bases: tuple[NDArray, NDArray]


# Pivots allowed per exchange solve; fuzz bodies need at most 28 at (2, 32).
_MAX_PIVOTS = 200
# Regular simplices about the origin in R^2 and R^3 (unnormalized).
_SIMPLEX = {2: np.array([[2.0, 0.0], [-1.0, 3**0.5], [-1.0, -(3**0.5)]]),
            3: np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])}


def _start_basis(nodes: NDArray) -> NDArray:
    """The n+2 nodes nearest the vertices of a regular simplex; their hull
    holds the origin, so they start the dual feasibly."""
    return np.argmax(nodes @ _SIMPLEX[nodes.shape[1]].T, axis=0)


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _radius_lps(nodes: NDArray, U: NDArray,
                starts: NDArray) -> list[tuple[float, NDArray, NDArray] | RadiiNonConvergence]:
    """Outer radius min over z of max_i U[r, i] - <z, x_i> of every row r
    of U (k, nodes), with its center z and optimal basis, by Stiefel's
    exchange (Numer. Math. 2, 1960): a revised simplex on the dual max
    sum lam_i u_i, sum lam_i = 1, sum lam_i x_i = 0, lam >= 0, over n+2
    basis nodes. A pivot brings in the node most above the basis level
    (the optimum once no excess exceeds 1e-14 * max(1, |u|)) and drops
    the ratio test's node, the lowest index among ratios within 1e-15 of
    the least (Bland).

    Row r starts from starts[r], n+2 distinct node indices (not
    modified): `_start_basis(nodes)` cold, or the optimal basis of an
    earlier solve on the same nodes. The weights lam depend on the basis
    nodes only, not on u, so such a basis is dual-feasible for any u; a
    start is accepted when its smallest weight is >= -1e-12 (rounding),
    which the ratio test treats as 0. rho is the LP optimum whatever the
    start, the center one optimal point of a possibly larger face.

    The rows are one stack: per pivot one inverse of the (k, d+1, d+1)
    basis matrices, one stacked matmul for the excess of every node and
    a vectorised ratio test, each row's product made alone, so a row has
    the same bits in a stack of any height; rows leave the stack as they
    stop. Returns, in row order, (rho, center, basis) or the
    RadiiNonConvergence of the row: for a start below the tolerance, a
    singular basis (a pivot on a rounding-sized entry can make one),
    past `_MAX_PIVOTS` pivots, or if max_i u_i - <z, x_i> at the center
    misses the dual objective by more than 1e-8."""
    d = nodes.shape[1]
    out: list = [None] * len(U)
    rows = np.arange(len(U))
    basis = np.array(starts)
    tol = 1e-14 * np.maximum(1.0, np.abs(U).max(axis=1))
    M = np.ones((len(U), d + 1, d + 1))     # columns (1, x_i), i in the basis
    M[:, 1:] = nodes[basis].transpose(0, 2, 1)
    col = np.ones((len(U), d + 1, 1))       # (1, x_j) of each entering node j
    at = rows[:, None]
    for pivots in range(_MAX_PIVOTS + 1):
        # the gufunc np.linalg.inv runs, without its per-call checks: the
        # inverse of a singular basis matrix is NaN, without a warning
        Minv = _umath_linalg.inv(M, signature="d->d")
        lam = Minv[:, :, 0]                 # dual weights: M lam = (1, 0)
        ub = U[at, basis]
        # stacked matmul makes each row's product the one it makes alone
        # (einsum sums in another order and moves rho in the last bit)
        y = np.matmul(Minv.transpose(0, 2, 1), ub[:, :, None])[:, :, 0]  # level, center
        level = U - np.matmul(nodes, y[:, 1:, None])[:, :, 0]
        excess = level - y[:, :1]
        excess[at, basis] = 0.0             # zero up to rounding; must not re-enter
        j = excess.argmax(axis=1)
        top = excess[at[:, 0], j]
        stop = ~(top > tol)                 # optimal, or NaN from a singular basis
        if pivots == 0:
            refused = lam.min(axis=1) < -1e-12   # below rounding: not dual-feasible
            stop |= refused
        if pivots == _MAX_PIVOTS:
            stop[:] = True
        if stop.any():
            for i in np.flatnonzero(stop):
                if pivots == 0 and refused[i] or np.isnan(top[i]):
                    out[rows[i]] = RadiiNonConvergence(np.nan, np.inf)
                elif top[i] > tol[i]:
                    out[rows[i]] = RadiiNonConvergence(float(y[i, 0]), float(top[i]))
                else:
                    rho = float(level[i].max())
                    gap = abs(rho - float(lam[i] @ ub[i]))
                    out[rows[i]] = (RadiiNonConvergence(rho, gap)
                                    if gap > 1e-8 * max(1.0, abs(rho))
                                    else (rho, y[i, 1:], basis[i]))
            if stop.all():
                return out
            go = ~stop
            rows, U, basis, tol, M, col, Minv, lam, j = (
                a[go] for a in (rows, U, basis, tol, M, col, Minv, lam, j))
            at = np.arange(len(rows))[:, None]
        col[:, 1:, 0] = nodes[j]
        dw = np.matmul(Minv, col)[:, :, 0]
        ratio = np.divide(np.maximum(lam, 0.0), dw, out=np.full(dw.shape, np.inf),
                          where=dw > 1e-14)
        ties = ratio <= ratio.min(axis=1, keepdims=True) + 1e-15
        leave = np.where(ties, basis, len(nodes)).argmin(axis=1)   # Bland
        basis[at[:, 0], leave] = j
        M[at[:, 0], :, leave] = col[:, :, 0]
    raise AssertionError("unreachable: the last pivot stops every row")


def width_radii(u: SupportFunction,
                bases: tuple[NDArray, NDArray] | None = None) -> WidthRadii:
    """Extremal widths w+/- over node directions and outer/inner radii
    rho+/rho- over the grid nodes (see `_radius_lps`); the inner radius is
    -(outer radius of -u), about the negated center.

    bases starts the outer and inner solves, each from its own basis:
    pass an earlier result's `bases` from a body on the same grid (a flow
    passes its previous sample's), or None to start both cold from
    `_start_basis`. Either start gives the same radii up to rounding.
    The two solves are one two-row stack; a failed solve raises its
    RadiiNonConvergence, the outer solve's if both fail."""
    if bases is None:
        bases = (_start_basis(u.grid.nodes), _start_basis(u.grid.nodes))
    wr = _stacked_radii([u], np.array(bases))[0]
    if isinstance(wr, RadiiNonConvergence):
        raise wr
    return wr


def width_radii_stack(bodies) -> list[WidthRadii | RadiiNonConvergence]:
    """`width_radii(u)` of each body, all on one grid, cold: the outer
    and inner solves of every body are one stack, which for a suite of
    bodies costs a fraction of their two-row solves. Returns, per body,
    its WidthRadii or the error `width_radii` would raise."""
    if not bodies:
        return []
    return _stacked_radii(bodies, np.tile(_start_basis(bodies[0].grid.nodes),
                                          (2 * len(bodies), 1)))


def _stacked_radii(bodies, starts: NDArray) -> list[WidthRadii | RadiiNonConvergence]:
    """Per body its WidthRadii, or its outer solve's RadiiNonConvergence,
    else its inner solve's, from one `_radius_lps` stack of every body's
    outer rows (u, from starts[:k]) and then inner rows (-u, from
    starts[k:])."""
    values = np.array([u.values for u in bodies])
    solved = _radius_lps(bodies[0].grid.nodes, np.concatenate([values, -values]), starts)
    out = []
    for u, outer, inner in zip(bodies, solved, solved[len(bodies):]):
        failed = [r for r in (outer, inner) if isinstance(r, RadiiNonConvergence)]
        if failed:
            out.append(failed[0])
            continue
        (rho_plus, center_out, basis_out), (neg_rho, neg_center, basis_in) = outer, inner
        w = u.values + u.values[u.grid.antipode]
        out.append(WidthRadii(w_plus=float(w.max()), w_minus=float(w.min()),
                              rho_plus=rho_plus, rho_minus=-neg_rho, center_out=center_out,
                              center_in=-neg_center, bases=(basis_out, basis_in)))
    return out


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
    """Seeded random perturbation of the unit ball, volume-normalized: the
    one-seed case of `random_bodies`, whose error it raises."""
    u = random_bodies([seed], dim, bandlimit, amplitude, centrally_symmetric)[0]
    if isinstance(u, RandomBodyFailure):
        raise u
    return u


def random_bodies(seeds, dim: int, bandlimit: int, amplitude: float,
                  centrally_symmetric: bool = False) -> list[SupportFunction | RandomBodyFailure]:
    """Seeded random perturbations of the unit ball, volume-normalized,
    one per seed, each drawn from its own generator.

    u = 1 + sum of coefficients over degrees 2..min(6, L) decaying like
    degree^-3 (even degrees only when centrally_symmetric). A seed's draw
    is rejected and redrawn with halved amplitude until lambda_min(A) >=
    0.05; it gives up (RandomBodyFailure in its place) after 50
    rejections. Each round synthesizes and builds the draws of every seed
    still drawing as one stack (`sphere_grid.synthesize`,
    `support_functions`), so a seed's body does not depend on the other
    seeds.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    seeds = list(seeds)
    grid = sg.build_grid(dim, bandlimit)
    degrees = [d for d in range(2, min(6, bandlimit) + 1) if not (centrally_symmetric and d % 2)]
    blocks = [(d**3, grid.degrees == d) for d in degrees]
    out: list = [None] * len(seeds)
    drawing = [(i, np.random.default_rng(seed), float(amplitude)) for i, seed in enumerate(seeds)]
    for _ in range(51):
        if not drawing:
            break
        coeffs = np.zeros((len(drawing), grid.coeff_count))
        for row, (_, rng, amp) in zip(coeffs, drawing):
            for cube, of_degree in blocks:
                row[of_degree] = rng.standard_normal(np.count_nonzero(of_degree)) * amp / cube
        built = support_functions(grid, 1.0 + sg.synthesize(grid, coeffs))
        redraw = []
        for (i, rng, amp), u in zip(drawing, built):
            if isinstance(u, ConvexityLost) or curvature_data(u).lam_min.min() < 0.05:
                redraw.append((i, rng, amp * 0.5))
            else:
                out[i] = normalize_volume(u)
        drawing = redraw
    for i, _, _ in drawing:
        out[i] = RandomBodyFailure(
            f"no uniformly convex draw after 50 rejections (seed {seeds[i]})")
    return out
