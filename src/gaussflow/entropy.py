"""Power-mean entropy functionals of convex bodies and their extremal points.

For exponent alpha != 0 the entropy of a body about an interior point z is

    E_alpha(u, z) = (alpha/(alpha-1)) * log( avg of u_z^(1-1/alpha) )

with the limiting branch avg(log u_z) at alpha = 1 (switch window 1e-9).
The extremal basepoint (supremum over z for alpha > 0, infimum for
alpha < 0) is the entropy point; its stationarity condition is

    int x * u_z^(-1/alpha) dtheta = 0.

The solver is a damped Newton iteration with closed-form gradient and
Hessian of the z-dependence; for alpha < 0 it minimizes the convex
functional avg u_z^p (p = 1 - 1/alpha in (1, 2)), which has the same
unique stationary point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import sphere_grid as sg
from .body import SupportFunction, curvature_data, dual_volume
from .errors import AlphaZero, NonConvergence, NotInterior

__all__ = [
    "EntropyResult",
    "entropy_at",
    "entropy_point",
    "santalo_point",
    "SantaloPoint",
    "zalpha",
    "concavity_probe",
    "steiner_point",
]

ALPHA_ONE_WINDOW = 1e-9
GRAD_TOL = 1e-10
MAX_ITER = 100


@dataclass(frozen=True)
class EntropyResult:
    """Converged entropy extremum: value, extremal point, solver stats."""

    value: float
    point: NDArray
    gradient_norm: float  # stationarity residual relative to int u^(-1/alpha)
    iterations: int


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if abs(alpha) < 1e-12:
        raise AlphaZero("alpha = 0 is not admissible")
    return alpha


def _shifted(u: SupportFunction, z: NDArray) -> NDArray:
    z = np.asarray(z, dtype=float)
    uz = u.values - u.grid.nodes @ z
    m = uz.min()
    if m <= 0.0:
        raise NotInterior(z, m)
    return uz


def entropy_at(u: SupportFunction, z: NDArray, alpha: float) -> float:
    """Entropy of the body about basepoint + z."""
    alpha = _check_alpha(alpha)
    uz = _shifted(u, z)
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return sg.average(u.grid, np.log(uz))
    p = 1.0 - 1.0 / alpha
    return alpha / (alpha - 1.0) * np.log(sg.average(u.grid, uz**p))


def steiner_point(u: SupportFunction) -> NDArray:
    """(n+1) * avg of u(x) x; an always-interior, translation-equivariant
    initial iterate."""
    n1 = u.dim + 1
    return n1 * (u.grid.weights * u.values) @ u.grid.nodes / sg.sphere_area(u.dim)


def _moments(grid: sg.SphereGrid, uz: NDArray, alpha: float):
    """Integrals entering the stationarity system: S = int u^p, g = int
    u^(p-1) x, M = int u^(p-2) x x^T, with p = 1 - 1/alpha."""
    p = 1.0 - 1.0 / alpha
    w1 = grid.weights * uz ** (p - 1.0)
    g = w1 @ grid.nodes
    M = grid.nodes.T @ (grid.nodes * (w1 / uz)[:, None])
    S = float(w1 @ uz)
    scale = float(w1.sum())  # int u^(-1/alpha), the residual normalizer
    return S, g, M, scale


def entropy_point(u: SupportFunction, alpha: float) -> EntropyResult:
    """Locate the entropy point by damped Newton iteration.

    Stationarity is declared when |int x u_z^(-1/alpha)| <= 1e-10 times
    int u_z^(-1/alpha). Backtracking keeps min u_z >= 0.1 * (current min)
    so every iterate stays strictly interior.
    """
    alpha = _check_alpha(alpha)
    p = 1.0 - 1.0 / alpha
    z = steiner_point(u)
    uz = _shifted(u, z)
    S, g, M, scale = _moments(u.grid, uz, alpha)
    res = np.linalg.norm(g) / scale
    best = (res, z, 0)
    for it in range(1, MAX_ITER + 1):
        if res <= 1e-13:
            break
        fallback = (-g if alpha > 0 else g) / np.linalg.norm(g) * uz.min()
        try:
            if alpha > 0:
                B = M / alpha + np.outer(g, g) * (p / S)
                dz = -np.linalg.solve(B, g)
            else:
                # descent Newton for the convex functional avg u^p
                dz = np.linalg.solve(M, g) / (p - 1.0)
        except np.linalg.LinAlgError:
            dz = fallback
        if not np.isfinite(dz).all():
            dz = fallback
        floor = 0.1 * uz.min()
        t = 1.0
        for _ in range(60):
            z_new = z + t * dz
            uz_new = u.values - u.grid.nodes @ z_new
            if uz_new.min() > floor:
                S2, g2, M2, scale2 = _moments(u.grid, uz_new, alpha)
                res2 = np.linalg.norm(g2) / scale2
                if res2 < res or t < 1e-6:
                    z, uz, S, g, M, scale, res = z_new, uz_new, S2, g2, M2, scale2, res2
                    break
            t *= 0.5
        else:
            break  # no usable step; stop with current best
        if res < best[0]:
            best = (res, z, it)
    res, z, it = best if best[0] < res else (res, z, it)
    if res > GRAD_TOL:
        raise NonConvergence(it, res)
    return EntropyResult(value=entropy_at(u, z, alpha), point=z,
                         gradient_norm=res, iterations=it)


class SantaloPoint(NamedTuple):
    point: NDArray
    dual_volume: float


def santalo_point(u: SupportFunction, ep: EntropyResult | None = None) -> SantaloPoint:
    """Minimizer of the polar-dual volume, located as the entropy point at
    alpha = 1/(n+2) (ep, if that point is already solved); returns the
    minimal dual volume."""
    res = entropy_point(u, 1.0 / (u.dim + 2)) if ep is None else ep
    return SantaloPoint(point=res.point, dual_volume=dual_volume(u, res.point))


def zalpha(u: SupportFunction, alpha: float) -> float:
    """Curvature power mean (avg K^(alpha-1))^(1/(alpha-1)), with the
    geometric-mean branch exp(avg log K) at alpha = 1."""
    alpha = _check_alpha(alpha)
    K = curvature_data(u).K
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return float(np.exp(sg.average(u.grid, np.log(K))))
    return float(sg.average(u.grid, K ** (alpha - 1.0)) ** (1.0 / (alpha - 1.0)))


def concavity_probe(u: SupportFunction, alpha: float, z1: NDArray,
                    z2: NDArray) -> bool:
    """Midpoint concavity test of z -> E_alpha(u, z); all three points must
    be interior."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    mid = 0.5 * (z1 + z2)
    e_mid = entropy_at(u, mid, alpha)
    e1 = entropy_at(u, z1, alpha)
    e2 = entropy_at(u, z2, alpha)
    return bool(e_mid >= 0.5 * (e1 + e2) - 1e-12)
