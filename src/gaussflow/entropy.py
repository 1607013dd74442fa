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
unique stationary point. `entropy_points` runs it for several exponents
at once, one row per exponent; `entropy_point` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.typing import NDArray

from . import sphere_grid as sg
from .body import SupportFunction, curvature_data, dual_volume
from .errors import AlphaZero, NonConvergence, NotInterior

__all__ = [
    "EntropyResult",
    "entropy_at",
    "entropy_point",
    "entropy_points",
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
    return _entropy(u.grid, _shifted(u, z), alpha)


def _entropy(grid: sg.SphereGrid, uz: NDArray, alpha: float) -> float:
    """Entropy from the support values uz about the chosen point."""
    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return sg.average(grid, np.log(uz))
    p = 1.0 - 1.0 / alpha
    return alpha / (alpha - 1.0) * np.log(sg.average(grid, uz**p))


def steiner_point(u: SupportFunction) -> NDArray:
    """(n+1) * avg of u(x) x; an always-interior, translation-equivariant
    initial iterate."""
    n1 = u.dim + 1
    return n1 * (u.grid.weights * u.values) @ u.grid.nodes / sg.sphere_area(u.dim)


def _moments(grid: sg.SphereGrid, uz: NDArray, pm1: NDArray):
    """The stationarity system of each row of the (k, nodes) stack uz,
    with pm1 the (k, 1) column of p - 1: S = int u^p, g = int u^(p-1) x,
    M = int u^(p-2) x x^T, the normalizer int u^(p-1) = int u^(-1/alpha)
    and the residual |g| / normalizer. A row's arithmetic is that of a
    one-row stack."""
    w1 = uz ** pm1
    w1 *= grid.weights
    g = w1 @ grid.nodes
    M = grid.nodes.T @ (grid.nodes * (w1 / uz)[:, :, None])
    scale = np.add.reduce(w1, axis=1)
    return np.vecdot(w1, uz), g, M, scale, np.sqrt(np.vecdot(g, g)) / scale


class _Exponents(NamedTuple):
    """The rows of a stacked solve still iterating, each field shaped to
    broadcast against the row stacks it meets: the exponent's place in
    the caller's order, alpha, p = 1 - 1/alpha and p - 1, whether the row
    takes the descent step (alpha < 0), and the divisor of its solved
    step (-1 for ascent, p - 1 for descent)."""

    index: NDArray  # (k,)
    alpha: NDArray  # (k, 1, 1)
    p: NDArray  # (k,)
    pm1: NDArray  # (k, 1)
    descent: NDArray  # (k, 1, 1)
    div: NDArray  # (k, 1)


class _Iterates(NamedTuple):
    """One iterate per row: the point z, the support values u_z about it
    and their minimum, and the `_moments` there."""

    z: NDArray
    uz: NDArray
    m: NDArray
    S: NDArray
    g: NDArray
    M: NDArray
    scale: NDArray
    res: NDArray


@lru_cache(maxsize=16)
def _exponents(alphas: tuple) -> _Exponents:
    """The rows of a stacked solve of these (checked) exponents. They
    depend on the exponents only, so each list is made once; nothing
    writes to them (`_take` copies)."""
    table = np.array([(a, p, p - 1.0, a < 0.0, p - 1.0 if a < 0.0 else -1.0)
                      for a in alphas for p in (1.0 - 1.0 / a,)])
    table.flags.writeable = False
    return _Exponents(np.arange(len(alphas)), table[:, 0, None, None], table[:, 1],
                      table[:, 2:3], table[:, 3, None, None] > 0.0, table[:, 4:])


def _take(rows, keep):
    """The rows `keep` (a mask or an index array) of every field."""
    return type(rows)(*(a[keep] for a in rows))


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _solve(B: NDArray, g: NDArray) -> NDArray:
    """B^-1 g for each row of the stacks B and g; a row whose matrix is
    singular (or not finite) is NaN, without a warning. It is one call of
    the gufunc np.linalg.solve runs for a vector right-hand side, under
    the errstate np.linalg.solve sets but without its per-call checks."""
    return _umath_linalg.solve1(B, g, signature="dd->d")


def _newton_steps(ex: _Exponents, at: _Iterates) -> NDArray:
    """The step of each row: B dz = -g with B = M/alpha + (p/S) g g^T
    (ascent, alpha > 0), or M dz = g/(p - 1) (descent, alpha < 0); where
    that solve fails, the gradient direction scaled to min u_z."""
    B = at.M / ex.alpha + at.g[:, :, None] * at.g[:, None, :] * (ex.p / at.S)[:, None, None]
    np.copyto(B, at.M, where=ex.descent)
    dz = _solve(B, at.g) / ex.div
    for i, row in enumerate(dz.tolist()):
        if not all(map(math.isfinite, row)):
            g = at.g[i]
            dz[i] = (g if ex.descent[i] else -g) / np.linalg.norm(g) * at.m[i]
    return dz


def _stop(found: list, ex: _Exponents, at: _Iterates, stop: list, it: int):
    """Note the rows flagged in the list `stop` as stopped at iteration
    `it` (their residual, point, support values and iteration, by
    exponent) and return the rows left, or None if none is."""
    for i, s in enumerate(stop):
        if s:
            found[ex.index[i]] = (float(at.res[i]), at.z[i], at.uz[i], it)
    if all(stop):
        return None
    keep = ~np.array(stop)
    return _take(ex, keep), _take(at, keep)


def entropy_point(u: SupportFunction, alpha: float) -> EntropyResult:
    """Locate the entropy point by damped Newton iteration: the one-row
    case of `entropy_points`."""
    return entropy_points(u, (alpha,))[0]


def entropy_points(u: SupportFunction, alphas) -> list[EntropyResult]:
    """The entropy point of each exponent, all solved as one damped Newton
    iteration that shares each moment evaluation and each (batched) solve.

    Every exponent is a row with its own rules. It starts at the Steiner
    point; it stops when |int x u_z^(-1/alpha)| <= 1e-13 times
    int u_z^(-1/alpha), after MAX_ITER steps, or when no step helps; its
    best residual must be at most GRAD_TOL. Its step halves until
    min u_z > 0.1 * (its current min), so every iterate is strictly
    interior, and is taken once it lowers the residual (any interior step
    below a length of 1e-6). For alpha < 0 it is the descent Newton step
    of the convex functional avg u^p; where the solve fails it is the
    gradient direction. Raises NonConvergence for the first exponent, in
    the given order, whose row does not converge.
    """
    alphas = tuple(_check_alpha(a) for a in alphas)
    if not alphas:
        return []
    grid, values, nodes_t = u.grid, u.values, u.grid.nodes.T
    ex = _exponents(alphas)
    z = steiner_point(u)[None].repeat(len(alphas), axis=0)
    uz = values - z @ nodes_t
    m = np.minimum.reduce(uz, axis=1)
    if m[0] <= 0.0:
        raise NotInterior(z[0], m[0])
    at = _Iterates(z, uz, m, *_moments(grid, uz, ex.pm1))
    found = [None] * len(alphas)  # per exponent: residual, point, u_z, iteration
    best = {}  # per exponent: an earlier residual, point and iteration that may win
    for it in range(1, MAX_ITER + 1):
        stop = (at.res <= 1e-13).tolist()
        if any(stop):
            left = _stop(found, ex, at, stop, it)
            if left is None:
                break
            ex, at = left
        dz = _newton_steps(ex, at)
        # the rows still looking for a step: their place in `at`, point,
        # step, interior floor, p - 1 and residual
        look, z0, dz0, floor, pm1, res = (np.arange(len(ex.index)), at.z, dz, 0.1 * at.m,
                                          ex.pm1, at.res)
        t = 1.0
        for _ in range(60):
            z_try = z0 + t * dz0
            uz_try = values - z_try @ nodes_t
            m_try = np.minimum.reduce(uz_try, axis=1)
            inside = m_try > floor
            rows, pm1_in, res_in = look, pm1, res
            if not all(inside.tolist()):  # try only the rows whose step is interior
                rows, pm1_in, res_in = look[inside], pm1[inside], res[inside]
                z_try, uz_try, m_try = z_try[inside], uz_try[inside], m_try[inside]
            if rows.size:
                trial = _Iterates(z_try, uz_try, m_try, *_moments(grid, uz_try, pm1_in))
                took = trial.res < res_in
                if t < 1e-6:  # take the step anyway; the iterate it leaves may stay best
                    for i in rows[~took].tolist():
                        r = ex.index[i]
                        if at.res[i] < best.get(r, (math.inf,))[0]:
                            best[r] = (float(at.res[i]), at.z[i].copy(), it - 1)
                    took[:] = True
                if all(took.tolist()) and rows.size == len(at.z):
                    at = trial  # every row stepped: the trial is the new state
                    look = ()
                    break
                for a, b in zip(at, trial):
                    a[rows[took]] = b[took]
                waiting = ~inside
                waiting[inside] = ~took
                look, z0, dz0, floor, pm1, res = (a[waiting]
                                                  for a in (look, z0, dz0, floor, pm1, res))
                if not look.size:
                    look = ()
                    break
            t *= 0.5
        if len(look):  # no usable step: these rows stop
            stuck = set(look.tolist())
            left = _stop(found, ex, at, [i in stuck for i in range(len(ex.index))], it)
            if left is None:
                break
            ex, at = left
    else:
        _stop(found, ex, at, [True] * len(ex.index), MAX_ITER)
    results = []
    for r, (a, (res, z, uz, it)) in enumerate(zip(alphas, found)):
        if r in best and best[r][0] < res:
            res, z, it = best[r]
            uz = _shifted(u, z)
        if res > GRAD_TOL:
            raise NonConvergence(it, res)
        results.append(EntropyResult(value=_entropy(grid, uz, a), point=z,
                                     gradient_norm=res, iterations=it))
    return results


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
