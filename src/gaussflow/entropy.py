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
unique stationary point. `entropy_points_stack` runs it for several
bodies and exponents at once, one row per (body, exponent), each row with
the bits of its own solve; `entropy_points` is its one-body case and
`entropy_point` its one-row case.
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
from .body import SupportFunction, curvature_data, dual_volume, values_about
from .errors import AlphaZero, GaussFlowError, NonConvergence, NotInterior

__all__ = [
    "EntropyResult",
    "entropy_at",
    "entropy_point",
    "entropy_points",
    "entropy_points_stack",
    "santalo_point",
    "SantaloPoint",
    "zalpha",
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


def entropy_at(u: SupportFunction, z: NDArray, alpha: float) -> float:
    """Entropy of the body about basepoint + z."""
    alpha = _check_alpha(alpha)
    return float(_entropy(u.grid, values_about(u, z), alpha))


def _entropy(grid: sg.SphereGrid, uz: NDArray, alpha: float) -> NDArray:
    """Entropy from the support values uz about the chosen point, or from
    each row of a (k, nodes) stack of them, with the bits of that row
    alone: the exponent is a scalar and each row's average one product
    (see `_moments`)."""
    def average(x):
        return (x[..., None, :] @ grid.weights)[..., 0] / sg.sphere_area(grid.dim)

    if abs(alpha - 1.0) < ALPHA_ONE_WINDOW:
        return average(np.log(uz))
    return alpha / (alpha - 1.0) * np.log(average(uz ** (1.0 - 1.0 / alpha)))


def steiner_point(u: SupportFunction) -> NDArray:
    """(n+1) * avg of u(x) x; an always-interior, translation-equivariant
    initial iterate."""
    n1 = u.dim + 1
    return n1 * (u.grid.weights * u.values) @ u.grid.nodes / sg.sphere_area(u.dim)


def _moments(grid: sg.SphereGrid, uz: NDArray, pm1: NDArray):
    """The stationarity system of each row of the (k, nodes) stack uz,
    with pm1 the (k, 1) column of p - 1: S = int u^p, g = int u^(p-1) x,
    M = int u^(p-2) x x^T, the normalizer int u^(p-1) = int u^(-1/alpha)
    and the residual |g| / normalizer. A row's bits are those of a
    one-row stack, whatever k is: the power is `sg.row_power`, and each
    product is taken per row ((k, 1, nodes) @ (nodes, d)), since one
    (k, nodes) @ (nodes, d) product rounds a row differently for
    different k."""
    w1 = sg.row_power(uz, pm1)
    w1 *= grid.weights
    g = (w1[:, None] @ grid.nodes)[:, 0]
    M = grid.nodes.T @ (grid.nodes * (w1 / uz)[:, :, None])
    scale = np.add.reduce(w1, axis=1)
    return np.vecdot(w1, uz), g, M, scale, np.sqrt(np.vecdot(g, g)) / scale


def _support_rows(values: NDArray, z: NDArray, nodes_t: NDArray) -> NDArray:
    """u - <z, x> for each row of the value stack and of the points z,
    one product per row (see `_moments`)."""
    return values - (z[:, None] @ nodes_t)[:, 0]


class _Rows(NamedTuple):
    """The rows of a stacked solve still iterating, each field shaped to
    broadcast against the row stacks it meets: the row's place in the
    stack, its body's support values, alpha, p = 1 - 1/alpha and p - 1,
    whether the row takes the descent step (alpha < 0), and the divisor
    of its solved step (-1 for ascent, p - 1 for descent)."""

    index: NDArray  # (k,)
    values: NDArray  # (k, nodes)
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
def _exponent_rows(alphas: tuple, bodies: int) -> tuple:
    """The `_Rows` fields but the values of a stack of these (checked)
    exponents for that many bodies. They depend on the exponents and the
    count only, so each is made once; nothing writes to them (`_take`
    copies)."""
    table = np.array([(a, p, p - 1.0, a < 0.0, p - 1.0 if a < 0.0 else -1.0)
                      for a in alphas for p in (1.0 - 1.0 / a,)] * bodies)
    fields = (np.arange(len(table)), table[:, 0, None, None], table[:, 1], table[:, 2:3],
              table[:, 3, None, None] > 0.0, table[:, 4:])
    for a in fields:
        a.flags.writeable = False
    return fields


def _rows(values: NDArray, alphas: tuple) -> _Rows:
    """The rows of a stacked solve of every (checked) exponent for each
    body in the (bodies, nodes) stack `values`, body by body."""
    index, *exponents = _exponent_rows(alphas, len(values))
    return _Rows(index, values.repeat(len(alphas), axis=0), *exponents)


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


def _newton_steps(ex: _Rows, at: _Iterates) -> NDArray:
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


def _stop(found: list, ex: _Rows, at: _Iterates, stop: list, it: int):
    """Note the rows flagged in the list `stop` as stopped at iteration
    `it` (their residual, point, support values and iteration, by
    stack row) and return the rows left, or None if none is."""
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
    iteration: the one-body case of `entropy_points_stack`, whose error
    it raises."""
    out = entropy_points_stack([u], alphas)[0]
    if isinstance(out, GaussFlowError):
        raise out
    return out


def entropy_points_stack(bodies, alphas) -> list[list[EntropyResult] | GaussFlowError]:
    """The entropy point of each exponent for each body, all on one grid,
    solved as one damped Newton iteration over the (body, exponent) rows
    that shares each moment evaluation and each (batched) solve.

    Every row has its own rules. It starts at its body's Steiner point;
    it stops when |int x u_z^(-1/alpha)| <= 1e-13 times
    int u_z^(-1/alpha), after MAX_ITER steps, or when no step helps; its
    best residual must be at most GRAD_TOL. Its step halves until
    min u_z > 0.1 * (its current min), so every iterate is strictly
    interior, and is taken once it lowers the residual (any interior step
    below a length of 1e-6). For alpha < 0 it is the descent Newton step
    of the convex functional avg u^p; where the solve fails it is the
    gradient direction. A row's arithmetic does not depend on the other
    rows (see `_moments`), so it gives the bits of its body's and
    exponent's solve alone.

    Returns, per body, its EntropyResult per exponent or the error its
    own solve raises: AlphaZero, NotInterior if its Steiner point is not
    interior, or the NonConvergence of the first exponent, in the given
    order, whose row does not converge.
    """
    try:
        alphas = tuple(_check_alpha(a) for a in alphas)
    except AlphaZero as e:
        return [e] * len(bodies)
    if not alphas or not bodies:
        return [[] for _ in bodies]
    grid = bodies[0].grid
    nodes_t, J = grid.nodes.T, len(alphas)
    ex = _rows(np.array([u.values for u in bodies]), alphas)
    z = np.array([steiner_point(u) for u in bodies]).repeat(J, axis=0)
    uz = _support_rows(ex.values, z, nodes_t)
    m = np.minimum.reduce(uz, axis=1)
    out: list = [None] * len(bodies)
    found = [None] * len(m)  # per row: residual, point, u_z, iteration
    best = {}  # per row: an earlier residual, point and iteration that may win
    outside = (m[::J] <= 0.0).tolist()
    if any(outside):
        for b in (b for b, o in enumerate(outside) if o):
            out[b] = NotInterior(z[b * J], m[b * J])
        if all(outside):
            return out
        interior = np.repeat(outside, J) == 0
        ex, z, uz, m = _take(ex, interior), z[interior], uz[interior], m[interior]
    at = _Iterates(z, uz, m, *_moments(grid, uz, ex.pm1))
    for it in range(1, MAX_ITER + 1):
        stop = (at.res <= 1e-13).tolist()
        if any(stop):
            left = _stop(found, ex, at, stop, it)
            if left is None:
                break
            ex, at = left
        dz = _newton_steps(ex, at)
        # the rows still looking for a step: their place in `at`, body
        # values, point, step, interior floor, p - 1 and residual
        look, values, z0, dz0, floor, pm1, res = (np.arange(len(ex.index)), ex.values, at.z,
                                                  dz, 0.1 * at.m, ex.pm1, at.res)
        t = 1.0
        for _ in range(60):
            z_try = z0 + t * dz0
            uz_try = _support_rows(values, z_try, nodes_t)
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
                look, values, z0, dz0, floor, pm1, res = (
                    a[waiting] for a in (look, values, z0, dz0, floor, pm1, res))
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
    for b, u in enumerate(bodies):
        if out[b] is None:
            try:
                out[b] = [_final(u, found[r], best.get(r)) for r in range(b * J, b * J + J)]
            except GaussFlowError as e:
                out[b] = e
    solved = [b for b, rows in enumerate(out) if isinstance(rows, list)]
    if solved:
        uz = np.array([[uz for _, _, uz, _ in out[b]] for b in solved])
        values = np.array([_entropy(grid, uz[:, j], a) for j, a in enumerate(alphas)]).T
        for b, row in zip(solved, values.tolist()):
            out[b] = [EntropyResult(value=v, point=z, gradient_norm=res, iterations=it)
                      for v, (res, z, _, it) in zip(row, out[b])]
    return out


def _final(u: SupportFunction, found, best) -> tuple:
    """The residual, point, u_z and iteration a row ends with: those it
    stopped with (`found`), or the earlier `best` iterate if its residual
    is lower; raises NonConvergence past GRAD_TOL."""
    res, z, uz, it = found
    if best is not None and best[0] < res:
        res, z, it = best
        uz = values_about(u, z)
    if res > GRAD_TOL:
        raise NonConvergence(it, res)
    return res, z, uz, it


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

