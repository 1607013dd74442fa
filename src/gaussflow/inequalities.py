"""Verifiers for the sharp inequalities and identities of the flow theory.

Each check is a pure function returning a CheckReport with a uniform
slack convention, so a suite of checks over random bodies reduces to
"every slack >= -tolerance". Covered here:

- volume times polar-dual volume at the Santalo point vs the ball value
- entropy nonnegativity at normalized volume
- curvature power mean Z_alpha dominating e^entropy
- the affine isoperimetric inequality for the affine surface area
- inradius/outradius vs width bounds
- the curvature-image body: its density, the mixed-volume identity, and
  (n=1 only) reconstruction by a diagonal Fourier solve
- the entropy lower bound through the curvature image (n=1; reversed
  for negative exponents)
- structural properties of flow solitons

body_checks is the per-body list that both verify suites run; fuzz_suite
runs it over seeded random bodies and an exponent grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import sphere_grid as sg
from . import body as gb
from . import entropy as ge
from .body import SupportFunction
from .errors import CompatibilityViolation, NotASoliton, UnsupportedDimension

__all__ = [
    "CheckReport",
    "check_blaschke_santalo",
    "check_entropy_nonneg",
    "check_z_vs_entropy",
    "check_affine_isoperimetric",
    "check_width_bounds",
    "CurvatureImage",
    "curvature_image",
    "check_entropy_stability",
    "check_soliton_properties",
    "alpha_grid",
    "body_checks",
    "fuzz_suite",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verifier.

    One-sided checks assert lhs <= rhs and use slack = rhs - lhs;
    equality checks keep both sides and use the two-sided
    slack = -|rhs - lhs|. Either way passed iff slack >= -tolerance.
    Names carrying a "(reported)" suffix are informational: evaluated
    and recorded, but not meant to gate a suite.
    """

    name: str
    inputs: dict
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool


def _digest(u: SupportFunction, **extra) -> dict:
    h = hashlib.sha256()
    h.update(u.values.tobytes())
    h.update(u.basepoint.tobytes())
    d = {"body": h.hexdigest()[:12], "dim": u.dim, "bandlimit": u.grid.bandlimit}
    d.update(extra)
    return d


def _one_sided(name, inputs, lhs, rhs, tolerance) -> CheckReport:
    slack = rhs - lhs
    return CheckReport(name, inputs, float(lhs), float(rhs), float(slack),
                       float(tolerance), bool(slack >= -tolerance))


def _equality(name, inputs, lhs, rhs, tolerance) -> CheckReport:
    slack = -abs(rhs - lhs)
    return CheckReport(name, inputs, float(lhs), float(rhs), float(slack),
                       float(tolerance), bool(slack >= -tolerance))


def _entropy_point(u: SupportFunction, alpha: float, ep) -> ge.EntropyResult:
    return ge.entropy_point(u, alpha) if ep is None else ep


def check_blaschke_santalo(u: SupportFunction, ep=None) -> CheckReport:
    """Volume times polar-dual volume at the Santalo point stays below
    the ball's value; equality exactly for ellipsoids. ep, if given, is
    the entropy point at alpha = 1/(n+2) (the Santalo point)."""
    sp = ge.santalo_point(u, ep=ep)
    lhs = gb.volume(u) * sp.dual_volume
    rhs = sg.ball_volume(u.dim) ** 2
    return _one_sided("volume-dual-volume-product", _digest(u, z=[f"{c:.6g}" for c in sp.point]),
                      lhs, rhs, 1e-8 * rhs)


def _require_normalized(u: SupportFunction) -> None:
    target = sg.ball_volume(u.dim)
    if abs(gb.volume(u) - target) > 1e-10 * target:
        raise ValueError("body volume must be pre-normalized to the unit ball's")


def check_entropy_nonneg(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """At normalized volume the entropy is minimized by the ball, where
    it vanishes; so the extremal entropy must be >= 0. Here and below,
    ep is the body's entropy point at alpha if already solved."""
    _require_normalized(u)
    ent = _entropy_point(u, alpha, ep).value
    return _one_sided("entropy-nonnegative", _digest(u, alpha=alpha), 0.0, ent, 1e-10)


def check_z_vs_entropy(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """The curvature power mean dominates e^entropy at normalized
    volume, for exponents alpha >= 1/(n+2) (below that the bound is not
    available and can genuinely reverse)."""
    _require_normalized(u)
    if alpha < 1.0 / (u.dim + 2) - 1e-12:
        raise ValueError("curvature power mean bound needs alpha >= 1/(n+2)")
    lhs = math.exp(_entropy_point(u, alpha, ep).value)
    rhs = ge.zalpha(u, alpha)
    return _one_sided("curvature-mean-vs-entropy", _digest(u, alpha=alpha),
                      lhs, rhs, 1e-10 * max(abs(lhs), abs(rhs)))


def check_affine_isoperimetric(u: SupportFunction) -> CheckReport:
    """Affine surface area to the power n+2 against its sharp bound
    (n+1)^(n+2) |B(1)|^2 |Omega|^n; equality for ellipsoids."""
    n = u.dim
    lhs = gb.affine_surface_area(u) ** (n + 2)
    rhs = (n + 1.0) ** (n + 2) * sg.ball_volume(n) ** 2 * gb.volume(u) ** n
    return _one_sided("affine-isoperimetric", _digest(u), lhs, rhs, 1e-8 * rhs)


def check_width_bounds(u: SupportFunction) -> list[CheckReport]:
    """Outradius vs max width and inradius vs min width, both directions
    of each classical comparison, in R^d with d = n+1. The sharp
    constants are Jung's R <= D sqrt(d/(2(d+1))) (regular simplex) and
    Steinhagen's r >= w/(2 sqrt(d)) for odd d, r >= w sqrt(d+2)/(2(d+1))
    for even d (w/3 in the plane, equilateral triangle); see Bonnesen-
    Fenchel, Theorie der konvexen Koerper (1934)."""
    d = u.dim + 1
    jung = math.sqrt(d / (2.0 * (d + 1)))
    steinhagen = (1.0 / (2.0 * math.sqrt(d)) if d % 2
                  else math.sqrt(d + 2.0) / (2.0 * (d + 1)))
    wr = gb.width_radii(u)
    scale = 1e-8 * max(wr.w_plus, 1.0)
    inputs = _digest(u)
    return [
        _one_sided("half-max-width-below-outradius", inputs,
                   0.5 * wr.w_plus, wr.rho_plus, scale),
        _one_sided("outradius-vs-max-width-factor", inputs,
                   wr.rho_plus, wr.w_plus * jung, scale),
        _one_sided("inradius-below-half-min-width", inputs,
                   wr.rho_minus, 0.5 * wr.w_minus, scale),
        _one_sided("min-width-factor-below-inradius", inputs,
                   wr.w_minus * steinhagen, wr.rho_minus, scale),
    ]


class CurvatureImage(NamedTuple):
    """Prescribed curvature density about the entropy point, its mixed
    volume against the source body, and (n=1) the reconstructed body."""

    density: NDArray
    mixed_volume: float
    body: SupportFunction | None


def curvature_image(u: SupportFunction, alpha: float, ep=None) -> CurvatureImage:
    """Curvature-image density about the entropy point.

    density = (|Omega|/|B(1)|) e^(-((alpha-1)/alpha) entropy) u_e^(-1/alpha)
    with u_e the support about the entropy point (recentered here). The
    first-variation identity makes int density * x dtheta vanish; beyond
    1e-9 it raises CompatibilityViolation. For n=1 the body with this
    curvature density is recovered by dividing Fourier modes by 1 - k^2
    (degree-1 modes verified tiny, then zeroed)."""
    grid = u.grid
    ep = _entropy_point(u, alpha, ep)
    u_e = u.values - grid.nodes @ ep.point
    vol = gb.volume(u)
    pref = (vol / sg.ball_volume(u.dim)) * math.exp(-((alpha - 1.0) / alpha) * ep.value)
    density = pref * u_e ** (-1.0 / alpha)
    moment = grid.nodes.T @ (grid.weights * density)
    if np.abs(moment).max() > 1e-9:
        raise CompatibilityViolation(float(np.abs(moment).max()))
    mixed = sg.integrate(grid, u_e * density) / (u.dim + 1)
    rec = None
    if u.dim == 1:
        c = sg.analyze(grid, density)
        k = grid.degrees
        bad = np.abs(c[k == 1]).max()
        if bad > 1e-9:
            raise CompatibilityViolation(float(bad))
        v = c.copy()
        v[k == 1] = 0.0
        v[k >= 2] /= 1.0 - k[k >= 2] ** 2
        rec = SupportFunction(grid, sg.synthesize(grid, v))
    return CurvatureImage(density=density, mixed_volume=float(mixed), body=rec)


def check_entropy_stability(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """Entropy lower bound through the curvature image (n=1 only, where
    the image body is reconstructible): for alpha >= 1/3 the extremal
    entropy dominates
    (1/2) log(|Omega|/|B(1)|) + (1/2) log(|Omega|/|image|);
    for alpha < 0 the comparison reverses. Equality for ellipses."""
    if u.dim != 1:
        raise UnsupportedDimension("entropy stability check needs n=1")
    if not (alpha >= 1.0 / (u.dim + 2) - 1e-12 or alpha < 0.0):
        raise ValueError("entropy stability bound needs alpha >= 1/(n+2) or alpha < 0")
    ep = _entropy_point(u, alpha, ep)
    ci = curvature_image(u, alpha, ep=ep)
    vol = gb.volume(u)
    n = u.dim
    bound = (math.log(vol / sg.ball_volume(n)) / (n + 1)
             + n / (n + 1) * math.log(vol / gb.volume(ci.body)))
    ent = ep.value
    inputs = _digest(u, alpha=alpha)
    if alpha > 0:
        return _one_sided("entropy-vs-curvature-image-bound", inputs, bound, ent, 1e-8)
    return _one_sided("entropy-vs-curvature-image-bound-reversed", inputs, ent, bound, 1e-8)


def check_soliton_properties(u: SupportFunction, alpha: float) -> list[CheckReport]:
    """Structural checks on a converged self-similar state.

    Requires soliton residual <= 1e-6 (NotASoliton otherwise). Reports:
    volume matching the unit ball; the entropy point sitting at the
    origin; the polar-dual volume at the origin dominating the ball's
    (proved for alpha >= 1; "(reported)" below that); entropy about the
    origin nonpositive at the exponents 1/(n+2) and alpha/(alpha+1)
    (the latter always "(reported)", both when the exponent interval
    [1/(n+2), alpha/(alpha+1)] is empty)."""
    from .flow import soliton_residual  # deferred: flow imports this module

    res = soliton_residual(u, alpha)
    if res.residual > 1e-6:
        raise NotASoliton(res.residual, 1e-6)
    n = u.dim
    tol = 1e-6
    inputs = _digest(u, alpha=alpha, residual=f"{res.residual:.3e}")
    target = sg.ball_volume(n)
    origin = np.zeros(n + 1)
    reports = [
        _equality("soliton-volume-matches-unit-ball", inputs,
                  gb.volume(u), target, tol * target),
        _equality("soliton-entropy-point-at-origin", inputs,
                  float(np.linalg.norm(ge.entropy_point(u, alpha).point)), 0.0, tol),
    ]
    dual_name = "soliton-dual-volume-above-ball"
    if alpha < 1.0:
        dual_name += " (reported)"
    reports.append(_one_sided(dual_name, inputs, target, gb.dual_volume(u, origin),
                              tol * target))
    interval_ok = alpha >= 1.0 / (n + 1) - 1e-12
    lower_name = "soliton-entropy-origin-nonpositive"
    name = lower_name + f"-at-{1.0 / (n + 2):.6g}"
    if not interval_ok:
        name += " (reported)"
    reports.append(_one_sided(name, inputs,
                              ge.entropy_at(u, origin, 1.0 / (n + 2)), 0.0, tol))
    if abs(alpha + 1.0) > 1e-9:
        ap = alpha / (alpha + 1.0)
        if abs(ap) > 1e-9:
            reports.append(_one_sided(lower_name + f"-at-{ap:.6g} (reported)", inputs,
                                      ge.entropy_at(u, origin, ap), 0.0, tol))
    return reports


def alpha_grid(dim: int) -> tuple[float, ...]:
    """Exponent grid used by the fuzz suite: -1, 1/(n+2), 1/n, 1/2, 1,
    2, 5 with duplicates removed (1/n equals 1 or 1/2 exactly)."""
    return tuple(dict.fromkeys((-1.0, 1.0 / (dim + 2), 1.0 / dim, 0.5, 1.0, 2.0, 5.0)))


def body_checks(u: SupportFunction, alphas) -> list[CheckReport]:
    """The per-body check list of both suites.

    Once per body: the dual-volume product, the width bounds and the
    affine isoperimetric inequality; per exponent: entropy
    nonnegativity, the curvature power mean bound (alpha >= 1/(n+2)
    only), and for n=1 the curvature-image entropy bound (alpha >= 1/3
    or alpha < 0). Each entropy point is solved once and shared by the
    checks of its exponent; the Santalo check reuses alpha = 1/(n+2) if
    alphas has it."""
    eps = {alpha: ge.entropy_point(u, alpha) for alpha in alphas}
    reports = [check_blaschke_santalo(u, ep=eps.get(1.0 / (u.dim + 2)))]
    reports.extend(check_width_bounds(u))
    reports.append(check_affine_isoperimetric(u))
    for alpha in alphas:
        ep = eps[alpha]
        reports.append(check_entropy_nonneg(u, alpha, ep=ep))
        if alpha >= 1.0 / (u.dim + 2) - 1e-12:
            reports.append(check_z_vs_entropy(u, alpha, ep=ep))
        if u.dim == 1 and (alpha >= 1.0 / 3 - 1e-12 or alpha < 0.0):
            reports.append(check_entropy_stability(u, alpha, ep=ep))
    return reports


def fuzz_suite(dim: int, seeds, alphas=None, bandlimit: int | None = None,
               amplitude: float = 0.1) -> list[CheckReport]:
    """body_checks over seeded random bodies and an exponent grid (by
    default alpha_grid(dim)); returns one flat list of reports."""
    if alphas is None:
        alphas = alpha_grid(dim)
    if bandlimit is None:
        bandlimit = 16 if dim == 1 else 8
    return [r for seed in seeds
            for r in body_checks(gb.random_body(seed, dim, bandlimit, amplitude), alphas)]
