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

body_checks is the per-body list that both verify suites run, made in
one pass over the body; fuzz_suite runs it over seeded random bodies and
an exponent grid, after solving the radii of all its bodies as one stack.
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
from .errors import (
    CompatibilityViolation,
    GaussFlowError,
    NotASoliton,
    UnsupportedDimension,
)

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
    return _santalo_row(u, _digest(u), gb.volume(u), ep)


# The row makers below take the body's digest keys or the row's inputs
# dict, and the body's volume, so that `body_checks` makes the digest and
# the volume once per body.

def _santalo_row(u: SupportFunction, keys: dict, vol: float, ep) -> CheckReport:
    sp = ge.santalo_point(u, ep=ep)
    rhs = sg.ball_volume(u.dim) ** 2
    return _one_sided("volume-dual-volume-product",
                      {**keys, "z": [f"{c:.6g}" for c in sp.point]},
                      vol * sp.dual_volume, rhs, 1e-8 * rhs)


def _require_normalized(u: SupportFunction, vol: float) -> None:
    target = sg.ball_volume(u.dim)
    if abs(vol - target) > 1e-10 * target:
        raise ValueError("body volume must be pre-normalized to the unit ball's")


def check_entropy_nonneg(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """At normalized volume the entropy is minimized by the ball, where
    it vanishes; so the extremal entropy must be >= 0. Here and below,
    ep is the body's entropy point at alpha if already solved."""
    _require_normalized(u, gb.volume(u))
    return _nonneg_row(_digest(u, alpha=alpha), _entropy_point(u, alpha, ep))


def _nonneg_row(inputs: dict, ep: ge.EntropyResult) -> CheckReport:
    return _one_sided("entropy-nonnegative", inputs, 0.0, ep.value, 1e-10)


def check_z_vs_entropy(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """The curvature power mean dominates e^entropy at normalized
    volume, for exponents alpha >= 1/(n+2) (below that the bound is not
    available and can genuinely reverse)."""
    _require_normalized(u, gb.volume(u))
    if alpha < 1.0 / (u.dim + 2) - 1e-12:
        raise ValueError("curvature power mean bound needs alpha >= 1/(n+2)")
    return _z_row(u, _digest(u, alpha=alpha), alpha, _entropy_point(u, alpha, ep))


def _z_row(u: SupportFunction, inputs: dict, alpha: float, ep: ge.EntropyResult) -> CheckReport:
    lhs = math.exp(ep.value)
    rhs = ge.zalpha(u, alpha)
    return _one_sided("curvature-mean-vs-entropy", inputs, lhs, rhs,
                      1e-10 * max(abs(lhs), abs(rhs)))


def check_affine_isoperimetric(u: SupportFunction) -> CheckReport:
    """Affine surface area to the power n+2 against its sharp bound
    (n+1)^(n+2) |B(1)|^2 |Omega|^n; equality for ellipsoids."""
    return _affine_row(u, _digest(u), gb.volume(u))


def _affine_row(u: SupportFunction, keys: dict, vol: float) -> CheckReport:
    n = u.dim
    lhs = gb.affine_surface_area(u) ** (n + 2)
    rhs = (n + 1.0) ** (n + 2) * sg.ball_volume(n) ** 2 * vol ** n
    return _one_sided("affine-isoperimetric", keys, lhs, rhs, 1e-8 * rhs)


def check_width_bounds(u: SupportFunction) -> list[CheckReport]:
    """Outradius vs max width and inradius vs min width, both directions
    of each classical comparison, in R^d with d = n+1. The sharp
    constants are Jung's R <= D sqrt(d/(2(d+1))) (regular simplex) and
    Steinhagen's r >= w/(2 sqrt(d)) for odd d, r >= w sqrt(d+2)/(2(d+1))
    for even d (w/3 in the plane, equilateral triangle); see Bonnesen-
    Fenchel, Theorie der konvexen Koerper (1934)."""
    return _width_rows(u.dim, _digest(u), gb.width_radii(u))


def _width_rows(n: int, inputs: dict, wr: gb.WidthRadii) -> list[CheckReport]:
    d = n + 1
    jung = math.sqrt(d / (2.0 * (d + 1)))
    steinhagen = (1.0 / (2.0 * math.sqrt(d)) if d % 2
                  else math.sqrt(d + 2.0) / (2.0 * (d + 1)))
    scale = 1e-8 * max(wr.w_plus, 1.0)
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
    return _curvature_images(u, gb.volume(u), [alpha], [_entropy_point(u, alpha, ep)])[0]


def _curvature_images(u: SupportFunction, vol: float, alphas, eps) -> list[CurvatureImage]:
    """`curvature_image` of each exponent with its entropy point, for the
    body u of volume vol: the densities as one stack and, for n=1, the
    image bodies from one analysis and one synthesis of that stack.
    Raises for the first exponent, in order, whose image fails a check."""
    grid = u.grid
    a = np.array(alphas)[:, None]
    u_e = u.values - np.array([ep.point for ep in eps]) @ grid.nodes.T
    pref = (vol / sg.ball_volume(u.dim)) * np.exp(
        -((a - 1.0) / a) * np.array([[ep.value] for ep in eps]))
    density = pref * u_e ** (-1.0 / a)
    bad = [np.abs((grid.weights * density) @ grid.nodes).max(axis=1)]
    mixed = (u_e * density) @ grid.weights / (u.dim + 1)
    if u.dim == 1:
        c = sg.analyze(grid, density)
        k = grid.degrees
        bad.append(np.abs(c[:, k == 1]).max(axis=1))
        c[:, k == 1] = 0.0
        c[:, k >= 2] /= 1.0 - k[k >= 2] ** 2
    for norms in zip(*bad):
        for norm in norms:
            if norm > 1e-9:
                raise CompatibilityViolation(float(norm))
    bodies = ([SupportFunction(grid, v) for v in sg.synthesize(grid, c)] if u.dim == 1
              else [None] * len(alphas))
    return [CurvatureImage(density=d, mixed_volume=float(m), body=rec)
            for d, m, rec in zip(density, mixed, bodies)]


def check_entropy_stability(u: SupportFunction, alpha: float, ep=None) -> CheckReport:
    """Entropy lower bound through the curvature image (n=1 only, where
    the image body is reconstructible): for alpha >= 1/3 the extremal
    entropy dominates
    (1/2) log(|Omega|/|B(1)|) + (1/2) log(|Omega|/|image|);
    for alpha < 0 the comparison reverses. Equality for ellipses."""
    if u.dim != 1:
        raise UnsupportedDimension("entropy stability check needs n=1")
    if not _has_stability_bound(alpha):
        raise ValueError("entropy stability bound needs alpha >= 1/(n+2) or alpha < 0")
    vol = gb.volume(u)
    ep = _entropy_point(u, alpha, ep)
    return _stability_row(u, _digest(u, alpha=alpha), vol, alpha, ep,
                          _curvature_images(u, vol, [alpha], [ep])[0])


def _has_stability_bound(alpha: float) -> bool:
    return alpha >= 1.0 / 3 - 1e-12 or alpha < 0.0


def _stability_row(u: SupportFunction, inputs: dict, vol: float, alpha: float,
                   ep: ge.EntropyResult, ci: CurvatureImage) -> CheckReport:
    n = u.dim
    bound = (math.log(vol / sg.ball_volume(n)) / (n + 1)
             + n / (n + 1) * math.log(vol / gb.volume(ci.body)))
    if alpha > 0:
        return _one_sided("entropy-vs-curvature-image-bound", inputs, bound, ep.value, 1e-8)
    return _one_sided("entropy-vs-curvature-image-bound-reversed", inputs, ep.value, bound,
                      1e-8)


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


def body_checks(u: SupportFunction, alphas, radii=None) -> list[CheckReport]:
    """The per-body check list of both suites, made in one pass.

    Once per body: the dual-volume product, the width bounds and the
    affine isoperimetric inequality; per exponent: entropy
    nonnegativity, the curvature power mean bound (alpha >= 1/(n+2)
    only), and for n=1 the curvature-image entropy bound (alpha >= 1/3
    or alpha < 0). The entropy points of all exponents are one stacked
    solve (`entropy.entropy_points`), the Santalo check reuses
    alpha = 1/(n+2) if alphas has it, and the n=1 image bodies come from
    one stacked transform. The volume, the digest keys and the
    normalization check are made once per body, and the rows of one
    exponent share one inputs dict (which the checks writers then
    render once).

    radii is the body's entry of `body.width_radii_stack`, which a suite
    solves for all its bodies at once: its WidthRadii, or the error of
    its radius solve, raised here where the width rows stand. None
    solves the radii of this one body (`body.width_radii`)."""
    alphas = tuple(alphas)
    eps = ge.entropy_points(u, alphas)
    n = u.dim
    keys, vol = _digest(u), gb.volume(u)
    santalo = next((ep for a, ep in zip(alphas, eps) if a == 1.0 / (n + 2)), None)
    reports = [_santalo_row(u, keys, vol, santalo)]
    if radii is None:
        radii = gb.width_radii(u)
    elif isinstance(radii, Exception):
        raise radii
    reports += [*_width_rows(n, keys, radii), _affine_row(u, keys, vol)]
    _require_normalized(u, vol)
    imaged = [i for i, a in enumerate(alphas) if n == 1 and _has_stability_bound(a)]
    images = dict(zip(imaged, _curvature_images(u, vol, [alphas[i] for i in imaged],
                                                [eps[i] for i in imaged]))) if imaged else {}
    for i, (alpha, ep) in enumerate(zip(alphas, eps)):
        inputs = {**keys, "alpha": alpha}
        reports.append(_nonneg_row(inputs, ep))
        if alpha >= 1.0 / (n + 2) - 1e-12:
            reports.append(_z_row(u, inputs, alpha, ep))
        if i in images:
            reports.append(_stability_row(u, inputs, vol, alpha, ep, images[i]))
    return reports


# Bodies whose radii are one stack in `fuzz_suite`; bounds the bodies
# held at once on a long seed list.
_FUZZ_BLOCK = 64


def fuzz_suite(dim: int, seeds, alphas=None, bandlimit: int | None = None,
               amplitude: float = 0.1) -> list[CheckReport]:
    """body_checks over seeded random bodies and an exponent grid (by
    default alpha_grid(dim)); returns one flat list of reports, in seed
    order. The radii of all bodies are one cold stacked solve
    (`body.width_radii_stack`). A seed whose body or checks raise a
    GaussFlowError gives, in place of its rows, one "check-error" row
    naming the seed and the first error."""
    if alphas is None:
        alphas = alpha_grid(dim)
    if bandlimit is None:
        bandlimit = 16 if dim == 1 else 8
    seeds = list(seeds)
    reports = []
    for b in range(0, len(seeds), _FUZZ_BLOCK):
        block = []
        for seed in seeds[b:b + _FUZZ_BLOCK]:
            try:
                block.append((seed, gb.random_body(seed, dim, bandlimit, amplitude)))
            except GaussFlowError as e:
                block.append((seed, e))
        built = [u for _, u in block if isinstance(u, SupportFunction)]
        radii = iter(gb.width_radii_stack(built))
        for seed, u in block:
            if isinstance(u, GaussFlowError):
                reports.append(_error_row(seed, u))
                continue
            try:
                reports.extend(body_checks(u, alphas, next(radii)))
            except GaussFlowError as e:
                reports.append(_error_row(seed, e))
    return reports


def _error_row(seed: int, error: GaussFlowError) -> CheckReport:
    return CheckReport(name="check-error", inputs={"seed": seed, "error": str(error)},
                       lhs=math.nan, rhs=math.nan, slack=math.nan, tolerance=0.0,
                       passed=False)
