"""Verifiers for the sharp inequalities and identities of the flow theory.

Every check row is a CheckReport with a uniform slack convention, so a
suite of checks over random bodies reduces to "every slack >= -tolerance".
Covered here:

- volume times polar-dual volume at the Santalo point vs the ball value
- entropy nonnegativity at normalized volume
- curvature power mean Z_alpha dominating e^entropy
- the affine isoperimetric inequality for the affine surface area
- inradius/outradius vs width bounds
- the curvature-image body: its density, the mixed-volume identity, and
  (n=1 only) reconstruction by a diagonal Fourier solve
- the entropy lower bound through the curvature image (n=1; reversed
  for negative exponents)

body_checks makes these rows for the bodies of one grid, after solving
their radii, entropy points and curvature images as stacks; it is the one
check driver of both verify suites. The ball suite runs it on the unit
ball, and fuzz_suite on blocks of seeded random bodies over an exponent
grid.
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
from .errors import CompatibilityViolation, ConvexityLost, GaussFlowError

__all__ = [
    "CheckReport",
    "check_width_bounds",
    "CurvatureImage",
    "curvature_image",
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


# The row makers below take the body's digest keys or the row's inputs
# dict, and the body's volume, so that `body_checks` makes the digest and
# the volume once per body.

def _santalo_row(u: SupportFunction, keys: dict, vol: float, ep) -> CheckReport:
    """|Omega| |Omega^o| at the Santalo point <= |B(1)|^2, equality for
    ellipsoids; ep is the entropy point at alpha = 1/(n+2), or None."""
    sp = ge.santalo_point(u, ep=ep)
    rhs = sg.ball_volume(u.dim) ** 2
    return _one_sided("volume-dual-volume-product",
                      {**keys, "z": [f"{c:.6g}" for c in sp.point]},
                      vol * sp.dual_volume, rhs, 1e-8 * rhs)


def _nonneg_row(inputs: dict, ep: ge.EntropyResult) -> CheckReport:
    """At normalized volume the ball minimizes the entropy, where it
    vanishes; so the entropy at ep, the row's entropy point, is >= 0."""
    return _one_sided("entropy-nonnegative", inputs, 0.0, ep.value, 1e-10)


def _z_row(u: SupportFunction, inputs: dict, alpha: float, ep: ge.EntropyResult) -> CheckReport:
    """Z_alpha dominates e^entropy at normalized volume for alpha >=
    1/(n+2); below that the bound can genuinely reverse."""
    lhs = math.exp(ep.value)
    rhs = ge.zalpha(u, alpha)
    return _one_sided("curvature-mean-vs-entropy", inputs, lhs, rhs,
                      1e-10 * max(abs(lhs), abs(rhs)))


def _affine_row(u: SupportFunction, keys: dict, vol: float) -> CheckReport:
    """Affine surface area to the power n+2 against its sharp bound
    (n+1)^(n+2) |B(1)|^2 |Omega|^n; equality for ellipsoids."""
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
    (degree-1 modes verified tiny, then zeroed). ep, if given, is the
    entropy point at alpha."""
    ep = ge.entropy_point(u, alpha) if ep is None else ep
    images = _curvature_images([u], [gb.volume(u)], [alpha], [[ep]])[0]
    if isinstance(images, GaussFlowError):
        raise images
    return images[0]


def _curvature_images(bodies, vols, alphas, eps) -> list[list[CurvatureImage] | GaussFlowError]:
    """`curvature_image` of each exponent for each body, all on one grid,
    with vols their volumes and eps[b] the entropy points of body b. The
    densities of all (body, exponent) rows are one stack and, for n=1, the
    image bodies one analysis, one synthesis and one stacked build
    (`body.support_functions`); each row's products are taken one per row,
    so its bits do not depend on the others. Returns, per body, its images
    or the error of its first exponent, in order, whose image fails a
    check: a CompatibilityViolation of any exponent comes before a
    ConvexityLost of an image body."""
    grid, J = bodies[0].grid, len(alphas)
    n = grid.dim
    points = [ep for row in eps for ep in row]
    a = np.tile(alphas, len(bodies))[:, None]
    u_e = np.repeat([u.values for u in bodies], J, axis=0) - (
        np.array([ep.point for ep in points])[:, None] @ grid.nodes.T)[:, 0]
    pref = (np.repeat(vols, J)[:, None] / sg.ball_volume(n)) * np.exp(
        -((a - 1.0) / a) * np.array([[ep.value] for ep in points]))
    density = pref * sg.row_power(u_e, -1.0 / a)
    bad = [np.abs(((grid.weights * density)[:, None] @ grid.nodes)[:, 0]).max(axis=1)]
    mixed = ((u_e * density)[:, None] @ grid.weights)[:, 0] / (n + 1)
    if n == 1:
        c = sg.analyze(grid, density)
        k = grid.degrees
        bad.append(np.abs(c[:, k == 1]).max(axis=1))
        c[:, k == 1] = 0.0
        c[:, k >= 2] /= 1.0 - k[k >= 2] ** 2
    # per body, its rows' norms in the order they are checked
    norms = np.stack(bad, axis=1).reshape(len(bodies), -1).tolist()
    out = [next((CompatibilityViolation(x) for x in row if x > 1e-9), None) for row in norms]
    images = [None] * len(points)
    keep = [i for b, err in enumerate(out) if err is None for i in range(b * J, b * J + J)]
    if n == 1 and keep:
        for i, im in zip(keep, gb.support_functions(grid, sg.synthesize(grid, c[keep]))):
            images[i] = im
    for b in range(len(bodies)):
        if out[b] is None:
            mine = range(b * J, b * J + J)
            lost = [images[i] for i in mine if isinstance(images[i], ConvexityLost)]
            out[b] = lost[0] if lost else [CurvatureImage(density=density[i],
                                                          mixed_volume=float(mixed[i]),
                                                          body=images[i]) for i in mine]
    return out


def _stability_row(u: SupportFunction, inputs: dict, vol: float, alpha: float,
                   ep: ge.EntropyResult, ci: CurvatureImage) -> CheckReport:
    """For alpha >= 1/3 (n=1) the entropy dominates (1/2) log(|Omega|/|B(1)|)
    + (1/2) log(|Omega|/|image|), reversed for alpha < 0; equality for
    ellipses."""
    n = u.dim
    bound = (math.log(vol / sg.ball_volume(n)) / (n + 1)
             + n / (n + 1) * math.log(vol / gb.volume(ci.body)))
    if alpha > 0:
        return _one_sided("entropy-vs-curvature-image-bound", inputs, bound, ep.value, 1e-8)
    return _one_sided("entropy-vs-curvature-image-bound-reversed", inputs, ep.value, bound,
                      1e-8)


def alpha_grid(dim: int) -> tuple[float, ...]:
    """Exponent grid used by the fuzz suite: -1, 1/(n+2), 1/n, 1/2, 1,
    2, 5 with duplicates removed (1/n equals 1 or 1/2 exactly)."""
    return tuple(dict.fromkeys((-1.0, 1.0 / (dim + 2), 1.0 / dim, 0.5, 1.0, 2.0, 5.0)))


def body_checks(bodies, alphas) -> list[list[CheckReport] | GaussFlowError]:
    """The check rows of each body, all on one grid, made in one pass.

    Once per body: the dual-volume product, the width bounds and the
    affine isoperimetric inequality; per exponent: entropy
    nonnegativity, the curvature power mean bound (alpha >= 1/(n+2)
    only), and for n=1 the curvature-image entropy bound (alpha >= 1/3
    or alpha < 0). The Santalo check reuses alpha = 1/(n+2) if alphas
    has it. The volume, the digest keys and the normalization check are
    made once per body, and the rows of one exponent share one inputs
    dict (which the checks writers then render once).

    The bodies' radii are one stack (`body.width_radii_stack`), the
    entropy points of every (body, exponent) row one Newton iteration
    (`entropy.entropy_points_stack`) and, at n=1, the curvature images
    one build (`_curvature_images`). A row's bits never depend on the
    other rows. Returns, per body, its reports or the first
    GaussFlowError of its checks, in row order: the entropy points' error,
    then the Santalo row's, the radii's and the images'. A body whose
    volume is not the unit ball's raises ValueError."""
    alphas = tuple(alphas)
    if not bodies:
        return []
    n = bodies[0].dim
    vols = [gb.volume(u) for u in bodies]
    radii = gb.width_radii_stack(bodies)
    eps = ge.entropy_points_stack(bodies, alphas)
    imaged = [i for i, a in enumerate(alphas) if n == 1 and (a >= 1.0 / 3 - 1e-12 or a < 0.0)]
    images = [{}] * len(bodies)
    # images only for the bodies whose checks get that far
    ready = [b for b, (r, e) in enumerate(zip(radii, eps))
             if not isinstance(r, GaussFlowError) and not isinstance(e, GaussFlowError)]
    if imaged and ready:
        solved = _curvature_images([bodies[b] for b in ready], [vols[b] for b in ready],
                                   [alphas[i] for i in imaged],
                                   [[eps[b][i] for i in imaged] for b in ready])
        for b, im in zip(ready, solved):
            images[b] = im if isinstance(im, GaussFlowError) else dict(zip(imaged, im))
    out = []
    for u, vol, *solves in zip(bodies, vols, radii, eps, images):
        try:
            out.append(_body_rows(u, alphas, vol, *solves))
        except GaussFlowError as err:
            out.append(err)
    return out


def _body_rows(u: SupportFunction, alphas: tuple, vol: float, radii, eps,
               images) -> list[CheckReport]:
    """One body's rows from its solves: its radii, its entropy points and
    its images by place in alphas. A solve that is an error is raised
    where the first row that needs it is made."""
    if isinstance(eps, GaussFlowError):
        raise eps
    n = u.dim
    keys = _digest(u)
    santalo = next((ep for a, ep in zip(alphas, eps) if a == 1.0 / (n + 2)), None)
    reports = [_santalo_row(u, keys, vol, santalo)]
    if isinstance(radii, GaussFlowError):
        raise radii
    reports += [*_width_rows(n, keys, radii), _affine_row(u, keys, vol)]
    target = sg.ball_volume(n)
    if abs(vol - target) > 1e-10 * target:
        raise ValueError("body volume must be pre-normalized to the unit ball's")
    if isinstance(images, GaussFlowError):
        raise images
    for i, (alpha, ep) in enumerate(zip(alphas, eps)):
        inputs = {**keys, "alpha": alpha}
        reports.append(_nonneg_row(inputs, ep))
        if alpha >= 1.0 / (n + 2) - 1e-12:
            reports.append(_z_row(u, inputs, alpha, ep))
        if i in images:
            reports.append(_stability_row(u, inputs, vol, alpha, ep, images[i]))
    return reports


# Seeds whose bodies, radii, entropy points and images are one stack each
# in `fuzz_suite`; bounds the bodies held at once on a long seed list.
_FUZZ_BLOCK = 64


def fuzz_suite(dim: int, seeds, alphas=None, bandlimit: int | None = None,
               amplitude: float = 0.1) -> list[CheckReport]:
    """body_checks over seeded random bodies and an exponent grid (by
    default alpha_grid(dim)); returns one flat list of reports, in seed
    order. Each block of seeds is checked as one stack per layer: its
    random bodies are one stacked build per round of draws
    (`body.random_bodies`), and the built bodies one `body_checks` call.
    A row's bits never depend on the other rows, so a seed's rows are
    those of a run of that seed alone. A seed whose body or checks fail
    with a GaussFlowError gives, in place of its rows, one "check-error"
    row naming the seed and the first error, the one its run alone
    gives."""
    if alphas is None:
        alphas = alpha_grid(dim)
    alphas = tuple(alphas)
    if bandlimit is None:
        bandlimit = 16 if dim == 1 else 8
    seeds = list(seeds)
    reports = []
    for b in range(0, len(seeds), _FUZZ_BLOCK):
        block = seeds[b:b + _FUZZ_BLOCK]
        made = gb.random_bodies(block, dim, bandlimit, amplitude)
        checked = iter(body_checks([u for u in made if isinstance(u, SupportFunction)], alphas))
        for seed, u in zip(block, made):
            rows = u if isinstance(u, GaussFlowError) else next(checked)
            if isinstance(rows, GaussFlowError):
                reports.append(_error_row(seed, rows))
            else:
                reports.extend(rows)
    return reports


def _error_row(seed: int, error: GaussFlowError) -> CheckReport:
    return CheckReport(name="check-error", inputs={"seed": seed, "error": str(error)},
                       lhs=math.nan, rhs=math.nan, slack=math.nan, tolerance=0.0,
                       passed=False)
