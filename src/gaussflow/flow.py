"""Time-stepping of support functions under Gauss-curvature-type flows.

Three flow kinds act on the support function u of a uniformly convex
body:

- "unnormalized":  du/dtau = -K^alpha          (contracting)
- "normalized":    du/dt   = P(-K^alpha/eta + u)  (volume held at |B(1)|),
                   eta = avg K^(alpha-1)
- "expanding":     du/dt   = u^(1+1/alpha) / K

P removes the degree-1 part <x, c>, c = (n+1)/|S^n| int v x, of the
normalized velocity v. That part only translates the body, and about
the ball it grows like e^t, so without P a body without central
symmetry drifts off the origin until a step fails. With it the Steiner
point (n+1)/|S^n| int u x is fixed; `run` puts it at the origin at
t = 0, so the soliton residual, taken about the origin, measures the
shape alone.

Stepping is exponential (ETDRK4, Cox-Matthews, with phi functions by
the contour mean of Kassam-Trefethen) under error control; see `step`. Per step the velocity is
split into the stiff diffusion D_bar (Delta + n) (+1 for the normalized
kind), with the diffusivity D frozen at its node mid-range D_bar, which
the step takes exactly, and a remainder taken to fourth order. So
accuracy alone sets dt: a PI controller keeps an embedded third-order
error estimate within TOLERANCE[n]. The stability limit of explicit
schemes, about 1.5 / (L(L+1) D_max), is only the first step's guess;
near the ball steps grow far beyond it, to whatever the sampling
allows. A step whose stage or new body loses uniform
convexity or positivity is rejected and retried at half the step.

A body caches its values, curvature tensor A and gradient as one frame
array, and its spectrum (`body.BodyGeometry`); both are linear in u. The
step works with increments over u in coefficient space: each stage and
the new body is u plus an increment whose spectrum is a per-degree
combination of the stages' velocity spectra (`sphere_grid.band_spectrum`)
and whose frame comes from one synthesis (`sphere_grid.synthesize_frame`),
added to u's cached frame and spectrum. It is checked like a body build
(spectral tail, lambda_min > 0, u > 0) but builds no SupportFunction, so
a step transforms no body. Per step that is 4 analyses and 4 syntheses:
the new body's velocity, which gives the error estimate, is the next
step's first stage (FlowState.velocity). A normalized step then
multiplies the new frame and spectrum by the rescale to the unit-ball
volume, in place, before it makes the body; the accumulated
|log rescale| is kept as an accuracy diagnostic.

Per-sample diagnostics cover the entropy (about the moving entropy point
and about the origin), the curvature power mean, widths and radii, the
self-similarity (soliton) residual, and the entropy dissipation rate.
For expanding runs the scale-invariant quantities J1, J2, J3, Q are
recorded instead of NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import sphere_grid as sg
from . import body as gb
from . import entropy as ge
from .body import SupportFunction, curvature_data
from .errors import ConvexityLost, NonConvergence, StepFailure

__all__ = [
    "KINDS",
    "FlowState",
    "DiagnosticsRecord",
    "RunResult",
    "SolitonResidual",
    "rhs",
    "step",
    "run",
    "diagnostics",
    "soliton_residual",
    "extinction_bracket",
    "ExtinctionBracket",
]

KINDS = ("unnormalized", "normalized", "expanding")
DEFAULT_STOP_RESIDUAL = {1: 1e-8, 2: 1e-6}
# Local error allowed per step on S^n, relative to the RMS of the body's
# support values: 1% of the default stop residual. At n = 1 it takes the
# seven sweep-n1 bodies of workload seed 1 to t = 0.5 in 206 steps with
# errors of at most 2.9e-11, where the old RK4 step at its stability cap
# took 568; but on the bodies at alpha 1 and 2 the error is 2.7 to 8.6
# times that step's (CHANGES.md). The shrinking circle at L = 32 stays
# within 1e-10 (4.1e-11), and at n = 2 the error at t = 1 of random
# bodies at L = 8 (alpha 1/4 and 1, seeds 0, 1, 3) is within the old
# step's on each body (at most 4.1e-10 against 5.7e-10 to 3.1e-8).
TOLERANCE = {1: 1e-10, 2: 1e-8}
# The first step tries the explicit (RK4) stability limit SPECTRAL_FACTOR
# / (L(L+1) D_max); the controller proposes every later h.
SPECTRAL_FACTOR = 1.5
MAX_REJECTIONS = 12
MAX_BRACKET_STEPS = 100_000
# PI step-size controller (Gustafsson; Hairer-Wanner, Solving ODEs II,
# IV.2) for an error estimate of order 4: h_new = h * SAFETY *
# err^-0.175 * err_last^0.1, the factor held to [SHRINK, GROW].
SAFETY, SHRINK, GROW = 0.9, 0.2, 5.0
_PI_EXPONENTS = (0.7 / 4.0, 0.4 / 4.0)
# Upper half of the 16 points of the unit circle on which `_phi` averages.
_CONTOUR = np.exp(1j * np.pi * (np.arange(8) + 0.5) / 8)
_CONTOUR_MEAN = np.full(len(_CONTOUR), 1.0 / len(_CONTOUR))
# The step's weights per degree (see `step`), each times h, as
# combinations of phi_1(z/2), phi_1, phi_2, phi_3 (the rows): the columns
# are phi_1(z/2)/2, phi_1, b2 = 2 phi_2 - 4 phi_3 and b4 = 4 phi_3 - phi_2.
_WEIGHTS = np.array([
    [0.5, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 2.0, -1.0],
    [0.0, 0.0, -4.0, 4.0],
])


class Velocity(NamedTuple):
    """du/dt of `body` as the step uses it: its `sg.band_spectrum`, and the
    least and largest diffusivity D = c w / (lambda_min den) on the nodes."""

    body: SupportFunction
    band: NDArray
    d_min: float
    d_max: float


@dataclass(frozen=True)
class FlowState:
    """One flow in progress: kind, exponent, clock, current body, step stats.

    dt_next is the step-size controller's proposal (0 before the first
    step), error_last the last step's scaled error estimate, and velocity
    that of u: the step that made u evaluated it last, for its error
    estimate, and the next step takes it as its first stage (first same
    as last). A velocity of another body is not used."""

    kind: str
    alpha: float
    time: float
    u: SupportFunction
    dt_last: float = 0.0
    rejected_steps: int = 0
    cumulative_rescale: float = 0.0
    dt_next: float = 0.0
    error_last: float = 1.0
    velocity: Velocity | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if abs(self.alpha) < 1e-12:
            raise ValueError("alpha must be nonzero")


def _velocity(state: FlowState, values: NDArray,
              f: NDArray) -> tuple[NDArray, float, NDArray, float]:
    """du/dt on the nodes, before projection, of the body with support
    values `values` and surface-area density f (curvature K = 1/f) under
    the state's flow, with the factors c, w and the denominator den of
    its diffusivity D = c w / (lambda_min den); the one formula of `rhs`
    and of the step's stages."""
    alpha = state.alpha
    if state.kind == "expanding":
        if values.min() <= 0.0:
            raise ValueError("expanding flow needs positive support values")
        v = values ** (1.0 + 1.0 / alpha) * f
        return v, 1.0, v, 1.0
    Ka = f**-alpha
    if state.kind == "unnormalized":
        return -Ka, abs(alpha), Ka, 1.0
    eta = sg.average(state.u.grid, Ka * f)  # avg K^(alpha-1)
    return values - Ka / eta, abs(alpha), Ka, eta


def _band(state: FlowState, v: NDArray) -> NDArray:
    """The band spectrum of the node velocity v, for the normalized kind
    less its degree-1 part (module docstring)."""
    band = sg.band_spectrum(state.u.grid, v)
    if state.kind == "normalized":
        band[1] = 0.0
    return band


def _velocity_of(state: FlowState, body: SupportFunction, g: gb.BodyGeometry) -> Velocity:
    v, c, w, den = _velocity(state, g.frame[0], g.f)
    d = w / g.lam_min
    return Velocity(body, _band(state, v), c / den * float(d.min()), c / den * float(d.max()))


def rhs(state: FlowState) -> NDArray:
    """Right-hand side du/dt on the nodes, re-projected to the bandlimit
    (for the normalized kind, less its degree-1 part)."""
    g = curvature_data(state.u)
    band = _band(state, _velocity(state, state.u.values, g.f)[0])
    return sg.synthesize_frame(state.u.grid, band)[0]


@lru_cache(maxsize=8)
def _laplace_plus_n(n: int, L: int) -> NDArray:
    """n - l(l+n-1), the eigenvalue of Delta + n on degree l <= L of S^n."""
    degree = np.arange(L + 1)
    out = n - degree * (degree + n - 1.0)
    out.setflags(write=False)
    return out


def _phi(x: NDArray) -> NDArray:
    """phi_1(x/2), phi_1, phi_2, phi_3 of x (phi_0 = e^x, phi_k+1 =
    (phi_k - 1/k!)/x) as the columns of one array: the recurrence taken
    on the circle of radius 1 about each point and averaged over it
    (Kassam-Trefethen, SISC 26, 2005), which keeps it clear of the
    cancellation near x = 0. Real x gives conjugate pairs, so the upper
    half of a 16-point circle is enough."""
    m = len(x)
    w = np.concatenate([0.5 * x, x])[:, None] + _CONTOUR
    phi1 = np.expm1(w) / w
    w = w[m:]
    phi2 = (phi1[m:] - 1.0) / w
    phi3 = (phi2 - 0.5) / w
    return (np.concatenate([phi1, phi2, phi3]).real @ _CONTOUR_MEAN).reshape(4, m).T


def step(state: FlowState, dt_request: float) -> FlowState:
    """Advance one ETDRK4 step of size min(dt_request, the controller's
    proposal), under error control.

    The velocity F(u) is split as Lambda u + N(u), with Lambda diagonal
    in degree l: D_bar (n - l(l+n-1)), +1 for the normalized kind. That
    is the stiff diffusion D (Delta + n) of the flow with D frozen for the
    step at the node mid-range D_bar = (min D + max D)/2 of u, which keeps
    every h stable on strongly anisotropic bodies where the node mean
    does not. The step is ETDRK4 (Cox-Matthews, JCP 176, 2002), an
    exponential Runge-Kutta scheme of order 4 that takes the linear part
    exactly, so accuracy alone sets h. (Krogstad's variant, whose stages
    differ, took fewer steps on the sweep bodies but lost stability on
    the 2:0.5 ellipse at L = 128 and alpha = 1/3 from h = 5e-4 up.)
    Written for the increments of its stages a, b, c and of the new body
    over u, with F_x = F(x), phi_k = phi_k(h Lambda), phi_1' =
    phi_1(h Lambda / 2) and N_x = F_x - F_u - Lambda (x - u):

        a - u   = h/2 phi_1' F_u
        b - u   = h/2 phi_1' (F_u + N_a)
        c - u   = e^(h Lambda / 2) (a - u) + h/2 phi_1' (F_u + 2 N_b)
        new - u = h (phi_1 F_u + b2 (N_a + N_b) + b4 N_c)

    with b2 = 2 phi_2 - 4 phi_3 and b4 = 4 phi_3 - phi_2 (`_WEIGHTS`); u
    itself drops out, so a body with F = 0 is kept exactly. For the
    normalized kind F is the projected velocity P(v) of the module
    docstring: every velocity band has its degree-1 coefficients zeroed,
    and Lambda, which keeps each degree in itself, commutes with P. Each
    increment is built in coefficient space (`sg.band_spectrum`) and
    synthesized once as a frame (`sg.synthesize_frame`): a stage's frame
    and spectrum are u's cached ones plus those of its increment, checked
    like a body build (spectral tail, lambda_min > 0, u > 0) without one.
    A normalized step then multiplies the new frame and spectrum by the
    rescale to the unit-ball volume, in place (f by s^n, K by s^-n,
    lambda_min by s), and attaches the result by `body.with_geometry`;
    the accumulated |log rescale| is kept as an accuracy diagnostic.

    Error control: the velocity of the new body, which the next step
    reuses (FlowState.velocity), stands in for F_c in the last weight;
    that embedded solution is of order 3, and h b4 (N_c - N_new) is the
    estimate of its error, O(h^4). Its RMS over the sphere, over
    TOLERANCE[n] times the RMS of u, is the scaled error. Above 1 the
    attempt is rejected and h cut by the controller; else the step is
    taken and the PI controller proposes the next h (FlowState.dt_next).
    The first step of a state without a proposal tries the explicit
    (RK4) stability limit SPECTRAL_FACTOR / (L(L+1) max D).

    An attempt whose stage or new body loses uniform convexity or
    positivity is rejected too, and h halved. rejected_steps counts both
    kinds of rejected attempts; after MAX_REJECTIONS of them in one step
    StepFailure reports the offending node, if there is one. An h that
    cannot advance the clock raises StepFailure at once.
    """
    if dt_request <= 0.0:
        raise ValueError("dt_request must be positive")
    u = state.u
    grid, n, L = u.grid, u.dim, u.grid.bandlimit
    g = curvature_data(u)
    vel = state.velocity
    if vel is None or vel.body is not u:
        vel = _velocity_of(state, u, g)
    lam = 0.5 * (vel.d_min + vel.d_max) * _laplace_plus_n(n, L) + (state.kind == "normalized")
    column = (_WEIGHTS.shape[1], L + 1) + (1,) * n  # per-degree columns of a band
    lam_col = lam.reshape(column[1:])
    proposal = state.dt_next or SPECTRAL_FACTOR / (L * (L + 1) * vel.d_max)
    dt = min(dt_request, proposal)
    scale = TOLERANCE[n] * sg.band_rms(grid, g.spectrum[: L + 1])
    F_u = vel.band

    def advance(delta):
        """Frame, spectrum, f and lambda_min of u + delta, u's frame and
        spectrum plus delta's; checked in the order a SupportFunction
        build checks, then for u > 0."""
        frame = g.frame + sg.synthesize_frame(grid, delta)
        spectrum = g.spectrum.copy()
        spectrum[: L + 1] += delta
        sg.warn_if_marginal(grid, spectrum)
        f, lam_min = gb.curvature_invariants(frame)
        _check_positive(frame[0])
        return frame, spectrum, f, lam_min

    def stage(delta):
        """F(u + delta) less F_u."""
        frame, _, f, _ = advance(delta)
        return _band(state, _velocity(state, frame[0], f)[0]) - F_u

    rejections = 0
    while True:
        if not dt > 0.0 or state.time + dt == state.time:
            raise StepFailure(None, dt, rejections)
        with np.errstate(over="ignore", invalid="ignore"):  # an h far too long
            weights = dt * (_phi(dt * lam) @ _WEIGHTS)
        q, p1, b2, b4 = weights.T.reshape(column)
        E = 1.0 + lam_col * q  # e^(z/2)
        try:
            # stage(d) is F_x - F_u at x = u + d, so N_x = stage(d) - Lambda d
            d_a = q * F_u
            N_a = stage(d_a) - lam_col * d_a
            d_b = q * (N_a + F_u)
            N_b = stage(d_b) - lam_col * d_b
            d_c = E * d_a + q * (2.0 * N_b + F_u)
            N_c = stage(d_c) - lam_col * d_c
            d_new = p1 * F_u + b2 * (N_a + N_b) + b4 * N_c
            frame, spectrum, f, lam_min = advance(d_new)
        except (ConvexityLost, _PositivityLost) as e:
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise StepFailure(getattr(e, "node", None), dt, rejections - 1) from None
            dt *= 0.5
            continue
        K = 1.0 / f
        rescale = state.cumulative_rescale
        if state.kind == "normalized":
            # gb.volume of the new body, then gb.scale's products in place
            vol = sg.integrate(grid, frame[0] * f) / (n + 1)
            s = (sg.ball_volume(n) / vol) ** (1.0 / (n + 1))
            sn = s**n
            frame *= s
            spectrum *= s
            f *= sn
            K /= sn
            lam_min *= s
            rescale += abs(math.log(s))
        geometry = gb.BodyGeometry(frame=frame, f=f, K=K, lam_min=lam_min, spectrum=spectrum)
        u_new = gb.with_geometry(u, geometry)
        vel_new = _velocity_of(state, u_new, geometry)
        estimate = b4 * (N_c + lam_col * d_new + (F_u - vel_new.band))
        error = sg.band_rms(grid, estimate) / scale
        if error <= 1.0:
            break
        rejections += 1
        if rejections > MAX_REJECTIONS:
            raise StepFailure(None, dt, rejections - 1)
        dt *= max(SHRINK, SAFETY * error**-0.25)
    factor = SAFETY * max(error, 1e-10) ** -_PI_EXPONENTS[0] * state.error_last ** _PI_EXPONENTS[1]
    dt_next = dt * min(GROW if rejections == 0 else 1.0, max(SHRINK, factor))
    if dt < proposal and rejections == 0:  # cut short by the request
        dt_next = max(dt_next, proposal)
    return FlowState(
        kind=state.kind,
        alpha=state.alpha,
        time=state.time + dt,
        u=u_new,
        dt_last=dt,
        rejected_steps=state.rejected_steps + rejections,
        cumulative_rescale=rescale,
        dt_next=dt_next,
        error_last=max(error, 1e-4),
        velocity=vel_new,
    )


class _PositivityLost(Exception):
    def __init__(self, node: int):
        self.node = node


def _check_positive(values: NDArray) -> None:
    i = int(values.argmin())  # the first NaN, if there is one
    if not values[i] > 0.0:
        raise _PositivityLost(i)


class SolitonResidual(NamedTuple):
    residual: float
    lam: float


def soliton_residual(u: SupportFunction, alpha: float) -> SolitonResidual:
    """Deviation from self-similarity lam * u * f^alpha = 1.

    The multiplier is fixed scale-covariantly as lam = 1/avg(u f^alpha),
    so exact shrinkers of any size give residual 0 (a ball of radius R
    gives lam = R^-(1+n*alpha)); residual = max |lam u f^alpha - 1|.
    """
    g = curvature_data(u)
    w = u.values * g.f**alpha
    lam = 1.0 / sg.average(u.grid, w)
    return SolitonResidual(residual=float(np.abs(lam * w - 1.0).max()), lam=float(lam))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar diagnostics of one flow sample.

    entropy/entropy_origin are about the entropy point / the origin;
    entropy_origin is NaN if the origin has left the body. j1, j2, j3, q
    are the scale-invariant monotone quantities of expanding runs (NaN
    otherwise; j3 needs n=1)."""

    time: float
    volume: float
    entropy: float
    entropy_origin: float
    entropy_point: NDArray
    zalpha: float
    u_min: float
    u_max: float
    k_min: float
    k_max: float
    w_plus: float
    w_minus: float
    rho_plus: float
    rho_minus: float
    soliton_res: float
    dissipation: float
    j1: float
    j2: float
    j3: float
    q: float


def _dissipation(u: SupportFunction, z: NDArray, alpha: float, vol: float) -> float:
    """Entropy dissipation rate about z: the Hoelder-type defect
    (int F^(1+1/a) dsig)(int dsig) / ((int F^(1/a) dsig)(int F dsig)) - 1
    with F = K^alpha/u_z and cone measure dsig = (u_z/K) dtheta."""
    g = curvature_data(u)
    grid = u.grid
    uz = u.values - grid.nodes @ z
    i1 = sg.integrate(grid, g.K**alpha * uz ** (-1.0 / alpha))
    i0 = (grid.dim + 1) * vol
    i2 = sg.integrate(grid, uz ** (1.0 - 1.0 / alpha))
    i3 = sg.integrate(grid, g.K ** (alpha - 1.0))
    return i1 * i0 / (i2 * i3) - 1.0


def diagnostics(state: FlowState, bases: tuple[NDArray, NDArray] | None = None
                ) -> tuple[DiagnosticsRecord, tuple[NDArray, NDArray]]:
    """All scalar diagnostics of the current state (one CSV row), and the
    optimal bases of its two radius solves.

    bases starts the radius solves (`body.width_radii`): the bases this
    function returned for the run's previous sample, or None to start
    cold. The radii are the same up to rounding either way."""
    u = state.u
    alpha = state.alpha
    g = curvature_data(u)
    vol = gb.volume(u)
    ep = ge.entropy_point(u, alpha)
    if u.values.min() > 0.0:
        e_origin = ge.entropy_at(u, np.zeros(u.dim + 1), alpha)
    else:
        e_origin = float("nan")
    wr = gb.width_radii(u, bases)
    res = soliton_residual(u, alpha)
    diss = _dissipation(u, ep.point, alpha, vol)
    j1 = j2 = j3 = q = float("nan")
    if state.kind == "expanding":
        j1 = math.log(vol / sg.ball_volume(u.dim))
        j2 = ep.value
        q = j2 - j1 / (u.dim + 1)
        if u.dim == 1:
            from .inequalities import curvature_image  # deferred: avoids cycle

            ci = curvature_image(u, alpha, ep=ep)
            j3 = (u.dim / (u.dim + 1)) * math.log(vol / gb.volume(ci.body))
    return DiagnosticsRecord(
        time=state.time,
        volume=vol,
        entropy=ep.value,
        entropy_origin=e_origin,
        entropy_point=ep.point,
        zalpha=ge.zalpha(u, alpha),
        u_min=float(u.values.min()),
        u_max=float(u.values.max()),
        k_min=float(g.K.min()),
        k_max=float(g.K.max()),
        w_plus=wr.w_plus,
        w_minus=wr.w_minus,
        rho_plus=wr.rho_plus,
        rho_minus=wr.rho_minus,
        soliton_res=res.residual,
        dissipation=diss,
        j1=j1,
        j2=j2,
        j3=j3,
        q=q,
    ), wr.bases


@dataclass
class RunResult:
    """Sampled trajectory of one run.

    records/samples are aligned, and the last record describes the final
    state unless a step failed; steps counts accepted steps."""

    records: list
    samples: list
    final_state: FlowState
    stop_reason: str
    steps: int = 0


def run(initial: SupportFunction, kind: str, alpha: float, t_end: float,
        sample_every: float | None = None, *, stop_residual: float | None = "default",
        u_floor: float = 0.05, max_steps: int | None = None) -> RunResult:
    """Run a flow from t = 0 to t_end with periodic diagnostics.

    Normalized runs require pre-normalized volume; their basepoint is
    recentered once, at t = 0, to the Steiner point, which the flow
    keeps fixed. The run stops early
    when the soliton residual drops below stop_residual (default 1e-8 for n=1, 1e-6 for n=2, normalized
    kind only; pass None to disable) or, for unnormalized runs, when
    min u reaches u_floor; both are checked at t = 0 too. On StepFailure
    the partial trajectory is attached to the exception as exc.partial.

    Each sample's radius solves start from the optimal bases of the
    previous sample's (see `diagnostics`); only the first sample starts
    cold. The bases live in this call alone, so a run's output does not
    depend on what ran before it.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if sample_every is not None and sample_every <= 0.0:
        raise ValueError("sample_every must be positive")
    if stop_residual == "default":
        stop_residual = DEFAULT_STOP_RESIDUAL[initial.dim] if kind == "normalized" else None
    u = initial
    if kind == "normalized":
        target = sg.ball_volume(u.dim)
        if abs(gb.volume(u) - target) > 1e-8 * target:
            raise ValueError("normalized runs need volume pre-normalized to the unit ball's")
        u = gb.support_about(u, ge.steiner_point(u))
    state = FlowState(kind=kind, alpha=alpha, time=0.0, u=u)
    records, samples, steps = [], [], 0
    bases = None

    def below_floor(st):
        return kind == "unnormalized" and st.u.values.min() <= u_floor

    def sample(st):
        """Record st; the stop reason its record calls for, or None."""
        nonlocal bases
        record, bases = diagnostics(st, bases)
        records.append(record)
        samples.append((st.time, st.u))
        if stop_residual is not None and records[-1].soliton_res < stop_residual:
            return "residual"
        return "u_floor" if below_floor(st) else None

    stop_reason = sample(state)
    next_sample = sample_every if sample_every is not None else t_end
    while stop_reason is None and state.time < t_end - 1e-12:
        if max_steps is not None and steps >= max_steps:
            stop_reason = "max_steps"
            break
        target_t = min(t_end, next_sample)
        try:
            state = step(state, target_t - state.time)
        except StepFailure as e:
            e.partial = RunResult(records, samples, state, "step_failure", steps)
            raise
        steps += 1
        if below_floor(state):
            stop_reason = "u_floor"
        elif state.time >= target_t - 1e-12 and target_t < t_end - 1e-12:
            stop_reason = sample(state)
            next_sample = target_t + (sample_every or t_end)
    if samples[-1][0] < state.time - 1e-15:
        sample(state)  # the trailing sample keeps the stop reason found
    return RunResult(records, samples, state, stop_reason or "t_end", steps)


class ExtinctionBracket(NamedTuple):
    lower: float
    upper: float


def extinction_bracket(initial: SupportFunction, alpha: float, *,
                       u_stop: float = 0.05) -> ExtinctionBracket:
    """Bracket the extinction time of the contracting flow.

    Runs the unnormalized flow until min u <= u_stop, then sandwiches the
    remaining lifetime between those of the inscribed and circumscribed
    balls: rho^(1+n*alpha)/(1+n*alpha). u_stop must be positive;
    NonConvergence after MAX_BRACKET_STEPS steps."""
    if not u_stop > 0.0:
        raise ValueError("u_stop must be positive")
    rr = run(initial, "unnormalized", alpha, math.inf, stop_residual=None,
             u_floor=u_stop, max_steps=MAX_BRACKET_STEPS)
    last = rr.records[-1]
    if rr.stop_reason != "u_floor":
        raise NonConvergence(rr.steps, last.u_min)
    p = 1.0 + initial.dim * alpha
    return ExtinctionBracket(lower=last.time + last.rho_minus**p / p,
                             upper=last.time + last.rho_plus**p / p)
