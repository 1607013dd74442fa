"""Time-stepping of support functions under Gauss-curvature-type flows.

Three flow kinds act on the support function u of a uniformly convex
body:

- "unnormalized":  du/dtau = -K^alpha          (contracting)
- "normalized":    du/dt   = -K^alpha/eta + u  (volume held at |B(1)|),
                   eta = avg K^(alpha-1)
- "expanding":     du/dt   = u^(1+1/alpha) / K

Stepping is classic RK4 with the spectral stability cap
dt <= 1.5 / (L(L+1) D_max) (bandlimit L, largest diffusivity D_max) and
step rejection (halving, up to 12 times) whenever a stage or the
accepted body loses uniform convexity or positivity. A body caches its
values, curvature tensor A and gradient as one frame array, and its
spectrum (`body.BodyGeometry`); both are linear in u. A stage is the
accepted body u plus h times a projected increment k, so its frame and
spectrum are u's plus h times k's, which one analysis and one synthesis
of du give (`sphere_grid.project_frame`): one array sum each. It is
checked like a body build (spectral tail, lambda_min > 0, u > 0) but
builds no SupportFunction. The accepted body u + dt/6 (k1 + 2 (k2 + k3)
+ k4) is made the same way from the stages' summed frames and checked
in the same order, so a step transforms no body. A normalized step then
multiplies the accepted frame and spectrum by the rescale to the
unit-ball volume, in place, before it makes the body; the accumulated
|log rescale| is kept as an accuracy diagnostic.

Per-sample diagnostics cover the entropy (about the moving entropy point
and about the origin), the curvature power mean, widths and radii, the
self-similarity (soliton) residual, and the entropy dissipation rate.
For expanding runs the scale-invariant quantities J1, J2, J3, Q are
recorded instead of NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
SPECTRAL_FACTOR = 1.5
MAX_HALVINGS = 12
MAX_BRACKET_STEPS = 100_000
DEFAULT_STOP_RESIDUAL = {1: 1e-8, 2: 1e-6}


@dataclass(frozen=True)
class FlowState:
    """One flow in progress: kind, exponent, clock, current body, step stats."""

    kind: str
    alpha: float
    time: float
    u: SupportFunction
    dt_last: float = 0.0
    rejected_steps: int = 0
    cumulative_rescale: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if abs(self.alpha) < 1e-12:
            raise ValueError("alpha must be nonzero")


def _velocity(state: FlowState, values: NDArray, f: NDArray,
              K: NDArray) -> tuple[NDArray, float, NDArray, float]:
    """du/dt on the nodes, before projection, of the body with support
    values `values`, surface-area density f and curvature K = 1/f under
    the state's flow, with the factors c, w and the denominator den of
    its diffusivity D = c w / (lambda_min den); the one formula of `rhs`,
    the RK4 stages and the step cap. Only the cap multiplies out c w."""
    alpha = state.alpha
    if state.kind == "expanding":
        if values.min() <= 0.0:
            raise ValueError("expanding flow needs positive support values")
        v = values ** (1.0 + 1.0 / alpha) * f
        return v, 1.0, v, 1.0
    Ka = K**alpha
    if state.kind == "unnormalized":
        return -Ka, abs(alpha), Ka, 1.0
    eta = sg.average(state.u.grid, K ** (alpha - 1.0))
    return values - Ka / eta, abs(alpha), Ka, eta


def _increment(state: FlowState, values: NDArray, f: NDArray, K: NDArray) -> sg.ProjectedFrame:
    return sg.project_frame(state.u.grid, _velocity(state, values, f, K)[0])


def rhs(state: FlowState) -> NDArray:
    """Right-hand side du/dt on the nodes, re-projected to the bandlimit."""
    g = curvature_data(state.u)
    return _increment(state, state.u.values, g.f, g.K).rows[0]


def step(state: FlowState, dt_request: float) -> FlowState:
    """Advance one RK4 step of size min(dt_request, stability cap).

    The cap is c_s / (L(L+1) D_max), c_s = SPECTRAL_FACTOR, with the largest
    diffusivity D_max from the evaluation that gives k1. The stiff part
    D (Delta + n) reaches -D (L^2 - 1) on the circle at bandlimit L
    (-D (L(L+1) - 2) on S^2), and RK4 is stable on the negative real axis
    to |z| = 2.785 (Hairer-Norsett-Wanner, Solving ODEs I), so c_s <= 2.785
    L/(L-1), 2.96 at L = 16. A 1e-6 cos(16 theta) perturbation of the unit
    circle decays at c_s = 1.5 and grows at 3.2: 1.5 keeps a 1.9x margin.

    Any stage, or the accepted body, that loses uniform convexity or
    positivity rejects the step; dt is halved and the step retried, up
    to 12 times, after which StepFailure reports the offending node. A
    dt that cannot advance the clock raises StepFailure at once.

    The accepted body takes no transform: its frame (values, A and
    gradient) and spectrum are linear in u, so they are u's cached ones
    plus dt/6 times those of the increments' sum k1 + 2 (k2 + k3) + k4,
    checked like a stage. A normalized step multiplies that frame and
    spectrum by the volume rescale s in place (f by s^n, K by s^-n,
    lambda_min by s) and attaches the result by `body.with_geometry`.
    """
    if dt_request <= 0.0:
        raise ValueError("dt_request must be positive")
    u = state.u
    g = curvature_data(u)
    v, c, w, den = _velocity(state, u.values, g.f, g.K)
    L = u.grid.bandlimit
    d_max = float(((c * w / g.lam_min) / den).max())
    dt = min(dt_request, SPECTRAL_FACTOR / (L * (L + 1) * d_max))
    k1 = sg.project_frame(u.grid, v)

    def advance(h, k):
        """Frame, spectrum, f and lambda_min of u + h k, u's frame and
        spectrum plus h times k's; checked in the order a SupportFunction
        build checks, then for u > 0."""
        frame = g.frame + h * k.rows
        spectrum = g.spectrum + h * k.spectrum
        sg.warn_if_marginal(u.grid, spectrum)
        f, lam = gb.curvature_invariants(frame)
        _check_positive(frame[0])
        return frame, spectrum, f, lam

    def stage(h, k):
        frame, _, f, _ = advance(h, k)
        return _increment(state, frame[0], f, 1.0 / f)

    rejections = 0
    while True:
        if not dt > 0.0 or state.time + dt == state.time:
            raise StepFailure(None, dt, rejections)
        try:
            k2 = stage(0.5 * dt, k1)
            k3 = stage(0.5 * dt, k2)
            k4 = stage(dt, k3)
            k = sg.ProjectedFrame(k1.rows + 2.0 * (k2.rows + k3.rows) + k4.rows,
                                  k1.spectrum + 2.0 * (k2.spectrum + k3.spectrum) + k4.spectrum)
            frame, spectrum, f, lam = advance(dt / 6.0, k)
            break
        except (ConvexityLost, _PositivityLost) as e:
            rejections += 1
            if rejections > MAX_HALVINGS:
                raise StepFailure(getattr(e, "node", None), dt, rejections - 1) from None
            dt *= 0.5
    K = 1.0 / f
    rescale = state.cumulative_rescale
    if state.kind == "normalized":
        # gb.volume of the accepted body, then gb.scale's products in place
        vol = sg.integrate(u.grid, frame[0] * f) / (u.dim + 1)
        s = (sg.ball_volume(u.dim) / vol) ** (1.0 / (u.dim + 1))
        sn = s**u.dim
        frame *= s
        spectrum *= s
        f *= sn
        K /= sn
        lam *= s
        rescale += abs(math.log(s))
    u_new = gb.with_geometry(u, gb.BodyGeometry(frame=frame, f=f, K=K, lam_min=lam,
                                                spectrum=spectrum))
    return FlowState(
        kind=state.kind,
        alpha=state.alpha,
        time=state.time + dt,
        u=u_new,
        dt_last=dt,
        rejected_steps=state.rejected_steps + rejections,
        cumulative_rescale=rescale,
    )


class _PositivityLost(Exception):
    def __init__(self, node: int):
        self.node = node


def _check_positive(values: NDArray) -> None:
    i = int(values.argmin())
    if values[i] <= 0.0:
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
    state unless a step failed; steps counts accepted RK4 steps."""

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
    recentered once, at t = 0, to the entropy point. The run stops early
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
        u = gb.support_about(u, ge.entropy_point(u, alpha).point)
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
