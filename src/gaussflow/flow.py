"""Time-stepping of support functions under Gauss-curvature-type flows.

Three flow kinds act on the support function u of a uniformly convex
body:

- "unnormalized":  du/dtau = -K^alpha          (contracting)
- "normalized":    du/dt   = -K^alpha/eta + u  (volume held at |B(1)|),
                   eta = avg K^(alpha-1)
- "expanding":     du/dt   = u^(1+1/alpha) / K

Stepping is classic RK4 with the spectral stability cap
dt <= 1.5 / (L(L+1) D_max) (bandlimit L, largest diffusivity D_max) and
step rejection (halving, up to 12 times) whenever a stage loses uniform
convexity or positivity. Normalized states are re-projected to the
unit-ball volume after every accepted step; the accumulated |log
rescale| is kept as an accuracy diagnostic.

Per-sample diagnostics cover the entropy (about the moving entropy point
and about the origin), the curvature power mean, widths and radii, the
self-similarity (soliton) residual, and the entropy dissipation rate.
For expanding runs the scale-invariant quantities J1, J2, J3, Q are
recorded instead of NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import sphere_grid as sg
from . import body as gb
from . import entropy as ge
from .body import SupportFunction, curvature_data
from .errors import (
    ConvexityLost,
    InsufficientContraction,
    NonConvergence,
    StepFailure,
)

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
    "rescale_trajectory",
    "RescaledTrajectory",
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


def rhs(state: FlowState) -> NDArray:
    """Right-hand side du/dt on the nodes, re-projected to the bandlimit."""
    u = state.u
    g = curvature_data(u)
    alpha = state.alpha
    if state.kind == "unnormalized":
        du = -g.K**alpha
    elif state.kind == "normalized":
        eta = sg.average(u.grid, g.K ** (alpha - 1.0))
        du = -g.K**alpha / eta + u.values
    else:
        if u.values.min() <= 0.0:
            raise ValueError("expanding flow needs positive support values")
        du = u.values ** (1.0 + 1.0 / alpha) * g.f
    return sg.project(u.grid, du)


def _stable_dt(state: FlowState) -> float:
    """RK4 stability cap c_s / (L(L+1) D_max), c_s = SPECTRAL_FACTOR and
    D_max the largest per-node diffusivity. The stiff part D (Delta + n)
    reaches -D (L^2 - 1) on the circle at bandlimit L (-D (L(L+1) - 2) on
    S^2), and RK4 is stable on the negative real axis to |z| = 2.785
    (Hairer-Norsett-Wanner, Solving ODEs I), so c_s <= 2.785 L/(L-1), 2.96
    at L = 16. A 1e-6 cos(16 theta) perturbation of the unit circle decays
    at c_s = 1.5 and grows at 3.2: 1.5 keeps a 1.9x margin."""
    g = curvature_data(state.u)
    alpha = state.alpha
    if state.kind == "expanding":
        diff = state.u.values ** (1.0 + 1.0 / alpha) * g.f / g.lam_min
    else:
        diff = abs(alpha) * g.K**alpha / g.lam_min
        if state.kind == "normalized":
            diff = diff / sg.average(state.u.grid, g.K ** (alpha - 1.0))
    d_max = float(diff.max())
    L = state.u.grid.bandlimit
    return SPECTRAL_FACTOR / (L * (L + 1) * d_max)


def step(state: FlowState, dt_request: float) -> FlowState:
    """Advance one RK4 step of size min(dt_request, stability bound).

    Any stage that loses uniform convexity or positivity rejects the
    step; dt is halved and the step retried, up to 12 times, after which
    StepFailure reports the offending node. A dt that cannot advance
    the clock raises StepFailure at once.
    """
    if dt_request <= 0.0:
        raise ValueError("dt_request must be positive")
    grid = state.u.grid
    basepoint = state.u.basepoint
    dt = min(dt_request, _stable_dt(state))
    k1 = rhs(state)

    def stage(h, k):
        u = SupportFunction(grid, state.u.values + h * k, basepoint)
        _check_positive(u)
        return u

    rejections = 0
    while True:
        if not dt > 0.0 or state.time + dt == state.time:
            raise StepFailure(None, dt, rejections)
        try:
            k2 = rhs(replace(state, u=stage(0.5 * dt, k1)))
            k3 = rhs(replace(state, u=stage(0.5 * dt, k2)))
            k4 = rhs(replace(state, u=stage(dt, k3)))
            u_new = stage(dt / 6.0, k1 + 2.0 * k2 + 2.0 * k3 + k4)
            break
        except (ConvexityLost, _PositivityLost) as e:
            rejections += 1
            if rejections > MAX_HALVINGS:
                raise StepFailure(getattr(e, "node", None), dt, rejections - 1) from None
            dt *= 0.5
    rescale = state.cumulative_rescale
    if state.kind == "normalized":
        target = sg.ball_volume(grid.dim)
        s = (target / gb.volume(u_new)) ** (1.0 / (grid.dim + 1))
        u_new = gb.scale(u_new, s)
        rescale += abs(math.log(s))
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


def _check_positive(u: SupportFunction) -> None:
    i = int(np.argmin(u.values))
    if u.values[i] <= 0.0:
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


def diagnostics(state: FlowState) -> DiagnosticsRecord:
    """All scalar diagnostics of the current state (one CSV row)."""
    u = state.u
    alpha = state.alpha
    g = curvature_data(u)
    vol = gb.volume(u)
    ep = ge.entropy_point(u, alpha)
    if u.values.min() > 0.0:
        e_origin = ge.entropy_at(u, np.zeros(u.dim + 1), alpha)
    else:
        e_origin = float("nan")
    wr = gb.width_radii(u)
    res = soliton_residual(u, alpha)
    diss = _dissipation(u, ep.point, alpha, vol)
    j1 = j2 = j3 = q = float("nan")
    if state.kind == "expanding":
        j1 = math.log(vol / sg.ball_volume(u.dim))
        j2 = ep.value
        q = j2 - j1 / (u.dim + 1)
        if u.dim == 1:
            from .inequalities import curvature_image  # deferred: avoids cycle

            ci = curvature_image(u, alpha)
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
    )


@dataclass
class RunResult:
    """Sampled trajectory of one run.

    records/samples are aligned; steps counts accepted RK4 steps;
    limit_point (entropy point of the final body) and the rescaled
    trajectory are filled for unnormalized runs (the latter only once
    the volume has contracted by 2x)."""

    records: list
    samples: list
    final_state: FlowState
    stop_reason: str
    steps: int = 0
    limit_point: NDArray | None = None
    rescaled: "RescaledTrajectory | None" = None


def run(initial: SupportFunction, kind: str, alpha: float, t_end: float,
        sample_every: float | None = None, *, stop_residual: float | None = "default",
        u_floor: float = 0.05, max_steps: int | None = None) -> RunResult:
    """Run a flow from t = 0 to t_end with periodic diagnostics.

    Normalized runs require pre-normalized volume; their basepoint is
    recentered once, at t = 0, to the entropy point. The run stops early
    when the soliton residual drops below stop_residual (default 1e-8 for n=1, 1e-6 for n=2, normalized
    kind only; pass None to disable) or, for unnormalized runs, when
    min u reaches u_floor. On StepFailure the partial trajectory is
    attached to the exception as exc.partial.
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
    records = [diagnostics(state)]
    samples = [(0.0, state.u)]
    stop_reason = "t_end"
    steps = 0

    def finish(st):
        rr = RunResult(records=records, samples=samples, final_state=st,
                       stop_reason=stop_reason, steps=steps)
        if kind == "unnormalized":
            rr.limit_point = ge.entropy_point(st.u, alpha).point
            try:
                rr.rescaled = rescale_trajectory(samples, alpha, limit_point=rr.limit_point)
            except InsufficientContraction:
                rr.rescaled = None
        return rr

    if stop_residual is not None and records[0].soliton_res < stop_residual:
        stop_reason = "residual"
        return finish(state)

    next_sample = sample_every if sample_every is not None else t_end
    while state.time < t_end - 1e-12:
        if max_steps is not None and steps >= max_steps:
            stop_reason = "max_steps"
            break
        target_t = min(t_end, next_sample)
        try:
            state = step(state, target_t - state.time)
        except StepFailure as e:
            stop_reason = "step_failure"
            e.partial = finish(state)
            raise
        steps += 1
        if kind == "unnormalized" and state.u.values.min() <= u_floor:
            stop_reason = "u_floor"
            break
        if state.time >= target_t - 1e-12 and target_t < t_end - 1e-12:
            records.append(diagnostics(state))
            samples.append((state.time, state.u))
            if stop_residual is not None and records[-1].soliton_res < stop_residual:
                stop_reason = "residual"
                break
            next_sample = target_t + (sample_every or t_end)
    if samples[-1][0] < state.time - 1e-15:
        records.append(diagnostics(state))
        samples.append((state.time, state.u))
    return finish(state)


class RescaledTrajectory(NamedTuple):
    """Volume-normalized view of an unnormalized trajectory; samples are
    (t, SupportFunction) pairs about the limit point, entropy_deviation
    is the worst mismatch of the entropy change against the exact
    log-scale relation."""

    samples: list
    entropy_deviation: float


def rescale_trajectory(samples, alpha: float,
                       limit_point: NDArray | None = None) -> RescaledTrajectory:
    """Map (tau, u) samples of a contracting run to the normalized clock
    t = (1/(n+1)) log(|B(1)|/|Omega_tau|) and unit-ball volume, about the
    estimated limit point.

    Requires at least 2x volume contraction across the samples. Verifies
    that the entropy about the limit point transforms exactly by +t
    (deviation returned; > 1e-8 raises ArithmeticError).
    """
    if len(samples) < 2:
        raise InsufficientContraction("need at least two samples")
    vols = [gb.volume(u) for _, u in samples]
    if vols[0] < 2.0 * vols[-1]:
        raise InsufficientContraction(
            f"volume contracted only by {vols[0] / vols[-1]:.3f}x (need 2x)")
    if limit_point is None:
        limit_point = ge.entropy_point(samples[-1][1], alpha).point
    target = sg.ball_volume(samples[0][1].dim)
    n1 = samples[0][1].dim + 1
    out = []
    worst = 0.0
    for (tau, u), vol in zip(samples, vols):
        t = math.log(target / vol) / n1
        u_n = gb.scale(gb.support_about(u, limit_point), math.exp(t))
        e_before = ge.entropy_at(u, limit_point, alpha)
        e_after = ge.entropy_at(u_n, np.zeros(u.dim + 1), alpha)
        worst = max(worst, abs(e_after - (e_before + t)))
        out.append((t, u_n))
    if worst > 1e-8:
        raise ArithmeticError(f"entropy rescaling relation violated by {worst:.3e}")
    return RescaledTrajectory(samples=out, entropy_deviation=worst)


class ExtinctionBracket(NamedTuple):
    lower: float
    upper: float
    tau_stop: float
    state: FlowState


def extinction_bracket(initial: SupportFunction, alpha: float, *,
                       u_stop: float = 0.05) -> ExtinctionBracket:
    """Bracket the extinction time of the contracting flow.

    Runs the unnormalized flow until min u <= u_stop, then sandwiches the
    remaining lifetime between those of the inscribed and circumscribed
    balls: rho^(1+n*alpha)/(1+n*alpha). u_stop must be positive;
    NonConvergence after MAX_BRACKET_STEPS steps."""
    if not u_stop > 0.0:
        raise ValueError("u_stop must be positive")
    state = FlowState(kind="unnormalized", alpha=alpha, time=0.0, u=initial)
    for _ in range(MAX_BRACKET_STEPS):
        if state.u.values.min() <= u_stop:
            break
        state = step(state, 1e9)
    if state.u.values.min() > u_stop:
        raise NonConvergence(MAX_BRACKET_STEPS, float(state.u.values.min()))
    wr = gb.width_radii(state.u)
    n = initial.dim
    p = 1.0 + n * alpha
    return ExtinctionBracket(
        lower=state.time + wr.rho_minus**p / p,
        upper=state.time + wr.rho_plus**p / p,
        tau_stop=state.time,
        state=state,
    )
