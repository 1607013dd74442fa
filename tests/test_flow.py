"""Flow stepping tests: oracles, monotone quantities, stop rules."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussflow import body as gb
from gaussflow import entropy as ge
from gaussflow import flow as gf
from gaussflow import sphere_grid as sg
from gaussflow.errors import NonConvergence, StepFailure


def circle(L=16):
    return sg.build_grid(1, L)


def sphere(L=8):
    return sg.build_grid(2, L)


def make_state(u, kind="unnormalized", alpha=1.0):
    return gf.FlowState(kind=kind, alpha=alpha, time=0.0, u=u)


class TestRhs:
    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.0])
    def test_unit_ball_normalized_stationary(self, dim, L, alpha):
        u = gb.ball(sg.build_grid(dim, L), 1.0)
        du = gf.rhs(make_state(u, "normalized", alpha))
        assert np.abs(du).max() <= 1e-12

    @pytest.mark.parametrize("dim,L,alpha", [(1, 16, 1.0), (1, 16, 2.0), (2, 8, 1.0)])
    def test_ball_unnormalized_constant(self, dim, L, alpha):
        R = 1.5
        u = gb.ball(sg.build_grid(dim, L), R)
        du = gf.rhs(make_state(u, "unnormalized", alpha))
        assert_allclose(du, -(R ** (-dim * alpha)), atol=1e-10)

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_ball_expanding(self, dim, L):
        R = 1.2
        u = gb.ball(sg.build_grid(dim, L), R)
        du = gf.rhs(make_state(u, "expanding", 1.0))
        assert_allclose(du, R**2 * R**dim, rtol=1e-10)

    def test_expanding_needs_positive_support(self):
        # disk of radius 0.3 centered at (0.9, 0): convex but origin outside
        g = circle()
        u = gb.SupportFunction(g, 0.3 + 0.9 * np.cos(g.thetas))
        with pytest.raises(ValueError, match="positive"):
            gf.rhs(make_state(u, "expanding", 1.0))

    def test_state_validation(self):
        u = gb.ball(circle(), 1.0)
        with pytest.raises(ValueError, match="kind"):
            gf.FlowState(kind="backward", alpha=1.0, time=0.0, u=u)
        with pytest.raises(ValueError, match="alpha"):
            gf.FlowState(kind="normalized", alpha=0.0, time=0.0, u=u)


class TestStep:
    def test_dt_honors_stability_and_request(self):
        st = make_state(gb.ball(circle(), 1.0), "normalized", 1.0)
        guess = 1.5 / (16 * 17)  # unit circle: K = lam_min = eta = 1, so D_max = 1
        assert gf.step(st, 1e9).dt_last == pytest.approx(guess)
        assert gf.step(st, 1e-5).dt_last == pytest.approx(1e-5)
        # a state's proposal replaces the guess, and the request still caps it
        assert gf.step(replace(st, dt_next=0.3), 1e9).dt_last == 0.3
        assert gf.step(replace(st, dt_next=0.3), 0.1).dt_last == 0.1
        with pytest.raises(ValueError):
            gf.step(st, -0.1)

    def test_normalized_ball_is_fixed_point(self):
        st = make_state(gb.ball(circle(), 1.0), "normalized", 1.0)
        for _ in range(50):
            st = gf.step(st, 0.02)
        assert np.abs(st.u.values - 1.0).max() <= 1e-12
        assert gb.volume(st.u) == pytest.approx(np.pi, abs=1e-12)
        assert st.rejected_steps == 0
        assert st.cumulative_rescale <= 1e-12

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_unit_ball_is_an_exact_fixed_point(self, dim, L):
        # F(u) = 0 gives zero increments at any h: the error estimate is
        # 0, the controller grows h fivefold a step to the request, and the
        # ball stays put to rounding
        st = make_state(gb.ball(sg.build_grid(dim, L), 1.0), "normalized", 0.5)
        for _ in range(20):
            st = gf.step(st, 0.5)
        assert st.rejected_steps == 0 and st.dt_last == 0.5
        assert np.abs(st.u.values - 1.0).max() <= 1e-14
        assert st.cumulative_rescale <= 1e-14

    def test_step_that_cannot_advance_the_clock_fails(self):
        st = gf.FlowState(kind="unnormalized", alpha=1.0, time=1e18,
                          u=gb.ball(circle(), 1.0))
        with pytest.raises(StepFailure) as exc:
            gf.step(st, 1e9)
        assert exc.value.rejections == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grid,axes", [(circle(), (1.4, 0.8)),
                                           (sphere(), (1.4, 1.0, 0.8))], ids=["n1", "n2"])
    def test_step_failure_after_twelve_halvings(self, grid, axes):
        # a proposal of 1e6 loses convexity or positivity at every halving
        st = replace(make_state(gb.ellipse(grid, axes), "unnormalized", 1.0), dt_next=1e6)
        with pytest.raises(StepFailure) as exc:
            gf.step(st, 1e6)
        assert exc.value.rejections == 12
        assert exc.value.node is not None

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_fourth_order_at_fixed_h(self, dim, L, monkeypatch):
        monkeypatch.setattr(gf, "TOLERANCE", {1: 1.0, 2: 1.0})  # no attempt is rejected

        def values_at(T, steps):
            st = make_state(gb.random_body(2, dim, L, 0.1), "normalized", 1.0)
            for _ in range(steps):
                st = gf.step(replace(st, dt_next=T / steps), T / steps)
            assert st.rejected_steps == 0
            return st.u.values

        ref = values_at(0.2, 256)
        errors = [np.abs(values_at(0.2, steps) - ref).max() for steps in (4, 8, 16)]
        assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0

    def test_same_bytes_after_an_unrelated_run(self):
        u0 = gb.random_body(7, 1, 16, 0.1)
        first = gf.run(u0, "normalized", 1.0, 0.3, sample_every=0.1)
        gf.run(gb.random_body(8, 2, 8, 0.1), "normalized", 2.0, 0.2)
        again = gf.run(u0, "normalized", 1.0, 0.3, sample_every=0.1)
        assert again.steps == first.steps
        assert again.final_state.u.values.tobytes() == first.final_state.u.values.tobytes()
        assert [r.soliton_res for r in again.records] == [r.soliton_res for r in first.records]


# Workload seed 1's sweep-n1 bodies (perfbench/workloads.py: seeds from
# 635024, 4 / 2 / 1 of them at alpha 0.5 / 1 / 2) and the error at t = 0.5
# of each normalized run by the RK4 step at its stability cap, 1.5 /
# (L(L+1) D_max), which this step replaced: 568 steps in all.
SWEEP_RK4_ERRORS = {(0.5, 635024): 3.92e-11, (0.5, 635025): 2.81e-11,
                    (0.5, 635026): 6.69e-11, (0.5, 635027): 5.46e-11,
                    (1.0, 635024): 8.98e-12, (1.0, 635025): 6.02e-12,
                    (2.0, 635024): 1.93e-12}


def fixed_step_values(u, alpha, T, steps, monkeypatch):
    """Support values at T of the normalized flow from u by `steps`
    equal steps, none of them rejected."""
    st = make_state(u, "normalized", alpha)
    with monkeypatch.context() as m:
        m.setattr(gf, "TOLERANCE", {1: 1.0, 2: 1.0})
        for _ in range(steps):
            st = gf.step(replace(st, dt_next=T / steps), T / steps)
    assert st.time == pytest.approx(T) and st.rejected_steps == 0
    return st.u.values


def sweep_error(alpha, seed, monkeypatch):
    """The error at t = 0.5 of a sweep-n1 body's normalized run, against
    256 fixed steps."""
    u0 = gb.normalize_volume(gb.random_body(seed, 1, 16, 0.1))
    rr = gf.run(u0, "normalized", alpha, 0.5, stop_residual=None)
    ref = fixed_step_values(rr.samples[0][1], alpha, 0.5, 256, monkeypatch)
    return np.abs(rr.final_state.u.values - ref).max()


def test_sweep_cycle_within_260_steps():
    steps = sum(gf.run(gb.normalize_volume(gb.random_body(seed, 1, 16, 0.1)), "normalized",
                       alpha, 0.5, stop_residual=None).steps
                for alpha, seed in SWEEP_RK4_ERRORS)
    assert steps <= 260


# At TOLERANCE[1] the step misses this on the bodies at alpha 1 and 2,
# which end 2.7-8.6 times less accurate than the RK4 step (CHANGES.md).
_LESS_ACCURATE = pytest.mark.xfail(strict=True, reason="less accurate than the RK4 step at its cap")


@pytest.mark.parametrize("alpha,seed", [
    pytest.param(alpha, seed, marks=[_LESS_ACCURATE] if alpha > 0.5 else [])
    for alpha, seed in SWEEP_RK4_ERRORS])
def test_sweep_body_as_accurate_as_rk4_at_its_cap(alpha, seed, monkeypatch):
    assert sweep_error(alpha, seed, monkeypatch) <= SWEEP_RK4_ERRORS[alpha, seed]


# Random bodies at n = 2, L = 8 and the error at t = 1 of each normalized
# run sampled every 0.25 by the RK4 step at its stability cap: 16 steps
# at alpha = 1/4 and 52-53 at alpha = 1, 206 in all.
N2_RK4_ERRORS = {(0.25, 0): 3.13e-8, (0.25, 1): 2.96e-8, (0.25, 3): 2.78e-8,
                 (1.0, 0): 9.26e-10, (1.0, 1): 5.71e-10, (1.0, 3): 1.66e-9}


def test_n2_bodies_as_accurate_as_rk4_at_its_cap(monkeypatch):
    steps = 0
    for (alpha, seed), rk4_error in N2_RK4_ERRORS.items():
        u0 = gb.normalize_volume(gb.random_body(seed, 2, 8, 0.1))
        rr = gf.run(u0, "normalized", alpha, 1.0, sample_every=0.25, stop_residual=None)
        steps += rr.steps
        ref = fixed_step_values(rr.samples[0][1], alpha, 1.0, 256, monkeypatch)
        assert np.abs(rr.final_state.u.values - ref).max() <= rk4_error, (alpha, seed)
    assert steps < 206


def phi_series(z):
    """phi_1, phi_2, phi_3 of the real array z: where |z| >= 1 by the
    recurrence from expm1, else by 30 terms of sum_j z^j / (j+k)!."""
    z = np.asarray(z, dtype=float)
    y = np.where(np.abs(z) < 1.0, 1.0, z)
    closed = [np.expm1(y) / y]
    closed += [(closed[-1] - 1.0) / y, ((closed[-1] - 1.0) / y - 0.5) / y]
    series = [sum(z**j / math.factorial(j + k) for j in range(30)) for k in (1, 2, 3)]
    return [np.where(np.abs(z) < 1.0, s, c) for s, c in zip(series, closed)]


def test_phi_matches_its_series_and_closed_form():
    # the series side of |z| = 1, zero, the closed-form side and the steep
    # decay of the top degrees
    z = np.concatenate([np.linspace(-40.0, 3.0, 87), [0.0, 1e-12, -1.0, 1.0, -1e4]])
    expected = np.stack([phi_series(0.5 * z)[0]] + phi_series(z), axis=1)
    assert_allclose(gf._phi(z), expected, rtol=1e-13)


def diffusivity(state, u):
    """D = dF/d(lambda_min A) of the state's flow at u, per node."""
    g, a = gb.curvature_data(u), state.alpha
    if state.kind == "expanding":
        return u.values ** (1 + 1 / a) * g.f / g.lam_min
    D = abs(a) * g.K**a / g.lam_min
    return D / sg.average(u.grid, g.K ** (a - 1)) if state.kind == "normalized" else D


def reference_step(state, dt):
    """One ETDRK4 (Cox-Matthews) step in node space: every stage a
    validated SupportFunction and its rhs, Lambda and the phi functions
    applied through `analyze`/`synthesize`, the content of u above the
    bandlimit carried unchanged, and the new body rebuilt after the
    volume rescale."""
    u, grid, n = state.u, state.u.grid, state.u.dim
    D = diffusivity(state, u)
    lam = (0.5 * (D.min() + D.max()) * (n - grid.degrees * (grid.degrees + n - 1))
           + (state.kind == "normalized"))
    z = dt * lam
    p1, p2, p3 = phi_series(z)
    q = 0.5 * dt * phi_series(0.5 * z)[0]

    def mult(m, values):
        return sg.synthesize(grid, m * sg.analyze(grid, values))

    def N(values):
        v = gf.rhs(replace(state, u=gb.SupportFunction(grid, values, u.basepoint)))
        return v - mult(lam, values)

    rest = u.values - sg.project(grid, u.values)
    N_u = N(u.values)
    a = rest + mult(np.exp(0.5 * z), u.values) + mult(q, N_u)
    N_a = N(a)
    b = rest + mult(np.exp(0.5 * z), u.values) + mult(q, N_a)
    N_b = N(b)
    c = rest + mult(np.exp(0.5 * z), a) + mult(q, 2.0 * N_b - N_u)
    N_c = N(c)
    new = (rest + mult(np.exp(z), u.values) + mult(dt * (p1 - 3 * p2 + 4 * p3), N_u)
           + mult(dt * (2 * p2 - 4 * p3), N_a + N_b) + mult(dt * (4 * p3 - p2), N_c))
    new = gb.SupportFunction(grid, new, u.basepoint)
    if state.kind == "normalized":
        s = (sg.ball_volume(n) / gb.volume(new)) ** (1.0 / (n + 1))
        new = gb.SupportFunction(grid, s * new.values, u.basepoint)
    return new


def rebuild_geometry(u, values):
    return gb.curvature_data(gb.SupportFunction(u.grid, values, u.basepoint))


# Ellipses whose normalized step at alpha 1 from this proposal rejects
# exactly one attempt, on its error estimate.
ONE_REJECTION = pytest.mark.parametrize(
    "grid,axes,proposal", [(circle(), (1.4, 0.8), 2e-3), (sphere(), (1.4, 1.0, 0.8), 4e-3)],
    ids=["n1", "n2"])


def ellipse_state(grid, axes, proposal=0.0):
    st = make_state(gb.normalize_volume(gb.ellipse(grid, axes)), "normalized", 1.0)
    return replace(st, dt_next=proposal)


class TestStagesAgainstReference:
    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("kind,alpha", [("unnormalized", 1.0), ("normalized", 0.5),
                                            ("expanding", 2.0)])
    def test_step_matches_node_space_rk4(self, dim, L, kind, alpha):
        st = make_state(gb.random_body(4, dim, L, 0.1), kind, alpha)
        new = gf.step(st, 1e9)
        ref = reference_step(st, new.dt_last)
        assert np.abs(new.u.values - ref.values).max() <= 1e-12
        g, g_ref = gb.curvature_data(new.u), gb.curvature_data(ref)
        assert np.abs(g.f - g_ref.f).max() <= 1e-12 * np.abs(g_ref.f).max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @ONE_REJECTION
    def test_a_rejected_attempt_leaves_no_trace(self, grid, axes, proposal):
        st = ellipse_state(grid, axes, proposal)
        new = gf.step(st, 1e9)
        assert new.rejected_steps == 1
        ref = reference_step(st, new.dt_last)
        assert np.abs(new.u.values - ref.values).max() <= 1e-12
        g = gb.curvature_data(new.u)
        fresh = rebuild_geometry(new.u, new.u.values)
        assert np.abs(g.f - fresh.f).max() <= 1e-12 * np.abs(fresh.f).max()
        # the retried attempt is the clean step at its h, bit for bit
        clean = gf.step(replace(st, dt_next=new.dt_last), 1e9)
        assert clean.rejected_steps == 0 and clean.dt_last == new.dt_last
        g_clean = gb.curvature_data(clean.u)
        for name in ("frame", "f", "K", "lam_min", "spectrum"):
            assert np.array_equal(getattr(g, name), getattr(g_clean, name)), name
        assert np.array_equal(new.velocity.band, clean.velocity.band)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @ONE_REJECTION
    def test_the_next_step_reuses_the_last_velocity(self, grid, axes, proposal, monkeypatch):
        st = gf.step(ellipse_state(grid, axes), 1e9)
        assert st.velocity.body is st.u
        calls, syntheses = [], []
        real, real_synthesis = sg.band_spectrum, sg.synthesize_frame
        monkeypatch.setattr(sg, "band_spectrum", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(sg, "synthesize_frame",
                            lambda *a: syntheses.append(1) or real_synthesis(*a))
        # a step of that state analyses the velocities of stages a, b, c
        # and of the new body, and synthesizes the frames of their increments
        gf.step(replace(st, dt_next=1e-5), 1e9)
        assert len(calls) == 4 and len(syntheses) == 4
        # a state whose velocity is another body's evaluates its own first
        other = gb.normalize_volume(gb.ellipse(grid, axes))
        gf.step(replace(st, u=other, dt_next=1e-5), 1e9)
        assert len(calls) == 9 and len(syntheses) == 8

    def test_a_stage_warns_on_a_marginal_body(self):
        # the top mode cos(16 theta) puts 2.5e-7 of the energy in the tail
        g = circle(16)
        with pytest.warns(RuntimeWarning, match="marginally resolved"):
            st = make_state(gb.SupportFunction(g, 1.0 + 1e-3 * np.cos(16 * g.thetas)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new = gf.step(st, 1e-4)
        assert new.rejected_steps == 0
        tail = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "marginally resolved" in str(w.message)]
        assert len(tail) == 4  # stages a, b and c, then the new body


class TestAdvancedGeometry:
    """A step advances the body's cached geometry by its stages' increments
    instead of rebuilding it."""

    @pytest.mark.parametrize("dim,L,steps", [(1, 16, 500), (2, 8, 50)])
    @pytest.mark.parametrize("kind,alpha", [("normalized", 0.5), ("unnormalized", 1.0),
                                            ("expanding", 2.0)])
    def test_cached_geometry_matches_a_rebuild(self, dim, L, steps, kind, alpha):
        u0 = gb.random_body(4, dim, L, 0.1, centrally_symmetric=True)
        st = make_state(u0, kind, alpha)
        for _ in range(steps):
            st = gf.step(st, 1e9)
        u, g = st.u, gb.curvature_data(st.u)
        fresh = rebuild_geometry(u, u.values)
        # the largest support value the run held sets the scale of its rounding
        s = max(np.abs(u0.values).max(), np.abs(u.values).max())
        assert np.abs(g.gradient - fresh.gradient).max() <= 1e-12 * s
        assert np.abs(g.spectrum - fresh.spectrum).max() <= 1e-12 * np.abs(fresh.spectrum).max()
        # A and f match a rebuild of the bandlimited part of the values to
        # 1e-12. A rebuild of the values themselves also differentiates the
        # rounding that the additions leave above the bandlimit (frequencies
        # up to 2L on the circle's 4L nodes), which the cached data never
        # sees; that share grows like the square root of the step count.
        clean = rebuild_geometry(u, sg.project(u.grid, u.values))
        for name, scale in (("A", s), ("f", s**dim)):
            cached = getattr(g, name)
            assert np.abs(cached - getattr(clean, name)).max() <= 1e-12 * scale
            assert np.abs(cached - getattr(fresh, name)).max() <= 4e-12 * scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @ONE_REJECTION
    def test_a_step_builds_no_body(self, monkeypatch, grid, axes, proposal):
        clean, rejecting = ellipse_state(grid, axes, 1e-4), ellipse_state(grid, axes, proposal)
        builds = []
        real = gb.SupportFunction.__post_init__

        def counting(self):
            builds.append(self)
            real(self)

        monkeypatch.setattr(gb.SupportFunction, "__post_init__", counting)
        assert gf.step(clean, 1e9).rejected_steps == 0
        assert gf.step(rejecting, 1e9).rejected_steps == 1
        assert builds == []


class TestStabilityCap:
    """The RK4 stability cap 1.5 / (L(L+1) D_max) is only the first step's
    guess: the linear part D_bar (Delta + n) + 1 is taken exactly, so steps
    far beyond it are stable."""

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8), (2, 16)])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_cap_scales_with_spectral_radius(self, dim, L, alpha):
        # unit ball: K = lam_min = 1, so D_max = alpha; its first attempt,
        # the cap, is within the tolerance
        st = make_state(gb.ball(sg.build_grid(dim, L), 1.0), "unnormalized", alpha)
        assert gf.step(st, 1e9).dt_last == pytest.approx(1.5 / (L * (L + 1) * alpha),
                                                         rel=1e-10)

    @staticmethod
    def _top_mode(steps, dt):
        g = circle(16)
        u = gb.SupportFunction(g, 1.0 + 1e-6 * np.cos(16 * g.thetas))
        st = make_state(u, "normalized", 1.0)
        a0 = abs(sg.analyze(g, st.u.values)[16])
        for _ in range(steps):
            st = gf.step(replace(st, dt_next=dt), dt)
            assert st.dt_last == dt and st.rejected_steps == 0
        return abs(sg.analyze(g, st.u.values)[16]) / a0

    def test_top_mode_decays_at_cap(self):
        assert self._top_mode(300, 1.5 / (16 * 17)) <= 1.0

    def test_top_mode_decays_far_beyond_the_rk4_limit(self):
        # 10x the RK4 limit 2.785 L/(L-1) / (L(L+1)) at L = 16
        assert self._top_mode(300, 10 * 2.97 / (16 * 17)) <= 1.0

    def test_top_mode_decays_at_its_linear_rate(self):
        # about the ball the degree-16 mode of the normalized flow decays
        # at 1 - alpha (16^2 - 1); one step of 0.02 takes e^(-5.08) exactly
        # up to the perturbation's own nonlinearity
        assert self._top_mode(1, 0.02) == pytest.approx(math.exp(0.02 * (1 - 255)), rel=1e-4)


class TestShrinkingCircleOracle:
    def test_tracks_closed_form(self):
        R0 = 1.3
        t_end = 0.8 * R0**2 / 2.0
        u0 = gb.ball(circle(16), R0)
        res = gf.run(u0, "unnormalized", 1.0, t_end, sample_every=t_end / 10)
        assert res.stop_reason == "t_end"
        assert len(res.samples) == 11
        for t, u in res.samples:
            R = np.sqrt(R0**2 - 2.0 * t)
            assert np.abs(u.values / R - 1.0).max() <= 1e-6
        times = [t for t, _ in res.samples]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert res.final_state.rejected_steps == 0
        # limit point of a centered circle is the origin
        assert np.linalg.norm(res.records[-1].entropy_point) <= 1e-8

    def test_min_curvature_nondecreasing(self):
        u0 = gb.ellipse(circle(16), (1.4, 0.8))
        res = gf.run(u0, "unnormalized", 1.0, 0.3, sample_every=0.03)
        kmins = [r.k_min for r in res.records]
        assert all(b - a >= -1e-10 for a, b in zip(kmins, kmins[1:]))


class TestExtinction:
    def test_circle_bracket(self):
        br = gf.extinction_bracket(gb.ball(circle(16), 1.0), 1.0, u_stop=0.3)
        assert br.lower <= 0.5 + 1e-9 <= br.upper + 1e-6
        assert abs(br.lower - 0.5) <= 1e-6 and abs(br.upper - 0.5) <= 1e-6

    def test_unit_sphere_bracket_third(self):
        br = gf.extinction_bracket(gb.ball(sphere(8), 1.0), 1.0, u_stop=0.4)
        assert br.lower >= 1.0 / 3.0 - 1e-4
        assert br.upper <= 1.0 / 3.0 + 1e-4

    @pytest.mark.parametrize("u_stop", [0.0, -0.1])
    def test_nonpositive_u_stop_rejected(self, u_stop):
        with pytest.raises(ValueError, match="u_stop"):
            gf.extinction_bracket(gb.ball(circle(16), 1.0), 1.0, u_stop=u_stop)

    def test_vanishing_steps_end_in_step_failure(self):
        # near extinction dt ~ u^2 stops advancing the clock long before
        # min u reaches 1e-300
        with pytest.raises(StepFailure):
            gf.extinction_bracket(gb.ball(sphere(8), 1.0), 1.0, u_stop=1e-300)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(gf, "MAX_BRACKET_STEPS", 5)
        with pytest.raises(NonConvergence):
            gf.extinction_bracket(gb.ball(circle(16), 1.0), 1.0, u_stop=0.3)

    def test_run_below_floor_takes_no_step(self):
        res = gf.run(gb.ball(circle(16), 0.2), "unnormalized", 1.0, 1.0, u_floor=0.3)
        assert res.stop_reason == "u_floor"
        assert res.steps == 0 and len(res.records) == 1

    def test_bracket_below_u_stop_is_taken_at_t0(self):
        # a circle of radius R vanishes at R^2/2; both radii are R at t = 0
        br = gf.extinction_bracket(gb.ball(circle(16), 0.2), 1.0, u_stop=0.3)
        assert abs(br.lower - 0.2**2 / 2) <= 1e-12
        assert abs(br.upper - 0.2**2 / 2) <= 1e-12


class TestNormalizedEllipse:
    def test_entropy_monotone_dissipation_volume(self):
        g = circle(24)
        u0 = gb.ellipse(g, (2.0, 0.5))
        res = gf.run(u0, "normalized", 1.0, 0.01, sample_every=2.5e-4,
                     stop_residual=None)
        rec = res.records
        assert len(rec) >= 15
        for r in rec:
            assert r.volume == pytest.approx(np.pi, abs=1e-10)
            assert r.dissipation >= -1e-12
        ents = [r.entropy for r in rec]
        assert all(b - a <= 1e-8 for a, b in zip(ents, ents[1:]))
        # centered finite difference of the entropy matches -D
        for k in range(1, len(rec) - 1):
            fd = (rec[k + 1].entropy - rec[k - 1].entropy) / (
                rec[k + 1].time - rec[k - 1].time)
            assert abs(fd + rec[k].dissipation) <= 1e-3 * abs(rec[k].dissipation)

    def test_inapplicable_fields_are_nan(self):
        res = gf.run(gb.ellipse(circle(16), (1.25, 0.8)), "normalized", 1.0,
                     0.01, stop_residual=None)
        r = res.records[-1]
        assert np.isnan(r.j1) and np.isnan(r.q)
        assert np.isfinite(r.entropy) and np.isfinite(r.entropy_origin)
        assert np.isfinite(r.dissipation) and np.isfinite(r.rho_minus)


class TestConvergenceToBall:
    def test_symmetric_n1(self):
        u0 = gb.random_body(5, 1, 16, 0.1, centrally_symmetric=True)
        res = gf.run(u0, "normalized", 1.0, 12.0, sample_every=0.5)
        final = res.final_state.u
        assert gf.soliton_residual(final, 1.0).residual <= 1e-6
        assert np.abs(final.values - 1.0).max() <= 1e-4
        # support and curvature stay in a fixed band once settled
        late = [r for r in res.records if r.time >= 1.0]
        assert late and all(0.5 <= r.u_min and r.u_max <= 2.0 for r in late)
        assert all(r.k_min >= 0.1 for r in late)

    def test_symmetric_n2(self):
        u0 = gb.random_body(3, 2, 8, 0.04, centrally_symmetric=True)
        res = gf.run(u0, "normalized", 1.0, 5.0, sample_every=1.0,
                     stop_residual=1e-5)
        final = res.final_state.u
        assert gf.soliton_residual(final, 1.0).residual <= 1e-4
        assert np.abs(final.values - 1.0).max() <= 1e-3


def linear_rate(dim, alpha, degree):
    """Decay rate alpha (lambda_l - n) - 1 of the degree-l mode of the
    normalized flow linearised about the unit ball; lambda_l = l^2 on S^1
    and l(l+1) on S^2."""
    lam = degree**2 if dim == 1 else degree * (degree + 1)
    return alpha * (lam - dim) - 1.0


class TestLinearisedRates:
    """Late-time rate of soliton_res on centrally symmetric fuzz bodies.

    The l=2 rate changes sign at alpha = 1/(n+2): above it the residual
    falls at that rate, at it the l=2 mode is neutral (ellipsoids are
    solitons) and the residual falls at the l=4 rate, below it the ball
    is unstable and the residual grows. The rate is taken between the
    last two samples. The n=2 threshold case runs at L=12: at L=8 its
    rate drifts to 3.49 by t=3."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim, L, alpha, degree, t_end, every, tol", [
        (1, 16, 1.0, 2, 4.0, 0.5, 2e-3),
        (1, 16, 1 / 3, 4, 3.0, 0.25, 4e-3),
        (1, 16, 0.3, 2, 4.0, 0.5, 2e-3),
        (2, 8, 1.0, 2, 4.0, 0.5, 3e-3),
        (2, 12, 0.25, 4, 3.0, 0.25, 3.5e-3),
    ], ids=["n1-above", "n1-at", "n1-below", "n2-above", "n2-at"])
    def test_late_rate_matches_linearisation(self, seed, dim, L, alpha, degree,
                                             t_end, every, tol):
        u0 = gb.random_body(seed, dim, L, 0.1, centrally_symmetric=True)
        res = gf.run(u0, "normalized", alpha, t_end, sample_every=every,
                     stop_residual=None)
        (t0, r0), (t1, r1) = [(r.time, r.soliton_res) for r in res.records[-2:]]
        assert abs(np.log(r0 / r1) / (t1 - t0) - linear_rate(dim, alpha, degree)) <= tol


class TestStops:
    def test_residual_stop_at_start(self):
        res = gf.run(gb.ball(circle(), 1.0), "normalized", 1.0, 5.0)
        assert res.stop_reason == "residual"
        assert len(res.samples) == 1

    def test_u_floor_stop(self):
        res = gf.run(gb.ball(circle(), 0.5), "unnormalized", 1.0, 0.2,
                     u_floor=0.3)
        assert res.stop_reason == "u_floor"
        assert res.final_state.u.values.min() <= 0.3
        assert res.final_state.time < 0.125

    def test_residual_is_checked_before_u_floor(self):
        res = gf.run(gb.ball(circle(), 0.2), "unnormalized", 1.0, 0.1,
                     stop_residual=1e-3, u_floor=0.3)
        assert res.stop_reason == "residual"
        assert res.steps == 0
        assert len(res.records) == 1

    def test_residual_stop_at_a_sample_time(self):
        u0 = gb.normalize_volume(gb.ellipse(circle(16), (1.2, 0.9)))
        res = gf.run(u0, "normalized", 1.0, 5.0, sample_every=0.05, stop_residual=1e-3)
        assert res.stop_reason == "residual"
        assert res.records[-2].soliton_res >= 1e-3 > res.records[-1].soliton_res
        assert res.records[-1].time == res.final_state.time
        assert len(res.records) == len(res.samples)

    def test_max_steps_stop(self):
        res = gf.run(gb.ball(circle(), 1.0), "unnormalized", 1.0, 0.3,
                     max_steps=5)
        assert res.stop_reason == "max_steps"

    def test_unnormalized_volume_gate_absent(self):
        # unnormalized runs accept any volume; normalized runs do not
        u = gb.ball(circle(), 1.2)
        with pytest.raises(ValueError, match="pre-normalized"):
            gf.run(u, "normalized", 1.0, 0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_failure_attaches_partial(self, monkeypatch):
        # a first guess of dt = 1 is rejected, and no rejection is allowed
        monkeypatch.setattr(gf, "SPECTRAL_FACTOR", 1e12)
        monkeypatch.setattr(gf, "MAX_REJECTIONS", 0)
        u0 = gb.ellipse(circle(), (1.4, 0.8))
        with pytest.raises(StepFailure) as exc:
            gf.run(u0, "unnormalized", 1.0, 1.0)
        assert exc.value.partial.records


class TestRecentering:
    def test_normalized_run_starts_at_steiner_point(self):
        u0 = gb.random_body(11, 1, 16, 0.08)
        zs = ge.steiner_point(u0)
        res = gf.run(u0, "normalized", 1.0, 0.005, stop_residual=None)
        assert_allclose(res.samples[0][1].basepoint, u0.basepoint + zs, atol=1e-12)

    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    def test_the_steiner_point_stays_at_the_origin(self, dim, L):
        res = gf.run(gb.random_body(11, dim, L, 0.1), "normalized", 1.0, 0.5,
                     sample_every=0.1, stop_residual=None)
        for _, u in res.samples:
            assert np.abs(ge.steiner_point(u)).max() <= 1e-14


def nonquadratic_part(u):
    """max |u^2 - x^T Q x| over the nodes for the quadrature least-squares
    fit Q: zero for an ellipsoid centred at the origin, whatever its axes."""
    x = u.grid.nodes
    d = x.shape[1]
    B = np.array([x[:, i] * x[:, j] for i in range(d) for j in range(i, d)]).T
    w = np.sqrt(u.grid.weights)
    q, *_ = np.linalg.lstsq(B * w[:, None], u.values**2 * w, rcond=None)
    return float(np.abs(u.values**2 - B @ q).max())


class TestWithoutSymmetry:
    """Normalized runs of bodies without central symmetry, whose degree-1
    (translation) mode the flow removes."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim, L, alpha, degree, t_end, every, tol", [
        (1, 16, 1.0, 2, 4.0, 0.5, 2e-3),
        (1, 16, 1 / 3, 3, 3.0, 0.25, 4e-3),
        (2, 8, 1.0, 2, 4.0, 0.5, 3e-3),
        (2, 8, 0.25, 3, 3.0, 0.25, 3.5e-3),
    ], ids=["n1-above", "n1-at", "n2-above", "n2-at"])
    def test_late_rate_matches_linearisation(self, seed, dim, L, alpha, degree,
                                             t_end, every, tol):
        # at 1/(n+2) odd shapes carry l = 3, the slowest mode after l = 2
        u0 = gb.random_body(seed, dim, L, 0.1)
        res = gf.run(u0, "normalized", alpha, t_end, sample_every=every,
                     stop_residual=None)
        (t0, r0), (t1, r1) = [(r.time, r.soliton_res) for r in res.records[-2:]]
        assert abs(np.log(r0 / r1) / (t1 - t0) - linear_rate(dim, alpha, degree)) <= tol

    @pytest.mark.parametrize("dim,L,alpha", [(1, 16, 2.0), (2, 8, 1.0)])
    def test_a_run_to_t14_ends_round(self, dim, L, alpha):
        res = gf.run(gb.random_body(0, dim, L, 0.1), "normalized", alpha, 14.0,
                     sample_every=1.0, stop_residual=None)
        assert res.stop_reason == "t_end" and res.final_state.time == pytest.approx(14.0)
        assert np.abs(res.final_state.u.values - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("dim,L,tol", [(1, 16, 1e-7), (2, 8, 1e-5)])
    def test_affine_limit_is_an_ellipsoid(self, seed, dim, L, tol):
        # alpha = 1/(n+2): the limit is an ellipsoid about the Steiner point
        u0 = gb.random_body(seed, dim, L, 0.1)
        res = gf.run(u0, "normalized", 1.0 / (dim + 2), 20.0, sample_every=0.25)
        assert res.stop_reason == "residual"
        assert nonquadratic_part(gb.support_about(u0, ge.steiner_point(u0))) >= 1e-3
        assert nonquadratic_part(res.final_state.u) <= tol


class TestWarmStartedRadii:
    # each sample's radius solves start from the previous sample's optimal
    # bases; bodies without symmetry, so the bases move between samples
    RUNS = pytest.mark.parametrize("dim, L, kind", [
        (1, 16, "normalized"), (1, 16, "unnormalized"),
        (2, 8, "normalized"), (2, 8, "unnormalized"), (2, 32, "normalized")])

    @staticmethod
    def run(dim, L, kind):
        u0 = gb.random_body(6, dim, L, 0.1)
        t_end = 0.02 if L < 32 else 7e-5
        res = gf.run(u0, kind, 1.0, t_end, sample_every=t_end / 4, stop_residual=None)
        assert len(res.records) == 5
        return res

    @RUNS
    def test_radii_equal_cold_solves(self, dim, L, kind):
        res = self.run(dim, L, kind)
        for rec, (_, u) in zip(res.records, res.samples):
            cold = gb.width_radii(u)
            assert abs(rec.rho_plus - cold.rho_plus) <= 1e-14 * max(1.0, abs(cold.rho_plus))
            assert abs(rec.rho_minus - cold.rho_minus) <= 1e-14 * max(1.0, abs(cold.rho_minus))

    @RUNS
    def test_only_the_first_sample_starts_cold(self, dim, L, kind, monkeypatch):
        calls = []
        start_basis = gb._start_basis
        monkeypatch.setattr(gb, "_start_basis",
                            lambda nodes: calls.append(1) or start_basis(nodes))
        self.run(dim, L, kind)
        assert len(calls) == 2  # one outer and one inner solve


class TestRescaledLimit:
    @pytest.mark.parametrize("alpha,t_end", [(0.5, 0.5), (2.0, 0.36)])
    def test_power_mean_about_limit_point(self, alpha, t_end):
        # the last body, dilated to unit-ball volume about the limit point
        u0 = gb.ellipse(circle(16), (1.4, 0.8))
        res = gf.run(u0, "unnormalized", alpha, t_end, sample_every=t_end / 8)
        u = res.final_state.u
        vol = gb.volume(u)
        assert gb.volume(u0) >= 2.0 * vol
        un = gb.scale(gb.support_about(u, res.records[-1].entropy_point),
                      math.sqrt(np.pi / vol))
        assert gb.volume(un) == pytest.approx(np.pi, rel=1e-10)
        m = sg.average(un.grid, un.values ** (1.0 - 1.0 / alpha))
        if alpha < 1.0:
            assert m <= 1.0 + 1e-6
        else:
            assert m >= 1.0 - 1e-6


class TestSolitonResidual:
    @pytest.mark.parametrize("dim,L", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("alpha", [1.0 / 3.0, 2.0])
    def test_ball_scale_covariance(self, dim, L, alpha):
        R = 1.7
        sr = gf.soliton_residual(gb.ball(sg.build_grid(dim, L), R), alpha)
        assert sr.residual <= 1e-12
        assert sr.lam == pytest.approx(R ** (-(1.0 + dim * alpha)), rel=1e-12)

    def test_ellipse_is_affine_soliton(self):
        u = gb.ellipse(circle(128), (2.0, 0.5))
        assert gf.soliton_residual(u, 1.0 / 3.0).residual <= 1e-8


class TestExpanding:
    def test_ball_scale_invariants_vanish(self):
        res = gf.run(gb.ball(circle(16), 1.0), "expanding", 1.0, 0.2,
                     sample_every=0.05)
        for r in res.records:
            assert abs(r.q) <= 1e-10

    def test_q_and_q_minus_j3_nonincreasing(self):
        u0 = gb.ellipse(circle(16), (1.4, 0.8))
        res = gf.run(u0, "expanding", 1.0, 0.25, sample_every=0.025)
        rec = res.records
        assert all(np.isfinite(r.q) and np.isfinite(r.j3) for r in rec)
        qs = [r.q for r in rec]
        assert all(b - a <= 1e-8 for a, b in zip(qs, qs[1:]))
        qj = [r.q - r.j3 for r in rec]
        assert all(b - a <= 1e-8 for a, b in zip(qj, qj[1:]))
        vols = [r.volume for r in rec]
        assert all(b > a for a, b in zip(vols, vols[1:]))
        # the entropy point is invariant under the expanding flow
        drift = [np.linalg.norm(r.entropy_point - rec[0].entropy_point)
                 for r in rec]
        assert max(drift) <= 1e-6

    @pytest.mark.parametrize("kind", ["expanding", "unnormalized"])
    def test_one_entropy_solve_per_sample(self, monkeypatch, kind):
        # j3's curvature image and the unnormalized limit point reuse the
        # sample's entropy point instead of solving it again
        real, calls = ge.entropy_point, []

        def counting(u, alpha):
            calls.append(alpha)
            return real(u, alpha)

        monkeypatch.setattr(ge, "entropy_point", counting)
        u0 = gb.ellipse(circle(16), (1.4, 0.8))
        res = gf.run(u0, kind, 1.0, 0.05, sample_every=0.0125)
        assert len(res.records) == 5
        assert len(calls) == len(res.records)
        if kind == "unnormalized":
            assert np.array_equal(res.records[-1].entropy_point,
                                  real(res.final_state.u, 1.0).point)
