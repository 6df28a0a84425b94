"""Plant models and controller synthesis, and the loop model as the
engine runs it: the plant step, the controller's take-in of a stale sample,
the control law and the stage cost of :class:`ncsim.engine._Plants`."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_discrete_are

from ncsim.engine import SimConfig, _Plants, run
from ncsim.errors import ConfigurationError
from ncsim.mac import SchedulerPolicy
from ncsim.systems import (PENDULUM_A, PENDULUM_B, PENDULUM_SIGMA, LtiSystem,
                           PendulumParams, dare_residual, discretize_zoh,
                           make_preset, pendulum_continuous, solve_dare)

PRESETS = ["easy", "mid", "hard", "pendulum"]


def scalar_sys(a=1.0, gain=None):
    return LtiSystem(A=[[a]], B=[[1.0]], noise_cov=[[1.0]], Q=[[100.0]],
                     R=[[1.0]], gain=gain)


# ---- construction / validation -------------------------------------------

def test_dimension_checks():
    with pytest.raises(ConfigurationError):
        LtiSystem(A=[[1.0, 0.0]], B=[[1.0]], noise_cov=[[1.0]],
                  Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ConfigurationError):
        LtiSystem(A=[[1.0]], B=[[1.0], [1.0]], noise_cov=[[1.0]],
                  Q=[[1.0]], R=[[1.0]])


def test_noise_cov_must_be_diagonal_psd():
    with pytest.raises(ConfigurationError):
        LtiSystem(A=np.eye(2), B=np.eye(2), noise_cov=[[1.0, 0.5], [0.5, 1.0]],
                  Q=np.eye(2), R=np.eye(2))
    with pytest.raises(ConfigurationError):
        LtiSystem(A=[[1.0]], B=[[1.0]], noise_cov=[[-1.0]],
                  Q=[[1.0]], R=[[1.0]])


def test_r_must_be_positive_definite():
    with pytest.raises(ConfigurationError):
        LtiSystem(A=[[1.0]], B=[[1.0]], noise_cov=[[1.0]], Q=[[1.0]],
                  R=[[0.0]])


def test_pendulum_params_positive():
    with pytest.raises(ConfigurationError):
        PendulumParams(cart_mass=0.0)


def one_loop(sys, steps=3):
    """A one-row stack of ``sys`` without process noise."""
    plants = _Plants([sys], np.zeros(1, np.int64), np.zeros(1, np.int64),
                     steps)
    plants.noise = np.zeros((steps + 1, 1, sys.n, 1))
    return plants


def col(v):
    """A one-row stack of the column ``v``."""
    return np.reshape(np.asarray(v, float), (1, -1, 1))


def rollout(sys, x, inputs):
    """x carried through noiseless plant steps A x + B u, on 1-D arrays."""
    for u in inputs:
        x = sys.A @ x + sys.B @ u
    return x


def replay(sys, x, inputs):
    """The engine's estimate ``len(inputs)`` steps after the sample x."""
    plants = one_loop(sys, steps=len(inputs))
    plants.X[0] = col(x)
    plants.U[:len(inputs)] = np.reshape(inputs, (len(inputs), 1, sys.m, 1))
    plants.receive(np.zeros(1, np.int64), len(inputs), len(inputs) + 1)
    return plants.xhat[0, :, 0]


def control(sys, xhat):
    plants = one_loop(sys)
    return plants.control(col(xhat), np.empty((1, sys.m, 1)))[0, :, 0]


def stage_cost(sys, x, u):
    return float(one_loop(sys).cost(col(x), col(u))[0, 0, 0])


# ---- the plant step: _Plants.tick -----------------------------------------

def test_step_plant_cancellation():
    # Gain 1 at the estimate 2 applies u = -2, which cancels x = 2.
    plants = one_loop(scalar_sys(1.0, gain=[[1.0]]))
    plants.X[1], plants.xhat = col([2.0]), col([2.0])
    plants.tick(1)
    assert plants.U[1, 0, 0, 0] == -2.0
    assert plants.X[2, 0, 0, 0] == 0.0


def test_step_plant_autonomous_growth():
    plants = one_loop(scalar_sys(1.2))
    plants.X[1] = col([1.0])
    plants.tick(1)
    assert plants.X[2, 0, 0, 0] == pytest.approx(1.2)


def test_step_plant_equilibrium():
    plants = one_loop(make_preset("pendulum"))
    for t in (1, 2, 3):
        plants.tick(t)
    assert np.all(plants.X == 0.0) and np.all(plants.U == 0.0)


# ---- the controller's estimate: _Plants.receive ---------------------------

def test_estimate_single_addend():
    assert replay(scalar_sys(1.0), [3.0], [[1.0]]) == pytest.approx([4.0])


def test_estimate_two_steps_autonomous():
    got = replay(scalar_sys(1.2), [1.0], [[0.0], [0.0]])
    assert got == pytest.approx([1.44])


def test_estimate_matches_noiseless_rollout():
    sys = make_preset("pendulum")
    rng = np.random.default_rng(1)
    x = rng.normal(size=4)
    us = [rng.normal(size=1) for _ in range(3)]
    np.testing.assert_allclose(replay(sys, x, us), rollout(sys, x, us),
                               rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=1, max_value=20),
       cls=st.sampled_from(PRESETS), seed=st.integers(0, 10**6))
def test_noiseless_roundtrip_property(k, cls, seed):
    """The estimator replays exactly k noiseless plant steps."""
    sys = make_preset(cls)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=sys.n)
    us = [rng.normal(size=sys.m) for _ in range(k)]
    np.testing.assert_allclose(replay(sys, x, us), rollout(sys, x, us),
                               rtol=1e-9, atol=1e-12)


def test_estimator_error_is_zero_mean():
    """Averaged over noise, truth minus estimate vanishes (4 SE bound)."""
    for cls in ("hard", "pendulum"):
        sys = make_preset(cls)
        delta, n_draws = 5, 100_000
        rng = np.random.default_rng(7)
        # e = sum_d A^{d-1} w[t-d]; simulate the noise accumulation directly.
        errs = np.zeros((n_draws, sys.n))
        Ak = np.eye(sys.n)
        for _ in range(delta):
            w = rng.normal(size=(n_draws, sys.n)) * sys.noise_std
            errs += w @ Ak.T
            Ak = sys.A @ Ak
        mean = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / np.sqrt(n_draws)
        assert np.all(np.abs(mean) <= 4 * np.maximum(se, 1e-300))


# ---- _Plants.control / _Plants.cost -----------------------------------------

def test_control_zero_estimate():
    sys = scalar_sys(gain=[[0.9]])
    assert control(sys, [0.0]) == pytest.approx([0.0])


def test_control_scalar_product():
    sys = scalar_sys(gain=[[0.9]])
    assert control(sys, [2.0]) == pytest.approx([-1.8])


def test_control_unit_cart_offset():
    sys = make_preset("pendulum")
    got = control(sys, np.eye(4)[0])
    np.testing.assert_allclose(got, -sys.gain[:, 0])


def test_control_of_gainless_loops():
    """A gainless loop runs open loop.  Beside a gained pendulum in its
    stack, a gainless one applies u = 0, also to an infinite estimate; a
    one-state loop computes (-0) x-hat, which is -0 for a finite estimate
    and nan for an infinite one (the diverging golden cases rely on it).
    Runs ignore invalid operations, and so does this test."""
    gained = make_preset("pendulum")
    free = LtiSystem(A=PENDULUM_A, B=PENDULUM_B, noise_cov=PENDULUM_SIGMA,
                     Q=np.eye(4), R=[[1.0]])
    plants = _Plants([gained, free], np.arange(2), np.arange(2), 1)
    xhat = np.stack([np.eye(4)[:, :1], np.full((4, 1), np.inf)])
    with np.errstate(invalid="ignore"):
        u = plants.control(xhat, np.empty((2, 1, 1)))
        scalar_inf = control(scalar_sys(1.2), [np.inf])
    np.testing.assert_array_equal(u[:, :, 0], [-gained.gain[:, 0], [0.0]])
    assert np.isnan(scalar_inf).all()
    u = control(scalar_sys(1.2), [2.0])
    assert u[0] == 0.0 and np.signbit(u[0])


def test_stage_cost_examples():
    sys = scalar_sys()
    assert stage_cost(sys, [2.0], [1.0]) == pytest.approx(401.0)
    assert stage_cost(sys, [0.0], [0.0]) == 0.0
    ip = make_preset("pendulum")
    assert stage_cost(ip, [0.1, 0.0, 0.05, 0.0], [0.0]) == pytest.approx(50.25)
    # R = 1 adds u'Ru = 4.
    assert stage_cost(ip, [0.1, 0.0, 0.05, 0.0], [2.0]) == pytest.approx(54.25)


# ---- solve_dare ----------------------------------------------------------

@pytest.mark.parametrize("cls", PRESETS)
def test_dare_matches_scipy(cls):
    """Independent oracle: scipy's direct Riccati solver."""
    sys = make_preset(cls)
    sol = solve_dare(sys)
    P_ref = solve_discrete_are(sys.A, sys.B, sys.Q, sys.R)
    np.testing.assert_allclose(sol.P, P_ref, rtol=1e-6, atol=1e-9)
    L_ref = np.linalg.solve(sys.R + sys.B.T @ P_ref @ sys.B,
                            sys.B.T @ P_ref @ sys.A)
    np.testing.assert_allclose(sol.gain, L_ref, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("cls", PRESETS)
def test_dare_residual_and_stability(cls):
    sys = make_preset(cls)
    sol = solve_dare(sys)
    assert dare_residual(sys, sol.P) < 1e-8
    rho = np.max(np.abs(np.linalg.eigvals(sys.A - sys.B @ sol.gain)))
    assert rho < 1.0


def test_dare_zero_cost_limit():
    sys = LtiSystem(A=[[0.5]], B=[[1.0]], noise_cov=[[1.0]], Q=[[0.0]],
                    R=[[1.0]])
    sol = solve_dare(sys)
    np.testing.assert_allclose(sol.P, 0.0, atol=1e-9)
    np.testing.assert_allclose(sol.gain, 0.0, atol=1e-9)


def test_dare_scalar_reference_case():
    sys = scalar_sys(1.0)
    sol = solve_dare(sys)
    assert abs(1.0 - sol.gain[0, 0]) < 1.0
    assert dare_residual(sys, sol.P) < 1e-8


# ---- discretize_zoh ------------------------------------------------------

def test_zoh_zero_dynamics():
    B0 = np.array([[1.0], [2.0]])
    A, B = discretize_zoh(np.zeros((2, 2)), B0, 0.5)
    np.testing.assert_allclose(A, np.eye(2))
    np.testing.assert_allclose(B, 0.5 * B0)


def test_zoh_scalar_exponential():
    A, B = discretize_zoh([[-2.0]], [[0.0]], 0.25)
    assert A[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_zoh_rejects_bad_period():
    with pytest.raises(ConfigurationError):
        discretize_zoh([[0.0]], [[1.0]], 0.0)


def test_pendulum_continuous_shape():
    A_c, B_c = pendulum_continuous()
    assert A_c.shape == (4, 4) and B_c.shape == (4, 1)
    # Position/angle rows are pure integrators of their velocities.
    np.testing.assert_allclose(A_c[0], [0, 1, 0, 0])
    np.testing.assert_allclose(A_c[2], [0, 0, 0, 1])


# ---- presets -------------------------------------------------------------

def test_preset_scalar_classes():
    assert make_preset("easy").A[0, 0] == 1.0
    assert make_preset("hard").A[0, 0] == 1.2


def test_preset_pendulum_noise_entry():
    assert make_preset("pendulum").noise_cov[2, 2] == pytest.approx(2.742e-5)


def test_preset_unknown_class():
    with pytest.raises(ConfigurationError):
        make_preset("impossible")


@pytest.mark.parametrize("cls", PRESETS)
def test_ideal_channel_cost_bounded(cls):
    """With one-period-old information the closed loop never diverges: a
    lone loop under round-robin on the ideal channel is served every
    slot."""
    res = run(SimConfig(systems=[make_preset(cls)],
                        policy=SchedulerPolicy("round_robin"),
                        duration_s=20.0, seed=3))
    network = res["metrics"]["network"]
    assert not network["any_diverged"]
    assert np.isfinite(network["lqg_mean"])
