"""Linear plant models and LQR controller synthesis.

All plants are discrete-time LTI systems

    x[t+1] = A x[t] + B u[t] + w[t],      w ~ N(0, Sigma)

driven at a fixed sampling period, each with a static feedback gain from
the infinite-horizon LQR problem.  This module says what a plant is: its
model, the synthesis of its gain and the shipped presets.  How the loops
run, a controller's estimate from a stale sample, its control law and
the stage cost, is the engine's (:mod:`ncsim.engine`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SynthesisError

__all__ = [
    "LtiSystem",
    "DareSolution",
    "PendulumParams",
    "solve_dare",
    "discretize_zoh",
    "pendulum_continuous",
    "make_preset",
    "PRESET_CLASSES",
    "PENDULUM_A",
    "PENDULUM_B",
    "PENDULUM_SIGMA",
]


def _as_matrix(M, rows, cols, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (rows, cols):
        raise ConfigurationError(f"{name} must be {rows}x{cols}, got {M.shape}")
    return M


@dataclass
class LtiSystem:
    """Immutable description of one plant/controller pair.

    ``gain`` is filled in by :func:`solve_dare` (via :func:`make_preset` for
    the shipped presets).  A loop without one runs open loop: the engine
    applies u = 0, or (-0) x-hat to a one-state loop, which is nan once
    the estimate is infinite.
    """

    A: np.ndarray
    B: np.ndarray
    noise_cov: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    gain: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        if self.B.shape[0] != n:
            raise ConfigurationError(
                f"B has {self.B.shape[0]} rows, expected {n}")
        m = self.B.shape[1]
        self.noise_cov = _as_matrix(self.noise_cov, n, n, "noise_cov")
        self.Q = _as_matrix(self.Q, n, n, "Q")
        self.R = _as_matrix(self.R, m, m, "R")
        for M, label in ((self.noise_cov, "noise_cov"), (self.Q, "Q"), (self.R, "R")):
            if not np.allclose(M, M.T):
                raise ConfigurationError(f"{label} must be symmetric")
        if np.any(np.diag(self.noise_cov) < 0):
            raise ConfigurationError("noise_cov must be positive semi-definite")
        if np.any(self.noise_cov - np.diag(np.diag(self.noise_cov))):
            raise ConfigurationError("noise_cov must be diagonal")
        if np.any(np.linalg.eigvalsh(self.R) <= 0):
            raise ConfigurationError("R must be positive definite")
        if np.any(np.linalg.eigvalsh(self.Q) < -1e-12):
            raise ConfigurationError("Q must be positive semi-definite")
        if self.gain is not None:
            self.gain = _as_matrix(self.gain, m, n, "gain")
        self._noise_std = np.sqrt(np.diag(self.noise_cov))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def noise_std(self) -> np.ndarray:
        """Per-component standard deviations (noise_cov is diagonal)."""
        return self._noise_std


@dataclass(frozen=True)
class DareSolution:
    """Cost-to-go matrix and feedback gain."""

    P: np.ndarray
    gain: np.ndarray


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of a pendulum-on-cart plant."""

    cart_mass: float = 0.5        # kg
    pend_mass: float = 0.2        # kg
    friction: float = 0.1         # N/m/s
    length: float = 0.3           # m, pivot to center of mass
    inertia: float = 0.006        # kg m^2
    gravity: float = 9.81         # m/s^2

    def __post_init__(self):
        for f in ("cart_mass", "pend_mass", "friction", "length", "inertia", "gravity"):
            if getattr(self, f) <= 0:
                raise ConfigurationError(f"{f} must be strictly positive")


# Convergence tolerance on the max-abs change of P, and the iteration cap.
_DARE_TOL = 1e-10
_DARE_MAX_ITER = 10**6


def solve_dare(sys: LtiSystem) -> DareSolution:
    """Solve the discrete algebraic Riccati equation by fixed-point iteration.

    Iterates the Riccati recursion from P = Q until the max-abs element
    change drops below ``_DARE_TOL``, then forms the feedback gain and
    verifies that the closed loop is strictly stable.
    """
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    P = Q.copy()
    for _ in range(_DARE_MAX_ITER):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP)
        P_next = Q + A.T @ (P - P @ B @ K) @ A
        change = float(np.max(np.abs(P_next - P)))
        P = P_next
        if change < _DARE_TOL:
            break
    else:
        raise SynthesisError(
            f"Riccati iteration for system {sys.name!r} did not converge "
            f"within {_DARE_MAX_ITER} iterations")
    P = 0.5 * (P + P.T)
    BtP = B.T @ P
    gain = np.linalg.solve(R + BtP @ B, BtP @ A)
    rho = float(np.max(np.abs(np.linalg.eigvals(A - B @ gain))))
    if rho >= 1.0:
        raise SynthesisError(
            f"closed loop for system {sys.name!r} is unstable "
            f"(spectral radius {rho:.6f})")
    return DareSolution(P=P, gain=gain)


def dare_residual(sys: LtiSystem, P: np.ndarray) -> float:
    """Max-abs residual of P in the Riccati equation."""
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    BtP = B.T @ P
    rhs = Q + A.T @ (P - P @ B @ np.linalg.solve(R + BtP @ B, BtP)) @ A
    return float(np.max(np.abs(P - rhs)))


def discretize_zoh(A_c, B_c, T_s: float):
    """Zero-order-hold discretization of a continuous-time system.

    Exponentiates the (n+m)-square augmented block matrix [[A_c, B_c], [0, 0]]
    scaled by the period; the discrete A and B are the top blocks.
    """
    from scipy.linalg import expm

    if T_s <= 0:
        raise ConfigurationError("T_s must be positive")
    A_c = np.atleast_2d(np.asarray(A_c, dtype=float))
    B_c = np.asarray(B_c, dtype=float)
    if B_c.ndim == 1:
        B_c = B_c[:, None]
    n, m = A_c.shape[0], B_c.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A_c
    blk[:n, n:] = B_c
    E = expm(blk * T_s)
    if not np.all(np.isfinite(E)):
        raise FloatingPointError("matrix exponential produced non-finite entries")
    return E[:n, :n], E[:n, n:]


def pendulum_continuous(params: PendulumParams = PendulumParams()):
    """Continuous-time linearization of the pendulum-on-cart around upright.

    Obtained from the coupled equations of motion

        (I + m l^2) phidd - m g l phi = m l xidd
        (M + m) xidd + b xid - m l phidd = u

    by algebraic elimination of the accelerations, for the state
    [xi, xid, phi, phid].
    """
    M, m = params.cart_mass, params.pend_mass
    b, l = params.friction, params.length
    I, g = params.inertia, params.gravity
    p = I * (M + m) + M * m * l * l
    A_c = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -(I + m * l * l) * b / p, (m * l) ** 2 * g / p, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, -m * l * b / p, m * g * l * (M + m) / p, 0.0],
    ])
    B_c = np.array([[0.0], [(I + m * l * l) / p], [0.0], [m * l / p]])
    return A_c, B_c


# Published sampled (100 Hz) cart-pole matrices, used as given by the pendulum
# preset.  They are not the zero-order-hold equivalent of PendulumParams():
# discretize_zoh(*pendulum_continuous(), 0.01) misses six entries of A by more
# than 1e-4, and no parameter set of that model comes within 1e-4 of them.
# State order: [xi, xid, phi, phid].
PENDULUM_A = np.array([
    [1.0, 0.01, 0.0001, 0.0],
    [0.0, 0.9983, 0.0191, 0.0001],
    [0.0, 0.0, 1.0017, 0.01],
    [0.0, -0.0049, 0.3351, 1.0017],
])
PENDULUM_B = np.array([[0.0001], [0.0182], [0.0002], [0.0454]])
PENDULUM_SIGMA = np.diag([6.4e-7, 4.9e-7, 2.742e-5, 4.874e-5])

_SCALAR_A = {"easy": 1.0, "mid": 1.1, "hard": 1.2}
PRESET_CLASSES = ("easy", "mid", "hard", "pendulum")


def make_preset(class_id: str) -> LtiSystem:
    """Build one of the shipped loop classes with its gain synthesized.

    Scalar classes: A in {1.0, 1.1, 1.2}, B = Sigma = 1, Q = 100, R = 1.
    ``pendulum``: the 4-state cart-pole with Q = diag(5000, 0, 100, 0), R = 1.
    """
    if class_id in _SCALAR_A:
        sys = LtiSystem(
            A=[[_SCALAR_A[class_id]]], B=[[1.0]], noise_cov=[[1.0]],
            Q=[[100.0]], R=[[1.0]], name=class_id)
    elif class_id == "pendulum":
        sys = LtiSystem(
            A=PENDULUM_A, B=PENDULUM_B, noise_cov=PENDULUM_SIGMA,
            Q=np.diag([5000.0, 0.0, 100.0, 0.0]), R=[[1.0]], name="pendulum")
    else:
        raise ConfigurationError(
            f"unknown class {class_id!r}; expected one of {PRESET_CLASSES}")
    sys.gain = solve_dare(sys).gain
    return sys
