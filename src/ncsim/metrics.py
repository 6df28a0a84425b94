"""Estimation-error metrics as functions of information age, plus the
per-run accumulator that turns a run's window sums into windowed means.

The mean squared estimation error of a loop whose freshest sample is
``delta`` periods old has the closed form

    MSE(delta) = sum_{d=1..delta} tr((A')^{d-1} A^{d-1} Sigma)

and its normalized variant divides by the one-period value, making loops
with different state dimensions and units comparable.  :class:`MseTable`
grows both laws on demand for one plant; the gateway stacks the curves of
its plants, and the engine and the schedulers read them with one gather
for all loops.  :class:`MetricsAccumulator` counts transmissions and
receptions in the window and takes the window's per-loop sums of age,
error and cost in one call once the run ends.
"""
from __future__ import annotations

import math
import numpy as np

from .errors import ConfigurationError
from .systems import LtiSystem

__all__ = [
    "mse_of_age",
    "nmse_of_age",
    "error_covariance",
    "MseTable",
    "MetricsAccumulator",
]


def mse_of_age(sys: LtiSystem, delta: int) -> float:
    """Closed-form mean squared estimation error at age ``delta``.

    Returns 0 for delta = 0.  Overflow for extreme ages of unstable
    systems is reported as +inf.
    """
    if delta < 0:
        raise ConfigurationError("age must be non-negative")
    A, sigma = sys.A, sys.noise_cov
    G = np.eye(sys.n)  # (A')^{d-1} A^{d-1}
    total = 0.0
    for _ in range(delta):
        total += float(np.trace(G @ sigma))
        G = A.T @ G @ A
        if not np.isfinite(total):
            return math.inf
    return total


def error_covariance(sys: LtiSystem, delta: int) -> np.ndarray:
    """Covariance of the estimation error at age ``delta`` (delta >= 1):
    sum of A^{d-1} Sigma (A^{d-1})' over d = 1..delta."""
    if delta < 1:
        raise ConfigurationError("error_covariance needs age >= 1")
    A, sigma = sys.A, sys.noise_cov
    Ak = np.eye(sys.n)
    total = np.zeros((sys.n, sys.n))
    for _ in range(delta):
        total += Ak @ sigma @ Ak.T
        Ak = A @ Ak
    return total


def nmse_of_age(sys: LtiSystem, delta: int) -> float:
    """MSE at age ``delta`` divided by the MSE at age 1."""
    base = float(np.trace(sys.noise_cov))
    if base <= 0:
        raise ConfigurationError(
            "nMSE undefined: noise covariance has zero trace")
    return mse_of_age(sys, delta) / base


class MseTable:
    """MSE(age) and nMSE(age) for one system, grown on demand.

    Values are computed one age at a time by the recurrence of
    :func:`mse_of_age` and cached up to the largest age requested; after
    the first overflow every value is +inf.
    """

    def __init__(self, sys: LtiSystem):
        self.sys = sys
        self._base = float(np.trace(sys.noise_cov))
        if self._base <= 0:
            raise ConfigurationError(
                "nMSE undefined: noise covariance has zero trace")
        self._mse = [0.0]  # index = age
        self._G = np.eye(sys.n)

    def mse(self, delta: int) -> float:
        # Overflow is expected: it starts the +inf tail.
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self._mse) <= delta:
                if not math.isfinite(self._mse[-1]):
                    # Once overflowed the tail is +inf; stop touching _G,
                    # whose inf entries would otherwise breed nans against
                    # zeros in A.
                    self._mse.append(math.inf)
                    continue
                step = float(np.trace(self._G @ self.sys.noise_cov))
                total = self._mse[-1] + step
                self._mse.append(total if math.isfinite(total) else math.inf)
                self._G = self.sys.A.T @ self._G @ self.sys.A
        return self._mse[delta]

    def nmse(self, delta: int) -> float:
        return self.mse(delta) / self._base

    def curves(self, depth: int,
               start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`mse` and :meth:`nmse` of ages start..depth as float64
        arrays."""
        self.mse(depth)
        mse = np.array(self._mse[start:depth + 1])
        return mse, mse / self._base


class MetricsAccumulator:
    """Windowed per-loop and network-wide means of age, error and cost.

    Only steps t with ``t_start <= t <= t_end`` contribute.  Transmission
    and reception counters are gated by the same window so that resource
    fractions describe the evaluated interval.
    """

    def __init__(self, n_loops: int, t_start: int, t_end: int,
                 classes: list[str] | None = None):
        if t_end < t_start:
            raise ConfigurationError("empty evaluation window")
        self.n_loops = n_loops
        self.t_start = t_start
        self.t_end = t_end
        self.classes = classes or ["?"] * n_loops
        self.tx = np.zeros(n_loops, np.int64)
        self.rx = np.zeros(n_loops, np.int64)
        self.diverged = np.zeros(n_loops, dtype=bool)

    def record_tx(self, loop, t: int):
        """Count a transmission of ``loop`` (an index or distinct indices)."""
        if self.t_start <= t <= self.t_end:
            self.tx[loop] += 1

    def record_rx(self, loop, t: int):
        if self.t_start <= t <= self.t_end:
            self.rx[loop] += 1

    def flag_diverged(self, loop):
        self.diverged[loop] = True

    def finalize(self, aoi, mse, nmse, cost) -> dict:
        """Per-loop and network-wide means, delivery ratios and per-class
        shares of successful deliveries, from each loop's age, MSE, nMSE
        and stage cost summed over the window's steps."""
        steps = self.t_end - self.t_start + 1
        tx, rx = self.tx.copy(), self.rx.copy()
        per_loop = {
            "aoi_mean": aoi / steps,
            "mse_mean": mse / steps,
            "nmse_mean": nmse / steps,
            "lqg_mean": cost / steps,
            "tx": tx,
            "rx": rx,
            "delivery_ratio": np.divide(
                rx, tx, out=np.zeros(self.n_loops), where=tx > 0),
            "diverged": self.diverged.copy(),
        }
        total_rx = int(rx.sum())
        fractions = {}
        for cls in dict.fromkeys(self.classes):
            mask = np.array([k == cls for k in self.classes])
            fractions[cls] = (rx[mask].sum() / total_rx) if total_rx else 0.0
        network = {
            "aoi_mean": float(np.mean(per_loop["aoi_mean"])),
            "mse_mean": float(np.mean(per_loop["mse_mean"])),
            "nmse_mean": float(np.mean(per_loop["nmse_mean"])),
            "lqg_mean": float(np.mean(per_loop["lqg_mean"])),
            "any_diverged": bool(self.diverged.any()),
        }
        return {
            "per_loop": per_loop,
            "network": network,
            "fractions": fractions,
            "loop_classes": self.classes,
            "samples_per_loop": np.full(self.n_loops, steps),
            "expected_samples": steps,
        }
