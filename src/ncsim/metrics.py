"""Estimation-error metrics as functions of information age, plus the
reducer that turns one replication's window sums into windowed means.

The mean squared estimation error of a loop whose freshest sample is
``delta`` periods old has the closed form

    MSE(delta) = sum_{d=1..delta} tr((A')^{d-1} A^{d-1} Sigma)

and its normalized variant divides by the one-period value, making loops
with different state dimensions and units comparable.  A batch of runs'
one :class:`MseTable` grows the MSE law on demand for each of its plants,
only as far as that plant's own loops ask, and stacks the curves so that the
engine and the schedulers read every loop's error with one gather; the
nMSE is that gather divided by each loop's one-period value.  A
one-state plant's curve grows by two array scans per extension, a larger
plant's one age at a time, both with the operations of :func:`mse_of_age`.
:class:`MetricsAccumulator` reduces one replication: it takes the
per-loop window sums of age, error and cost and the window's transmission
and reception counts, which the engine keeps, and returns the windowed
means, delivery ratios and per-class shares.
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
    """MSE(age) of every loop's plant, grown on demand, and the nMSE read
    from it.

    Loops that share a system object share its plant: ``plants`` holds
    the distinct systems and ``plant[k]`` is loop k's.  Each plant's
    curve follows the recurrence of :func:`mse_of_age`, only as far as its
    own loops ask (``depth``); after the first overflow every value is
    +inf.  A one-state plant's extension is two scans over all its new
    ages (:meth:`_scan`), a larger plant's is one step per age.  The
    curves are stacked so that one gather reads every loop's error; a
    loop's nMSE is that value divided by its MSE at age one, as in
    :func:`nmse_of_age`.
    """

    def __init__(self, systems: list[LtiSystem]):
        row = {}                           # id(system) -> plant index
        self.plants = []
        for sys in systems:
            if id(sys) not in row:
                row[id(sys)] = len(self.plants)
                self.plants.append(sys)
        self.plant = np.array([row[id(sys)] for sys in systems])
        base = np.array([float(np.trace(s.noise_cov)) for s in self.plants])
        if (base <= 0).any():
            raise ConfigurationError(
                "nMSE undefined: noise covariance has zero trace")
        self._base = base[self.plant]      # each loop's MSE at age one
        self._G = [np.eye(s.n) for s in self.plants]  # next (A')^a A^a
        # The MSE of plant p at age a is _mse[p, a] for a up to depth[p];
        # later columns are storage not yet computed.  Gathers index the
        # flattened rows, loop k's starting at _row[k].
        self.depth = np.zeros(len(self.plants), np.int64)
        self._reach = self.depth[self.plant]                  # per loop
        self._mse = np.zeros((len(self.plants), 16))
        self._row = self.plant * 16

    def grow(self, ages: np.ndarray):
        """Compute each plant's curve through the oldest of its own loops'
        ``ages`` (last axis over the loops), if it stops short of it.
        Storage widens by doubling, so each age is stacked once."""
        if not (ages > self._reach).any():
            return
        need = np.zeros(len(self.plants), np.int64)
        np.maximum.at(need, self.plant,
                      ages.reshape(-1, len(self.plant)).max(axis=0))
        width = self._mse.shape[1]
        if need.max() >= width:
            wider = np.zeros((len(self.plants),
                              max(2 * width, int(need.max()) + 1)))
            wider[:, :width] = self._mse
            self._mse = wider
            self._row = self.plant * wider.shape[1]
        # Overflow is expected: it starts the +inf tail.
        with np.errstate(over="ignore", invalid="ignore"):
            for p in np.flatnonzero(need > self.depth).tolist():
                self._extend(p, int(need[p]))
        self._reach = self.depth[self.plant]

    def _extend(self, p: int, hi: int):
        sys = self.plants[p]
        lo = int(self.depth[p]) + 1
        if sys.n == 1:
            self._scan(p, lo, hi)
        else:
            mse = self._mse[p]
            G, total = self._G[p], float(mse[lo - 1])
            for a in range(lo, hi + 1):
                # Once overflowed the tail is +inf; G is left alone, since
                # its inf entries would breed nans against zeros in A.
                if math.isfinite(total):
                    total += float(np.trace(G @ sys.noise_cov))
                    G = sys.A.T @ G @ sys.A
                    if not math.isfinite(total):
                        total = math.inf
                mse[a] = total
            self._G[p] = G
        self.depth[p] = hi

    def _scan(self, p: int, lo: int, hi: int):
        """Ages lo..hi of a one-state plant by two scans that multiply and
        add in the recurrence's order, so every value keeps its bits: the
        1x1 product (A' G) A is (g * a) * a, and the MSE is the running
        total of g * sigma.  An overflow carries through both scans as
        +inf (a is finite, and g is 0 for good once a is 0), so the tail
        after it is +inf, never nan, as in :func:`mse_of_age`."""
        sys, k = self.plants[p], hi - lo + 1
        # Every second partial product of g, a, a, ... is the next G.
        factors = np.full(2 * k + 1, sys.A.item())
        factors[0] = self._G[p].item()
        G = np.multiply.accumulate(factors)[::2]
        terms = np.empty(k + 1)
        terms[0] = self._mse[p, lo - 1]
        np.multiply(G[:-1], sys.noise_cov.item(), out=terms[1:])
        np.add.accumulate(terms, out=self._mse[p, lo - 1:hi + 1])
        self._G[p][0, 0] = G[-1]

    def errors(self, ages: np.ndarray, use_nmse: bool) -> np.ndarray:
        """Each loop's nMSE (or MSE) at its entry of ``ages``, whose last
        axis runs over the loops."""
        self.grow(ages)
        mse = self._mse.reshape(-1)[self._row + ages]
        return np.divide(mse, self._base, out=mse) if use_nmse else mse

    def error(self, k: int, age: int, use_nmse: bool) -> float:
        """Loop k's entry of :meth:`errors` at ``age``, read alone: the
        same value and the same division."""
        if age > self._reach[k]:
            ages = np.zeros(len(self.plant), np.int64)
            ages[k] = age
            self.grow(ages)
        mse = self._mse.item(self._row[k] + age)
        return mse / self._base.item(k) if use_nmse else mse

    def mse_and_nmse(self, ages: np.ndarray) -> tuple:
        """Each loop's MSE and nMSE at its entry of ``ages``: one growth
        check and one gather for both."""
        mse = self.errors(ages, use_nmse=False)
        return mse, mse / self._base


class MetricsAccumulator:
    """Reduces one replication of ``n_loops`` loops to its windowed
    per-loop and network-wide means, delivery ratios and per-class shares.

    The run counts each loop's window transmissions and receptions and
    sums its age, error and cost over the window's steps
    ``t_start..t_end``; this class only divides and gathers them.
    ``classes[k]`` is loop k's label for the per-class shares.  The name
    is older than the reduction: it stays because the benchmark's tracer
    looks the class up by it.
    """

    def __init__(self, n_loops: int, t_start: int, t_end: int,
                 classes: list[str]):
        self.n_loops = n_loops
        self.t_start = t_start
        self.t_end = t_end
        self.classes = classes
        # Each class's loops, found once for every replication reduced.
        first = {cls: i for i, cls in enumerate(dict.fromkeys(classes))}
        index = np.array(list(map(first.__getitem__, classes)), np.int64)
        self._members = {cls: index == i for cls, i in first.items()}

    def finalize(self, aoi, mse, nmse, cost, tx, rx, diverged) -> dict:
        """The means, delivery ratios and per-class shares of successful
        deliveries, from each loop's age, MSE, nMSE and stage cost summed
        over the window's steps, its window transmissions and receptions,
        and whether it diverged (None where the run did not check, which
        the result repeats).  The counts and flags are copied, so a
        result never shares memory with the run."""
        steps = self.t_end - self.t_start + 1
        tx, rx = tx.copy(), rx.copy()
        diverged = None if diverged is None else diverged.copy()
        per_loop = {
            "aoi_mean": aoi / steps,
            "mse_mean": mse / steps,
            "nmse_mean": nmse / steps,
            "lqg_mean": cost / steps,
            "tx": tx,
            "rx": rx,
            "delivery_ratio": np.divide(
                rx, tx, out=np.zeros(self.n_loops), where=tx > 0),
            "diverged": diverged,
        }
        total_rx = int(rx.sum())
        fractions = {cls: (rx[mask].sum() / total_rx) if total_rx else 0.0
                     for cls, mask in self._members.items()}
        network = {
            "aoi_mean": float(np.mean(per_loop["aoi_mean"])),
            "mse_mean": float(np.mean(per_loop["mse_mean"])),
            "nmse_mean": float(np.mean(per_loop["nmse_mean"])),
            "lqg_mean": float(np.mean(per_loop["lqg_mean"])),
            "any_diverged": (None if diverged is None
                             else bool(diverged.any())),
        }
        return {
            "per_loop": per_loop,
            "network": network,
            "fractions": fractions,
            "loop_classes": self.classes,
            "samples_per_loop": np.full(self.n_loops, steps),
            "expected_samples": steps,
        }
