"""Medium-access policies and what the gateway knows about the loops.

Three contention-based rules run at the sources (pure ALOHA, slotted
ALOHA, and the age-threshold variant) and four contention-free schedulers
run at the gateway: round-robin, beacon-framed max-error-first (MEF), and
two polling schedulers — WiFresh (reliability x age) and pMEF
(reliability x normalized estimation error).  MEF, WiFresh and pMEF pick
by one numpy argmax over the :class:`Gateway`'s arrays; the first
maximum wins, so ties go to the lowest loop index.  Loops are named by
their index k = 0..N-1 throughout: every scheduler returns indices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .metrics import MseTable
from .systems import LtiSystem

__all__ = [
    "Gateway",
    "rr_next",
    "mef_build_schedule",
    "wifresh_next",
    "pmef_next",
    "SchedulerPolicy",
    "CONTENTION_PROTOCOLS",
    "SCHEDULED_PROTOCOLS",
    "POLLING_PROTOCOLS",
]

RELIABILITY_WINDOW_S = 0.5


class Gateway:
    """What the gateway knows about the loops, as arrays over their
    indices k.

    The engine writes the age estimates ``est_age`` every tick.  Polls and
    polled replies of the last ``RELIABILITY_WINDOW_S``, counted per loop in
    ``polls`` and ``datas``, give the reliability (RX + 1) / (TX + 1).
    Their times never decrease, so one time-ordered deque, trimmed at each
    poll, leaves every loop the counts that trimming its own history
    would.  Each distinct plant has one MSE table (``plants``), grown only
    as far as its own loops ask; the curves are stacked so that one gather
    reads every loop's error.
    """

    def __init__(self, systems: list[LtiSystem]):
        n = len(systems)
        self.est_age = np.ones(n, np.int64)
        self.polls, self.datas = [0] * n, [0] * n
        self._rel = np.ones(n)             # (datas + 1) / (polls + 1)
        self._window = deque()             # (time, k, polls or datas)
        row = {}                           # id(system) -> plant index
        self.plants = []
        for sys in systems:
            if id(sys) not in row:
                row[id(sys)] = len(self.plants)
                self.plants.append(MseTable(sys))
        self.plant = np.array([row[id(sys)] for sys in systems])
        # MSE and nMSE of plant p at age a are _curves[:, p, a] for a up to
        # depth[p]; later columns are storage not yet computed.  Gathers
        # index the flattened rows, loop k's starting at _row[k].
        self.depth = np.zeros(len(self.plants), np.int64)
        self._reach = self.depth[self.plant]                  # per loop
        self._curves = np.zeros((2, len(self.plants), 16))
        self._row = self.plant * 16

    def _count(self, counts: list[int], k: int, step: int):
        counts[k] += step
        self._rel[k] = (self.datas[k] + 1) / (self.polls[k] + 1)

    def record_poll(self, k: int, now: float):
        self._window.append((now, k, self.polls))
        self._count(self.polls, k, 1)

    def record_data(self, k: int, now: float):
        self._window.append((now, k, self.datas))
        self._count(self.datas, k, 1)

    def reliability(self, now: float) -> np.ndarray:
        """Per-loop reliability over the window ending at ``now``; events
        before ``now - RELIABILITY_WINDOW_S`` leave it.  Read-only."""
        horizon = now - RELIABILITY_WINDOW_S
        while self._window and self._window[0][0] < horizon:
            _, k, counts = self._window.popleft()
            self._count(counts, k, -1)
        return self._rel

    def grow(self, ages: np.ndarray):
        """Compute each plant's curves through the oldest of its own loops'
        ``ages`` (last axis over the loops), if they stop short of it.
        Storage widens by doubling, so each age is stacked once."""
        if not (ages > self._reach).any():
            return
        need = np.zeros(len(self.plants), np.int64)
        np.maximum.at(need, self.plant,
                      ages.reshape(-1, len(self.plant)).max(axis=0))
        width = self._curves.shape[2]
        if need.max() >= width:
            wider = np.zeros((2, len(self.plants),
                              max(2 * width, int(need.max()) + 1)))
            wider[:, :, :width] = self._curves
            self._curves = wider
            self._row = self.plant * wider.shape[2]
        for p in np.flatnonzero(need > self.depth).tolist():
            lo, hi = int(self.depth[p]) + 1, int(need[p])
            self._curves[:, p, lo:hi + 1] = self.plants[p].curves(hi, lo)
            self.depth[p] = hi
        self._reach = self.depth[self.plant]

    def errors(self, ages: np.ndarray, use_nmse: bool = True) -> np.ndarray:
        """Each loop's nMSE (or MSE) at its entry of ``ages``, whose last
        axis runs over the loops."""
        self.grow(ages)
        return self._curves[int(use_nmse)].reshape(-1)[self._row + ages]


def rr_next(t: int, N: int) -> int:
    """Round-robin: slot t = 1, 2, ... serves loop index (t - 1) mod N."""
    if t < 1:
        raise ConfigurationError("slot index starts at 1")
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    return (t - 1) % N


def mef_build_schedule(gw: Gateway, frame_len: int = 20,
                       use_nmse: bool = True) -> list[int]:
    """Greedy frame schedule, as loop indices: fill each slot with the
    loop of largest predicted error, assuming every scheduled transmission
    succeeds.

    Predicted ages start at the gateway's estimates; the chosen loop's
    resets to 1 for subsequent slots, everyone else's grows by one.
    """
    if frame_len < 1:
        raise ConfigurationError("frame_len must be >= 1")
    pred = gw.est_age.copy()
    # The oldest age each loop can reach in this frame, so that no slot
    # grows the curves.
    gw.grow(pred + (frame_len - 1))
    schedule = []
    for _ in range(frame_len):
        best = int(gw.errors(pred, use_nmse).argmax())
        schedule.append(best)
        pred += 1
        pred[best] = 1
    return schedule


def wifresh_next(gw: Gateway, now: float) -> int:
    """Max-weight poll target's index: argmax of reliability x estimated
    age."""
    return int((gw.reliability(now) * gw.est_age).argmax())


def pmef_next(gw: Gateway, now: float, use_nmse: bool = True) -> int:
    """Poll target's index by reliability x (normalized) estimation
    error."""
    errors = gw.errors(gw.est_age, use_nmse)
    return int((gw.reliability(now) * errors).argmax())


CONTENTION_PROTOCOLS = ("aloha", "slotted_aloha", "adra")
SCHEDULED_PROTOCOLS = ("round_robin", "mef")
POLLING_PROTOCOLS = ("wifresh", "pmef")
PROTOCOLS = CONTENTION_PROTOCOLS + SCHEDULED_PROTOCOLS + POLLING_PROTOCOLS


@dataclass(frozen=True)
class SchedulerPolicy:
    """Which medium-access rule a run uses, with its parameters."""

    variant: str
    p: float | None = None          # access probability (slotted_aloha, adra)
    threshold: int | None = None    # age threshold (adra)
    frame_len: int = 20             # beacon frame length in slots (mef)
    use_nmse: bool = True           # mef / pmef scheduling metric

    def __post_init__(self):
        if self.variant not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.variant!r}; expected one of {PROTOCOLS}")
        # p / threshold may stay None here: slotted ALOHA's p is filled in
        # by resolved(N), the threshold policy's pair by optimize_adra.
        if self.p is not None and not 0.0 < self.p < 1.0:
            raise ConfigurationError(
                f"{self.variant}: access probability must be in (0,1)")
        if self.threshold is not None and self.threshold < 0:
            raise ConfigurationError("threshold must be non-negative")
        if self.frame_len < 1:
            raise ConfigurationError("frame_len must be >= 1")

    @property
    def is_contention(self):
        return self.variant in CONTENTION_PROTOCOLS

    @property
    def is_polling(self):
        return self.variant in POLLING_PROTOCOLS

    def resolved(self, n_loops: int) -> SchedulerPolicy:
        """This policy for ``n_loops`` loops: slotted ALOHA without an
        explicit p gets its default p = 1/N."""
        if self.variant != "slotted_aloha" or self.p is not None:
            return self
        if n_loops == 1:
            raise ConfigurationError(
                "slotted_aloha with N=1 needs an explicit p: the "
                "default p = 1/N would be 1, outside (0, 1)")
        return replace(self, p=1.0 / n_loops)
