"""Medium-access policies and what the gateway knows about the loops.

Three contention-based rules run at the sources (pure ALOHA, slotted
ALOHA, and the age-threshold variant) and four contention-free schedulers
run at the gateway: round-robin, beacon-framed max-error-first (MEF), and
two polling schedulers — WiFresh (reliability x age) and pMEF
(reliability x normalized estimation error).  The schedulers are
functions of the arrays the gateway keeps: the loops' age estimates, the
error curves of a :class:`~ncsim.metrics.MseTable` (MEF) or the errors
read from them at the ages (pMEF), and the reliabilities of a
:class:`ReliabilityWindow` (WiFresh and pMEF).  Each
picks by a numpy argmax, and the first maximum wins, so ties go to the
lowest loop index.  MEF frames every replication of a batch in one greedy
pass over their (R, N) ages.  Loops are named by their index k = 0..N-1
throughout: every scheduler returns indices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import aoi
from .errors import ConfigurationError, is_integer, is_real
from .metrics import MseTable

__all__ = [
    "ReliabilityWindow",
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


class ReliabilityWindow:
    """Polls and polled replies of the last ``RELIABILITY_WINDOW_S``,
    counted per loop index k in ``polls`` and ``datas``, which give each
    loop's reliability (RX + 1) / (TX + 1).  Their times never decrease,
    so one time-ordered deque, trimmed at each query, leaves every loop
    the counts that trimming its own history would.
    """

    def __init__(self, n: int):
        self.polls, self.datas = [0] * n, [0] * n
        self._rel = np.ones(n)             # (datas + 1) / (polls + 1)
        self._window = deque()             # (time, k, polls or datas)

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
        """Per-loop reliability over the window ending at ``now``.  Trims
        the window first: events before ``now - RELIABILITY_WINDOW_S``
        leave it and its counts, so ``now`` must not decrease from one
        call to the next.  The returned array is the window's own."""
        horizon = now - RELIABILITY_WINDOW_S
        while self._window and self._window[0][0] < horizon:
            _, k, counts = self._window.popleft()
            self._count(counts, k, -1)
        return self._rel


def rr_next(t, N: int):
    """Round-robin: slot t = 1, 2, ... serves loop index (t - 1) mod N;
    given an array of slots, the array of their loop indices."""
    if np.min(t) < 1:
        raise ConfigurationError("slot index starts at 1")
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    return (t - 1) % N


def mef_build_schedule(table: MseTable, ages: np.ndarray, frame_len: int,
                       use_nmse: bool) -> np.ndarray:
    """Greedy frame schedules of R replications at once, as a
    (frame_len, R) array of loop indices: fill each slot with the loop of
    largest predicted error, assuming every scheduled transmission
    succeeds.

    Predicted ages start at ``ages``, the (R, N) age estimates; the chosen
    loop's resets to 1 for subsequent slots, everyone else's grows by one.
    """
    if frame_len < 1:
        raise ConfigurationError("frame_len must be >= 1")
    pred = ages.copy()
    # The oldest age each loop can reach in this frame, so that no slot
    # grows the curves.
    table.grow(pred + (frame_len - 1))
    schedule = np.empty((frame_len, len(pred)), np.int64)
    reps = np.arange(len(pred))
    for best in schedule:
        table.errors(pred, use_nmse).argmax(axis=1, out=best)
        pred += 1
        pred[reps, best] = 1
    return schedule


def wifresh_next(ages: np.ndarray, rel: np.ndarray) -> int:
    """Max-weight poll target's index: argmax of reliability ``rel`` x
    estimated age."""
    return int((rel * ages).argmax())


def pmef_next(errors: np.ndarray, rel: np.ndarray) -> int:
    """Poll target's index: argmax of reliability ``rel`` x each loop's
    (normalized) estimation error at its estimated age, ``errors`` as
    :meth:`MseTable.errors <ncsim.metrics.MseTable.errors>` reads them."""
    return int((rel * errors).argmax())


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
        # p / threshold may stay None here: resolved(N) fills them in.
        if self.p is not None and not (is_real(self.p)
                                       and 0.0 < self.p < 1.0):
            raise ConfigurationError(
                f"{self.variant}: access probability must be in (0,1), "
                f"got {self.p!r}")
        # Ages and frame slots are whole periods; a fractional threshold
        # would gate like its ceiling but be reported as itself.
        if self.threshold is not None and not (is_integer(self.threshold)
                                               and self.threshold >= 0):
            raise ConfigurationError(
                f"threshold must be a non-negative integer, "
                f"got {self.threshold!r}")
        if not (is_integer(self.frame_len) and self.frame_len >= 1):
            raise ConfigurationError(
                f"frame_len must be an integer >= 1, got {self.frame_len!r}")
        if not isinstance(self.use_nmse, (bool, np.bool_)):
            raise ConfigurationError(
                f"use_nmse must be true or false, got {self.use_nmse!r}")

    @property
    def is_contention(self):
        return self.variant in CONTENTION_PROTOCOLS

    @property
    def is_polling(self):
        return self.variant in POLLING_PROTOCOLS

    @property
    def needs_tuning(self):
        """Whether :meth:`resolved` tunes this policy: the age-threshold
        policy missing p or threshold."""
        return self.variant == "adra" and (self.p is None
                                           or self.threshold is None)

    def resolved(self, n_loops: int) -> SchedulerPolicy:
        """This policy for ``n_loops`` loops, with every default filled in:
        slotted ALOHA without an explicit p gets p = 1/N, and a policy that
        needs tuning gets the pair :func:`~ncsim.aoi.optimize_adra` picks
        for N."""
        if self.needs_tuning:
            try:
                threshold, p = aoi.optimize_adra(n_loops)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"adra with N={n_loops} needs an explicit p and "
                    f"threshold: {exc}") from exc
            return replace(self, p=p, threshold=threshold)
        if self.variant != "slotted_aloha" or self.p is not None:
            return self
        if n_loops == 1:
            raise ConfigurationError(
                "slotted_aloha with N=1 needs an explicit p: the "
                "default p = 1/N would be 1, outside (0, 1)")
        return replace(self, p=1.0 / n_loops)
