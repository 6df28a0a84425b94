"""Medium-access policies and the gateway's view of each loop.

Three contention-based rules run at the sources (pure ALOHA, slotted
ALOHA, and the age-threshold variant) and four contention-free schedulers
run at the gateway: round-robin, beacon-framed max-error-first (MEF), and
two polling schedulers — WiFresh (reliability x age) and pMEF
(reliability x normalized estimation error).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .metrics import MseTable

__all__ = [
    "GwLoopView",
    "rr_next",
    "mef_build_schedule",
    "wifresh_next",
    "pmef_next",
    "SchedulerPolicy",
    "make_policy",
    "CONTENTION_PROTOCOLS",
    "SCHEDULED_PROTOCOLS",
    "POLLING_PROTOCOLS",
]


@dataclass
class GwLoopView:
    """What the gateway knows about one loop.

    The engine sets the age estimate: it ticks up once per gateway
    sampling period and drops on reception of strictly fresher data.
    Poll and polled-reply times live in a sliding time window and feed
    the reliability estimate (RX + 1) / (TX + 1).
    """

    est_age: int = 1
    window_len: float = 0.5  # seconds
    polls: deque = field(default_factory=deque)     # poll emission times
    datas: deque = field(default_factory=deque)     # data reception times

    def record_poll(self, now: float):
        self.polls.append(now)

    def record_data(self, now: float):
        self.datas.append(now)

    def _trim(self, now: float):
        horizon = now - self.window_len
        while self.polls and self.polls[0] < horizon:
            self.polls.popleft()
        while self.datas and self.datas[0] < horizon:
            self.datas.popleft()

    def reliability(self, now: float) -> float:
        self._trim(now)
        return (len(self.datas) + 1) / (len(self.polls) + 1)


def rr_next(t: int, N: int) -> int:
    """Round-robin: the unique loop i in 1..N with (t + N - i) mod N == 0."""
    if t < 1:
        raise ConfigurationError("slot index starts at 1")
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    return (t - 1) % N + 1


def mef_build_schedule(est_ages: dict[int, int], tables: dict[int, MseTable],
                       frame_len: int = 20, use_nmse: bool = True) -> list[int]:
    """Greedy frame schedule: fill each slot with the loop of largest
    predicted error, assuming every scheduled transmission succeeds.

    The chosen loop's predicted age resets to 1 for subsequent slots;
    everyone else ages by one.  Ties go to the lowest loop id.
    """
    if frame_len < 1:
        raise ConfigurationError("frame_len must be >= 1")
    pred = dict(est_ages)
    schedule = []
    for _ in range(frame_len):
        best_id, best_val = None, None
        for i in sorted(pred):
            tab = tables[i]
            val = tab.nmse(pred[i]) if use_nmse else tab.mse(pred[i])
            if best_val is None or val > best_val:
                best_id, best_val = i, val
        schedule.append(best_id)
        for i in pred:
            pred[i] = 1 if i == best_id else pred[i] + 1
    return schedule


def wifresh_next(views: dict[int, GwLoopView], now: float) -> int:
    """Max-weight poll target: argmax of reliability x estimated age."""
    best_id, best_val = None, None
    for i in sorted(views):
        val = views[i].reliability(now) * views[i].est_age
        if best_val is None or val > best_val:
            best_id, best_val = i, val
    return best_id


def pmef_next(views: dict[int, GwLoopView], tables: dict[int, MseTable],
              now: float, use_nmse: bool = True) -> int:
    """Poll target by reliability x (normalized) estimation error."""
    best_id, best_val = None, None
    for i in sorted(views):
        tab = tables[i]
        err = tab.nmse(views[i].est_age) if use_nmse else tab.mse(views[i].est_age)
        val = views[i].reliability(now) * err
        if best_val is None or val > best_val:
            best_id, best_val = i, val
    return best_id


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
        # p / threshold may stay None here; they are resolved against the
        # network size where the policy is used (slotted ALOHA defaults to
        # p = 1/N, the threshold policy to its optimized pair).
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


def make_policy(variant: str, **params) -> SchedulerPolicy:
    return SchedulerPolicy(variant=variant, **params)
