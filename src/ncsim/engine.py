"""Deterministic simulation of N control loops on one shared hop.

Time advances in fixed sampling periods on an integer-microsecond clock.
Every period each loop's controller consumes the freshest delivered sample,
applies its feedback law, the plant steps forward, and the new sample, a
(generation step, state) pair, replaces the loop's pending one.  The
selected medium-access policy moves pending samples across the shared
channel.  Slotted contention and beacon-framed scheduling use one slot per
period, and a slot's deliveries land before the next tick.  Polling runs
back-to-back transactions between ticks; at most one is outstanding, and
its events due at or before a tick's instant are handled before that tick.
Acknowledgements are instantaneous and lossless, so the source's view of
its age is the gateway's.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, draw_offsets, resolve_slot, resolve_pointtopoint
from .errors import ConfigurationError, InvariantViolation
from .mac import (GwLoopView, SchedulerPolicy, mef_build_schedule, pmef_next,
                  rr_next, wifresh_next)
from .metrics import MetricsAccumulator, MseTable
from .systems import LtiSystem, make_preset

__all__ = ["SimConfig", "systems_from_classes", "run", "run_task",
           "replication_tasks", "task_pool", "run_tasks", "run_replications",
           "run_replication_sets", "summarize_replications",
           "DIVERGENCE_THRESHOLD"]

DIVERGENCE_THRESHOLD = 1e12
POLL_GUARD_S = 0.002  # extra wait before a poll transaction is declared lost

# Named sub-streams per loop; the shared channel stream uses loop id 0.
_RNG_NOISE, _RNG_ACCESS, _RNG_CHANNEL = 0, 1, 2


@dataclass
class SimConfig:
    """Everything one simulation run depends on."""

    systems: list[LtiSystem]
    policy: SchedulerPolicy
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    classes: list[str] | None = None     # per-loop labels for resource shares
    duration_s: float = 30.0
    warmup_s: float = 5.0
    cooldown_s: float = 5.0
    T_s: float = 0.010
    seed: int = 0
    replications: int = 20
    record_series: bool = False          # keep per-tick AoI and state arrays

    def __post_init__(self):
        if not self.systems:
            raise ConfigurationError("need at least one loop")
        if self.duration_s <= self.warmup_s + self.cooldown_s:
            raise ConfigurationError(
                "duration must exceed warmup plus cooldown")
        if self.T_s <= 0:
            raise ConfigurationError("T_s must be positive")
        if round(self.channel.tx_duration * 1e6) < 1:
            raise ConfigurationError(
                "tx_duration must be at least 1 us, the clock's resolution")
        if self.channel.slot_duration > self.T_s:
            # A slot recurs every period, so its deliveries must land
            # before the next tick.
            raise ConfigurationError("slot_duration must not exceed T_s")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.classes is None:
            self.classes = [s.name or "?" for s in self.systems]
        if len(self.classes) != len(self.systems):
            raise ConfigurationError("one class label per loop required")

    @property
    def n_loops(self) -> int:
        return len(self.systems)


_PRESET_CACHE: dict[str, LtiSystem] = {}


def systems_from_classes(n_loops: int, pattern=("easy", "mid", "hard")):
    """Cycle the class pattern over loop ids 1..N (loop 1 gets pattern[0]).

    Returns (systems, class labels); synthesized presets are cached and
    shared, which is safe because they are never mutated by a run.
    """
    if n_loops < 1:
        raise ConfigurationError("n_loops must be >= 1")
    labels = [pattern[(i - 1) % len(pattern)] for i in range(1, n_loops + 1)]
    for cls in set(labels):
        if cls not in _PRESET_CACHE:
            _PRESET_CACHE[cls] = make_preset(cls)
    return [_PRESET_CACHE[c] for c in labels], labels


class _Loop:
    """Mutable per-loop runtime state owned by one run."""

    def __init__(self, sys: LtiSystem, loop_id: int, seed: int):
        self.sys = sys
        self.id = loop_id
        self.table = None                  # shared per plant, set by the run
        self.nu = 0                        # generation step of freshest sample
        self.sample = None                 # pending (gen_step, state) or None
        self.diverged = False
        # Single-state single-input loops run on plain floats: the per-tick
        # work is a handful of multiply-adds, where numpy's per-call
        # overhead on 1-element arrays dominates the whole simulation.
        self.scalar = sys.n == 1 and sys.m == 1
        if self.scalar:
            self.a = float(sys.A[0, 0])
            self.b = float(sys.B[0, 0])
            self.g = 0.0 if sys.gain is None else float(sys.gain[0, 0])
            self.q = float(sys.Q[0, 0])
            self.r = float(sys.R[0, 0])
            self.x = 0.0
            self.freshest = 0.0            # controller copy of x[nu]
            self.inputs = [0.0]            # inputs[t] = u applied at step t
            self._est = (0, 0, 0.0)        # cache: (step, nu, estimate)
        else:
            self.x = np.zeros(sys.n)
            self.freshest = np.zeros(sys.n)
            self.inputs = [np.zeros(sys.m)]
            self._est = (0, 0, self.freshest.copy())
        self.noise = None                  # pregenerated by the run
        ss = np.random.SeedSequence
        self.rng_noise = np.random.default_rng(ss((seed, loop_id, _RNG_NOISE)))
        self.rng_access = np.random.default_rng(ss((seed, loop_id, _RNG_ACCESS)))
        self.rng_channel = np.random.default_rng(ss((seed, loop_id, _RNG_CHANNEL)))
        self.aoi_series: list[int] = []
        self.state_series: list = []

    def estimate(self, t: int):
        """Conditional mean of x[t] from the freshest sample and inputs.

        Rolls the previous tick's estimate forward when no fresher data
        arrived; otherwise replays the input history from the sample's
        generation step.
        """
        prev_t, prev_nu, prev_xhat = self._est
        if prev_nu == self.nu and prev_t == t - 1:
            if self.scalar:
                xhat = self.a * prev_xhat + self.b * self.inputs[t - 1]
            else:
                xhat = self.sys.A @ prev_xhat + self.sys.B @ self.inputs[t - 1]
        else:
            if self.nu >= t:
                raise InvariantViolation(
                    f"loop {self.id}: sample from step {self.nu} visible at {t}")
            if self.scalar:
                xhat = self.freshest
                a, b, inputs = self.a, self.b, self.inputs
                for q in range(self.nu, t):
                    xhat = a * xhat + b * inputs[q]
            else:
                A, B = self.sys.A, self.sys.B
                xhat = self.freshest.copy()
                for q in range(self.nu, t):
                    xhat = A @ xhat + B @ self.inputs[q]
        self._est = (t, self.nu, xhat)
        return xhat


class _Run:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.policy = cfg.policy
        if self.policy.variant == "slotted_aloha" and self.policy.p is None:
            self.policy = replace(self.policy, p=1.0 / cfg.n_loops)
        if self.policy.variant == "adra" and (
                self.policy.p is None or self.policy.threshold is None):
            raise ConfigurationError(
                "the age-threshold policy needs both p and threshold; "
                "use optimize_adra to pick them")
        self.channel = cfg.channel
        self.N = cfg.n_loops
        self.Ts_us = round(cfg.T_s * 1e6)
        self.tx_us = round(cfg.channel.tx_duration * 1e6)
        self.steps = round(cfg.duration_s / cfg.T_s)
        t_start = round(cfg.warmup_s / cfg.T_s) + 1
        t_end = self.steps - round(cfg.cooldown_s / cfg.T_s)
        self.metrics = MetricsAccumulator(self.N, t_start, t_end, cfg.classes)
        self.loops = {i: _Loop(cfg.systems[i - 1], i, cfg.seed)
                      for i in range(1, self.N + 1)}
        # MSE(age) depends only on the plant: one table per distinct system.
        by_plant: dict[int, MseTable] = {}
        for loop in self.loops.values():
            if id(loop.sys) not in by_plant:
                by_plant[id(loop.sys)] = MseTable(loop.sys)
            loop.table = by_plant[id(loop.sys)]
            if loop.scalar:
                std = math.sqrt(float(loop.sys.noise_cov[0, 0]))
                loop.noise = (loop.rng_noise.normal(size=self.steps + 1)
                              * std).tolist()
            else:
                loop.noise = (loop.rng_noise.normal(
                    size=(self.steps + 1, loop.sys.n)) * loop.sys.noise_std)
        self.views = {i: GwLoopView() for i in range(1, self.N + 1)}
        self.tables = {i: self.loops[i].table for i in range(1, self.N + 1)}
        self.rng_shared = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 0, _RNG_CHANNEL)))
        self.current_step = 0
        self.mef_schedule: list[int] = []
        # Next event of the outstanding poll transaction:
        # (time_us, kind, loop id, (sample, tx_step) of a reply), or None.
        self.poll = None
        self.end_us = self.steps * self.Ts_us
        # A poll or its reply that is lost is given up this long after
        # the poll was sent.
        self.poll_wait_us = 2 * self.tx_us + round(POLL_GUARD_S * 1e6)

    # ---- sampling-period tick -------------------------------------------

    def on_tick(self, t: int):
        self.current_step = t
        record = self.metrics.record_step
        series = self.cfg.record_series
        views = self.views
        thr = DIVERGENCE_THRESHOLD
        for i in range(1, self.N + 1):
            loop = self.loops[i]
            delta = t - loop.nu
            table = loop.table
            mse = table.mse(delta)
            if loop.scalar:
                prev_t, prev_nu, prev_xh = loop._est
                if prev_nu == loop.nu and prev_t == t - 1:
                    xhat = loop.a * prev_xh + loop.b * loop.inputs[t - 1]
                    loop._est = (t, prev_nu, xhat)
                else:
                    xhat = loop.estimate(t)
                u = -loop.g * xhat
                loop.inputs.append(u)
                x = loop.x
                cost = loop.q * x * x + loop.r * u * u
            else:
                xhat = loop.estimate(t)
                u = np.zeros(loop.sys.m) if loop.sys.gain is None \
                    else -(loop.sys.gain @ xhat)
                loop.inputs.append(u)
                x = loop.x
                cost = float(x @ loop.sys.Q @ x + u @ loop.sys.R @ u)
            record(i - 1, t, delta, mse, mse / table._base, cost)
            if series:
                loop.aoi_series.append(delta)
                loop.state_series.append(x)
            # loop.x is rebound below, never written in place, so the
            # sample and the series may share it.
            loop.sample = (t, x)
            views[i].est_age = delta
            if loop.scalar:
                x_next = loop.a * x + loop.b * u + loop.noise[t]
                # The chained comparison is False for nan as well.
                if not loop.diverged and not (-thr <= x_next <= thr):
                    loop.diverged = True
                    self.metrics.flag_diverged(i - 1)
            else:
                x_next = loop.sys.A @ x + loop.sys.B @ u + loop.noise[t]
                if not loop.diverged and (
                        not np.all(np.isfinite(x_next))
                        or np.max(np.abs(x_next)) > thr):
                    loop.diverged = True
                    self.metrics.flag_diverged(i - 1)
            loop.x = x_next

    # ---- slotted medium access ------------------------------------------

    def _contention_transmitters(self, t: int) -> list[int]:
        out = []
        for i in range(1, self.N + 1):
            loop = self.loops[i]
            if loop.sample is None:
                continue
            v = self.policy.variant
            if v == "aloha":
                out.append(i)
            elif v == "slotted_aloha":
                if loop.rng_access.random() < self.policy.p:
                    out.append(i)
            elif v == "adra":
                src_age = max(1, t - loop.nu)
                if src_age >= self.policy.threshold and \
                        loop.rng_access.random() < self.policy.p:
                    out.append(i)
        return out

    def on_slot(self, t: int):
        """Slot t starts on tick t's instant.  Its deliveries land before
        the next tick and are applied here; the last slot's land after the
        run ends and are dropped."""
        deliver = t < self.steps
        if self.policy.is_contention:
            ids = self._contention_transmitters(t)
            txs = draw_offsets(
                ids, self.channel,
                {i: self.loops[i].rng_channel for i in ids})
            decoded = resolve_slot(txs, self.channel, self.rng_shared)
            for i in ids:
                self.metrics.record_tx(i - 1, t)
                loop = self.loops[i]
                sample, loop.sample = loop.sample, None
                if deliver and i in decoded:
                    self.on_delivery(i, sample, t)
        else:  # round_robin or mef
            if self.policy.variant == "round_robin":
                i = rr_next(t, self.N)
            else:
                i = self.mef_schedule[(t - 1) % self.policy.frame_len]
            sample = self.loops[i].sample
            if sample is not None:
                self.metrics.record_tx(i - 1, t)
                ok = resolve_pointtopoint(self.channel,
                                          self.loops[i].rng_channel)
                if ok and deliver:
                    self.on_delivery(i, sample, t)

    def on_frame(self):
        self.mef_schedule = mef_build_schedule(
            {i: v.est_age for i, v in self.views.items()},
            self.tables, self.policy.frame_len, self.policy.use_nmse)

    # ---- deliveries -------------------------------------------------------

    def on_delivery(self, i: int, sample: tuple, tx_step: int):
        """The gateway accepts only strictly fresher generations; the age
        estimate becomes the sample's age on the gateway's sampling grid,
        floored at one."""
        self.metrics.record_rx(i - 1, tx_step)
        loop = self.loops[i]
        gen, state = sample
        if gen > loop.nu:
            loop.nu = gen
            loop.freshest = state
            self.views[i].est_age = max(1, self.current_step - gen)

    # ---- polling: one transaction outstanding at a time ------------------

    def issue_poll(self, now_us: int):
        """Poll the scheduler's pick; the transaction's next event is the
        poll's arrival, or its timeout if the poll is lost."""
        if now_us >= self.end_us:
            self.poll = None
            return
        now_s = now_us * 1e-6
        if self.policy.variant == "wifresh":
            i = wifresh_next(self.views, now_s)
        else:
            i = pmef_next(self.views, self.tables, now_s, self.policy.use_nmse)
        self.views[i].record_poll(now_s)
        if resolve_pointtopoint(self.channel, self.loops[i].rng_channel):
            self.poll = (now_us + self.tx_us, "arrival", i, None)
        else:
            self.poll = (now_us + self.poll_wait_us, "timeout", i, None)

    def advance_poll(self, until_us: int):
        """Run the outstanding transaction through every event due at or
        before ``until_us``; a completed or timed-out one issues the next."""
        while self.poll is not None and self.poll[0] <= until_us:
            now_us, kind, i, reply = self.poll
            if kind == "arrival":
                loop = self.loops[i]
                if loop.sample is None:
                    raise InvariantViolation(
                        f"loop {i} polled with no pending sample")
                self.metrics.record_tx(i - 1, self.current_step)
                if resolve_pointtopoint(self.channel, loop.rng_channel):
                    self.poll = (now_us + self.tx_us, "reply", i,
                                 (loop.sample, self.current_step))
                else:  # the timeout runs from the poll, one tx earlier
                    self.poll = (now_us - self.tx_us + self.poll_wait_us,
                                 "timeout", i, None)
                continue
            if kind == "reply":
                self.on_delivery(i, *reply)
                self.views[i].record_data(now_us * 1e-6)
            self.issue_poll(now_us)

    # ---- main loop -------------------------------------------------------

    def execute(self) -> dict:
        for loop in self.loops.values():
            loop.sample = (0, loop.x)
        polling = self.policy.is_polling
        framed = self.policy.variant == "mef"
        if polling:
            self.issue_poll(0)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, self.steps + 1):
                if polling:
                    # Poll events on the tick's instant come before it.
                    self.advance_poll(t * self.Ts_us)
                self.on_tick(t)
                if polling:
                    continue
                if framed and (t - 1) % self.policy.frame_len == 0:
                    self.on_frame()
                self.on_slot(t)
        result = {"metrics": self.metrics.finalize(), "seed": self.cfg.seed}
        if self.cfg.record_series:
            result["series"] = {
                i: {"aoi": np.array(self.loops[i].aoi_series),
                    "state": np.array(self.loops[i].state_series)}
                for i in self.loops}
        return result


def run(cfg: SimConfig) -> dict:
    """One deterministic simulation run."""
    return _Run(cfg).execute()


def run_task(task: tuple[SimConfig, int]) -> dict:
    """Run one ``(cfg, seed)`` replication task; a pool worker's unit of
    work."""
    cfg, seed = task
    return run(replace(cfg, seed=seed))


def replication_tasks(cfg: SimConfig,
                      reps: int | None = None) -> list[tuple[SimConfig, int]]:
    """Tasks for ``reps`` replications (default ``cfg.replications``) with
    seeds seed, seed+1, ..."""
    reps = cfg.replications if reps is None else reps
    if reps < 1:
        raise ConfigurationError("need at least one replication")
    return [(cfg, cfg.seed + r) for r in range(reps)]


class _InProcess:
    """Executor stand-in that runs each call as it is submitted."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@contextlib.contextmanager
def task_pool(jobs: int, n_tasks: int):
    """The executor for ``n_tasks`` tasks run by up to ``jobs`` processes.

    Yields a process pool of ``min(jobs, n_tasks)`` workers, or, when that
    is one, an executor that runs each task in the calling process.  Read
    every result inside the block: leaving it cancels the queued tasks.  A
    worker that dies surfaces as ``concurrent.futures.BrokenExecutor`` from
    the results; an exception raised in a task reaches the caller as itself.
    """
    workers = min(jobs, n_tasks)
    if workers <= 1:
        yield _InProcess()
        return
    # The default start method, fork on Linux: workers begin with the
    # parent's modules loaded instead of importing them again.
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        # After a failure the queued tasks would only delay its report.
        pool.shutdown(cancel_futures=True)


def run_tasks(tasks: list[tuple[SimConfig, int]], jobs: int = 1) -> list:
    """Run ``(cfg, seed)`` tasks in one :func:`task_pool`; results in task
    order, identical for every ``jobs``."""
    with task_pool(jobs, len(tasks)) as pool:
        futures = [pool.submit(run_task, t) for t in tasks]
        return [f.result() for f in futures]


def run_replications(cfg: SimConfig, reps: int | None = None,
                     jobs: int = 1) -> dict:
    """Independent replications (seed, seed+1, ...) with 99% intervals.

    Returns per-replication results plus a summary of replication-mean
    network metrics with Student-t confidence half-widths.  With
    ``jobs > 1`` the replications run in one pool of at most ``jobs``
    worker processes; the result does not depend on ``jobs``.
    """
    return run_replication_sets([cfg], reps, jobs)[0]


def run_replication_sets(cfgs: list[SimConfig], reps: int | None = None,
                         jobs: int = 1) -> list[dict]:
    """:func:`run_replications` for each config, with every replication of
    every config queued as one task list in one pool."""
    sets = [replication_tasks(cfg, reps) for cfg in cfgs]
    results = iter(run_tasks([t for tasks in sets for t in tasks], jobs))
    return [summarize_replications([next(results) for _ in tasks])
            for tasks in sets]


def summarize_replications(results: list[dict]) -> dict:
    """Replication results plus the summary :func:`run_replications`
    describes."""
    from scipy import stats

    reps = len(results)
    summary = {}
    for key in ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean"):
        vals = np.array([r["metrics"]["network"][key] for r in results])
        mean = float(np.mean(vals))
        if reps >= 2 and np.all(np.isfinite(vals)):
            half = float(stats.t.ppf(0.995, reps - 1)
                         * np.std(vals, ddof=1) / math.sqrt(reps))
        else:
            # Heavy-tailed or single-replication cases: no meaningful
            # interval; report an unbounded half-width rather than nan.
            half = math.inf
        summary[key] = {"mean": mean, "ci99_half": half}
    frac_keys = results[0]["metrics"]["fractions"].keys()
    summary["fractions"] = {
        k: float(np.mean([r["metrics"]["fractions"][k] for r in results]))
        for k in frac_keys}
    summary["diverged_reps"] = sum(
        r["metrics"]["network"]["any_diverged"] for r in results)
    return {"replications": results, "summary": summary}
