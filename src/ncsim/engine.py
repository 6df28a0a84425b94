"""Deterministic simulation of N control loops on one shared hop.

Time advances in fixed sampling periods on an integer-microsecond clock.
Every period each loop's controller consumes the freshest delivered sample,
applies its feedback law, the plant steps forward, and the new sample
replaces the loop's pending one.  A sample is named by its generation step
alone: its state is that step's entry of the loop's state history.  The
selected medium-access policy moves pending samples across the shared
channel.  Slotted contention and beacon-framed scheduling use one slot per
period, and a slot's deliveries land before the next tick.  Polling runs
back-to-back transactions between ticks as one coroutine, so at most one
is outstanding; its events due at or before a tick's instant are handled
before that tick.  Acknowledgements are instantaneous and lossless, so
the source's view of its age is the gateway's.

A run holds its state as arrays over the loop indices k = 0..N-1, which
name the loops in the run, the channel and the MAC alike; loop id k + 1
appears only in seed keys, error messages and outputs.  Loops of equal state
and input size are stepped together: a tick is a fixed number of array
operations whatever N is.  Each row's arithmetic is the single-loop
arithmetic, so results do not depend on how loops are grouped.  A
delivery brings its loop's estimate up to the current step at once.
States, inputs and ages are kept for every step; when the run ends, the
window's ages, errors and costs are summed in step order, a block of steps
at a time, and handed to the metrics.  Random draws come from one
stream per loop and purpose; the contention streams are read through
buffers drawn a block at a time, which gives the same values.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (BlockStreams, ChannelConfig, resolve_pointtopoint,
                      resolve_slot)
from .errors import ConfigurationError, InvariantViolation
from .mac import (Gateway, SchedulerPolicy, mef_build_schedule, pmef_next,
                  rr_next, wifresh_next)
from .metrics import MetricsAccumulator
from .systems import LtiSystem, make_preset

__all__ = ["SimConfig", "systems_from_classes", "run", "run_task",
           "replication_tasks", "task_pool", "run_tasks", "run_replications",
           "run_replication_sets", "summarize_replications",
           "DIVERGENCE_THRESHOLD"]

DIVERGENCE_THRESHOLD = 1e12
POLL_GUARD_S = 0.002  # extra wait before a poll transaction is declared lost

# Named sub-streams per loop; the shared channel stream uses loop id 0.
_RNG_NOISE, _RNG_ACCESS, _RNG_CHANNEL = 0, 1, 2
# Loop-steps per block of the end-of-run window sums; bounds their memory.
_SUM_BLOCK_VALUES = 1 << 12


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

    @property
    def window(self) -> tuple[int, int]:
        """First and last step of the evaluation window, both included:
        the steps after the warmup and through the cooldown's start."""
        steps = round(self.duration_s / self.T_s)
        return (round(self.warmup_s / self.T_s) + 1,
                steps - round(self.cooldown_s / self.T_s))


_PRESET_CACHE: dict[str, LtiSystem] = {}


def systems_from_classes(n_loops: int, pattern=("easy", "mid", "hard")):
    """Cycle the class pattern over the loops (loop 1 gets pattern[0]).

    Returns (systems, class labels); synthesized presets are cached and
    shared, which is safe because they are never mutated by a run.
    """
    if n_loops < 1:
        raise ConfigurationError("n_loops must be >= 1")
    labels = [pattern[k % len(pattern)] for k in range(n_loops)]
    for cls in set(labels):
        if cls not in _PRESET_CACHE:
            _PRESET_CACHE[cls] = make_preset(cls)
    return [_PRESET_CACHE[c] for c in labels], labels


def _stream(seed: int, i: int, purpose: int) -> np.random.Generator:
    """Loop i's random stream for one purpose: what ``default_rng`` builds
    from the same SeedSequence, without its per-call overhead."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, i, purpose))))


class _Plants:
    """Loops of one state size n and input size m, stepped as stacks.

    Row j is loop ``loops[j]``.  States and inputs are stacks of columns,
    shape (k, n, 1) and (k, m, 1), kept for the whole run: ``X[t]`` is
    x[t], ``U[t]`` the input applied at step t and ``noise[t]`` the process
    noise added after it, drawn from each loop's own stream.  ``xhat`` is
    the estimate of the last tick.  Every product is computed per row
    exactly as for a single loop; one-state one-input loops use elementwise
    products, which give the bits of 1x1 matrix products at a fraction of
    their cost.
    """

    def __init__(self, systems, loops: np.ndarray, steps: int, seed: int):
        k, n, m = len(systems), systems[0].n, systems[0].m
        self.loops = loops
        self.X = np.zeros((steps + 2, k, n, 1))
        self.U = np.zeros((steps + 1, k, m, 1))
        self.noise = np.empty((steps + 1, k, n, 1))
        for j, (i, sys) in enumerate(zip(loops.tolist(), systems)):
            self.noise[:, j, :, 0] = _stream(seed, i + 1, _RNG_NOISE).normal(
                size=(steps + 1, n)) * sys.noise_std
        self.xhat = np.zeros((k, n, 1))
        stack = lambda entry: np.array([entry(s) for s in systems], float)
        self.A, self.B = stack(lambda s: s.A), stack(lambda s: s.B)
        self.Q, self.R = stack(lambda s: s.Q), stack(lambda s: s.R)
        self.K = stack(lambda s: np.zeros((m, n)) if s.gain is None
                       else s.gain)
        self.scalar = n == m == 1
        self.mul = np.multiply if self.scalar else np.matmul
        if self.scalar:
            self.K = -self.K               # u = (-g) x, as for one loop
        # Gainless loops with more states apply u = 0, not -(0 x), which
        # is nan for an infinite estimate.
        free = np.flatnonzero([s.gain is None for s in systems])
        self.free = free if len(free) and not self.scalar else None
        self.bu = self.Bu(self.U[0])       # B u of the last tick

    def Ax(self, x, rows=slice(None)):
        return self.mul(self.A[rows], x)

    def Bu(self, u, rows=slice(None)):
        return self.mul(self.B[rows], u)

    def control(self, xhat, out):
        if self.scalar:
            return np.multiply(self.K, xhat, out=out)
        u = np.negative(np.matmul(self.K, xhat), out=out)
        if self.free is not None:
            u[self.free] = 0.0
        return u

    def cost(self, x, u):
        """x'Qx + u'Ru of stacks shaped (..., k, n, 1) and (..., k, m, 1)."""
        if self.scalar:
            return self.Q * x * x + self.R * u * u
        row = lambda v: v.reshape(v.shape[:-2] + (1, v.shape[-2]))
        return (np.matmul(np.matmul(row(x), self.Q), x)
                + np.matmul(np.matmul(row(u), self.R), u))

    def tick(self, t: int):
        """xhat[t] = A xhat[t-1] + B u[t-1], u[t] from xhat[t], then
        x[t+1] = A x[t] + B u[t] + w[t]."""
        self.xhat = self.Ax(self.xhat) + self.bu
        u = self.control(self.xhat, self.U[t])
        self.bu = self.Bu(u)
        np.add(self.Ax(self.X[t]) + self.bu, self.noise[t], out=self.X[t + 1])

    def replay(self, j: int, start: int, stop: int):
        """Row j's estimate at step ``stop`` from its state at step
        ``start``, through the inputs applied in between."""
        rows = slice(j, j + 1)
        x = self.X[start, rows]
        for q in range(start, stop):
            x = self.Ax(x, rows) + self.Bu(self.U[q, rows], rows)
        return x[0]


class _ChannelStreams(dict):
    """Loop index -> that loop's channel stream, built on its first draw;
    most loops of a short large-N scheduled run never draw.  A stream
    depends only on its SeedSequence, so building it late changes no draw.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def __missing__(self, k: int) -> np.random.Generator:
        rng = self[k] = _stream(self.seed, k + 1, _RNG_CHANNEL)
        return rng


class _Run:
    """One run's state, held as arrays over the loop indices k.

    ``nu`` is each loop's freshest delivered generation and ``pending``
    whether it has a sample to send, namely the last tick's.  Loops of
    equal dimensions form one :class:`_Plants` group (``at[k]`` is loop
    k's group and row), and each tick steps every group with a fixed
    number of array operations.  The tick keeps every step's ages
    (``ages``), states and inputs; the metrics are reduced from them once
    the run ends.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.policy = cfg.policy.resolved(cfg.n_loops)
        if self.policy.variant == "adra" and (
                self.policy.p is None or self.policy.threshold is None):
            raise ConfigurationError(
                "the age-threshold policy needs both p and threshold; "
                "use optimize_adra to pick them")
        self.channel = cfg.channel
        self.N = N = cfg.n_loops
        self.Ts_us = round(cfg.T_s * 1e6)
        self.tx_us = round(cfg.channel.tx_duration * 1e6)
        self.steps = round(cfg.duration_s / cfg.T_s)
        self.metrics = MetricsAccumulator(N, *cfg.window, cfg.classes)
        self.gateway = Gateway(cfg.systems)
        self.nu = np.zeros(N, np.int64)
        self.pending = np.zeros(N, bool)
        self.ages = np.zeros((self.steps + 1, N), np.int64)
        self.groups, self.at = [], [None] * N
        dims = {}
        for k, sys in enumerate(cfg.systems):
            dims.setdefault((sys.n, sys.m), []).append(k)
        for ks in dims.values():
            group = _Plants([cfg.systems[k] for k in ks], np.array(ks),
                            self.steps, cfg.seed)
            self.groups.append(group)
            for j, k in enumerate(ks):
                self.at[k] = (group, j)
        self.rng_channel = _ChannelStreams(cfg.seed)
        self.access = self.offsets = self.rng_shared = None
        if self.policy.is_contention:
            # Capture and erasure coins of every slot.
            self.rng_shared = _stream(cfg.seed, 0, _RNG_CHANNEL)
            streams = lambda purpose: [_stream(cfg.seed, i, purpose)
                                       for i in range(1, N + 1)]
            if self.policy.variant in ("slotted_aloha", "adra"):
                self.access = BlockStreams(
                    streams(_RNG_ACCESS), lambda rng, size: rng.random(size))
            if self.channel.mode == "offset_capture":
                top = self.channel.max_offset
                self.offsets = BlockStreams(
                    streams(_RNG_CHANNEL),
                    lambda rng, size: rng.uniform(0.0, top, size))
        self.current_step = 0
        self.mef_schedule: list[int] = []
        self.end_us = self.steps * self.Ts_us
        # A poll or its reply that is lost is given up this long after
        # the poll was sent.
        self.poll_wait_us = 2 * self.tx_us + round(POLL_GUARD_S * 1e6)

    # ---- sampling-period tick -------------------------------------------

    def on_tick(self, t: int):
        """Tick t (ticks come in order): every controller estimates x[t]
        from its freshest sample and applies its gain, the plants step, and
        x[t] becomes each loop's pending sample."""
        self.current_step = t
        self.ages[t] = np.subtract(t, self.nu, out=self.gateway.est_age)
        for group in self.groups:
            group.tick(t)
        self.pending.fill(True)

    def _window_sums(self) -> np.ndarray:
        """Each loop's age, MSE, nMSE and stage cost summed over the
        metrics window, as rows of a (4, N) array.

        The steps are added in order, as a running total would add them,
        a block at a time with the total so far as each block's first row.
        numpy sums pairwise only along the fast axis in memory, which in a
        block runs over the quantities and loops, so reducing over its
        steps adds row after row; a one-loop column summed on its own
        would be summed pairwise and round differently.  A diverged loop
        can produce nan (inf times a zero weight); it counts as +inf.
        """
        m = self.metrics
        total = np.zeros((4, self.N))
        block = max(1, _SUM_BLOCK_VALUES // self.N)
        for lo in range(m.t_start, m.t_end + 1, block):
            steps = slice(lo, min(lo + block, m.t_end + 1))
            ages = self.ages[steps]
            values = np.empty((len(ages) + 1, 4, self.N))
            values[0] = total
            rows = values[1:]
            rows[:, 0] = ages
            rows[:, 1] = self.gateway.errors(ages, use_nmse=False)
            rows[:, 2] = self.gateway.errors(ages)
            for g in self.groups:
                rows[:, 3, g.loops] = g.cost(g.X[steps], g.U[steps])[..., 0, 0]
            np.fmin(rows, math.inf, out=rows)
            total = np.add.reduce(values, axis=0)
        return total

    def _flag_diverged(self):
        """Flag each loop whose state ever left the divergence bound."""
        for g in self.groups:
            # x[2..steps+1], the states the ticks produced; max and min
            # propagate nan, which fails both comparisons.
            axes = (0, 2, 3)
            ok = ((g.X[2:].max(axis=axes) <= DIVERGENCE_THRESHOLD)
                  & (g.X[2:].min(axis=axes) >= -DIVERGENCE_THRESHOLD))
            self.metrics.flag_diverged(g.loops[~ok])

    # ---- slotted medium access ------------------------------------------

    def _contention_transmitters(self) -> np.ndarray:
        """Indices of this slot's transmitters, ascending: every loop with
        a pending sample (aloha), each with probability p (slotted ALOHA),
        or each whose age reached the threshold with probability p."""
        want = self.pending
        if self.policy.variant == "adra":
            want = want & (self.gateway.est_age >= self.policy.threshold)
        ks = want.nonzero()[0]
        if self.access is not None:
            ks = ks[self.access.take(ks) < self.policy.p]
        return ks

    def on_slot(self, t: int):
        """Slot t starts on tick t's instant.  Its deliveries land before
        the next tick and are applied here; the last slot's land after the
        run ends and are dropped."""
        deliver = t < self.steps
        if self.policy.is_contention:
            ks = self._contention_transmitters()
            offsets = None if self.offsets is None else self.offsets.take(ks)
            decoded = resolve_slot(ks, offsets, self.channel, self.rng_shared)
            self.metrics.record_tx(ks, t)
            if deliver:
                for k in decoded.tolist():
                    self.on_delivery(k, t)
            self.pending[ks] = False
        else:  # round_robin or mef
            if self.policy.variant == "round_robin":
                k = rr_next(t, self.N)
            else:
                k = self.mef_schedule[(t - 1) % self.policy.frame_len]
            if self.pending[k]:
                self.metrics.record_tx(k, t)
                ok = resolve_pointtopoint(self.channel, self.rng_channel[k])
                if ok and deliver:
                    self.on_delivery(k, t)

    # ---- deliveries -------------------------------------------------------

    def on_delivery(self, k: int, gen: int):
        """Loop k's sample from step ``gen`` arrives.  The gateway accepts
        only strictly fresher generations; the age estimate becomes the
        sample's age on the gateway's sampling grid, floored at one.  The
        controller's estimate is brought to the current step at once, so
        the next tick rolls it forward."""
        self.metrics.record_rx(k, gen)
        if gen > self.nu[k]:
            now = self.current_step
            if gen > now:
                raise InvariantViolation(
                    f"loop {k + 1}: sample from step {gen} delivered at {now}")
            self.nu[k] = gen
            group, j = self.at[k]
            group.xhat[j] = group.replay(j, gen, now)
            self.gateway.est_age[k] = max(1, now - gen)

    # ---- polling: one transaction outstanding at a time ------------------

    def _polls(self):
        """Back-to-back poll transactions from time 0 until the run ends.

        Yields the time of each event of the outstanding transaction and
        handles it when resumed: a poll's arrival, the reply's arrival, or
        the time a lost poll or reply is given up, from when the poll was
        sent.  A finished transaction sends the next poll at once.
        """
        now = 0
        while now < self.end_us:
            now_s = now * 1e-6
            if self.policy.variant == "wifresh":
                k = wifresh_next(self.gateway, now_s)
            else:
                k = pmef_next(self.gateway, now_s, self.policy.use_nmse)
            self.gateway.record_poll(k, now_s)
            if resolve_pointtopoint(self.channel, self.rng_channel[k]):
                yield now + self.tx_us
                if not self.pending[k]:
                    raise InvariantViolation(
                        f"loop {k + 1} polled with no pending sample")
                gen = self.current_step
                self.metrics.record_tx(k, gen)
                if resolve_pointtopoint(self.channel, self.rng_channel[k]):
                    now += 2 * self.tx_us
                    yield now
                    self.on_delivery(k, gen)
                    self.gateway.record_data(k, now * 1e-6)
                    continue
            now += self.poll_wait_us    # the poll or its reply was lost
            yield now

    # ---- main loop -------------------------------------------------------

    def execute(self) -> dict:
        self.pending.fill(True)     # each loop's initial state, x[0] = 0
        polling = self.policy.is_polling
        framed = self.policy.variant == "mef"
        with np.errstate(over="ignore", invalid="ignore"):
            polls = self._polls() if polling else iter(())
            due = next(polls, None)     # sends the first poll, at time 0
            for t in range(1, self.steps + 1):
                # Poll events on the tick's instant come before it.
                while due is not None and due <= t * self.Ts_us:
                    due = next(polls, None)
                self.on_tick(t)
                if polling:
                    continue
                if framed and (t - 1) % self.policy.frame_len == 0:
                    self.mef_schedule = mef_build_schedule(
                        self.gateway, self.policy.frame_len,
                        self.policy.use_nmse)
                self.on_slot(t)
            self._flag_diverged()
            sums = self._window_sums()
        result = {"metrics": self.metrics.finalize(*sums),
                  "seed": self.cfg.seed}
        if self.cfg.record_series:
            result["series"] = series = {}
            for k, (g, j) in enumerate(self.at):
                state = g.X[1:-1, j, :, 0]
                series[k + 1] = {"aoi": self.ages[1:, k].copy(),
                                 "state": (state[:, 0] if g.scalar
                                           else state).copy()}
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
    describes.

    A metric without a meaningful interval gets an unbounded half-width,
    and ``summary["unbounded"]`` maps it to the reason: one replication,
    a non-finite replication mean, or a spread beyond float64 (heavy
    tails of a diverging network)."""
    from scipy import stats

    reps = len(results)
    summary, unbounded = {}, {}
    for key in ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean"):
        vals = np.array([r["metrics"]["network"][key] for r in results])
        half = math.inf
        with np.errstate(over="ignore"):
            mean = float(np.mean(vals))
            if reps < 2:
                unbounded[key] = "one replication"
            elif not np.all(np.isfinite(vals)):
                unbounded[key] = "non-finite replication mean"
            else:
                half = float(stats.t.ppf(0.995, reps - 1)
                             * np.std(vals, ddof=1) / math.sqrt(reps))
                if half == math.inf:
                    unbounded[key] = "spread beyond float64"
        summary[key] = {"mean": mean, "ci99_half": half}
    summary["unbounded"] = unbounded
    frac_keys = results[0]["metrics"]["fractions"].keys()
    summary["fractions"] = {
        k: float(np.mean([r["metrics"]["fractions"][k] for r in results]))
        for k in frac_keys}
    summary["diverged_reps"] = sum(
        r["metrics"]["network"]["any_diverged"] for r in results)
    return {"replications": results, "summary": summary}
