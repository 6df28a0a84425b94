"""Deterministic simulation of N control loops on one shared hop.

Time advances in fixed sampling periods on an integer-microsecond clock.
Every period each loop's controller consumes the freshest delivered sample,
applies its feedback law, the plant steps forward, and the new sample replaces
the loop's older one: a loop always has one sample to send.  A sample is named
by its generation step alone: its state is that step's entry of the loop's
state history.  The selected medium-access policy moves samples across the
shared channel.  Slotted contention and beacon-framed scheduling use one slot
per period, and a slot's deliveries land before the next tick.  Polling runs
back-to-back transactions between ticks as one coroutine, so at most one is
outstanding; its events due at or before a tick's instant are handled before
that tick.  Acknowledgements are instantaneous and lossless, so the source's
view of its age is the gateway's.

A run holds its state as arrays over the loop indices k = 0..N-1, which
name the loops in the run, the channel and the MAC alike; loop id k + 1
appears only in seed keys, error messages and outputs.  Loops of equal state
and input size are stepped together: a tick is a fixed number of array
operations whatever N is.  Each row's arithmetic is the single-loop
arithmetic, so results do not depend on how loops are grouped.  A
delivery brings its loop's estimate up to the current step at once.
States, inputs and ages are kept for every step; when the run ends, the
window's ages, errors and costs are summed in step order, a block of steps
at a time, and handed to the metrics.

Random draws come from one stream per loop and purpose (noise, access,
channel; the shared channel stream is loop id 0's), the stream
``np.random.default_rng((seed, loop id, purpose))`` gives.  A run does not
build a SeedSequence per stream: it computes the state words of every key
in one pass of numpy's SeedSequence hash over arrays of loop ids
(:func:`_seed_words`) and starts each stream's PCG64 from its row, so
every draw keeps its bits.  The contention streams are read through
buffers drawn a block at a time, which gives the same values.

:func:`run_replication_sets` is the one path that runs replications:
each config's policy tuning and seeded runs are tasks of one worker
pool, and the results do not depend on the number of workers.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .channel import (BlockStreams, ChannelConfig, resolve_pointtopoint,
                      resolve_slot)
from .errors import ConfigurationError, InvariantViolation
from .mac import (Gateway, SchedulerPolicy, mef_build_schedule, pmef_next,
                  rr_next, wifresh_next)
from .metrics import MetricsAccumulator
from .systems import LtiSystem, make_preset

__all__ = ["SimConfig", "systems_from_classes", "run", "run_replications",
           "run_replication_sets", "summarize_replications",
           "DEFAULT_CLASSES", "DIVERGENCE_THRESHOLD"]

DIVERGENCE_THRESHOLD = 1e12
POLL_GUARD_S = 0.002  # extra wait before a poll transaction is declared lost

# Named sub-streams per loop; the shared channel stream uses loop id 0.
_RNG_NOISE, _RNG_ACCESS, _RNG_CHANNEL = 0, 1, 2
# Loop-steps per block of the end-of-run window sums; bounds their memory.
_SUM_BLOCK_VALUES = 1 << 12


@dataclass
class SimConfig:
    """Everything one simulation run depends on.

    The sampling period ``T_s`` is fixed at 10 ms, the period the preset
    plants are discretized at.
    """

    T_s: ClassVar[float] = 0.010

    systems: list[LtiSystem]
    policy: SchedulerPolicy
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    duration_s: float = 30.0
    warmup_s: float = 5.0
    cooldown_s: float = 5.0
    seed: int = 0
    record_series: bool = False          # keep per-tick AoI and state arrays

    def __post_init__(self):
        if not self.systems:
            raise ConfigurationError("need at least one loop")
        for key in ("warmup_s", "cooldown_s"):
            if getattr(self, key) < 0:
                raise ConfigurationError(
                    f"{key} must be non-negative, got {getattr(self, key)!r}")
        if self.duration_s <= self.warmup_s + self.cooldown_s:
            raise ConfigurationError(
                "duration must exceed warmup plus cooldown")
        if round(self.channel.tx_duration * 1e6) < 1:
            raise ConfigurationError(
                "tx_duration must be at least 1 us, the clock's resolution")
        if self.channel.slot_duration > self.T_s:
            # A slot recurs every period, so its deliveries must land
            # before the next tick.
            raise ConfigurationError("slot_duration must not exceed T_s")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    @property
    def classes(self) -> list[str]:
        """Per-loop labels for resource shares: the systems' names."""
        return [s.name or "?" for s in self.systems]

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
# The class pattern of a network that names none.
DEFAULT_CLASSES = ("easy", "mid", "hard")


def systems_from_classes(n_loops: int, pattern=DEFAULT_CLASSES):
    """Cycle the class pattern over the loops (loop 1 gets pattern[0]).

    Synthesized presets are cached and shared, which is safe because they
    are never mutated by a run.
    """
    if n_loops < 1:
        raise ConfigurationError("n_loops must be >= 1")
    if not pattern:
        raise ConfigurationError("the class pattern names no class")
    labels = [pattern[k % len(pattern)] for k in range(n_loops)]
    for cls in set(labels):
        if cls not in _PRESET_CACHE:
            _PRESET_CACHE[cls] = make_preset(cls)
    return [_PRESET_CACHE[c] for c in labels]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
# hashmix call k xors its word with h_k = INIT * MULT**k, multiplies it by
# h_(k+1), mod 2**32, and xors it with itself shifted right by 16; the
# pool uses the A pair, the output words the B pair.
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_SHIFT = np.uint32(16)


def _hashmix_constants(init: int, mult: int, calls) -> tuple:
    """The xor and multiplier columns of the listed hashmix calls."""
    h = lambda k: init * pow(mult, k, 1 << 32) % (1 << 32)
    return (np.array([h(k) for k in calls], np.uint32)[:, None],
            np.array([h(k + 1) for k in calls], np.uint32)[:, None])


# Calls 0-3 fill the pool.  Calls 4 + 3s.. mix source word s into the other
# three in index order; _seed_words updates them in the order s+1, s+2,
# s+3 (mod 4), so each step's columns follow that order.
_FILL = _hashmix_constants(_INIT_A, _MULT_A, range(4))
_SPREAD = [_hashmix_constants(
    _INIT_A, _MULT_A, [4 + 3 * s + d - (d > s)
                       for d in ((s + 1) % 4, (s + 2) % 4, (s + 3) % 4)])
           for s in range(4)]
_OUTPUT = tuple(c.reshape(2, 4, 1)
                for c in _hashmix_constants(_INIT_B, _MULT_B, range(8)))
_PURPOSES = np.array([[_RNG_NOISE], [_RNG_ACCESS], [_RNG_CHANNEL]], np.uint32)


def _hashmix(v, xor, mul):
    v = v ^ xor
    v *= mul
    v ^= v >> _SHIFT
    return v


def _mix_into(x, y):
    """x = mix(x, y) = (L x - R y) xor-shifted, in place."""
    r = x * _MIX_L
    y *= _MIX_R
    r -= y
    np.bitwise_xor(r, r >> _SHIFT, out=x)


def _seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """``words[purpose, j]`` is
    ``np.random.SeedSequence((seed, ids[j], purpose)).generate_state(4,
    np.uint64)`` for each purpose 0-2 and id (each below 2**32).

    numpy's hash, computed for every row at once on uint32 arrays.  The
    entropy is the seed's 32-bit words, low first, then the id and the
    purpose; a seed of 2**64 or more makes it longer than the pool, and
    its extra words are mixed into every pool word after the pool's own
    mixing.
    """
    key = []
    while True:
        key.append(seed % (1 << 32))
        seed >>= 32
        if not seed:
            break
    n = len(key)
    entropy = np.zeros((max(n + 2, 4), 3, len(ids)), np.uint32)
    entropy[:n] = np.array(key, np.uint32)[:, None, None]
    entropy[n] = ids
    entropy[n + 1] = _PURPOSES
    entropy = entropy.reshape(len(entropy), -1)
    # Pool word d lives at b[d] until step d - 1 has mixed it, then at
    # b[d + 4]: step s mixes b[s] into b[s + 1:s + 4], and b[4:] ends as
    # the pool.
    b = np.empty((8, entropy.shape[1]), np.uint32)
    b[:4] = _hashmix(entropy[:4], *_FILL)
    b[4] = b[0]
    for s in range(4):
        if s > 1:
            b[s + 3] = b[s - 1]
        _mix_into(b[s + 1:s + 4], _hashmix(b[s], *_SPREAD[s]))
    b[7] = b[3]
    for j in range(4, len(entropy)):
        _mix_into(b[4:], _hashmix(entropy[j], *_hashmix_constants(
            _INIT_A, _MULT_A, range(4 * j, 4 * j + 4))))
    # The eight output words cycle through the pool twice; read as
    # little-endian pairs, they are the four 64-bit words.
    out = _hashmix(b[4:], *_OUTPUT).reshape(8, -1)
    out = np.ascontiguousarray(out.T).astype("<u4", copy=False)
    return out.view("<u8").astype(np.uint64, copy=False).reshape(
        3, len(ids), 4)


@functools.cache
def _seed_state() -> type:
    """The seed-sequence type that hands out a state computed beforehand:
    one row of :func:`_seed_words`, the four 64-bit words PCG64 asks for.

    Defined on first use: subclassing numpy's ISeedSequence imports
    numpy.random (about 0.2 s), which ``import ncsim`` does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds exactly four 64-bit words")
            return self.words

    return SeedState


def _stream(words: np.ndarray) -> np.random.Generator:
    """The stream ``default_rng((seed, i, purpose))`` builds, from that
    key's row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_seed_state()(words)))


class _Plants:
    """Loops of one state size n and input size m, stepped as stacks.

    Row j is loop ``loops[j]``, whose system is ``plants[plant[j]]``.
    States and inputs are stacks of columns, shape (k, n, 1) and (k, m, 1),
    kept for the whole run: ``X[t]`` is x[t], ``U[t]`` the input applied at
    step t and ``noise[t]`` the process noise added after it, drawn from
    the row's own stream, seeded by its row of ``words``.  ``xhat`` is
    the estimate of the last tick.  Every product is computed per row
    exactly as for a single loop; one-state one-input loops use elementwise
    products, which give the bits of 1x1 matrix products at a fraction of
    their cost.
    """

    def __init__(self, plants, plant: np.ndarray, loops: np.ndarray,
                 steps: int, words: np.ndarray):
        k, n, m = len(loops), plants[0].n, plants[0].m
        self.loops = loops
        self.X = np.zeros((steps + 2, k, n, 1))
        self.U = np.zeros((steps + 1, k, m, 1))
        # Per-plant parameters, gathered by each row's plant index.
        stack = lambda entry: np.array([entry(s) for s in plants],
                                       float)[plant]
        self.noise = np.empty((steps + 1, k, n, 1))
        for j, row in enumerate(words):
            self.noise[:, j, :, 0] = _stream(row).normal(size=(steps + 1, n))
        self.noise[..., 0] *= stack(lambda s: s.noise_std)
        self.xhat = np.zeros((k, n, 1))
        self.A, self.B = stack(lambda s: s.A), stack(lambda s: s.B)
        self.Q, self.R = stack(lambda s: s.Q), stack(lambda s: s.R)
        self.K = stack(lambda s: np.zeros((m, n)) if s.gain is None
                       else s.gain)
        self.scalar = n == m == 1
        self.mul = np.multiply if self.scalar else np.matmul
        self.free = None
        if self.scalar:
            self.K = -self.K               # u = (-g) x, as for one loop
        else:
            # Gainless loops with more states apply u = 0, not -(0 x),
            # which is nan for an infinite estimate.
            free = np.flatnonzero(stack(lambda s: s.gain is None))
            self.free = free if len(free) else None
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
    """Loop index -> that loop's channel stream, built on its first draw
    from the seed words of loop id k + 1, ``words[k + 1]``; most loops of a
    short large-N scheduled run never draw.  A stream depends only on its
    seed words, so building it late changes no draw.
    """

    def __init__(self, words: np.ndarray):
        super().__init__()
        self.words = words

    def __missing__(self, k: int) -> np.random.Generator:
        rng = self[k] = _stream(self.words[k + 1])
        return rng


class _Run:
    """One run's state, held as arrays over the loop indices k.

    ``nu`` is each loop's freshest delivered generation.  A loop always has a
    sample to send: the last tick's, or its initial state x[0] before the first
    tick.  Loops of equal dimensions form one :class:`_Plants` group (``at[k]``
    is loop k's group and row), and each tick steps every group with a fixed
    number of array operations.  The tick keeps every step's ages (``ages``),
    states and inputs; the metrics are reduced from them once the run ends.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.policy = cfg.policy.resolved(cfg.n_loops)
        self.channel = cfg.channel
        self.N = N = cfg.n_loops
        self.Ts_us = round(cfg.T_s * 1e6)
        self.tx_us = round(cfg.channel.tx_duration * 1e6)
        self.steps = round(cfg.duration_s / cfg.T_s)
        self.metrics = MetricsAccumulator(N, *cfg.window, cfg.classes)
        self.gateway = Gateway(cfg.systems)
        self.nu = np.zeros(N, np.int64)
        self.ages = np.zeros((self.steps + 1, N), np.int64)
        # words[purpose, i]: the seed words of loop id i's stream.
        words = _seed_words(cfg.seed, np.arange(N + 1))
        table = self.gateway.table
        sizes = [(sys.n, sys.m) for sys in table.plants]
        self.groups, self.at = [], [None] * N
        for size in dict.fromkeys(sizes):
            # The group's plants, and each loop's plant index among them
            # (-1 for loops of another size).
            ps = [p for p, other in enumerate(sizes) if other == size]
            plant = np.array([ps.index(p) if p in ps else -1
                              for p in range(len(sizes))])[table.plant]
            ks = (plant >= 0).nonzero()[0]
            group = _Plants([table.plants[p] for p in ps], plant[ks], ks,
                            self.steps, words[_RNG_NOISE, ks + 1])
            self.groups.append(group)
            for j, k in enumerate(ks.tolist()):
                self.at[k] = (group, j)
        self.rng_channel = _ChannelStreams(words[_RNG_CHANNEL])
        self.access = self.offsets = self.rng_shared = None
        if self.policy.is_contention:
            # Capture and erasure coins of every slot.
            self.rng_shared = _stream(words[_RNG_CHANNEL, 0])
            streams = lambda purpose: [_stream(row)
                                       for row in words[purpose, 1:]]
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
        x[t] becomes each loop's sample to send."""
        self.current_step = t
        self.ages[t] = np.subtract(t, self.nu, out=self.gateway.est_age)
        for group in self.groups:
            group.tick(t)

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
        m, table = self.metrics, self.gateway.table
        total = np.zeros((4, self.N))
        block = max(1, _SUM_BLOCK_VALUES // self.N)
        for lo in range(m.t_start, m.t_end + 1, block):
            steps = slice(lo, min(lo + block, m.t_end + 1))
            ages = self.ages[steps]
            values = np.empty((len(ages) + 1, 4, self.N))
            values[0] = total
            rows = values[1:]
            rows[:, 0] = ages
            rows[:, 1], rows[:, 2] = table.mse_and_nmse(ages)
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
        """Indices of this slot's transmitters, ascending: every loop
        (aloha), each with probability p (slotted ALOHA), or each whose age
        reached the threshold with probability p."""
        if self.policy.variant == "adra":
            ks = (self.gateway.est_age >= self.policy.threshold).nonzero()[0]
        else:
            ks = np.arange(self.N)
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
        else:  # round_robin or mef
            if self.policy.variant == "round_robin":
                k = rr_next(t, self.N)
            else:
                k = self.mef_schedule[(t - 1) % self.policy.frame_len]
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


def _replicate(cfg: SimConfig, seed: int) -> dict:
    """Run ``cfg`` with ``seed``; a pool worker's unit of work."""
    return run(replace(cfg, seed=seed))


class _InProcess:
    """Executor stand-in that runs each call as it is submitted."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@contextlib.contextmanager
def _pool(workers: int):
    """A process pool of ``workers`` processes or, for one, an executor
    that runs each task in the calling process.  Leaving the block cancels
    the queued tasks: after a failure they would only delay its report."""
    if workers <= 1:
        yield _InProcess()
        return
    # The default start method, fork on Linux: workers begin with the
    # parent's modules loaded instead of importing them again.
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def run_replications(cfg: SimConfig, reps: int,
                     jobs: int = 1) -> dict:
    """Independent replications (seed, seed+1, ...) with 99% intervals.

    Returns per-replication results plus a summary of replication-mean
    network metrics with Student-t confidence half-widths.  With
    ``jobs > 1`` the replications run in one pool of at most ``jobs``
    worker processes; the result does not depend on ``jobs``.
    """
    _, results = run_replication_sets([cfg], reps, jobs)[0]
    return summarize_replications(results)


def run_replication_sets(cfgs: list[SimConfig], reps: int, jobs: int = 1
                         ) -> list[tuple[SimConfig, list[dict]]]:
    """``reps`` replications (seed, seed+1, ...) of each config, every one
    a task in one pool of at most ``jobs`` worker processes.

    A config whose policy needs tuning (see
    :attr:`~ncsim.mac.SchedulerPolicy.needs_tuning`) is tuned as a task in
    the same pool, ahead of all runs, and its replications are queued as
    soon as the tuning returns, so they overlap the other configs' runs.
    Returns, per config, the config as run (its policy resolved) and its
    replication results in seed order, identical for every ``jobs``.  A
    worker that dies surfaces as ``concurrent.futures.BrokenExecutor``; an
    exception raised in a task reaches the caller as itself.
    """
    if reps < 1:
        raise ConfigurationError("need at least one replication")
    tune = [k for k, cfg in enumerate(cfgs) if cfg.policy.needs_tuning]
    sets = [None] * len(cfgs)
    with _pool(min(jobs, len(tune) + len(cfgs) * reps)) as pool:
        def submit(k, policy):
            cfg = replace(cfgs[k], policy=policy)
            sets[k] = cfg, [pool.submit(_replicate, cfg, cfg.seed + r)
                            for r in range(reps)]

        tunings = {pool.submit(cfgs[k].policy.resolved, cfgs[k].n_loops): k
                   for k in tune}
        for k, cfg in enumerate(cfgs):
            if not cfg.policy.needs_tuning:
                submit(k, cfg.policy.resolved(cfg.n_loops))
        for future in concurrent.futures.as_completed(tunings):
            submit(tunings[future], future.result())
        return [(cfg, [f.result() for f in futures])
                for cfg, futures in sets]


def summarize_replications(results: list[dict]) -> dict:
    """Replication results plus the summary :func:`run_replications`
    describes.

    A metric without a meaningful interval gets an unbounded half-width,
    and ``summary["unbounded"]`` maps it to the reason: one replication,
    a non-finite replication mean, or a spread beyond float64 (heavy
    tails of a diverging network)."""
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
                # Equal bit for bit to scipy.stats.t.ppf(0.995, reps - 1),
                # without importing scipy.stats.
                from scipy.special import stdtrit
                half = float(stdtrit(reps - 1, 0.995)
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
