"""Deterministic simulation of N control loops on one shared hop.

Time advances in fixed sampling periods on an integer-microsecond clock.
Every period each loop's controller consumes the freshest delivered sample,
applies its feedback law, the plant steps forward, and the new sample replaces
the loop's older one: a loop always has one sample to send.  A sample is named
by its generation step alone: its state is that step's entry of the loop's
state history.  The selected medium-access policy moves samples across the
shared channel from ages alone, so a run takes two passes: medium access,
which ends in one record of every delivery, then the plants, which take in
each tick's deliveries as arrays before that tick.  Slotted
contention and beacon-framed scheduling use one slot per period, resolved
a block of slots at a time: the whole run where no decision reads an age
(ALOHA, slotted ALOHA, round-robin, an age threshold of one or less), one
frame for MEF, one slot where the age threshold gates; polling runs
back-to-back transactions, one outstanding at a time, and an event on a
tick's instant comes before that tick.  Acknowledgements are instantaneous
and lossless, so the source's view of its age is the gateway's.

The loop indices k = 0..N-1 name the loops in the run, the channel and
the MAC alike; loop id k + 1 appears only in seed keys, error messages and
outputs.  Runs of one config that differ only in their seed are ticked
together as one batch of R replications (:class:`_Run`), with the
replication as a second axis: the batch holds its state as arrays over
R·N rows, row r·N + k being loop k of replication r.  Rows of equal state
and input size are stepped together: a tick is a fixed number of array
operations whatever N and R are, and so is a block of slots, from its
(slots, R·N) transmit mask to the deliveries it marks.  Each row's
arithmetic is the single-loop arithmetic, so results do not depend on
how loops or replications are grouped: a replication of a batch gives
the bits its lone run gives.  The batch keeps its replications' gateway
state itself: their freshest generations and one error table, and one
MEF pass per frame schedules every replication.  What a replication
decides on its own (its slots' collisions, its polls) it decides with its
own streams.  The batch counts its rows' window transmissions and
receptions and keeps states, inputs and ages for every step; when the run
ends, the window's ages, errors and costs are summed in step order, a
block of steps at a time, and the metrics reduce each replication's rows
of sums, counts and divergence flags.

A loop's age depends only on when its samples are delivered, so an
age-only batch (``ages_only=True``, which theory validation asks for)
builds and ticks no plant: it takes its ages from the delivery record
alone and reports the same ages, errors, counts and fractions as the full
batch, with a nan stage cost and no claim about divergence.

Random draws come from one stream per loop and purpose (noise, access,
channel; the shared channel stream is loop id 0's), the stream
``np.random.default_rng((seed, loop id, purpose))`` gives.  A batch does
not build a SeedSequence per stream: it computes the state words of every
key of every replication in one pass of numpy's SeedSequence hash over
arrays of seeds and loop ids (:func:`_seed_words`) and starts each
stream's PCG64 from its row, so every draw keeps its bits.  A group of
rows draws its process noise whole when its batch is built, and the
draw depends only on the rows' seed words, the steps and the noise
scales.  The contention streams (access coins, offsets, channel coins)
are read through buffers whose first fill holds each row's values for
the whole run, up to a budget; it depends only on the rows' seed words,
its width and the draw, and a row that reads past it continues its own
stream.  So in one :func:`run_replication_sets` call, batches share what
they derive from their network alone (:func:`_shared`): the seed words
of equal seeds and N, the error table of the same systems, whose curves
grow by the same arithmetic whichever batch asks, and equal noise draws
and first fills, read-only.  In practice these are the protocols
compared on one network.

:func:`run_replication_sets` is the one path that runs replications:
each config's policy tuning and batches of seeded runs are tasks of one
worker pool, and the results do not depend on the number of workers.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .channel import (BlockStreams, ChannelConfig, first_fill,
                      resolve_pointtopoint, resolve_slot)
from .errors import ConfigurationError, InvariantViolation, is_integer
from .mac import (ReliabilityWindow, SchedulerPolicy, mef_build_schedule,
                  pmef_next, rr_next, wifresh_next)
from .metrics import MetricsAccumulator, MseTable
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
# Transmissions one block of slotted medium access can hold at most; bounds
# the memory of its offsets, coins and transmission lists.
_SLOT_BLOCK_VALUES = 1 << 12
# Values one contention stream's first fill holds at most (its rows times
# its width, one per row where the rows are more); bounds its memory.
_STREAM_VALUES = 1 << 16
# A batch of at most this many rows computes its ages in one array pass.
# The pass's running maximum costs about 3 ns a value, so from about 300
# rows one subtraction per tick (about 1 us) costs less.
_AGES_PASS_WIDTH = 256
# Rows (loops times replications) of one batch of replications at most,
# unless one replication has more: the history one N=1000 run keeps.
_BATCH_LOOPS = 1000


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
        for key in ("duration_s", "warmup_s", "cooldown_s"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(
                    f"{key} must be finite, got {getattr(self, key)!r}")
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
        if not is_integer(self.seed):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.window[1] < self.window[0]:
            raise ConfigurationError("empty evaluation window")

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


def _seed_words(seeds, ids) -> np.ndarray:
    """``words[purpose, r * len(ids) + j]`` is
    ``np.random.SeedSequence((seeds[r], ids[j], purpose)).generate_state(4,
    np.uint64)`` for each purpose 0-2, seed r and id j (each id below
    2**32).

    numpy's hash, computed for every key at once on uint32 arrays.  A
    key's entropy is its seed's 32-bit words, low first, then the id and
    the purpose; a seed of 2**64 or more makes it longer than the pool,
    and its extra words are mixed into every pool word after the pool's
    own mixing, in the keys that have them.
    """
    ids, seeds = np.asarray(ids), [int(seed) for seed in seeds]
    counts = np.array([max(1, -(-seed.bit_length() // 32)) for seed in seeds])
    words = np.array([[seed >> 32 * w & 0xFFFFFFFF for seed in seeds]
                      for w in range(counts.max())], np.uint32)
    entropy = np.zeros((max(len(words) + 2, 4), 3, len(seeds), len(ids)),
                       np.uint32)
    entropy[:len(words)] = words[:, None, :, None]
    # The id and the purpose follow each seed's own words.
    for count in set(counts.tolist()):
        entropy[count][:, counts == count] = ids
        entropy[count + 1][:, counts == count] = _PURPOSES[:, None]
    n = np.broadcast_to(counts[None, :, None], entropy.shape[1:]).reshape(-1)
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
        pool = b[4:].copy()
        _mix_into(pool, _hashmix(entropy[j], *_hashmix_constants(
            _INIT_A, _MULT_A, range(4 * j, 4 * j + 4))))
        # Only columns whose entropy has word j mix it in.
        b[4:] = np.where(n + 2 > j, pool, b[4:])
    # The eight output words cycle through the pool twice; read as
    # little-endian pairs, they are the four 64-bit words.
    out = _hashmix(b[4:], *_OUTPUT).reshape(8, -1)
    out = np.ascontiguousarray(out.T).astype("<u4", copy=False)
    return out.view("<u8").astype(np.uint64, copy=False).reshape(
        3, len(seeds) * len(ids), 4)


@functools.cache
def _seed_state() -> type:
    """The seed-sequence type that hands out a state computed beforehand:
    one row of :func:`_seed_words`, the four 64-bit words PCG64 asks for.

    Defined on first use: subclassing numpy's ISeedSequence imports
    numpy.random (12-17 ms), which ``import ncsim`` does not load.
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


def _random(rng, size: int) -> np.ndarray:
    return rng.random(size)


def _stream(words: np.ndarray) -> np.random.Generator:
    """The stream ``default_rng((seed, i, purpose))`` builds, from that
    key's row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_seed_state()(words)))


# While run_replication_sets runs, in its process and in its forked
# workers: what the batch built last derived from its network alone, by
# kind ("words", "table", "noise", "access", "offsets", "coins") and then
# by the inputs that fix it (see
# _shared).  None outside a call, which shares nothing.  Module state, as a
# worker keeps it from one task to the next.
_share: dict | None = None


def _shared(kind: str, keys: list, build) -> list:
    """The entries of ``kind`` under ``keys``, ``build(j)`` making the
    entry of ``keys[j]`` where the share lacks it.

    While :func:`run_replication_sets` shares, an entry is taken from the
    batch built last if its key is equal; a key names every input its
    entry depends on, so a hit is equal by construction.  The share first
    drops every entry of ``kind`` this batch does not take, so it never
    holds two batches' entries of one kind.  Outside a call every entry
    is built."""
    share = {} if _share is None else _share.setdefault(kind, {})
    for key in share.keys() - set(keys):
        del share[key]
    for j, key in enumerate(keys):
        if key not in share:
            share[key] = build(j)
    return [share[key] for key in keys]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _process_noise(draws, steps: int) -> list[np.ndarray]:
    """Each (words, std) group's process noise for steps 0..steps, shape
    (steps + 1, k, n, 1) and read-only: row j's stream, seeded by
    ``words[j]``, draws (steps + 1, n) normals, scaled by ``std[j]``.

    Nothing else enters the draw, so a group is keyed by its words, steps
    and scales, and batches that would draw equal noise (the protocols of
    one network, seeds and duration) share one array (:func:`_shared`)."""
    def draw(g):
        words, std = draws[g]
        k, n = std.shape
        noise = np.empty((steps + 1, k, n, 1))
        for j, row in enumerate(words):
            noise[:, j, :, 0] = _stream(row).normal(size=(steps + 1, n))
        noise[..., 0] *= std
        return _read_only(noise)

    return _shared("noise", [(words.tobytes(), steps, std.shape[1],
                              std.tobytes()) for words, std in draws], draw)


class _Plants:
    """Loops of one state size n and input size m, stepped as stacks.

    Row j is the batch's row ``rows[j]`` (see :class:`_Run`), whose system
    is ``plants[plant[j]]``.  States and inputs are stacks of columns,
    shape (k, n, 1) and (k, m, 1), kept for the whole run: ``X[t]`` is
    x[t], ``U[t]`` the input applied at step t and ``noise[t]`` the
    process noise added after it, which the batch draws whole from the
    row's own stream, scaled by ``noise_std`` (:func:`_process_noise`); it
    is only read, and may be shared with another batch's group.  ``xhat``
    is the estimate of the last tick, and a tick writes it, the input and
    the state in place; delivered samples set estimates a set of rows at
    a time (:meth:`receive`).
    Tick t >= 1 writes x[t + 1], so x[1] is never computed: it stays
    x[0] = 0, a sample of generation 1 carries a zero state, and
    ``noise[0]`` is drawn only to keep the stream's later draws.
    Every product is computed per row exactly as for a single loop;
    one-state one-input loops use elementwise products, which give the
    bits of 1x1 matrix products at a fraction of their cost.
    """

    def __init__(self, plants, plant: np.ndarray, rows: np.ndarray,
                 steps: int):
        k, n, m = len(rows), plants[0].n, plants[0].m
        self.rows = rows
        self.X = np.zeros((steps + 2, k, n, 1))
        self.U = np.zeros((steps + 1, k, m, 1))
        # Per-plant parameters, gathered by each row's plant index.
        stack = lambda entry: np.array([entry(s) for s in plants],
                                       float)[plant]
        self.noise_std = stack(lambda s: s.noise_std)
        self.noise = None          # the batch draws it for all its groups
        self.xhat = np.zeros((k, n, 1))
        self.A, self.B = stack(lambda s: s.A), stack(lambda s: s.B)
        self.Q, self.R = stack(lambda s: s.Q), stack(lambda s: s.R)
        self.K = stack(lambda s: np.zeros((m, n)) if s.gain is None
                       else s.gain)
        self.scalar = n == m == 1
        self.mul = np.multiply if self.scalar else np.matmul
        self.ax = np.empty((k, n, 1))      # A x, the ticks' scratch
        self.free = None
        if self.scalar:
            self.K = -self.K               # u = (-g) x, as for one loop
        else:
            # Gainless loops with more states apply u = 0, not -(0 x),
            # which is nan for an infinite estimate.
            free = np.flatnonzero(stack(lambda s: s.gain is None))
            self.free = free if len(free) else None
        self.bu = self.mul(self.B, self.U[0])  # B u of the last tick

    def control(self, xhat, out):
        if self.scalar:
            return np.multiply(self.K, xhat, out=out)
        u = np.negative(np.matmul(self.K, xhat, out=out), out=out)
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
        x[t+1] = A x[t] + B u[t] + w[t], each written in place."""
        mul, ax, bu, xhat = self.mul, self.ax, self.bu, self.xhat
        x = self.X[t + 1]
        np.add(mul(self.A, xhat, out=ax), bu, out=xhat)
        mul(self.B, self.control(xhat, self.U[t]), out=bu)
        np.add(mul(self.A, self.X[t], out=ax), bu, out=x)
        np.add(x, self.noise[t], out=x)

    def receive(self, j: np.ndarray, lag: int, t: int):
        """Rows j take in their samples of step t - 1 - lag before tick t:
        each estimate of step t - 1 is its sample's state rolled forward
        through the inputs applied since, all rows in one array pass."""
        x, A, B = self.X[t - 1 - lag, j], self.A[j], self.B[j]
        for q in range(t - 1 - lag, t - 1):
            x = self.mul(A, x) + self.mul(B, self.U[q, j])
        self.xhat[j] = x


class _Deliveries(NamedTuple):
    """The samples medium access delivered, as arrays sorted by tick, then
    row: row ``row[d]`` takes in its sample of step ``gen[d]`` before tick
    ``tick[d]``, the first tick after its arrival.  A row is listed at
    most once per tick."""

    tick: np.ndarray
    row: np.ndarray
    gen: np.ndarray


class _Run:
    """R replications of one config, ticked together: the runs with seeds
    ``seeds`` (R = len(seeds), by default the config's own seed alone).

    State is held as arrays over the batch's R·N rows: row i = r·N + k is
    loop k of replication r.  A loop always has a sample to send: the last
    tick's, or its initial state x[0] before the first tick.  Medium access
    (``_slots`` for each block of slots, or ``_polls``) moves ``nu``, each
    row's freshest delivered generation (its age at step t is t - nu).
    Slotted access marks each slot's transmitters and deliveries in
    ``sent`` and ``got`` (row t for slot t) and takes them into ``nu``
    before a decision reads it; polls list each accepted sample in
    ``arrivals``.  ``tx`` and ``rx`` count each row's transmissions and
    receptions of generations in the window ``t_start..t_end``.  Access
    ends in one delivery record (:class:`_Deliveries`).  Then
    ``_tick_plants`` takes each tick's deliveries in and steps every group
    of rows of equal dimensions (:class:`_Plants`, ``groups``) with a fixed
    number of array operations per tick, for all replications at once,
    and keeps every step's ages (``ages``), states and inputs; once the
    run ends, ``diverged`` flags the rows that left the divergence bound,
    and the metrics are reduced from them.

    An age-only batch (``ages_only``) has no plant groups: it only sets
    the ages from the record (:meth:`_set_ages`), sums no stage cost and
    flags no divergence, so its results carry a nan stage cost and no
    divergence flags (None).  It keeps no series, which need states.

    The batch is its replications' gateways: one
    :class:`~ncsim.metrics.MseTable` (``table``) holds the error curves, as
    a curve depends only on its plant, and one MEF pass per frame
    schedules every replication (one column each).  The table, the seed
    words, the process noise and the first fills of the contention
    streams (``access``, ``offsets``, ``coins``) depend on the network
    alone, so within one :func:`run_replication_sets` call the next batch
    of the same network takes them over (:func:`_shared`).  What a
    replication cannot share it keeps to itself: where it reads its
    streams, and past their first fills the streams themselves, its
    slots' resolution with its own shared coin stream (``coins``, one row
    each), its polls with their :class:`~ncsim.mac.ReliabilityWindow`,
    and its results.
    """

    def __init__(self, cfg: SimConfig, seeds=None, ages_only: bool = False):
        self.cfg = cfg
        self.seeds = [cfg.seed] if seeds is None else list(seeds)
        if not (self.seeds and all(is_integer(s) and s >= 0
                                   for s in self.seeds)):
            raise ConfigurationError(
                "need at least one seed, each a non-negative integer")
        if ages_only and cfg.record_series:
            raise ConfigurationError(
                "an age-only run keeps no series: they need the states")
        self.ages_only = ages_only
        self.policy = cfg.policy.resolved(cfg.n_loops)
        self.channel = cfg.channel
        self.N = N = cfg.n_loops
        self.R = R = len(self.seeds)
        self.Ts_us = round(cfg.T_s * 1e6)
        self.tx_us = round(cfg.channel.tx_duration * 1e6)
        self.steps = round(cfg.duration_s / cfg.T_s)
        self.t_start, self.t_end = cfg.window
        self.metrics = MetricsAccumulator(N, self.t_start, self.t_end,
                                          cfg.classes)
        # Keyed by the systems' identities, which no other object can take
        # while the entry lives: the table holds its plants, and every id
        # in the key is one of them.
        self.table = table = _shared(
            "table", [tuple(map(id, cfg.systems))],
            lambda _: MseTable(cfg.systems))[0]
        self.firsts = np.arange(R) * N    # each replication's first row
        self.nu = np.zeros(R * N, np.int64)
        self.tx = np.zeros(R * N, np.int64)
        self.rx = np.zeros(R * N, np.int64)
        self.diverged = np.zeros(R * N, bool)
        self.ages = np.zeros((self.steps + 1, R * N), np.int64)
        self.arrivals = []     # polled (tick, row, gen), as accepted
        # words[purpose, r (N + 1) + i]: the seed words of loop id i's
        # stream in replication r; row i's loop id key is keys[i].
        words = _shared("words", [(tuple(self.seeds), N)],
                        lambda _: _read_only(_seed_words(
                            self.seeds, np.arange(N + 1))))[0]
        row = np.arange(R * N)
        loop, keys = row % N, row + row // N + 1
        sizes = [(sys.n, sys.m) for sys in table.plants]
        self.groups = []
        for size in () if ages_only else dict.fromkeys(sizes):
            # The group's plants, and each row's plant index among them
            # (-1 for rows of another size).
            ps = [p for p, other in enumerate(sizes) if other == size]
            plant = np.array([ps.index(p) if p in ps else -1
                              for p in range(len(sizes))])[table.plant[loop]]
            rows = (plant >= 0).nonzero()[0]
            self.groups.append(_Plants([table.plants[p] for p in ps],
                                       plant[rows], rows, self.steps))
        noise = _process_noise([(words[_RNG_NOISE, keys[g.rows]], g.noise_std)
                                for g in self.groups], self.steps)
        for g, w in zip(self.groups, noise):
            g.noise = w
        # Batch row -> its channel stream, built on its first draw: most
        # loops of a short large-N scheduled run never draw, and a stream
        # depends only on its seed words, so building it late moves no draw.
        channel_words = words[_RNG_CHANNEL, keys]
        self.rng_channel = functools.cache(
            lambda row: _stream(channel_words[row]))
        self.access = self.offsets = self.coins = None
        if self.policy.is_contention:
            streams = self._contention_streams
            if self.policy.variant in ("slotted_aloha", "adra"):
                self.access = streams("access", words[_RNG_ACCESS, keys],
                                      _random, "random")
            capture = self.channel.mode == "offset_capture"
            if capture:
                top = self.channel.max_offset
                self.offsets = streams(
                    "offsets", words[_RNG_CHANNEL, keys],
                    lambda rng, size: rng.uniform(0.0, top, size),
                    ("uniform", top))
            if capture or self.channel.erasure_prob:
                # Each replication's capture and erasure coins.
                self.coins = streams("coins", words[_RNG_CHANNEL, ::N + 1],
                                     _random, "random")
        # An age threshold of 1 or less never gates: nu <= t - 1 in slot t.
        self.gated = (self.policy.variant == "adra"
                      and self.policy.threshold >= 2)
        self.sent = self.got = None
        if not self.policy.is_polling:
            # Each slot's transmitters and deliveries, row t for slot t;
            # nu takes in the deliveries of slots before ``settled``.
            self.sent = np.zeros((self.steps + 1, R * N), bool)
            self.got = np.zeros_like(self.sent)
            self.settled = 1
        self.end_us = self.steps * self.Ts_us
        # A poll or its reply that is lost is given up this long after
        # the poll was sent.
        self.poll_wait_us = 2 * self.tx_us + round(POLL_GUARD_S * 1e6)

    def _contention_streams(self, kind: str, words: np.ndarray, draw,
                            name) -> BlockStreams:
        """The streams seeded by the rows of ``words``, read through a
        buffer whose first fill holds each row's values for every slot of
        the run, or ``_STREAM_VALUES`` in all.  The fill depends only on
        the words, its width and the draw, which ``name`` names, so the
        batches of one network draw it once (:func:`_shared`)."""
        width = min(self.steps + 1, max(1, _STREAM_VALUES // len(words)))
        stream = lambda row: _stream(words[row])
        first = _shared(kind, [(words.tobytes(), width, name)],
                        lambda _: first_fill(stream, len(words), draw,
                                             width))[0]
        return BlockStreams(first, stream, draw)

    # ---- plant pass -------------------------------------------------------

    def _set_ages(self, record: _Deliveries):
        """``ages[t] = t - nu`` for every step t, nu being each row's
        freshest generation that the record delivers before tick t (0
        before any).  A batch of at most ``_AGES_PASS_WIDTH`` rows writes
        each delivery's generation at its tick and takes the running
        maximum down the steps; a wider one keeps ``nu`` and subtracts it
        tick by tick.  The integers are exact either way."""
        (tick, row, gen), ages = record, self.ages
        if ages.shape[1] <= _AGES_PASS_WIDTH:
            ages[tick, row] = gen      # a row is listed once per tick
            np.maximum.accumulate(ages, axis=0, out=ages)
            np.subtract(np.arange(len(ages))[:, None], ages, out=ages)
            return
        edges = np.searchsorted(tick, np.arange(len(ages) + 1)).tolist()
        nu = np.zeros_like(self.nu)
        for t in range(1, len(ages)):
            lo, hi = edges[t], edges[t + 1]
            if lo < hi:
                nu[row[lo:hi]] = gen[lo:hi]
            np.subtract(t, nu, out=ages[t])

    def _tick_plants(self, record: _Deliveries):
        """Ticks 1..steps, after the ages (:meth:`_set_ages`).  Before a
        group's tick t, each of its rows the record lists for t takes in
        its sample: its estimate of step t - 1 becomes the sample's state,
        rolled forward if the sample is older (lag >= 1 steps).  The
        group takes its lag-0 samples in with one masked copy and the
        others in one array pass per lag."""
        self._set_ages(record)
        steps, (tick, row, gen) = self.steps, record
        lag = tick - 1 - gen
        plans = []
        for g in self.groups:
            # The record's rows by their index in this group, -1 outside it.
            index = np.full(len(self.nu), -1)
            index[g.rows] = np.arange(len(g.rows))
            j = index[row]
            # Lag 0: each tick's rows as a mask.  Lag d >= 1: its rows in
            # tick order, and where each tick's rows start.
            fresh = np.zeros((steps + 2, len(g.rows), 1, 1), bool)
            late = []
            for d in np.bincount(lag[j >= 0]).nonzero()[0].tolist():
                mine = (j >= 0) & (lag == d)
                if d == 0:
                    fresh[tick[mine], j[mine]] = True
                else:
                    late.append((d, j[mine], np.searchsorted(
                        tick[mine], np.arange(steps + 2)).tolist()))
            plans.append((g, fresh, late))
        for t in range(1, steps + 1):
            for g, fresh, late in plans:
                np.copyto(g.xhat, g.X[t - 1], where=fresh[t])
                for d, j, at in late:
                    if at[t] < at[t + 1]:
                        g.receive(j[at[t]:at[t + 1]], d, t)
                g.tick(t)

    def _window_sums(self) -> np.ndarray:
        """Each row's age, MSE, nMSE and stage cost summed over the
        metrics window, as rows of a (4, R·N) array; an age-only run sums
        no stage cost, and its row is nan.

        The steps are added in order, as a running total would add them,
        a block at a time with the total so far as each block's first row.
        numpy sums pairwise only along the fast axis in memory, which in a
        block runs over the quantities and rows, so reducing over its
        steps adds row after row; a one-loop column summed on its own
        would be summed pairwise and round differently.  A diverged loop
        can produce nan (inf times a zero weight); it counts as +inf.
        """
        table, width = self.table, self.R * self.N
        sums = np.full((4, width), math.nan)
        # The quantities summed: all four, or the first three.
        total = sums[:3 if self.ages_only else 4]
        total[:] = 0.0
        block = max(1, _SUM_BLOCK_VALUES // width)
        for lo in range(self.t_start, self.t_end + 1, block):
            steps = slice(lo, min(lo + block, self.t_end + 1))
            ages = self.ages[steps]
            values = np.empty((len(ages) + 1, len(total), width))
            values[0] = total
            rows = values[1:]
            rows[:, 0] = ages
            # The table's curves run over one replication's loops.
            by_rep = rows.reshape(len(ages), len(total), self.R, self.N)
            by_rep[:, 1], by_rep[:, 2] = table.mse_and_nmse(
                ages.reshape(len(ages), self.R, self.N))
            for g in self.groups:
                rows[:, 3, g.rows] = g.cost(g.X[steps], g.U[steps])[..., 0, 0]
            np.fmin(rows, math.inf, out=rows)
            np.add.reduce(values, axis=0, out=total)
        return sums

    def _flag_diverged(self):
        """Flag each row whose state ever left the divergence bound."""
        for g in self.groups:
            # x[2..steps+1], the states the ticks produced; max and min
            # propagate nan, which fails both comparisons.
            axes = (0, 2, 3)
            ok = ((g.X[2:].max(axis=axes) <= DIVERGENCE_THRESHOLD)
                  & (g.X[2:].min(axis=axes) >= -DIVERGENCE_THRESHOLD))
            self.diverged[g.rows[~ok]] = True

    # ---- slotted medium access ------------------------------------------

    def _blocks(self) -> list[tuple[int, int]]:
        """(lo, hi) of each block of slots lo..hi - 1, in order: one MEF
        frame, one slot where the age threshold gates, otherwise as many
        slots as keep the transmissions they can hold (every row in each
        slot, or one per replication under round-robin) within
        ``_SLOT_BLOCK_VALUES``."""
        if self.policy.variant == "mef":
            size = self.policy.frame_len
        elif self.gated:
            size = 1
        else:
            senders = self.R if self.policy.variant == "round_robin" else (
                self.R * self.N)
            size = max(1, _SLOT_BLOCK_VALUES // senders)
        return [(lo, min(lo + size, self.steps + 1))
                for lo in range(1, self.steps + 1, size)]

    def _slots(self, lo: int, hi: int):
        """Slots lo..hi - 1 of every replication, resolved from their rows
        of the transmit mask ``sent`` (under contention in one
        ``resolve_slot`` call).  Slot t starts on tick t's instant; its
        deliveries, marked in ``got``, land before the next tick, except
        the last slot's, which land after the run ends and are dropped."""
        sent = self.sent[lo:hi]
        self._transmitters(lo, sent)
        cells = sent.reshape(-1).nonzero()[0]
        if self.policy.is_contention:
            decoded = resolve_slot(cells, self.N, self._offsets(sent, cells),
                                   self.channel, self.coins)
        else:
            decoded = self._pointtopoint(sent, cells)
        width = sent.shape[1]
        if hi > self.steps:
            decoded = decoded[decoded < (self.steps - lo) * width]
        self.got[lo:hi].reshape(-1)[decoded] = True

    def _settle(self, t: int):
        """Take the deliveries of the slots before t into ``nu``."""
        for s in range(self.settled, t):
            self.nu[self.got[s]] = s
        self.settled = t

    def _transmitters(self, lo: int, sent: np.ndarray):
        """Mark each slot lo + s's transmitters in row s of ``sent``: the
        loop round-robin serves, the loops of MEF's frame, built from the
        ages t - nu at its first slot, every loop (aloha), each with
        probability p (slotted ALOHA), or, in a one-slot block, each whose
        age t - nu reached the threshold with probability p."""
        pol, slots = self.policy, len(sent)
        if pol.variant == "round_robin":
            ks = rr_next(np.arange(lo, lo + slots), self.N)[:, None]
        elif pol.variant == "mef":
            self._settle(lo)
            ks = mef_build_schedule(
                self.table, (lo - self.nu).reshape(self.R, self.N),
                pol.frame_len, pol.use_nmse)[:slots]
        elif self.access is None:
            sent[:] = True
            return
        else:
            # A loop draws an access coin in each slot it may send in.
            eligible = True
            if self.gated:
                self._settle(lo)
                eligible = self.nu <= lo - pol.threshold
            np.less(self.access.head(slots), pol.p, out=sent, where=eligible)
            self.access.advance(eligible if self.gated else slots)
            return
        sent[np.arange(slots)[:, None], self.firsts + ks] = True

    def _offsets(self, sent: np.ndarray, cells: np.ndarray):
        """Each transmitting cell's start offset, None on the strict
        channel: a row draws its next offset in each slot it sends in."""
        if self.offsets is None:
            return None
        rows = cells % sent.shape[1]
        counts = np.bincount(rows, minlength=sent.shape[1])
        head = self.offsets.head(int(counts.max(initial=0)))
        self.offsets.advance(counts)
        if len(head) < 2:        # no row sends twice
            return head[0, rows] if len(head) else head[:0, 0]
        # A cell's offset is its row's next after those of its earlier slots.
        reads = np.cumsum(sent, axis=0, dtype=np.int32)
        return head[reads.reshape(-1)[cells] - 1, rows]

    def _pointtopoint(self, sent: np.ndarray, cells: np.ndarray):
        """The decoded cells of a scheduled block: each transmission flips
        an erasure coin of its row's channel stream, slot after slot; an
        erasure-free hop decodes them all and reads no stream."""
        if self.channel.erasure_prob == 0.0:
            return cells
        ok = [resolve_pointtopoint(self.channel, self.rng_channel(i))
              for i in (cells % sent.shape[1]).tolist()]
        return cells[np.array(ok, bool)]

    def _slotted_deliveries(self) -> _Deliveries:
        """Count the window's transmissions and deliveries, take every
        delivery into ``nu``, and return the record: a delivery of slot t
        carries its sample of step t to tick t + 1."""
        window = slice(self.t_start, self.t_end + 1)
        self.tx += self.sent[window].sum(axis=0)
        self.rx += self.got[window].sum(axis=0)
        slot, rows = np.divmod(self.got.reshape(-1).nonzero()[0],
                               self.got.shape[1])
        np.maximum.at(self.nu, rows, slot)
        return _Deliveries(slot + 1, rows, slot)

    # ---- deliveries -------------------------------------------------------

    def _listed_deliveries(self) -> _Deliveries:
        """The record of the deliveries :meth:`on_delivery` accepted.  It
        accepts only strictly fresher samples, so of a row's arrivals
        before one tick the last is the freshest: it is the one kept."""
        tick, row, gen = np.array(self.arrivals, np.int64).reshape(-1, 3).T
        # Stable: a row's arrivals before one tick stay in their order.
        order = np.lexsort((row, tick))
        key = (tick * len(self.nu) + row)[order]
        last = np.ones(len(key), bool)
        last[:-1] = key[1:] != key[:-1]
        keep = order[last]
        return _Deliveries(tick[keep], row[keep], gen[keep])

    def on_delivery(self, i: int, gen: int, step: int):
        """Row i's sample from step ``gen`` arrives at step ``step``: a
        reception, counted if ``gen`` lies in the window.  The gateway
        accepts only strictly fresher generations, which the plant pass
        takes in before tick ``step + 1``; returns whether it did."""
        if self.t_start <= gen <= self.t_end:
            self.rx[i] += 1
        if gen <= self.nu[i]:
            return False
        if gen > step:
            raise InvariantViolation(
                f"loop {i % self.N + 1}: sample from step {gen} "
                f"delivered at {step}")
        self.nu[i] = gen
        self.arrivals.append((step + 1, i, gen))
        return True

    # ---- polling: one transaction outstanding at a time ------------------

    def _polls(self, r: int):
        """Replication r's back-to-back polls from time 0 until the run ends;
        a lost poll or reply is given up ``poll_wait_us`` after the poll was
        sent.  An event at ``us`` sees step (us - 1) // Ts_us; one after the
        end is not handled.  A decision weighs each loop's reliability by
        its ``ages``, step - nu floored at one, or under pMEF by its error
        at that age (``weights``): all are read again once a tick has
        passed, and the delivered loop's at a delivery in the same tick."""
        first, Ts, tx, end = r * self.N, self.Ts_us, self.tx_us, self.end_us
        t_start, t_end, count = self.t_start, self.t_end, self.tx
        nu = self.nu[first:first + self.N]
        table, use_nmse = self.table, self.policy.use_nmse
        pmef = self.policy.variant == "pmef"
        ages, seen = np.ones(self.N, np.int64), 0
        weights = table.errors(ages, use_nmse) if pmef else ages
        window = ReliabilityWindow(self.N)
        # An erasure-free hop decodes every packet without a coin.
        lossy, rng = self.channel.erasure_prob > 0.0, None
        now = 0
        while now < end:
            step = (now - 1) // Ts
            if step > seen:
                seen = step
                # A sample delivered on this step's instant has nu = step.
                np.maximum(np.subtract(step, nu, out=ages), 1, out=ages)
                if pmef:
                    weights = table.errors(ages, use_nmse)
            now_s = now * 1e-6
            rel = window.reliability(now_s)
            if pmef:
                k = pmef_next(weights, rel)
            else:
                k = wifresh_next(weights, rel)
            window.record_poll(k, now_s)
            if lossy:
                rng = self.rng_channel(first + k)
            if resolve_pointtopoint(self.channel, rng):
                if now + tx > end:
                    break
                gen = (now + tx - 1) // Ts
                if t_start <= gen <= t_end:
                    count[first + k] += 1
                if resolve_pointtopoint(self.channel, rng):
                    now += 2 * tx
                    if now > end:
                        break
                    step = (now - 1) // Ts
                    # A delivery in a tick the polls have not seen yet is
                    # read with that tick's ages, before the next decision.
                    if self.on_delivery(first + k, gen, step) and step == seen:
                        ages[k] = age = max(1, step - gen)
                        if pmef:
                            weights[k] = table.error(k, age, use_nmse)
                    window.record_data(k, now * 1e-6)
                    continue
            now += self.poll_wait_us    # the poll or its reply was lost

    # ---- main loop -------------------------------------------------------

    def execute(self) -> list[dict]:
        """Run the batch, access then plants; results in seed order."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.policy.is_polling:
                for r in range(self.R):
                    self._polls(r)
                record = self._listed_deliveries()
            else:
                for lo, hi in self._blocks():
                    self._slots(lo, hi)
                record = self._slotted_deliveries()
            if self.ages_only:
                self._set_ages(record)
            else:
                self._tick_plants(record)
                self._flag_diverged()
            sums = self._window_sums()
        return [self._result(r, sums) for r in range(self.R)]

    def _result(self, r: int, sums: np.ndarray) -> dict:
        """Replication r's result: its metrics and, if recorded, its
        loops' series."""
        N, first = self.N, r * self.N
        rows = slice(first, first + N)
        result = {"metrics": self.metrics.finalize(
                      *sums[:, rows], self.tx[rows], self.rx[rows],
                      None if self.ages_only else self.diverged[rows]),
                  "seed": self.seeds[r]}
        if self.cfg.record_series:
            states = {}
            for g in self.groups:
                for j in np.flatnonzero(g.rows // N == r).tolist():
                    state = g.X[1:-1, j, :, 0]
                    states[int(g.rows[j]) - first] = (state[:, 0] if g.scalar
                                                      else state)
            result["series"] = {
                k + 1: {"aoi": self.ages[1:, first + k].copy(),
                        "state": states[k].copy()} for k in range(N)}
        return result


def run(cfg: SimConfig, seeds=None, *, ages_only: bool = False):
    """One deterministic simulation run.  Given ``seeds``, the runs of
    ``cfg`` with each seed, ticked as one batch (:class:`_Run`), as a
    list in seed order; each equals ``run(replace(cfg, seed=s))``.  An
    age-only run (``ages_only``) ticks no plant: see :class:`_Run`."""
    results = _Run(cfg, seeds, ages_only).execute()
    return results[0] if seeds is None else results


def _replicate(cfg: SimConfig, seeds: list[int],
               ages_only: bool) -> list[dict]:
    """Run ``cfg`` with each of ``seeds`` as one batch; a pool worker's
    unit of work.  The pool is handed this function rather than
    :func:`run` itself: a task's function is pickled by its module-level
    name, which a wrapper put in place of ``run`` (a tracer's closure)
    does not have, while this function looks ``run`` up when it runs."""
    return run(cfg, seeds, ages_only=ages_only)


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
    # parent's modules loaded instead of importing them again, numpy.random
    # included once it is loaded here.
    _seed_state()
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _sharing():
    """Share what batches derive from their network alone
    (:func:`_shared`) while the block runs, also in the workers of a pool
    forked inside it."""
    global _share
    _share = {}
    try:
        yield
    finally:
        _share = None


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


def _batch_sizes(reps: int, n_loops: int, share: int) -> list[int]:
    """A config's replications split into ``share`` batches (at most
    ``reps``), or into more where a batch would hold more than
    ``_BATCH_LOOPS // n_loops`` replications; sizes in seed order, the
    larger first, differing by at most one."""
    count = max(min(reps, share),
                -(-reps // max(1, _BATCH_LOOPS // n_loops)))
    size, extra = divmod(reps, count)
    return [size + (b < extra) for b in range(count)]


def run_replication_sets(cfgs: list[SimConfig], reps: int, jobs: int = 1, *,
                         ages_only: bool = False
                         ) -> list[tuple[SimConfig, list[dict]]]:
    """``reps`` replications (seed, seed+1, ...) of each config, run in
    batches (:func:`run` with seeds), every batch a task in one pool of at
    most ``jobs`` worker processes.

    Each config's replications are split into ``ceil(jobs / len(cfgs))``
    batches, at most ``reps``, so that the pool has work for every worker;
    a batch holds at most ``max(1, _BATCH_LOOPS // N)`` replications, so
    that no batch keeps more rows of history than one run of
    ``_BATCH_LOOPS`` loops.  A config whose policy needs tuning (see
    :attr:`~ncsim.mac.SchedulerPolicy.needs_tuning`) is tuned as a task in
    the same pool, ahead of all runs, and its batches are queued as soon
    as the tuning returns, so they overlap the other configs' runs.
    With ``ages_only`` every batch is an age-only run (see :class:`_Run`),
    whose results :func:`summarize_replications` rejects: their stage
    cost is nan and they flag no divergence.
    Consecutive batches of one network build its seed words, error
    table, process noise and contention streams' first fills once (see
    :func:`_shared`): in this process for one
    job, in each worker for more; the share ends with the call.  A worker
    unpickles new system objects for every task, so there tables are
    shared only within a task.
    Returns, per config, the config as run (its policy resolved) and its
    replication results in seed order, identical for every ``jobs``.  A
    worker that dies surfaces as ``concurrent.futures.BrokenExecutor``; an
    exception raised in a task reaches the caller as itself.
    """
    if reps < 1:
        raise ConfigurationError("need at least one replication")
    tune = [k for k, cfg in enumerate(cfgs) if cfg.policy.needs_tuning]
    splits = [_batch_sizes(reps, cfg.n_loops, -(-jobs // len(cfgs)))
              for cfg in cfgs]
    sets = [None] * len(cfgs)
    with _sharing(), _pool(
            min(jobs, len(tune) + sum(map(len, splits)))) as pool:
        def submit(k, policy):
            cfg = replace(cfgs[k], policy=policy)
            seeds = iter(range(cfg.seed, cfg.seed + reps))
            sets[k] = cfg, [
                pool.submit(_replicate, cfg, list(itertools.islice(seeds, n)),
                            ages_only)
                for n in splits[k]]

        tunings = {pool.submit(cfgs[k].policy.resolved, cfgs[k].n_loops): k
                   for k in tune}
        for k, cfg in enumerate(cfgs):
            if not cfg.policy.needs_tuning:
                submit(k, cfg.policy.resolved(cfg.n_loops))
        for future in concurrent.futures.as_completed(tunings):
            submit(tunings[future], future.result())
        return [(cfg, [result for f in batches for result in f.result()])
                for cfg, batches in sets]


def summarize_replications(results: list[dict]) -> dict:
    """Replication results plus the summary :func:`run_replications`
    describes.

    A metric without a meaningful interval gets an unbounded half-width,
    and ``summary["unbounded"]`` maps it to the reason: one replication,
    a non-finite replication mean, or a spread beyond float64 (heavy
    tails of a diverging network).  Age-only results (see :func:`run`)
    raise :class:`ConfigurationError`: they carry no stage cost and no
    divergence flag to summarize."""
    if any(r["metrics"]["network"]["any_diverged"] is None for r in results):
        raise ConfigurationError(
            "age-only results carry no stage cost or divergence to "
            "summarize")
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
