"""Collision, capture, and erasure semantics of the shared medium."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncsim.channel import (BlockStreams, ChannelConfig, _pileups, first_fill,
                           resolve_pointtopoint, resolve_slot)
from ncsim.engine import SimConfig, _Run, systems_from_classes
from ncsim.errors import ConfigurationError
from ncsim.mac import SchedulerPolicy


def strict(eps=0.0):
    return ChannelConfig(mode="strict_collision", erasure_prob=eps)


def capture(eps=0.0, cp=0.1):
    return ChannelConfig(mode="offset_capture", erasure_prob=eps,
                         capture_prob=cp)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChannelConfig(mode="fancy")
    with pytest.raises(ConfigurationError):
        ChannelConfig(erasure_prob=1.0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(tx_duration=0.02, slot_duration=0.01)
    with pytest.raises(ConfigurationError):
        ChannelConfig(capture_prob=1.5)


def random_draws(rng, size):
    return rng.random(size)


def streams(draw, seeds, width=64):
    """Streams of ``default_rng(seed)`` for each of ``seeds``, read through
    a buffer whose first fill is ``width`` values wide."""
    stream = lambda row: np.random.default_rng(seeds[row])
    return BlockStreams(first_fill(stream, len(seeds), draw, width), stream,
                        draw)


def shared(*seeds):
    """Shared coin streams, one per replication, read a block at a time."""
    return streams(random_draws, seeds)


def block(slots, cfg, coins, n=64):
    """Decoded indices (a list per slot) of a block of slots, each a list of
    ``(index, offset)`` transmissions with indices below n, resolved in
    one call; slot s is medium s, so with one coin stream the slots take
    their coins in order.  The strict channel gets no offsets."""
    txs = [(s * n + k, off) for s, one in enumerate(slots)
           for k, off in sorted(one)]
    cells = np.array([c for c, _ in txs], np.int64)
    offsets = (None if cfg.mode == "strict_collision"
               else np.array([off for _, off in txs], float))
    out = [[] for _ in slots]
    for c in resolve_slot(cells, n, offsets, cfg, coins).tolist():
        out[c // n].append(c % n)
    return out


def slot(txs, cfg, coins):
    """Decoded indices (a list) of one slot's ``(index, offset)``
    transmissions, ascending by index."""
    return block([txs], cfg, coins)[0]


def test_strict_single_transmission_decodes():
    assert slot([(1, 0.0)], strict(), shared(0)) == [1]


def test_strict_collision_loses_both():
    assert slot([(1, 0.0), (2, 0.0)], strict(), shared(0)) == []


def test_offsets_outside_slot_rejected():
    coins = shared(0)
    with pytest.raises(ConfigurationError):
        slot([(1, 0.009)], capture(), coins)
    for off in (-1e-9, 0.007 + 1e-9):
        with pytest.raises(ConfigurationError):
            resolve_slot(np.array([0, 1]), 2, np.array([0.001, off]),
                         capture(), coins)
        with pytest.raises(ConfigurationError):
            resolve_slot(np.array([0]), 1, np.array([off]), strict(), coins)


def test_capture_nonoverlapping_both_decode():
    assert slot([(1, 0.0), (2, 0.005)], capture(), shared(0)) == [1, 2]


def test_capture_touching_intervals_do_not_overlap():
    assert slot([(1, 0.0), (2, 0.003)], capture(), shared(0)) == [1, 2]


def test_capture_pair_rate():
    cfg = capture(cp=0.3)
    trials = 40_000
    got = block([[(1, 0.0), (2, 0.001)]] * trials, cfg, shared(1))
    assert all(g in ([], [1, 2]) for g in got)   # all or nothing per pair
    hits = sum(g == [1, 2] for g in got)
    se = math.sqrt(0.3 * 0.7 / trials)
    assert abs(hits / trials - 0.3) < 4 * se


def test_triple_pileup_always_lost():
    coins = shared(2)
    cfg = capture(cp=1.0)
    for _ in range(100):
        assert slot([(1, 0.0), (2, 0.002), (3, 0.004)], cfg, coins) == []


def test_chained_overlap_is_one_component():
    # 1 overlaps 2, 2 overlaps 3, 1 does not overlap 3: still a pileup.
    cfg = capture(cp=1.0)
    assert slot([(1, 0.0), (2, 0.0025), (3, 0.005)], cfg, shared(3)) == []


def test_slotted_access_success_frequency():
    """Per-slot single-transmitter frequency over 1e5 slots matches
    N p (1-p)^{N-1} within 3 standard errors."""
    N, p, slots = 4, 0.25, 100_000
    rng = np.random.default_rng(4)
    cfg = strict()
    txs = [[(k, 0.0) for k in np.flatnonzero(sends).tolist()]
           for sends in rng.random((slots, N)) < p]
    succ = sum(len(got) == 1 for got in block(txs, cfg, shared(4)))
    target = N * p * (1 - p) ** (N - 1)
    se = math.sqrt(target * (1 - target) / slots)
    assert abs(succ / slots - target) <= 3 * se


def test_erasure_rate():
    cfg = strict(eps=0.2)
    lost = sum(got == [] for got in block([[(1, 0.0)]] * 100_000, cfg,
                                          shared(5)))
    assert abs(lost / 100_000 - 0.2) < 0.01 * 0.2 + 3 * math.sqrt(0.2 * 0.8 / 100_000)


def test_pointtopoint():
    rng = np.random.default_rng(6)
    assert resolve_pointtopoint(strict(), rng)
    cfg = strict(eps=0.2)
    lost = sum(not resolve_pointtopoint(cfg, rng) for _ in range(100_000))
    se = math.sqrt(0.2 * 0.8 / 100_000)
    assert abs(lost / 100_000 - 0.2) < 4 * se


@settings(max_examples=40, deadline=None)
@given(n_tx=st.integers(0, 5), seed=st.integers(0, 10**6))
def test_capture_degrades_to_strict(n_tx, seed):
    """Full-slot transmissions with no capture replicate strict collisions."""
    cfg = ChannelConfig(mode="offset_capture", tx_duration=0.01,
                        slot_duration=0.01, capture_prob=0.0)
    txs = [(k, 0.0) for k in range(n_tx)]
    got = slot(txs, cfg, shared(seed))
    ref = slot(txs, strict(), shared(seed))
    assert got == ref


# ---- the tuple-based resolution, as a plain-Python reference --------------

def reference_components(txs, tx_duration):
    """Maximal chains of pairwise-in-time overlap among (index, offset)
    transmissions; touching endpoints do not overlap."""
    txs = sorted(txs, key=lambda t: (t[1], t[0]))
    comps = []
    cur, cur_end = [], None
    for k, off in txs:
        if cur and off < cur_end:
            cur.append(k)
            cur_end = max(cur_end, off + tx_duration)
        else:
            if cur:
                comps.append(cur)
            cur, cur_end = [k], off + tx_duration
    if cur:
        comps.append(cur)
    return comps


def reference_resolve_slot(transmissions, cfg, rng) -> set[int]:
    """Decoded indices of a list of (index, offset) pairs, one coin at a
    time."""
    for _, off in transmissions:
        if not 0.0 <= off <= cfg.max_offset + 1e-12:
            raise ConfigurationError(f"offset {off} outside the slot")
    if cfg.mode == "strict_collision":
        survivors = ([k for k, _ in transmissions]
                     if len(transmissions) == 1 else [])
    else:
        survivors = []
        for comp in reference_components(transmissions, cfg.tx_duration):
            if len(comp) == 1:
                survivors.extend(comp)
            elif len(comp) == 2:
                if rng.random() < cfg.capture_prob:
                    survivors.extend(comp)
    decoded = set()
    for k in sorted(survivors):
        if cfg.erasure_prob == 0.0 or rng.random() >= cfg.erasure_prob:
            decoded.add(k)
    return decoded


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       mode=st.sampled_from(["strict_collision", "offset_capture"]),
       cp=st.sampled_from([0.0, 0.3, 1.0]), eps=st.sampled_from([0.0, 0.2]),
       seed=st.integers(0, 2**32 - 1))
def test_array_resolution_matches_reference(data, mode, cp, eps, seed):
    """On a 0.5 ms offset grid, where equal offsets and exactly touching
    intervals occur, the array resolution decodes what the tuple-based
    one decodes and leaves the shared stream at the same next draw."""
    cfg = ChannelConfig(mode=mode, erasure_prob=eps, capture_prob=cp)
    ks = sorted(data.draw(st.sets(st.integers(0, 20), max_size=12),
                          label="ks"))
    grid = data.draw(st.lists(st.integers(0, 14), min_size=len(ks),
                              max_size=len(ks)), label="grid")
    offsets = [g * 0.0005 for g in grid]      # 0 .. max_offset = 7 ms
    coins, ref_rng = shared(seed), np.random.default_rng(seed)
    got = resolve_slot(np.array(ks, np.int64), 21,
                       None if mode == "strict_collision"
                       else np.array(offsets), cfg, coins)
    want = reference_resolve_slot(list(zip(ks, offsets)), cfg, ref_rng)
    assert got.tolist() == sorted(want)
    assert coins.head(1)[0, 0] == ref_rng.random()


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       mode=st.sampled_from(["strict_collision", "offset_capture"]),
       cp=st.sampled_from([0.0, 0.3, 1.0]), eps=st.sampled_from([0.0, 0.2]),
       reps=st.integers(1, 3), n=st.integers(1, 8), slots=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_block_resolution_matches_per_slot(data, mode, cp, eps, reps, n,
                                           slots, seed):
    """A block of several slots of several replications decodes what
    resolving each slot of each replication on its own decodes, one coin
    at a time from that replication's stream, slot after slot, and
    leaves every stream at the same next value.  Offsets lie on a 0.5 ms
    grid, where equal offsets and exactly touching intervals occur."""
    cfg = ChannelConfig(mode=mode, erasure_prob=eps, capture_prob=cp)
    sends = data.draw(st.lists(st.booleans(), min_size=slots * reps * n,
                               max_size=slots * reps * n), label="sends")
    cells = np.flatnonzero(sends)
    grid = data.draw(st.lists(st.integers(0, 14), min_size=len(cells),
                              max_size=len(cells)), label="grid")
    offsets = np.array(grid) * 0.0005
    seeds = [seed + r for r in range(reps)]
    coins, refs = shared(*seeds), [np.random.default_rng(s) for s in seeds]
    got = resolve_slot(cells, n, None if mode == "strict_collision"
                       else offsets, cfg, coins)
    want = []
    for medium in range(slots * reps):   # slot s of replication r
        mine = cells // n == medium
        txs = list(zip((cells[mine] % n).tolist(), offsets[mine].tolist()))
        ref = reference_resolve_slot(txs, cfg, refs[medium % reps])
        want += [medium * n + k for k in sorted(ref)]
    assert got.tolist() == want
    assert coins.head(1)[0].tolist() == [ref.random() for ref in refs]


def test_strict_run_builds_no_offset_streams():
    """Offsets are drawn only on the capture channel, so a strict run's
    loops keep their channel streams for nothing else; an erasure-free
    strict run flips no coin, so it draws no coins either."""
    systems = systems_from_classes(3)
    for variant in ("aloha", "slotted_aloha"):
        def run_for(channel):
            return _Run(SimConfig(systems=systems,
                                  policy=SchedulerPolicy(variant, p=0.3),
                                  channel=channel, duration_s=1.0,
                                  warmup_s=0.2, cooldown_s=0.2))
        strict_run = run_for(strict())
        assert strict_run.offsets is None and strict_run.coins is None
        assert run_for(strict(eps=0.1)).coins is not None
        capture_run = run_for(capture())
        assert capture_run.offsets is not None
        assert capture_run.coins is not None


@settings(max_examples=100, deadline=None)
@given(reads=st.lists(st.tuples(st.integers(0, 12),
                                st.lists(st.integers(0, 12), min_size=3,
                                         max_size=3)),
                      max_size=40),
       width=st.integers(1, 5), runs=st.integers(1, 2))
@example(reads=[(1, [0, 0, 1]), (1, [0, 1, 0])], width=1, runs=1)
def test_block_streams_match_single_draws(reads, width, runs):
    """Reading rows in any pattern, across refills and widenings, gives
    each row the values its generator would give one call at a time; a
    head shows the values a row left unread again.  Buffers that share
    one first fill read it in turns, each in its own pattern, and rows
    that read past it continue their streams."""
    cfg = capture()
    draw = lambda rng, k: rng.uniform(0.0, cfg.max_offset, k)
    seeds = [4, 5, 6]
    stream = lambda row: np.random.default_rng(seeds[row])
    first = first_fill(stream, 3, draw, width)
    buffers = [BlockStreams(first, stream, draw) for _ in range(runs)]
    singles = [[np.random.default_rng(s) for s in seeds] for _ in buffers]
    for j, (k, counts) in enumerate(reads):
        buffer, single = buffers[j % runs], singles[j % runs]
        counts = [min(c, k) for c in counts]
        head = buffer.head(k)
        assert head.shape == (k, 3)
        buffer.advance(np.array(counts))
        for r, count in enumerate(counts):
            assert head[:count, r].tolist() == [
                float(single[r].uniform(0.0, cfg.max_offset))
                for _ in range(count)]
    assert first.tolist() == [draw(stream(r), width).tolist()
                              for r in range(3)]


@st.composite
def pileup_blocks(draw):
    """Ascending media (unequal counts, gaps between them, equal counts,
    one full medium or none at all) and offsets on a 0.5 ms grid, where
    ties occur."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["any", "equal", "full", "empty"]))
    if shape == "empty":
        media = []
    elif shape == "full":
        media = [draw(st.integers(0, 4))] * n
    else:
        chosen = sorted(draw(st.sets(st.integers(0, 8), max_size=5)))
        count = draw(st.integers(1, n))
        media = [m for m in chosen for _ in range(
            count if shape == "equal" else draw(st.integers(1, n)))]
    grid = draw(st.lists(st.integers(0, 6), min_size=len(media),
                         max_size=len(media)))
    return (np.array(media, np.int64).reshape(-1),
            np.array(grid, float).reshape(-1) * 0.0005)


@settings(max_examples=200, deadline=None)
@given(block=pileup_blocks())
def test_pileups_order_by_medium_offset_and_position(block):
    """The pileup order is Python's ``sorted`` by (medium, offset,
    position), and a pileup starts at each new medium and where an offset
    reaches the previous one plus the transmission time."""
    media, offsets = block
    tx = 0.001
    order, new = _pileups(media, offsets, tx)
    want = sorted(range(len(media)),
                  key=lambda i: (media[i], offsets[i], i))
    assert order.tolist() == want
    starts = [j == 0 or media[want[j]] != media[want[j - 1]]
              or offsets[want[j]] >= offsets[want[j - 1]] + tx
              for j in range(len(want))]
    assert new.tolist() == starts + [True, True]


def test_determinism_under_fixed_seed():
    cfg = capture(eps=0.1, cp=0.5)
    def trace(seed):
        coins = shared(seed)
        out = []
        for _ in range(200):
            out.append(slot([(1, 0.0), (2, 0.001), (3, 0.006)], cfg, coins))
        return out
    assert trace(9) == trace(9)
    assert trace(9) != trace(10)
