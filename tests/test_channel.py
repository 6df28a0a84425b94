"""Collision, capture, and erasure semantics of the shared medium."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsim.channel import (BlockStreams, ChannelConfig, draw_offsets,
                           resolve_pointtopoint, resolve_slot)
from ncsim.errors import ConfigurationError


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


def test_strict_single_transmission_decodes():
    rng = np.random.default_rng(0)
    assert resolve_slot([(1, 0.0)], strict(), rng) == {1}


def test_strict_collision_loses_both():
    rng = np.random.default_rng(0)
    assert resolve_slot([(1, 0.0), (2, 0.0)], strict(), rng) == set()


def test_offsets_outside_slot_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        resolve_slot([(1, 0.009)], capture(), rng)


def test_capture_nonoverlapping_both_decode():
    rng = np.random.default_rng(0)
    assert resolve_slot([(1, 0.0), (2, 0.005)], capture(), rng) == {1, 2}


def test_capture_touching_intervals_do_not_overlap():
    rng = np.random.default_rng(0)
    assert resolve_slot([(1, 0.0), (2, 0.003)], capture(), rng) == {1, 2}


def test_capture_pair_rate():
    rng = np.random.default_rng(1)
    cfg = capture(cp=0.3)
    hits = 0
    trials = 40_000
    for _ in range(trials):
        got = resolve_slot([(1, 0.0), (2, 0.001)], cfg, rng)
        assert got in (set(), {1, 2})   # all or nothing per pair
        hits += got == {1, 2}
    se = math.sqrt(0.3 * 0.7 / trials)
    assert abs(hits / trials - 0.3) < 4 * se


def test_triple_pileup_always_lost():
    rng = np.random.default_rng(2)
    cfg = capture(cp=1.0)
    for _ in range(100):
        assert resolve_slot([(1, 0.0), (2, 0.002), (3, 0.004)], cfg, rng) == set()


def test_chained_overlap_is_one_component():
    # 1 overlaps 2, 2 overlaps 3, 1 does not overlap 3: still a pileup.
    rng = np.random.default_rng(3)
    cfg = capture(cp=1.0)
    assert resolve_slot([(1, 0.0), (2, 0.0025), (3, 0.005)], cfg, rng) == set()


def test_slotted_access_success_frequency():
    """Per-slot single-transmitter frequency over 1e5 slots matches
    N p (1-p)^{N-1} within 3 standard errors."""
    N, p, slots = 4, 0.25, 100_000
    rng = np.random.default_rng(4)
    cfg = strict()
    succ = 0
    for _ in range(slots):
        txs = [(i, 0.0) for i in range(1, N + 1) if rng.random() < p]
        succ += len(resolve_slot(txs, cfg, rng)) == 1
    target = N * p * (1 - p) ** (N - 1)
    se = math.sqrt(target * (1 - target) / slots)
    assert abs(succ / slots - target) <= 3 * se


def test_erasure_rate():
    rng = np.random.default_rng(5)
    cfg = strict(eps=0.2)
    lost = sum(resolve_slot([(1, 0.0)], cfg, rng) == set()
               for _ in range(100_000))
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
    txs = [(i, 0.0) for i in range(1, n_tx + 1)]
    got = resolve_slot(txs, cfg, np.random.default_rng(seed))
    ref = resolve_slot(txs, strict(), np.random.default_rng(seed))
    assert got == ref


def uniform_streams(cfg, seeds, size=64):
    return BlockStreams([np.random.default_rng(s) for s in seeds],
                        lambda rng, k: rng.uniform(0.0, cfg.max_offset, k),
                        size)


def test_draw_offsets_strict_pins_zero():
    cfg = capture()
    streams = uniform_streams(cfg, [0, 1])
    assert draw_offsets(np.array([0, 1]), strict(), streams) == \
        [(0, 0.0), (1, 0.0)]
    # Nothing was drawn: the streams still start with their first values.
    first = np.random.default_rng(1).uniform(0.0, cfg.max_offset)
    assert streams.take(np.array([1])).tolist() == [first]


def test_draw_offsets_capture_in_range_and_per_loop():
    cfg = capture()
    txs = draw_offsets(np.array([0, 1]), cfg, uniform_streams(cfg, [0, 1]))
    for _, off in txs:
        assert 0.0 <= off <= cfg.max_offset
    # A loop's draw depends only on its own stream.
    again = draw_offsets(np.array([0]), cfg, uniform_streams(cfg, [1]))
    assert again[0][1] == txs[1][1]


@settings(max_examples=30, deadline=None)
@given(reads=st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                      max_size=40),
       size=st.integers(1, 5))
def test_block_streams_match_single_draws(reads, size):
    """Reading rows in any pattern, across refills, gives each row the
    values its generator would give one call at a time."""
    cfg = capture()
    streams = uniform_streams(cfg, [4, 5, 6], size)
    single = [np.random.default_rng(s) for s in (4, 5, 6)]
    for mask in reads:
        rows = np.flatnonzero(mask)
        got = streams.take(rows).tolist()
        assert got == [float(single[r].uniform(0.0, cfg.max_offset))
                       for r in rows]


def test_determinism_under_fixed_seed():
    cfg = capture(eps=0.1, cp=0.5)
    def trace(seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(200):
            out.append(sorted(resolve_slot(
                [(1, 0.0), (2, 0.001), (3, 0.006)], cfg, rng)))
        return out
    assert trace(9) == trace(9)
    assert trace(9) != trace(10)
