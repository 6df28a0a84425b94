"""Collision, capture, and erasure semantics of the shared medium."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsim.channel import (BlockStreams, ChannelConfig, resolve_pointtopoint,
                           resolve_slot)
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


def slot(txs, cfg, rng):
    """Decoded indices (a list) of ``(index, offset)`` transmissions,
    ascending by index; the strict channel gets no offsets."""
    ks = np.array([k for k, _ in txs], np.int64)
    offsets = (None if cfg.mode == "strict_collision"
               else np.array([off for _, off in txs], float))
    return resolve_slot(ks, offsets, cfg, rng).tolist()


def test_strict_single_transmission_decodes():
    rng = np.random.default_rng(0)
    assert slot([(1, 0.0)], strict(), rng) == [1]


def test_strict_collision_loses_both():
    rng = np.random.default_rng(0)
    assert slot([(1, 0.0), (2, 0.0)], strict(), rng) == []


def test_offsets_outside_slot_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        slot([(1, 0.009)], capture(), rng)
    for off in (-1e-9, 0.007 + 1e-9):
        with pytest.raises(ConfigurationError):
            resolve_slot(np.array([0, 1]), np.array([0.001, off]),
                         capture(), rng)
        with pytest.raises(ConfigurationError):
            resolve_slot(np.array([0]), np.array([off]), strict(), rng)


def test_capture_nonoverlapping_both_decode():
    rng = np.random.default_rng(0)
    assert slot([(1, 0.0), (2, 0.005)], capture(), rng) == [1, 2]


def test_capture_touching_intervals_do_not_overlap():
    rng = np.random.default_rng(0)
    assert slot([(1, 0.0), (2, 0.003)], capture(), rng) == [1, 2]


def test_capture_pair_rate():
    rng = np.random.default_rng(1)
    cfg = capture(cp=0.3)
    hits = 0
    trials = 40_000
    for _ in range(trials):
        got = slot([(1, 0.0), (2, 0.001)], cfg, rng)
        assert got in ([], [1, 2])   # all or nothing per pair
        hits += got == [1, 2]
    se = math.sqrt(0.3 * 0.7 / trials)
    assert abs(hits / trials - 0.3) < 4 * se


def test_triple_pileup_always_lost():
    rng = np.random.default_rng(2)
    cfg = capture(cp=1.0)
    for _ in range(100):
        assert slot([(1, 0.0), (2, 0.002), (3, 0.004)], cfg, rng) == []


def test_chained_overlap_is_one_component():
    # 1 overlaps 2, 2 overlaps 3, 1 does not overlap 3: still a pileup.
    rng = np.random.default_rng(3)
    cfg = capture(cp=1.0)
    assert slot([(1, 0.0), (2, 0.0025), (3, 0.005)], cfg, rng) == []


def test_slotted_access_success_frequency():
    """Per-slot single-transmitter frequency over 1e5 slots matches
    N p (1-p)^{N-1} within 3 standard errors."""
    N, p, slots = 4, 0.25, 100_000
    rng = np.random.default_rng(4)
    cfg = strict()
    succ = 0
    for _ in range(slots):
        txs = [(k, 0.0) for k in range(N) if rng.random() < p]
        succ += len(slot(txs, cfg, rng)) == 1
    target = N * p * (1 - p) ** (N - 1)
    se = math.sqrt(target * (1 - target) / slots)
    assert abs(succ / slots - target) <= 3 * se


def test_erasure_rate():
    rng = np.random.default_rng(5)
    cfg = strict(eps=0.2)
    lost = sum(slot([(1, 0.0)], cfg, rng) == [] for _ in range(100_000))
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
    got = slot(txs, cfg, np.random.default_rng(seed))
    ref = slot(txs, strict(), np.random.default_rng(seed))
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
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = resolve_slot(np.array(ks, np.int64),
                       None if mode == "strict_collision"
                       else np.array(offsets), cfg, rng)
    want = reference_resolve_slot(list(zip(ks, offsets)), cfg, ref_rng)
    assert got.tolist() == sorted(want)
    assert rng.random() == ref_rng.random()


def uniform_streams(cfg, seeds, size=64):
    return BlockStreams([np.random.default_rng(s) for s in seeds],
                        lambda rng, k: rng.uniform(0.0, cfg.max_offset, k),
                        size)


def test_strict_run_builds_no_offset_streams():
    """Offsets are drawn only on the capture channel, so a strict run's
    loops keep their channel streams for nothing else."""
    systems, classes = systems_from_classes(3)
    for variant in ("aloha", "slotted_aloha"):
        def run_for(channel):
            return _Run(SimConfig(systems=systems, classes=classes,
                                  policy=SchedulerPolicy(variant, p=0.3),
                                  channel=channel, duration_s=1.0,
                                  warmup_s=0.2, cooldown_s=0.2))
        assert run_for(strict()).offsets is None
        assert run_for(capture()).offsets is not None


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
            out.append(slot([(1, 0.0), (2, 0.001), (3, 0.006)], cfg, rng))
        return out
    assert trace(9) == trace(9)
    assert trace(9) != trace(10)
