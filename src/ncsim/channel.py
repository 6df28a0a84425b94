"""Shared-medium semantics for the single wireless hop.

Two modes are provided.  ``strict_collision`` is the idealized slotted
medium used for theory validation: a slot decodes exactly when one
transmitter used it.  ``offset_capture`` mimics a testbed where sources
start transmitting at unsynchronized offsets inside the slot, so packets
can miss each other in time, and two overlapping packets occasionally
both decode (capture).  Survivors of either mode face an independent
erasure with probability ``erasure_prob``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["ChannelConfig", "BlockStreams", "draw_offsets", "resolve_slot",
           "resolve_pointtopoint"]

MODES = ("strict_collision", "offset_capture")


@dataclass(frozen=True)
class ChannelConfig:
    mode: str = "strict_collision"
    erasure_prob: float = 0.0
    tx_duration: float = 0.003      # seconds
    slot_duration: float = 0.010    # seconds
    capture_prob: float = 0.1       # both-decode chance for an overlapping pair

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"channel mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.erasure_prob < 1.0:
            raise ConfigurationError("erasure_prob must be in [0, 1)")
        if not 0.0 <= self.capture_prob <= 1.0:
            raise ConfigurationError("capture_prob must be in [0, 1]")
        if self.tx_duration <= 0 or self.slot_duration <= 0:
            raise ConfigurationError("durations must be positive")
        if self.tx_duration > self.slot_duration:
            raise ConfigurationError("tx_duration must not exceed slot_duration")

    @property
    def max_offset(self) -> float:
        return self.slot_duration - self.tx_duration


class BlockStreams:
    """Independent random streams, one per row, read one value per row at a
    time but drawn ``size`` values at a time by ``draw(rng, size)``.

    A block draw equals the same number of single draws, so reading through
    the buffer changes no value; a refilled row continues its own stream.
    """

    def __init__(self, rngs, draw, size: int = 64):
        self.rngs, self.draw, self.size = rngs, draw, size
        # Row r's block is buf[start[r]:start[r] + size]; pos[r] is the
        # index of its next unread value.
        self.buf = np.concatenate([draw(rng, size) for rng in rngs])
        self.start = np.arange(len(rngs)) * size
        self.pos = self.start.copy()
        self._safe = size     # reads no row can run out within

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next value of each listed row's stream (rows distinct)."""
        if not self._safe:    # a row may be spent: refill those that are
            spent = np.flatnonzero(self.pos - self.start == self.size)
            for row in spent.tolist():
                lo = row * self.size
                self.buf[lo:lo + self.size] = self.draw(self.rngs[row],
                                                        self.size)
            self.pos[spent] = self.start[spent]
            self._safe = self.size - int((self.pos - self.start).max())
        self._safe -= 1       # each read advances a row by at most one
        pos = self.pos[rows]
        self.pos[rows] = pos + 1
        return self.buf[pos]


def draw_offsets(ids: np.ndarray, cfg: ChannelConfig,
                 streams: BlockStreams | None) -> list[tuple[int, float]]:
    """(id, start offset) for this slot's transmitters ``ids``.

    Row ``i`` of ``streams`` is transmitter ``i``'s own uniform stream on
    [0, max_offset], so adding or removing other loops never changes a
    loop's draws.  Strict mode pins every offset to zero and draws nothing.
    """
    if cfg.mode == "strict_collision":
        return [(i, 0.0) for i in ids.tolist()]
    return list(zip(ids.tolist(), streams.take(ids).tolist()))


def _overlap_components(txs, tx_duration):
    """Group transmissions into maximal chains of pairwise-in-time overlap.

    Intervals are [offset, offset + tx_duration); touching endpoints do
    not overlap.
    """
    txs = sorted(txs, key=lambda t: (t[1], t[0]))
    comps = []
    cur, cur_end = [], None
    for i, off in txs:
        if cur and off < cur_end:
            cur.append(i)
            cur_end = max(cur_end, off + tx_duration)
        else:
            if cur:
                comps.append(cur)
            cur, cur_end = [i], off + tx_duration
    if cur:
        comps.append(cur)
    return comps


def resolve_slot(transmissions, cfg: ChannelConfig, rng) -> set[int]:
    """Decoded loop ids for one slot's transmissions.

    ``transmissions`` is a list of (loop id, start offset) pairs; offsets
    must lie in [0, slot_duration - tx_duration].  ``rng`` is the run's
    shared channel stream, used for capture coins and erasures.
    """
    for _, off in transmissions:
        if not 0.0 <= off <= cfg.max_offset + 1e-12:
            raise ConfigurationError(f"offset {off} outside the slot")
    if cfg.mode == "strict_collision":
        survivors = [i for i, _ in transmissions] if len(transmissions) == 1 else []
    else:
        survivors = []
        for comp in _overlap_components(transmissions, cfg.tx_duration):
            if len(comp) == 1:
                survivors.extend(comp)
            elif len(comp) == 2:
                # One coin decides the pair: capture saves both or neither.
                if rng.random() < cfg.capture_prob:
                    survivors.extend(comp)
            # Three-or-more pileups never decode.
    decoded = set()
    for i in sorted(survivors):
        if cfg.erasure_prob == 0.0 or rng.random() >= cfg.erasure_prob:
            decoded.add(i)
    return decoded


def resolve_pointtopoint(cfg: ChannelConfig, rng) -> bool:
    """Whether a collision-free packet (poll or polled data) decodes."""
    return cfg.erasure_prob == 0.0 or rng.random() >= cfg.erasure_prob
