"""Shared-medium semantics for the single wireless hop.

Two modes are provided.  ``strict_collision`` is the idealized slotted
medium used for theory validation: a slot decodes exactly when one
transmitter used it.  ``offset_capture`` mimics a testbed where sources
start transmitting at unsynchronized offsets inside the slot, so packets
can miss each other in time, and two overlapping packets occasionally
both decode (capture).  Survivors of either mode face an independent
erasure with probability ``erasure_prob``.  A slot's transmitters and its
decoded loops are arrays of loop indices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["ChannelConfig", "BlockStreams", "resolve_slot",
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


def resolve_slot(ks: np.ndarray, offsets: np.ndarray | None,
                 cfg: ChannelConfig, rng) -> np.ndarray:
    """Decoded indices, ascending, among one slot's transmitters ``ks``
    (distinct, ascending), whose start offsets lie in [0, slot_duration -
    tx_duration] (None on the strict channel, which ignores them).

    Sorted by (offset, index), the transmissions form pileups: a new one
    starts where an offset is at least the previous one plus
    ``tx_duration``.  A lone transmission survives; a pair survives whole
    on one capture coin, flipped per pair in order of start; three or more
    never decode.  Each survivor then flips an erasure coin, in index
    order.  All coins come from ``rng``, the run's shared stream.
    """
    n = len(ks)
    if offsets is not None and n:
        bad = offsets[(offsets < 0.0) | (offsets > cfg.max_offset + 1e-12)]
        if len(bad):
            raise ConfigurationError(f"offset {bad[0]} outside the slot")
    if cfg.mode == "strict_collision":
        survivors = ks if n == 1 else ks[:0]
    elif n < 2:
        survivors = ks
    else:
        order = np.lexsort((ks, offsets))
        off = offsets[order]
        # Each pileup's first position in that order and its size.
        cuts = (off[1:] >= off[:-1] + cfg.tx_duration).nonzero()[0] + 1
        edges = [0, *cuts.tolist(), n]
        piles = [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
        keep = [lo for lo, size in piles if size == 1]
        pairs = [lo for lo, size in piles if size == 2]
        if pairs:
            won = (rng.random(len(pairs)) < cfg.capture_prob).tolist()
            keep += [j for lo, w in zip(pairs, won) if w for j in (lo, lo + 1)]
        survivors = np.sort(ks[order[keep]])
    if cfg.erasure_prob and len(survivors):
        survivors = survivors[rng.random(len(survivors)) >= cfg.erasure_prob]
    return survivors


def resolve_pointtopoint(cfg: ChannelConfig, rng) -> bool:
    """Whether a collision-free packet (poll or polled data) decodes."""
    return cfg.erasure_prob == 0.0 or rng.random() >= cfg.erasure_prob
