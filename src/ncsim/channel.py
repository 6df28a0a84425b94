"""Shared-medium semantics for the single wireless hop.

Two modes are provided.  ``strict_collision`` is the idealized slotted
medium used for theory validation: a slot decodes exactly when one
transmitter used it.  ``offset_capture`` mimics a testbed where sources
start transmitting at unsynchronized offsets inside the slot, so packets
can miss each other in time, and two overlapping packets occasionally
both decode (capture).  Survivors of either mode face an independent
erasure with probability ``erasure_prob``.  A block of slots is resolved
in one call: its transmitters and its decoded ones are arrays of cells,
each a (slot, replication, loop index) of the block.  Random streams
that a block reads many values of are read through buffers whose first
fill, drawn for the whole run, may be shared by runs and is only read;
a row that reads past it continues its own stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, is_real

__all__ = ["ChannelConfig", "BlockStreams", "first_fill", "resolve_slot",
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
        for key in ("erasure_prob", "tx_duration", "slot_duration",
                    "capture_prob"):
            if not is_real(getattr(self, key)):
                raise ConfigurationError(
                    f"{key} must be a number, got {getattr(self, key)!r}")
        for key in ("tx_duration", "slot_duration"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(
                    f"{key} must be finite, got {getattr(self, key)!r}")
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


def first_fill(stream, rows: int, draw, width: int) -> np.ndarray:
    """Each row's first ``width`` values, row r's drawn as ``draw(stream(r),
    width)``, as a read-only (rows, width) array: the first fill of
    :class:`BlockStreams`, which runs may share."""
    fill = np.empty((rows, width))
    for row in range(rows):
        fill[row] = draw(stream(row), width)
    fill.flags.writeable = False
    return fill


class BlockStreams:
    """Independent random streams, one per row, read in order through a
    buffer.

    The buffer starts as ``first``, each row's first values (see
    :func:`first_fill`), which it reads in place and never writes.
    :meth:`head` shows each row's next k values and :meth:`advance` then
    reads some of them: a row's unread values wait in the buffer for the
    next head.  A row that needs more values than it holds builds its
    generator, ``stream(row)``, moves it past the first fill with
    ``bit_generator.advance`` and draws the rest of its buffer with
    ``draw(rng, size)``, in a buffer of its own.  That changes no value
    as long as a block draw equals the same number of single draws and
    each value is one 64-bit step of the generator, as with ``random``
    and ``uniform`` on PCG64.
    """

    def __init__(self, first: np.ndarray, stream, draw):
        self.stream, self.draw = stream, draw
        self.rows, self.width = first.shape
        # Row r's buffer is flat[start[r]:start[r] + width]; at[r] is the
        # index of its next unread value, and _safe a count of values that
        # every row still holds unread.
        self.flat = first.reshape(-1)
        self.start = np.arange(self.rows) * self.width
        self.at = self.start.copy()
        self._safe = self.width
        self._reads = np.arange(self.width)[:, None]
        self._first = self.width     # values of each row's first fill
        self._own = False            # whether flat is no longer the fill
        self._rngs = {}              # row -> its generator, past its draws

    def head(self, k: int) -> np.ndarray:
        """Each row's next k values, not yet read, as the column of a
        (k, rows) array."""
        if k > self._safe:
            self._refill(k)
        self._safe -= k
        return self.flat[self.at + self._reads[:k]]

    def advance(self, counts):
        """Read each row's first ``counts`` values of the last head (a count
        per row, or one for all)."""
        self.at += counts

    def _refill(self, k: int):
        """Give every row at least k unread values: a row that holds fewer
        keeps them and draws the rest of its buffer after them.  The rows
        move to a buffer of their own when one first draws, and to one
        twice k wide for k above the width."""
        left = self.start + self.width - self.at
        short = (left < k).nonzero()[0]
        if k > self.width:          # every row is short
            self._move(2 * k)
        elif len(short) and not self._own:
            self._move(self.width)
        wide = self.width
        for row, at, n in zip(short.tolist(), self.at[short].tolist(),
                              left[short].tolist()):
            lo = row * wide
            self.flat[lo:lo + n] = self.flat[at:at + n]
            self.flat[lo + n:lo + wide] = self.draw(self._rng(row), wide - n)
        left[short] = wide
        self.at = self.start + wide - left
        self._safe = int(left.min())

    def _move(self, width: int):
        """Copy every row's buffer to the front of its own, ``width`` wide,
        in a new buffer that this object alone writes."""
        rows, old = self.rows, self.flat.reshape(self.rows, -1)
        self.flat = np.empty(rows * width)
        self.flat.reshape(rows, -1)[:, :self.width] = old
        self.at += np.arange(rows) * (width - self.width)
        self.width, self.start = width, np.arange(rows) * width
        self._reads = np.arange(width)[:, None]
        self._own = True

    def _rng(self, row: int):
        """Row's generator, past the values it has drawn."""
        rng = self._rngs.get(row)
        if rng is None:
            rng = self._rngs[row] = self.stream(row)
            rng.bit_generator.advance(self._first)
        return rng


def resolve_slot(cells: np.ndarray, n: int, offsets: np.ndarray | None,
                 cfg: ChannelConfig, coins: BlockStreams) -> np.ndarray:
    """Decoded cells, ascending, among the transmitting ``cells`` of a
    block of slots (distinct, ascending).

    Cell m·n + k is transmitter k of medium m: one slot of one
    replication's channel, which decides alone.  Medium m draws its coins
    from stream m % streams of ``coins`` (its replication's shared
    stream), and each stream serves its media in the order of m.  Offsets
    (None on the strict channel, which ignores them) lie in [0,
    slot_duration - tx_duration], one per cell.

    A stable argsort of each medium's offsets orders its transmissions,
    which form pileups: a new one starts where an offset is at least the
    previous one plus ``tx_duration``.  A lone transmission survives; a
    pair survives whole on one capture coin, flipped per pair in order of
    start; three or more never decode (on the strict channel a medium is
    one pileup).  Each survivor then flips an erasure coin, in cell
    order, after its medium's capture coins.
    """
    if offsets is not None and len(offsets) and (
            offsets.min() < 0.0 or offsets.max() > cfg.max_offset + 1e-12):
        bad = offsets[(offsets < 0.0) | (offsets > cfg.max_offset + 1e-12)]
        raise ConfigurationError(f"offset {bad[0]} outside the slot")
    media = cells // n
    if cfg.mode == "strict_collision":
        alone = np.bincount(media)[media] == 1
        if not cfg.erasure_prob:      # no coins to flip
            return cells[alone]
        lone = alone.nonzero()[0]
        pairs = seconds = lone[:0]
    else:
        order, new = _pileups(media, offsets, cfg.tx_duration)
        lone = np.sort(order[new[:-2] & new[1:-1]])
        pair = new[:-3] & ~new[1:-2] & new[2:-1]
        pairs, seconds = order[:-1][pair], order[1:][pair]
    return cells[_flip_coins(media, lone, pairs, seconds, cfg, coins)]


def _pileups(media, offsets, tx_duration):
    """The transmissions' order, medium after medium and each medium's by
    a stable argsort of its offsets, and whether each position of it
    starts a pileup, followed by two sentinels that do.

    Where every medium holds the same count, the media are the rows of a
    (media, count) grid of offsets, each sorted on its own; otherwise
    complex keys sort by medium, then by offset."""
    n, change = len(media), media[1:] != media[:-1]
    edges = change.nonzero()[0] + 1         # where each later medium starts
    count = int(edges[0]) if len(edges) else n
    if n and not n % count and np.array_equal(edges,
                                              np.arange(count, n, count)):
        order = offsets.reshape(-1, count).argsort(axis=1, kind="stable")
        order += np.arange(0, n, count)[:, None]
        order = order.reshape(-1)
    else:
        key = offsets * 1j
        key += media
        order = key.argsort(kind="stable")
        del key
    off = offsets[order]
    new = np.ones(n + 2, bool)
    new[1:-2] = change | (off[1:] >= off[:-1] + tx_duration)
    return order, new


def _flip_coins(media, lone, pairs, seconds, cfg, coins) -> np.ndarray:
    """Positions, ascending, of the transmissions that decode: the
    ``lone`` ones, and both of each capture-winning pair (first and
    second by offset at ``pairs`` and ``seconds``), less those erased."""
    erase = cfg.erasure_prob > 0
    if not (len(pairs) or erase and len(lone)):
        return lone
    # Medium m is slot s of stream r, m - first = s·streams + r, so that a
    # stream's media run down column r of a (slots, streams) table.
    streams = coins.rows
    first = int(media[0]) - int(media[0]) % streams
    shape = ((int(media[-1]) - first) // streams + 1, streams)

    def per_medium(m):
        return np.bincount(m, minlength=shape[0] * streams).reshape(shape)

    m = media[lone] - first
    n_pairs = per_medium(media[pairs] - first) if len(pairs) else 0
    fixed = n_pairs + per_medium(m) if erase else n_pairs  # known coins
    # Each stream's coins, at most: every pair survives.
    head = coins.head(int((fixed + 2 * erase * n_pairs).sum(axis=0).max()))
    used, survivors = fixed, lone
    if len(pairs):
        # A medium's capture flips follow the coins of its stream's
        # earlier media, whose won pairs flipped two erasure coins each.
        start = (np.cumsum(fixed, axis=0) - fixed).reshape(-1).tolist()
        cols, extra, won = head.T.tolist(), [0] * streams, []
        for mp, group in itertools.groupby((media[pairs] - first).tolist()):
            count, r = len(list(group)), mp % streams
            c = start[mp] + extra[r]
            flips = [x < cfg.capture_prob for x in cols[r][c:c + count]]
            won += flips
            extra[r] += 2 * erase * sum(flips)
        won = np.array(won)
        used = fixed + 2 * erase * per_medium(media[pairs[won]] - first)
        survivors = np.sort(np.concatenate([lone, pairs[won], seconds[won]]))
        m = media[survivors] - first
    coins.advance(used.sum(axis=0))
    if erase and len(survivors):
        # A survivor's coin follows its medium's capture coins and those
        # of the survivors before it in the medium.
        rank = np.arange(len(m)) - m.searchsorted(m)
        start = (np.cumsum(used, axis=0) - used + n_pairs).reshape(-1)
        survivors = survivors[head[start[m] + rank, m % streams]
                              >= cfg.erasure_prob]
    return survivors


def resolve_pointtopoint(cfg: ChannelConfig, rng) -> bool:
    """Whether a collision-free packet (poll or polled data) decodes."""
    return cfg.erasure_prob == 0.0 or rng.random() >= cfg.erasure_prob
