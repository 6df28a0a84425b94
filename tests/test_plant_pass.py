"""The plant pass against a reference that takes in one delivery at a time.

The engine's plant pass takes a run's deliveries in as arrays, one pass per
plant group and lag, from a record that keeps one delivery per row and tick,
and writes each tick in place.  The reference below is the plant pass as it
was before: every delivery taken in on its own, in the order medium access
accepted it, its estimate replayed row by row, and every tick computed into
fresh arrays.  Both must give the same bits."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ncsim.engine

from ncsim.channel import ChannelConfig
from ncsim.engine import SimConfig, _Plants, _Run
from ncsim.mac import SchedulerPolicy
from test_engine import BATCH_SYSTEMS, batch_configs


def arrivals(r) -> list:
    """Run r's accepted deliveries as ``(tick, row, gen)`` in the order
    they happened, read from where medium access left them: each slot's
    deliveries in row order, or the polls' in the order accepted."""
    if r.got is None:
        return list(r.arrivals)
    slots, rows = r.got.nonzero()
    return list(zip((slots + 1).tolist(), rows.tolist(), slots.tolist()))


def reference_plant_pass(r, deliveries, estimates):
    """Ticks 1..steps of the fresh run r: before tick t each of the listed
    deliveries for it sets its row's freshest generation and replays the
    row's estimate from its sample, one after another; then every group
    ticks.  Appends each group's estimates after each tick to
    ``estimates``."""
    at = {i: (g, j) for g in r.groups for j, i in enumerate(g.rows.tolist())}
    moved = [[] for _ in range(r.steps + 1)]
    for tick, i, gen in deliveries:
        moved[tick].append((i, gen))
    nu = np.zeros_like(r.nu)
    for t in range(1, r.steps + 1):
        for i, gen in moved[t]:
            nu[i] = gen
            g, j = at[i]
            row = slice(j, j + 1)
            x = g.X[gen, row]
            for q in range(gen, t - 1):
                x = g.mul(g.A[row], x) + g.mul(g.B[row], g.U[q, row])
            g.xhat[j] = x[0]
        np.subtract(t, nu, out=r.ages[t])
        for g in r.groups:
            g.xhat = g.mul(g.A, g.xhat) + g.bu
            if g.scalar:
                u = np.multiply(g.K, g.xhat, out=g.U[t])
            else:
                u = np.negative(np.matmul(g.K, g.xhat), out=g.U[t])
                if g.free is not None:
                    u[g.free] = 0.0
            g.bu = g.mul(g.B, u)
            np.add(g.mul(g.A, g.X[t]) + g.bu, g.noise[t], out=g.X[t + 1])
            estimates.append(g.xhat.copy())


def both_passes(cfg, seeds, monkeypatch, pass_width):
    """The engine's run of ``cfg`` with ``seeds`` and a fresh run of the
    same batch ticked by the reference from the engine's deliveries; each
    with its estimates after every tick.  Batches of at most
    ``pass_width`` rows compute their ages in one pass."""
    engine, found = _Run(cfg, seeds), []
    tick = _Plants.tick
    with monkeypatch.context() as m:
        m.setattr(ncsim.engine, "_AGES_PASS_WIDTH", pass_width)
        m.setattr(_Plants, "tick", lambda g, t: (
            tick(g, t), found.append(g.xhat.copy())))
        engine.execute()
    ref, want = _Run(cfg, seeds), []
    with np.errstate(over="ignore", invalid="ignore"):
        reference_plant_pass(ref, arrivals(engine), want)
    return (engine, found), (ref, want)


def assert_same_bits(engine, ref):
    (r, found), (q, want) = engine, ref
    assert r.ages.tobytes() == q.ages.tobytes()
    assert len(found) == len(want) == r.steps * len(r.groups)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(found, want))
    for g, h in zip(r.groups, q.groups):
        assert g.X.tobytes() == h.X.tobytes()
        assert g.U.tobytes() == h.U.tobytes()


# A scalar and a pendulum group, three polled replications on a lossy hop
# with 3 ms packets: replies one step after their sample, and rows that
# take in two samples before one tick.
TWICE = (SimConfig(systems=[BATCH_SYSTEMS["pendulum"], BATCH_SYSTEMS["easy"]],
                   policy=SchedulerPolicy("wifresh"),
                   channel=ChannelConfig(tx_duration=0.003,
                                         erasure_prob=0.05),
                   duration_s=0.4, warmup_s=0.1, cooldown_s=0.1),
         [0, 1, 2])


# Ages in one pass, and tick by tick.
PASS_WIDTHS = [1 << 20, 0]


@pytest.mark.parametrize("pass_width", PASS_WIDTHS)
def test_polled_deliveries_match_one_at_a_time(pass_width, monkeypatch):
    """The engine's plant pass gives the reference's bits on a batch whose
    record must replay samples one step old and keep, of a row's two
    samples before one tick, the fresher one (the reference takes in
    both, in order)."""
    engine, ref = both_passes(*TWICE, monkeypatch, pass_width)
    r = engine[0]
    listed = arrivals(r)
    assert len(r.groups) == 2
    assert {t - 1 - gen for t, _, gen in listed} == {0, 1}
    twice = [key for key, n in Counter(
        (t, i) for t, i, _ in listed).items() if n > 1]
    assert len(twice) >= 2
    assert_same_bits(engine, ref)


@settings(max_examples=40, deadline=None)
@given(batch=batch_configs(), pass_width=st.sampled_from(PASS_WIDTHS))
@example(batch=TWICE, pass_width=PASS_WIDTHS[0])
def test_plant_pass_matches_one_delivery_at_a_time(batch, pass_width):
    """Random batches, slotted and polled, of scalar, pendulum and
    diverging plants: states, inputs, ages and every tick's estimates
    equal the reference's, bit for bit."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_bits(*both_passes(*batch, monkeypatch, pass_width))
