"""Event-driven run semantics: timing, determinism, and conservation."""
import copy
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ncsim.engine
import ncsim.mac
import ncsim.metrics
from ncsim.channel import ChannelConfig
from ncsim.engine import (SimConfig, _batch_sizes, _Plants, _Run, _seed_words,
                          _stream, run, run_replication_sets,
                          run_replications, summarize_replications,
                          systems_from_classes)
from ncsim.errors import ConfigurationError
from ncsim.mac import SchedulerPolicy
from ncsim.metrics import MseTable, mse_of_age, nmse_of_age
from ncsim.systems import LtiSystem, make_preset
from test_channel import reference_resolve_slot


def cold_replay(sys, x, inputs):
    """A controller's estimate rebuilt from the sample x: x rolled through
    A x + B u for each input applied since, on 1-D arrays."""
    for u in inputs:
        x = sys.A @ x + sys.B @ u
    return x


def place(r, i):
    """Row i of run r: its plant group and its index in the group."""
    for g in r.groups:
        if i in g.rows:
            return g, int(np.flatnonzero(g.rows == i)[0])


def cfg_for(n, variant, channel=None, duration=3.0, trim=0.5, seed=0,
            series=False, pattern=("easy", "mid", "hard"), **pol):
    systems = systems_from_classes(n, pattern)
    return SimConfig(systems=systems,
                     policy=SchedulerPolicy(variant=variant, **pol),
                     channel=channel or ChannelConfig(),
                     duration_s=duration, warmup_s=trim, cooldown_s=trim,
                     seed=seed, record_series=series)


def test_config_rejects_an_empty_window():
    """A 25 ms run with 10 ms trims would evaluate steps 2..1: none."""
    with pytest.raises(ConfigurationError, match="empty evaluation window"):
        SimConfig(systems=systems_from_classes(1),
                  policy=SchedulerPolicy("round_robin"),
                  duration_s=0.025, warmup_s=0.01, cooldown_s=0.01)


def test_config_validation():
    systems = systems_from_classes(2)
    with pytest.raises(ConfigurationError):
        SimConfig(systems=[], policy=SchedulerPolicy("round_robin"))
    with pytest.raises(ConfigurationError):
        SimConfig(systems=systems,
                  policy=SchedulerPolicy("round_robin"),
                  duration_s=5.0, warmup_s=3.0, cooldown_s=3.0)
    # A negative trim would start the window before step 1, or end it
    # after the last step.
    for trim in ("warmup_s", "cooldown_s"):
        with pytest.raises(ConfigurationError, match=f"{trim} must"):
            SimConfig(systems=systems, policy=SchedulerPolicy("round_robin"),
                      duration_s=2.0, **{trim: -0.5})
    with pytest.raises(ConfigurationError):
        run(cfg_for(2, "adra"))   # no tuned default pair below N=3
    for seeds in ([], [3, -1]):   # a batch needs seeds, none negative
        with pytest.raises(ConfigurationError, match="seed"):
            run(cfg_for(2, "round_robin"), seeds)
    # A fractional or boolean seed would run as another seed; numpy
    # integers are integers.
    for seed in (1.5, True, "3"):
        with pytest.raises(ConfigurationError, match="seed must"):
            SimConfig(systems=systems, policy=SchedulerPolicy("round_robin"),
                      seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            run(cfg_for(2, "round_robin"), [0, seed])
    assert run(cfg_for(2, "round_robin"), [np.int64(3)])[0]["seed"] == 3
    # A 0.4 us transmission rounds to 0 us on the clock: a poll, its
    # arrival and its reply would fall on one instant forever.
    with pytest.raises(ConfigurationError):
        cfg_for(2, "wifresh", channel=ChannelConfig(tx_duration=4e-7))
    cfg_for(2, "wifresh", channel=ChannelConfig(tx_duration=1e-6))
    # A slot recurs every period, so its deliveries must land before the
    # next tick; a 30 ms slot with 20 ms packets would not.
    with pytest.raises(ConfigurationError):
        cfg_for(2, "round_robin", channel=ChannelConfig(
            tx_duration=0.020, slot_duration=0.030))
    cfg_for(2, "round_robin", channel=ChannelConfig(
        tx_duration=0.010, slot_duration=0.010))


def test_config_holds_only_what_a_run_reads():
    """The sampling period is fixed, and each loop's class label is its
    system's name, as run() reports it."""
    assert {f.name for f in fields(SimConfig)} == {
        "systems", "policy", "channel", "duration_s", "warmup_s",
        "cooldown_s", "seed", "record_series"}
    cfg = cfg_for(4, "round_robin", pattern=("easy", "pendulum"))
    assert cfg.T_s == SimConfig.T_s == 0.010
    names = [s.name for s in cfg.systems]
    assert names == ["easy", "pendulum", "easy", "pendulum"]
    assert cfg.classes == names
    assert run(cfg)["metrics"]["loop_classes"] == names


@pytest.mark.parametrize("variant, tx", [("round_robin", 80), ("aloha", 80),
                                         ("wifresh", 132)])
def test_last_slot_delivery_is_dropped(variant, tx):
    """With no cooldown the window ends on the last tick.  The last
    transmission counts, but its delivery lands after the run ends."""
    systems = systems_from_classes(1)
    res = run(SimConfig(systems=systems,
                        policy=SchedulerPolicy(variant), duration_s=1.0,
                        warmup_s=0.2, cooldown_s=0.0))
    pl = res["metrics"]["per_loop"]
    assert (int(pl["tx"][0]), int(pl["rx"][0])) == (tx, tx - 1)


def test_single_loop_scheduled_is_always_fresh():
    res = run(cfg_for(1, "round_robin", series=True))
    assert res["metrics"]["network"]["aoi_mean"] == 1.0
    assert np.all(res["series"][1]["aoi"] == 1)


def test_round_robin_mean_age_is_exact():
    # Window length (200 ticks) is a multiple of each period.
    for n in (2, 4, 5):
        res = run(cfg_for(n, "round_robin"))
        assert res["metrics"]["network"]["aoi_mean"] == pytest.approx(
            (n + 1) / 2, abs=1e-12)


def test_round_robin_age_is_periodic_sawtooth():
    n = 4
    res = run(cfg_for(n, "round_robin", series=True))
    for i in range(1, n + 1):
        aoi = res["series"][i]["aoi"][50:250]
        assert aoi.min() == 1 and aoi.max() == n
        np.testing.assert_array_equal(aoi[:-n], aoi[n:])


def test_sample_counts_fill_the_window():
    res = run(cfg_for(3, "slotted_aloha", p=0.3))
    m = res["metrics"]
    assert m["expected_samples"] == 200
    assert all(c == 200 for c in m["samples_per_loop"])


def test_conservation_deliveries_vs_transmissions():
    res = run(cfg_for(4, "slotted_aloha", p=0.4,
                      channel=ChannelConfig(erasure_prob=0.2)))
    pl = res["metrics"]["per_loop"]
    for tx, rx in zip(pl["tx"], pl["rx"]):
        assert 0 <= rx <= tx <= 200
    assert np.all(pl["delivery_ratio"] <= 1.0)


def test_bitwise_determinism():
    a = run(cfg_for(5, "slotted_aloha", p=0.25, series=True, seed=3))
    b = run(cfg_for(5, "slotted_aloha", p=0.25, series=True, seed=3))
    for i in range(1, 6):
        np.testing.assert_array_equal(a["series"][i]["aoi"],
                                      b["series"][i]["aoi"])
        np.testing.assert_array_equal(a["series"][i]["state"],
                                      b["series"][i]["state"])
    assert a["metrics"]["network"] == b["metrics"]["network"]


def test_seed_changes_trajectories():
    a = run(cfg_for(5, "slotted_aloha", p=0.25, seed=3))
    b = run(cfg_for(5, "slotted_aloha", p=0.25, seed=4))
    assert a["metrics"]["network"]["aoi_mean"] != \
        b["metrics"]["network"]["aoi_mean"]


def test_zero_threshold_equals_slotted_access():
    """Threshold zero never gates access: identical trajectories."""
    sa = run(cfg_for(3, "slotted_aloha", p=0.3, series=True))
    ad = run(cfg_for(3, "adra", p=0.3, threshold=0, series=True))
    for i in (1, 2, 3):
        np.testing.assert_array_equal(sa["series"][i]["aoi"],
                                      ad["series"][i]["aoi"])
        np.testing.assert_array_equal(sa["series"][i]["state"],
                                      ad["series"][i]["state"])


def test_divergence_is_flagged_on_its_own_rows():
    """Nothing gets through a strict channel under ALOHA, so of each
    replication's loops the unstable ones leave the divergence bound and
    the easy one stays in it; each loop is flagged, in its own result,
    exactly when its state series leaves the bound."""
    cfg = cfg_for(3, "aloha", series=True, duration=10.0,
                  pattern=("easy", "pendulum", "hard"))
    flags = []
    for res in run(cfg, seeds=[0, 1]):
        left = [not (np.abs(res["series"][k]["state"])
                     <= ncsim.engine.DIVERGENCE_THRESHOLD).all()
                for k in (1, 2, 3)]
        assert res["metrics"]["per_loop"]["diverged"].tolist() == left
        flags.append(left)
    assert flags == [[False, True, True]] * 2


def test_threshold_gates_low_ages():
    """With a huge threshold nothing is ever sent."""
    res = run(cfg_for(3, "adra", p=0.9, threshold=10_000))
    assert int(res["metrics"]["per_loop"]["tx"].sum()) == 0


def test_blocked_contention_ages_grow_linearly():
    # Simultaneous queue-driven transmissions on a strict channel always
    # collide, so nothing is delivered and a fast plant diverges.
    res = run(cfg_for(2, "aloha", series=True,
                      pattern=("hard", "hard"), duration=5.0))
    m = res["metrics"]
    assert int(m["per_loop"]["rx"].sum()) == 0
    assert m["network"]["any_diverged"]
    aoi = res["series"][1]["aoi"]
    np.testing.assert_array_equal(aoi, np.arange(1, len(aoi) + 1))


def test_polling_single_loop_is_always_fresh():
    # Poll + reply take 6 ms, so every 10 ms period contains a delivery
    # of that period's sample.
    res = run(cfg_for(1, "wifresh", series=True))
    assert res["metrics"]["network"]["aoi_mean"] == 1.0
    assert np.all(res["series"][1]["aoi"] == 1)


def test_polling_balances_two_equal_loops():
    res = run(cfg_for(2, "wifresh", pattern=("mid", "mid")))
    m = res["metrics"]
    # Two loops share one 6 ms transaction pipe against a 10 ms period:
    # ages stay small and neither loop is starved (id tie-breaking may
    # hand one loop extra duplicate deliveries, so counts need not match).
    assert 1.0 <= m["network"]["aoi_mean"] <= 2.0
    assert np.all(m["per_loop"]["aoi_mean"] <= 2.0)
    assert np.all(m["per_loop"]["rx"] >= 100)


def test_polling_beats_one_slot_per_period():
    poll = run(cfg_for(3, "wifresh"))
    rr = run(cfg_for(3, "round_robin"))
    assert int(poll["metrics"]["per_loop"]["rx"].sum()) > \
        int(rr["metrics"]["per_loop"]["rx"].sum())


def test_polling_throughput_under_loss():
    """Erasures hit polls and replies independently, so a transaction
    succeeds with probability (1-eps)^2 and a failure burns the 8 ms
    timeout; the delivery-rate ratio follows from renewal reward."""
    clean = run(cfg_for(3, "wifresh", duration=10.0))
    eps = 0.5
    lossy = run(cfg_for(3, "wifresh", duration=10.0,
                        channel=ChannelConfig(erasure_prob=eps)))
    ratio = lossy["metrics"]["per_loop"]["rx"].sum() / \
        clean["metrics"]["per_loop"]["rx"].sum()
    p = (1 - eps) ** 2
    expect = 0.006 / ((0.006 * p + 0.008 * (1 - p)) / p)
    assert ratio == pytest.approx(expect, rel=0.05)


@pytest.mark.parametrize("tx, n_polls, n_replies", [(0.003, 167, 166),
                                                    (0.005, 100, 100)])
def test_polling_stops_at_the_run_end(tx, n_polls, n_replies, monkeypatch):
    """No poll is sent at or after the run's end at 1 s, and a reply due
    after it is never delivered.  Lossless transactions take two
    transmissions, back to back from time 0: with 3 ms packets the last
    poll goes out at 0.996 s and its reply, due at 1.002 s, is dropped;
    with 5 ms packets the last reply lands on the end and no poll
    follows it.  An event on a tick's instant comes before that tick: a
    polled sample has generation (poll_us + tx_us - 1) // 10 ms, its poll
    at ``poll_us``, and counts as a transmission if that lies in the
    window; a reply landing on tick t's instant shows in ``ages[t]``."""
    r = _Run(cfg_for(2, "wifresh", duration=1.0, trim=0.2,
                     channel=ChannelConfig(tx_duration=tx)))
    polls, polled, replies, delivered, counted = [], [], [], [], []
    window, deliver = ncsim.mac.ReliabilityWindow, r.on_delivery
    record_poll, record_data = window.record_poll, window.record_data
    monkeypatch.setattr(window, "record_poll", lambda gw, k, now: (
        polls.append(now), polled.append(k), record_poll(gw, k, now)))
    monkeypatch.setattr(window, "record_data", lambda gw, k, now: (
        replies.append(now), record_data(gw, k, now)))

    def on_delivery(k, gen, step):
        accepted = deliver(k, gen, step)
        delivered.append((polls[-1], k, gen, accepted))
        return accepted

    class Counts(np.ndarray):
        """The run's transmission counts, logging the poll and row of
        each count they take."""

        def __setitem__(self, i, value):
            counted.append((polls[-1], int(i)))
            super().__setitem__(i, value)

    r.on_delivery, r.tx = on_delivery, r.tx.view(Counts)
    r.execute()
    assert max(polls) < 1.0 and max(replies) <= 1.0
    assert len(polls) == n_polls
    assert len(replies) == len(delivered) == n_replies
    tx_us = round(tx * 1e6)
    gen_of = lambda poll: (round(poll * 1e6) + tx_us - 1) // 10_000
    assert all(gen == gen_of(poll) for poll, _, gen, _ in delivered)
    # Lossless, so every poll fetches a sample, counted once if its
    # generation lies in the window: the last 3 ms poll's arrives at
    # 0.999 s, although its reply is dropped.
    first, last = r.cfg.window
    assert counted == [(poll, k) for poll, k in zip(polls, polled)
                       if first <= gen_of(poll) <= last]
    assert r.tx.sum() == len(counted) and 0 < len(counted) < len(polls)
    on_tick = [(round(reply * 1e6) // 10_000, k, gen)
               for reply, (_, k, gen, accepted) in zip(replies, delivered)
               if accepted and round(reply * 1e6) % 10_000 == 0]
    assert len(on_tick) > 10
    for t, k, gen in on_tick:
        assert r.ages[t, k] == t - gen


@pytest.mark.parametrize("variant", ["wifresh", "pmef"])
def test_poll_decisions_read_the_gateway_ages(variant, monkeypatch):
    """Every poll decision of every replication reads each loop's age at
    the decision's step, step - nu floored at one, nu being the freshest
    generation delivered so far.  With 3 ms packets many replies land in
    the step their sample was taken in, where the floor applies."""
    r = _Run(cfg_for(3, variant, duration=2.0, trim=0.2,
                     channel=ChannelConfig(tx_duration=0.003,
                                           erasure_prob=0.2)), [0, 1])
    reps, times, decisions = [], [], []
    polls, window = _Run._polls, ncsim.mac.ReliabilityWindow
    reliability = window.reliability
    monkeypatch.setattr(_Run, "_polls", lambda run_, rep: (
        reps.append(rep), polls(run_, rep)))
    monkeypatch.setattr(window, "reliability", lambda gw, now: (
        times.append(round(now * 1e6)), reliability(gw, now))[1])

    def record(ages):
        lo, step = reps[-1] * r.N, (times[-1] - 1) // 10_000
        decisions.append((ages.copy(), step, r.nu[lo:lo + r.N].copy()))

    wifresh_next, pmef_next = ncsim.engine.wifresh_next, ncsim.engine.pmef_next
    monkeypatch.setattr(ncsim.engine, "wifresh_next", lambda ages, rel: (
        record(ages), wifresh_next(ages, rel))[1])
    monkeypatch.setattr(ncsim.engine, "pmef_next", lambda table, ages, *a: (
        record(ages), pmef_next(table, ages, *a))[1])
    r.execute()
    assert reps == [0, 1] and len(decisions) > 500
    for ages, step, nu in decisions:
        np.testing.assert_array_equal(ages, np.maximum(step - nu, 1))
    assert sum((nu == step).sum() for _, step, nu in decisions) > 50


@pytest.mark.parametrize("variant", ["slotted_aloha", "mef", "pmef"])
def test_medium_access_runs_before_the_plants(variant, monkeypatch):
    """No medium-access decision reads a plant, so a run resolves every
    slot or poll, counts every transmission and records every delivery
    before it ticks a plant or takes a sample into an estimate."""
    calls = []

    def log(owner, name, kind):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: (
            calls.append(kind), fn(*args))[1])

    log(_Run, "_tick_plants", "plants")
    log(_Plants, "tick", "tick")
    log(_Plants, "receive", "receive")
    log(_Run, "on_delivery", "access")
    log(_Run, "_slots", "access")
    log(_Run, "_slotted_deliveries", "access")
    log(_Run, "_listed_deliveries", "access")
    log(ncsim.engine, "resolve_slot", "access")
    log(ncsim.engine, "resolve_pointtopoint", "access")
    run(cfg_for(4, variant))
    assert {"plants", "tick", "access"} <= set(calls)
    access = [n for n, kind in enumerate(calls) if kind == "access"]
    plant = [n for n, kind in enumerate(calls) if kind != "access"]
    assert max(access) < min(plant)


def test_mef_frames_and_beacons():
    res = run(cfg_for(6, "mef", series=True))
    # Every loop is served within the frame rotation: ages stay bounded.
    for i in range(1, 7):
        assert res["series"][i]["aoi"].max() < 60


def test_estimator_incremental_matches_reference(monkeypatch):
    """The engine's rolled-forward estimate equals a cold replay after
    every tick, also right after a delivery older than the last tick:
    before every seventh tick t, the sample of step t - 2 arrives."""
    r = _Run(cfg_for(1, "round_robin", pattern=("pendulum",)))
    group, j = place(r, 0)
    sys = r.cfg.systems[0]
    for t in range(7, 40, 7):
        r.on_delivery(0, t - 2, t - 1)
    tick, checked = _Plants.tick, []

    def checked_tick(g, t):
        tick(g, t)
        if t < 40:
            nu = max([0] + [s - 2 for s in range(7, t + 1, 7)])
            ref = cold_replay(sys, g.X[nu, j][:, 0],
                              [g.U[q, j, :, 0] for q in range(nu, t)])
            np.testing.assert_allclose(g.xhat[j][:, 0], ref,
                                       rtol=1e-9, atol=1e-12)
            checked.append(ref.any())

    monkeypatch.setattr(_Plants, "tick", checked_tick)
    r._tick_plants(r._listed_deliveries())
    assert len(checked) == 39 and any(checked)


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                      min_size=1, max_size=40))
def test_only_strictly_fresher_deliveries_change_the_gateway(steps):
    """A stale or duplicate delivery changes neither the loop's freshest
    generation and estimate nor the gateway's age; ``nu`` never regresses.
    Loop 0 (A = B = 1, no input applied) has state x[t] = t, so an accepted
    delivery of generation g sets its estimate to g.  The plants stand
    still (a tick only records the estimate it finds), so every state
    stays as set."""
    r = _Run(cfg_for(2, "round_robin"))
    group, j = place(r, 0)
    group.X[:, j, 0, 0] = np.arange(len(group.X))
    step, freshest, found = 0, {}, {}
    for advance, lag in steps:
        step += advance
        gen = max(0, step - lag)
        before = (int(r.nu[0]), len(r.arrivals))
        accepted = r.on_delivery(0, gen, step)
        if gen > before[0]:
            assert accepted and r.nu[0] == gen
            assert r.arrivals[before[1]:] == [(step + 1, 0, gen)]
        else:
            assert not accepted
            assert (int(r.nu[0]), len(r.arrivals)) == before
        assert r.nu[0] >= before[0]
        freshest[step + 1] = int(r.nu[0])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Plants, "tick", lambda g, t: g is group
                  and found.setdefault(t, g.xhat[j].item()))
        r._tick_plants(r._listed_deliveries())
    for t, nu in freshest.items():
        assert found[t] == float(nu) and r.ages[t, 0] == t - nu


def test_contention_sender_waits_for_the_next_sample():
    """Each tick replaces a loop's sample with its own, and its slot sends
    it; the loop then waits for the next tick's.  So under aloha every loop
    transmits once in every slot of the window, and two loops collide in
    every one."""
    r = _Run(cfg_for(2, "aloha"))
    out = r.execute()[0]["metrics"]["per_loop"]
    t_start, t_end = r.cfg.window
    assert out["tx"].tolist() == [t_end - t_start + 1] * 2
    assert out["rx"].tolist() == [0, 0]


def test_single_loop_slotted_aloha_needs_explicit_p():
    """The default p = 1/N is 1 for one loop, which slotted ALOHA cannot
    use; the error names that cause instead of the policy's range check."""
    with pytest.raises(ConfigurationError, match="N=1.*p = 1/N"):
        run(cfg_for(1, "slotted_aloha"))
    res = run(cfg_for(1, "slotted_aloha", p=0.5))
    assert res["metrics"]["per_loop"]["tx"][0] > 0


def window_run(n=1, pattern=("easy",)):
    """A run, never stepped, whose window steps 51..250 have age 1 and, for
    every loop, a state drawn at random and no input."""
    r = _Run(cfg_for(n, "round_robin", pattern=pattern))
    r.ages[:] = 1
    rng = np.random.default_rng(3)
    for g in r.groups:
        g.X[:] = rng.normal(size=g.X.shape)
    return r


@pytest.mark.parametrize("block_values", [1, 7, 1 << 20])
def test_window_sums_add_in_step_order(block_values, monkeypatch):
    """Each loop's cost is summed one step after another, as a running
    total adds it, also across block boundaries; numpy's pairwise
    ``sum`` of the same values rounds differently."""
    monkeypatch.setattr(ncsim.engine, "_SUM_BLOCK_VALUES", block_values)
    r = window_run()
    m, g = r.metrics, r.groups[0]
    q = g.Q.item()
    costs = [q * x * x for x in g.X[m.t_start:m.t_end + 1, 0].ravel().tolist()]
    total = 0.0
    for c in costs:
        total += c
    assert np.sum(costs) != total, "values that cannot tell the orders apart"
    aoi, mse, nmse, cost = r._window_sums()
    assert cost[0] == total
    assert aoi[0] == m.t_end - m.t_start + 1
    assert nmse[0] == aoi[0]          # nMSE is 1 at age 1


def test_window_sums_fold_nan_into_inf():
    """A nan value (inf times a zero weight in a diverged loop) counts as
    +inf; the other loop's sums and the finite rows stay finite."""
    r = window_run(n=2, pattern=("easy", "mid"))
    g = r.groups[0]
    g.X[r.metrics.t_start, 0] = math.nan
    sums = r._window_sums()
    assert sums[3, 0] == math.inf
    assert np.isfinite(sums[:3]).all() and np.isfinite(sums[:, 1]).all()
    out = r.metrics.finalize(*sums, r.tx, r.rx, r.diverged)
    assert out["per_loop"]["lqg_mean"][0] == math.inf
    assert out["network"]["lqg_mean"] == math.inf


CLASSES = ("easy", "mid", "hard", "pendulum")


@st.composite
def random_configs(draw):
    n = draw(st.integers(1, 10))
    pattern = tuple(draw(st.lists(st.sampled_from(CLASSES), min_size=1,
                                  max_size=4)))
    variant = draw(st.sampled_from(ncsim.mac.PROTOCOLS))
    pol = {}
    if variant in ("slotted_aloha", "adra"):
        pol["p"] = draw(st.sampled_from([0.05, 0.3, 0.7, 0.95]))
    if variant == "adra":
        pol["threshold"] = draw(st.integers(0, 5))
    if variant == "mef":
        pol["frame_len"] = draw(st.integers(1, 20))
    if variant in ("mef", "pmef"):
        pol["use_nmse"] = draw(st.booleans())
    # 5 ms puts poll replies on tick instants; 10 ms fills the slot.
    channel = ChannelConfig(
        mode=draw(st.sampled_from(["strict_collision", "offset_capture"])),
        erasure_prob=draw(st.sampled_from([0.0, 0.05, 0.3])),
        tx_duration=draw(st.sampled_from([0.003, 0.005, 0.010])))
    return cfg_for(n, variant, channel=channel, duration=0.4, trim=0.1,
                   seed=draw(st.integers(0, 3)), pattern=pattern, **pol)


@settings(max_examples=80, deadline=None)
@given(cfg=random_configs())
def test_batched_state_invariants(cfg):
    """Random runs.  Medium access: ``nu`` never decreases.  After every
    tick: every age is at least one and is the step minus the freshest
    generation delivered before that tick, and each loop's estimate
    equals a cold replay from that sample over its inputs.  At the end,
    no loop received more than it sent.  A delivered sample past step 1
    has a nonzero state, so some estimate must be nonzero."""
    r = _Run(cfg)
    N, deliver, slots = cfg.n_loops, r.on_delivery, r._slots

    def on_delivery(i, gen, step):
        before = int(r.nu[i])
        accepted = deliver(i, gen, step)
        assert r.nu[i] >= before
        return accepted

    def checked_slots(lo, hi):
        before = r.nu.copy()
        slots(lo, hi)
        assert (r.nu >= before).all()

    fresh = np.zeros((r.steps + 2, len(r.nu)), np.int64)
    tick, nonzero, arrivals = _Plants.tick, [False], []

    def checked_tick(group, t):
        if t == 1:      # medium access is done: each tick's freshest
            if r.got is None:
                arrivals.extend(r.arrivals)
            else:       # slot s's deliveries, taken in at tick s + 1
                slots, rows = r.got.nonzero()
                arrivals.extend(zip(slots + 1, rows, slots))
            for tick_, i, gen in arrivals:
                fresh[tick_:, i] = gen
        tick(group, t)
        assert (r.ages[t] >= 1).all()
        np.testing.assert_array_equal(r.ages[t], t - fresh[t])
        for j, i in enumerate(group.rows.tolist()):
            nu = int(fresh[t, i])
            ref = cold_replay(cfg.systems[i % N], group.X[nu, j][:, 0],
                              [group.U[q, j, :, 0] for q in range(nu, t)])
            np.testing.assert_array_equal(group.xhat[j][:, 0], ref)
            nonzero[0] |= bool(ref.any())

    r.on_delivery, r._slots = on_delivery, checked_slots
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Plants, "tick", checked_tick)
        r.execute()
    assert (r.rx <= r.tx).all()
    assert nonzero[0] or all(gen < 2 for _, _, gen in arrivals)


@pytest.mark.parametrize("variant", ["round_robin", "aloha", "mef", "pmef"])
def test_tables_grow_only_to_their_own_loops_ages(variant, monkeypatch):
    """A batch's one table grows each plant's curve to the oldest age its
    own loops asked for in any replication: window ages for the metrics,
    MEF's frame reach for its loops, and the ages of every poll
    decision."""
    cfg = cfg_for(15, variant, pattern=("easy", "pendulum", "hard"),
                  duration=4.0, trim=1.0, series=True,
                  channel=ChannelConfig(mode="offset_capture",
                                        erasure_prob=0.01))
    polled, pick = [], ncsim.engine.pmef_next

    def recording_pick(table, ages, *args):
        polled.append(ages.copy())
        return pick(table, ages, *args)

    monkeypatch.setattr(ncsim.engine, "pmef_next", recording_pick)
    r = _Run(cfg, seeds=[0, 1, 2])
    # ages[rep, t - 1, k]: loop k's age at tick t.
    ages = np.array([[res["series"][k + 1]["aoi"] for k in range(15)]
                     for res in r.execute()]).transpose(0, 2, 1)
    window = ages[:, r.metrics.t_start - 1:r.metrics.t_end]
    tab, frame = r.table, cfg.policy.frame_len
    for p in range(len(tab.plants)):
        own = tab.plant == p
        want = window[..., own].max()
        if variant == "mef":
            for t in range(1, r.steps + 1, frame):
                want = max(want, ages[:, t - 1, own].max() + frame - 1)
        if polled:
            want = max(want, np.array(polled)[:, own].max())
        assert tab.depth[p] == want
    if variant in ("mef", "pmef"):   # easy, pendulum and hard differ
        assert len(set(tab.depth.tolist())) == 3, "plants grew in lockstep"


# (N, class pattern, policy): a scalar mix and a pendulum mix, each under a
# scheduler that ranks loops by their tables.
PLANT_MIXES = [(9, ("easy", "mid", "hard"), "mef"),
               (6, ("easy", "pendulum", "hard"), "pmef")]


@pytest.mark.parametrize("n, pattern, variant", PLANT_MIXES)
def test_one_mse_table_per_plant(n, pattern, variant, monkeypatch):
    """A batch builds one table, which serves all its replications, with
    one row per distinct system object; every grown entry equals the
    reference law."""
    cfg = cfg_for(n, variant, pattern=pattern)
    built = []

    class CountedTable(MseTable):
        def __init__(self, systems):
            built.append(self)
            super().__init__(systems)

    monkeypatch.setattr(ncsim.engine, "MseTable", CountedTable)
    r = _Run(cfg, seeds=[0, 1, 2])
    r.execute()
    tab = r.table
    assert built == [tab]
    assert len(tab.plants) == len({id(s) for s in cfg.systems}) == 3
    assert all(tab.plants[p] is s
               for p, s in zip(tab.plant.tolist(), cfg.systems))
    depth = tab.depth.copy()
    assert (depth > 1).all()
    # Every age each loop's plant has grown to, without growing further.
    ages = np.minimum(np.arange(depth.max() + 1)[:, None], depth[tab.plant])
    mse, nmse = (tab.errors(ages, use_nmse).T.tolist()
                 for use_nmse in (False, True))
    assert (tab.depth == depth).all()
    for k, sys in enumerate(cfg.systems):
        for d in range(depth[tab.plant[k]] + 1):
            assert mse[k][d] == mse_of_age(sys, d)
            assert nmse[k][d] == nmse_of_age(sys, d)


@pytest.mark.parametrize("n, pattern, variant", PLANT_MIXES)
def test_equal_plant_copies_match_shared_presets(n, pattern, variant):
    """Tables are shared by identity; equal copies get tables of their own
    with the same values, so results are bit-identical."""
    shared = cfg_for(n, variant, pattern=pattern, series=True)
    copies = replace(shared,
                     systems=[copy.deepcopy(s) for s in shared.systems])
    a, b = run(shared), run(copies)
    for key, val in a["metrics"]["per_loop"].items():
        np.testing.assert_array_equal(val, b["metrics"]["per_loop"][key])
    assert a["metrics"]["network"] == b["metrics"]["network"]
    for i in a["series"]:
        for key in ("aoi", "state"):
            np.testing.assert_array_equal(a["series"][i][key],
                                          b["series"][i][key])


# ---- random streams: seed words for every loop at once --------------------

# Seeds whose entropy takes one to five 32-bit words: the pool holds four,
# so from 2**64 on the extra words are mixed in after the pool's own mixing.
SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                                   2**96, 2**130]),
                  st.integers(0, 2**130))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, max_size=4),
       ids=st.lists(st.integers(0, 10**4), min_size=1, max_size=4))
def test_seed_words_match_seed_sequence(seeds, ids):
    """Key for key, the array hash gives SeedSequence's state words, also
    when one call mixes seeds of one to five 32-bit words: seeds on both
    sides of 2**32 and of 2**64 are always among them."""
    seeds = [0, *seeds, 2**32 - 1, 2**32, 2**64 - 1, 2**64]
    words = _seed_words(seeds, np.array(ids))
    assert words.shape == (3, len(seeds) * len(ids), 4)
    assert words.dtype == np.uint64
    for purpose in range(3):
        for r, seed in enumerate(seeds):
            for j, i in enumerate(ids):
                ref = np.random.SeedSequence(
                    (seed, i, purpose)).generate_state(4, np.uint64)
                row = r * len(ids) + j
                assert words[purpose, row].tolist() == ref.tolist()


@pytest.mark.parametrize("seed, i, purpose", [
    (0, 0, 2), (7, 1, 0), (2**32 - 1, 15, 1), (2**64 + 3, 10**4, 2)])
def test_streams_draw_as_default_rng(seed, i, purpose):
    """A stream built from its seed words draws what ``default_rng`` of the
    same key draws."""
    rng = _stream(_seed_words([seed], [i])[purpose, 0])
    ref = np.random.default_rng((seed, i, purpose))
    for draw in (lambda g: g.normal(size=50), lambda g: g.random(50),
                 lambda g: g.uniform(0.0, 0.007, 50)):
        assert draw(rng).tolist() == draw(ref).tolist()


@pytest.mark.parametrize("variant", ["pmef", "slotted_aloha", "aloha"])
def test_runs_seed_no_stream_one_by_one(variant, monkeypatch):
    """A run builds no SeedSequence and calls no ``default_rng``: every
    PCG64 starts from seed words computed for all loops at once."""
    seeded, rngs, pcgs = [], [], []

    class CountedSeed(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            seeded.append(args)
            super().__init__(*args, **kwargs)

    class CountedPcg(np.random.PCG64):
        def __init__(self, seed=None):
            pcgs.append(type(seed))
            super().__init__(seed)

    def counted_rng(*args):
        rngs.append(args)
        return np.random.Generator(np.random.PCG64(*args))

    monkeypatch.setattr(np.random, "SeedSequence", CountedSeed)
    monkeypatch.setattr(np.random, "PCG64", CountedPcg)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    run(cfg_for(50, variant, channel=ChannelConfig(
        mode="offset_capture", erasure_prob=0.01), duration=1.0, trim=0.2))
    assert seeded == [] and rngs == []
    assert len(pcgs) >= 50 and set(pcgs) == {ncsim.engine._seed_state()}


@pytest.mark.parametrize("variant", ["round_robin", "mef", "wifresh", "pmef"])
@pytest.mark.parametrize("erasure", [0.0, 0.05])
def test_erasure_free_hops_build_no_channel_stream(variant, erasure):
    """A scheduled or polled packet on an erasure-free hop decodes without
    a coin, so a batch of validate's round-robin shape (N = 5, R = 4) builds
    none of its rows' channel streams; on a lossy hop it builds every row's
    that sends."""
    r = _Run(cfg_for(5, variant, channel=ChannelConfig(erasure_prob=erasure)),
             seeds=range(4))
    r.execute()
    assert r.rng_channel.cache_info().currsize == (20 if erasure else 0)


def test_replications_tick_as_one_batch(monkeypatch):
    """At one job, a config's replications are one batch: every plant
    group ticks once per step for all four, not once per replication."""
    ticks = []
    tick = ncsim.engine._Plants.tick
    monkeypatch.setattr(ncsim.engine._Plants, "tick",
                        lambda plants, t: (ticks.append(t), tick(plants, t)))
    cfg = cfg_for(6, "wifresh", pattern=("easy", "pendulum"), duration=1.0,
                  trim=0.2)
    [(_, results)] = run_replication_sets([cfg], reps=4, jobs=1)
    assert [r["seed"] for r in results] == [0, 1, 2, 3]
    assert len(ticks) == 100 * 2      # steps x groups


# ---- replication batches: bit for bit the lone runs ------------------------

# An open-loop unstable plant without a controller: its state overflows to
# inf, then nan, and its MSE is +inf from age 7.
UNSTABLE = LtiSystem(A=[[1e30]], B=[[1.0]], noise_cov=[[1.0]], Q=[[1.0]],
                     R=[[1.0]], name="unstable")
BATCH_SYSTEMS = {c: make_preset(c) for c in CLASSES}
BATCH_SYSTEMS["unstable"] = UNSTABLE


def bits(value):
    """A result's exact content: arrays as dtype, shape and bytes, floats
    by repr (which tells -0.0 and nan apart), containers item by item."""
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


@st.composite
def batch_configs(draw):
    """A config and one to five seeds, also repeated ones and ones of
    one to three 32-bit words in one batch."""
    n = draw(st.integers(1, 12))
    pattern = draw(st.lists(st.sampled_from(sorted(BATCH_SYSTEMS)),
                            min_size=1, max_size=4))
    variant = draw(st.sampled_from(ncsim.mac.PROTOCOLS))
    pol = {}
    if variant in ("slotted_aloha", "adra"):
        pol["p"] = draw(st.sampled_from([0.05, 0.3, 0.7]))
    if variant == "adra":
        pol["threshold"] = draw(st.integers(0, 5))
    if variant == "mef":
        pol["frame_len"] = draw(st.integers(1, 20))
    if variant in ("mef", "pmef"):
        pol["use_nmse"] = draw(st.booleans())
    # 5 ms puts poll replies on tick instants; 10 ms fills the slot.
    channel = ChannelConfig(
        mode=draw(st.sampled_from(["strict_collision", "offset_capture"])),
        erasure_prob=draw(st.sampled_from([0.0, 0.05])),
        tx_duration=draw(st.sampled_from([0.003, 0.005, 0.010])))
    cfg = SimConfig(
        systems=[BATCH_SYSTEMS[pattern[k % len(pattern)]] for k in range(n)],
        policy=SchedulerPolicy(variant, **pol), channel=channel,
        duration_s=0.4, warmup_s=0.1, cooldown_s=0.1,
        record_series=draw(st.booleans()))
    seeds = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from(
        [2**32 - 1, 2**32, 2**64 - 1, 2**64])), min_size=1, max_size=5))
    return cfg, seeds


@settings(max_examples=60, deadline=None)
@given(batch=batch_configs())
@example(batch=(cfg_for(6, "mef", duration=0.6, trim=0.1, frame_len=4,
                        channel=ChannelConfig(erasure_prob=0.05)), [0, 1, 2]))
def test_batch_equals_lone_runs(batch):
    """Each replication of a batch gives, bit for bit, what a run of its
    own seed gives: per-loop metrics, tx and rx counts, network means,
    fractions, divergence flags and series.  The example's erasures
    give each replication its own MEF schedules."""
    cfg, seeds = batch
    batched = _Run(cfg, seeds).execute()
    assert len(batched) == len(seeds)
    for seed, result in zip(seeds, batched):
        assert bits(result) == bits(run(replace(cfg, seed=seed)))


# ---- age-only runs: the full run's ages without its plants ----------------

def _without_plant_results(result):
    """A result's metrics less the stage cost and the divergence flags,
    which an age-only run does not compute."""
    m = copy.deepcopy(result["metrics"])
    for part, keys in (("per_loop", ("lqg_mean", "diverged")),
                       ("network", ("lqg_mean", "any_diverged"))):
        for key in keys:
            del m[part][key]
    return {**result, "metrics": m}


@settings(max_examples=60, deadline=None)
@given(batch=batch_configs())
def test_age_only_run_equals_full_run(batch):
    """An age-only batch gives, bit for bit, the full batch's per-loop and
    network ages, MSEs and nMSEs, tx and rx counts, delivery ratios and
    fractions; its stage cost reads nan and it flags no divergence."""
    cfg, seeds = batch
    cfg = replace(cfg, record_series=False)
    full = run(cfg, seeds)
    ages_only = run(cfg, seeds, ages_only=True)
    for whole, result in zip(full, ages_only):
        assert bits(_without_plant_results(result)) == bits(
            _without_plant_results(whole))
        per_loop, network = (result["metrics"][k]
                             for k in ("per_loop", "network"))
        assert np.isnan(per_loop["lqg_mean"]).all()
        assert math.isnan(network["lqg_mean"])
        assert per_loop["diverged"] is None
        assert network["any_diverged"] is None


def test_age_only_run_rejects_series():
    """Series hold the loops' states, which an age-only run never
    computes."""
    cfg = cfg_for(3, "round_robin", series=True)
    with pytest.raises(ConfigurationError, match="series"):
        run(cfg, ages_only=True)


def test_age_only_run_builds_no_noise_stream(monkeypatch):
    """A batch of validate's round-robin shape (N = 5, R = 4) on the ideal
    channel draws only noise, one stream per row; an age-only batch builds
    no plant group and so no stream at all."""
    built = []
    stream = ncsim.engine._stream
    monkeypatch.setattr(ncsim.engine, "_stream",
                        lambda words: (built.append(1), stream(words))[1])
    cfg = cfg_for(5, "round_robin")
    r = _Run(cfg, seeds=range(4), ages_only=True)
    r.execute()
    assert r.groups == [] and built == []
    _Run(cfg, seeds=range(4)).execute()
    assert len(built) == 20


# ---- slotted medium access: blocks of slots against one slot at a time ----

def reference_access(r):
    """Run r's slotted medium access one slot at a time, as the engine
    did before it resolved blocks of slots: every access coin, offset and
    point-to-point coin is drawn on its own from the row's stream, and each
    replication's slot is resolved by ``reference_resolve_slot``, one
    shared coin at a time.  Transmissions and receptions are counted and
    deliveries taken in one by one."""
    E, pol, cfg, N, R = ncsim.engine, r.policy, r.channel, r.N, r.R
    words = _seed_words(r.seeds, np.arange(N + 1))
    rows = np.arange(R * N)
    keys = rows + rows // N + 1
    access = [_stream(w) for w in words[E._RNG_ACCESS, keys]]
    channel = [_stream(w) for w in words[E._RNG_CHANNEL, keys]]
    shared = [_stream(w) for w in words[E._RNG_CHANNEL, ::N + 1]]
    for t in range(1, r.steps + 1):
        if pol.is_contention:
            sent = [i for i in range(R * N) if pol.variant != "adra"
                    or r.nu[i] <= t - pol.threshold]
            if pol.variant != "aloha":
                sent = [i for i in sent if access[i].random() < pol.p]
            offset = {i: 0.0 if cfg.mode == "strict_collision"
                      else channel[i].uniform(0.0, cfg.max_offset)
                      for i in sent}
            decoded = []
            for rep in range(R):
                txs = [(i, offset[i]) for i in sent if i // N == rep]
                decoded += sorted(reference_resolve_slot(txs, cfg,
                                                         shared[rep]))
        else:
            if pol.variant == "round_robin":
                ks = [ncsim.mac.rr_next(t, N)] * R
            else:
                if (t - 1) % pol.frame_len == 0:
                    frame = ncsim.mac.mef_build_schedule(
                        r.table, (t - r.nu).reshape(R, N), pol.frame_len,
                        pol.use_nmse)
                ks = frame[(t - 1) % pol.frame_len].tolist()
            sent = [rep * N + k for rep, k in enumerate(ks)]
            decoded = [i for i in sent if cfg.erasure_prob == 0.0
                       or channel[i].random() >= cfg.erasure_prob]
        if r.t_start <= t <= r.t_end:
            r.tx[sent] += 1
        if t < r.steps:      # the last slot's deliveries are dropped
            for i in decoded:
                r.on_delivery(i, t, t)


@st.composite
def slotted_batches(draw):
    """A slotted config and one to three seeds: every slotted policy, the
    age threshold at 0 and 1 (never gating) and at 2 and 5, both
    channels with and without erasures, every capture regime, 5 ms
    transmissions, whose latest offset ends on the next tick, and windows
    with and without a cooldown."""
    n = draw(st.integers(1, 12))
    variant = draw(st.sampled_from(["aloha", "slotted_aloha", "adra",
                                    "round_robin", "mef"]))
    pol = {}
    if variant in ("slotted_aloha", "adra"):
        pol["p"] = draw(st.sampled_from([0.05, 0.3, 0.7]))
    if variant == "adra":
        pol["threshold"] = draw(st.sampled_from([0, 1, 2, 5]))
    if variant == "mef":
        pol["frame_len"] = draw(st.integers(1, 20))
        pol["use_nmse"] = draw(st.booleans())
    channel = ChannelConfig(
        mode=draw(st.sampled_from(["strict_collision", "offset_capture"])),
        erasure_prob=draw(st.sampled_from([0.0, 0.05])),
        capture_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        tx_duration=draw(st.sampled_from([0.003, 0.005])))
    pattern = draw(st.sampled_from([("easy", "mid", "hard"),
                                    ("easy", "pendulum", "hard")]))
    cfg = cfg_for(n, variant, channel=channel, duration=0.6, trim=0.1,
                  series=True, pattern=pattern, **pol)
    # Without a cooldown the last slot lies in the window.
    cfg = replace(cfg, cooldown_s=draw(st.sampled_from([0.0, 0.1])))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3))
    return cfg, seeds


@settings(max_examples=80, deadline=None)
@given(batch=slotted_batches())
def test_slot_blocks_match_one_slot_at_a_time(batch):
    """A batch whose medium access resolves blocks of slots gives, bit for
    bit, the results of the same batch run one slot at a time with every
    random value drawn on its own: metrics, tx and rx counts, series."""
    cfg, seeds = batch
    ref = _Run(cfg, seeds)
    with np.errstate(over="ignore", invalid="ignore"):
        reference_access(ref)
        ref._tick_plants(ref._listed_deliveries())
        ref._flag_diverged()
        sums = ref._window_sums()
    want = [ref._result(k, sums) for k in range(ref.R)]
    assert bits(_Run(cfg, seeds).execute()) == bits(want)


@pytest.mark.parametrize("reps, n_loops, share, sizes", [
    (4, 2, 1, [4]), (5, 3, 2, [3, 2]), (2, 15, 3, [1, 1]),
    (20, 15, 1, [20]), (25, 100, 1, [9, 8, 8]), (3, 2000, 1, [1, 1, 1])])
def test_batch_sizes(reps, n_loops, share, sizes):
    """``share`` batches of nearly equal size in seed order, more where a
    batch would hold more than 1000 // N replications."""
    assert _batch_sizes(reps, n_loops, share) == sizes


def test_batches_do_not_change_results(monkeypatch):
    """Five replications split 3 + 2 over two workers, split by a smaller
    row cap, or run one by one give the same results."""
    cfg = cfg_for(4, "slotted_aloha", p=0.3, series=True,
                  channel=ChannelConfig(mode="offset_capture",
                                        erasure_prob=0.05))
    batches = []
    engine_run = ncsim.engine.run
    monkeypatch.setattr(ncsim.engine, "run", lambda cfg, seeds, **kw: (
        batches.append(seeds), engine_run(cfg, seeds, **kw))[1])
    lone = [bits(run(replace(cfg, seed=s))) for s in range(5)]
    [(_, serial)] = run_replication_sets([cfg], reps=5, jobs=1)
    assert batches == [[0, 1, 2, 3, 4]]
    monkeypatch.setattr(ncsim.engine, "_BATCH_LOOPS", 8)
    [(_, capped)] = run_replication_sets([cfg], reps=5, jobs=1)
    assert batches[1:] == [[0, 1], [2, 3], [4]]
    monkeypatch.undo()
    [(_, pooled)] = run_replication_sets([cfg], reps=5, jobs=2)
    assert ([bits(r) for r in serial] == [bits(r) for r in capped]
            == [bits(r) for r in pooled] == lone)


def test_replications_deterministic_metric_gives_zero_width():
    cfg = cfg_for(4, "round_robin")
    out = run_replications(cfg, reps=5)
    s = out["summary"]["aoi_mean"]
    assert s["mean"] == pytest.approx(2.5, abs=1e-12)
    assert s["ci99_half"] == 0.0


def test_replications_distinct_seeds():
    cfg = cfg_for(3, "slotted_aloha", p=0.3)
    out = run_replications(cfg, reps=4)
    seeds = [r["seed"] for r in out["replications"]]
    assert seeds == [0, 1, 2, 3]
    vals = [r["metrics"]["network"]["aoi_mean"] for r in out["replications"]]
    assert len(set(vals)) > 1


def test_interval_shrinks_with_more_replications():
    # Quadrupling replications shrinks the half-width by about
    # sqrt(4) x (t-quantile ratio) ~ 2.4; accept generous sampling noise.
    cfg = cfg_for(3, "slotted_aloha", p=1 / 3, duration=10.0, seed=11)
    h10 = run_replications(cfg, reps=10)["summary"]["aoi_mean"]["ci99_half"]
    h40 = run_replications(cfg, reps=40)["summary"]["aoi_mean"]["ci99_half"]
    assert 1.5 <= h10 / h40 <= 4.0


def rep_result(mse_mean):
    """A replication's result whose network mean MSE is ``mse_mean``."""
    network = {"aoi_mean": 2.0, "mse_mean": mse_mean, "nmse_mean": 1.0,
               "lqg_mean": 1.0, "any_diverged": False}
    return {"metrics": {"network": network, "fractions": {"easy": 1.0}}}


def test_summary_names_unbounded_half_widths():
    """Each infinite half-width is reported with its reason; the means and
    the other half-widths are as usual."""
    means = ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean")
    one = summarize_replications([rep_result(3.0)])["summary"]
    assert one["unbounded"] == dict.fromkeys(means, "one replication")
    assert all(one[k] == {"mean": one[k]["mean"], "ci99_half": math.inf}
               for k in means)
    for bad in (math.inf, math.nan):
        out = summarize_replications([rep_result(3.0),
                                      rep_result(bad)])["summary"]
        assert out["unbounded"] == {
            "mse_mean": "non-finite replication mean"}
        assert out["mse_mean"]["ci99_half"] == math.inf
    # The diverging golden network's replication means: their spread's
    # square overflows.
    out = summarize_replications([rep_result(2.5e59),
                                  rep_result(5e177)])["summary"]
    assert out["unbounded"] == {"mse_mean": "spread beyond float64"}
    assert out["mse_mean"] == {"mean": (2.5e59 + 5e177) / 2,
                               "ci99_half": math.inf}
    assert out["aoi_mean"] == {"mean": 2.0, "ci99_half": 0.0}
    bounded = summarize_replications([rep_result(3.0), rep_result(4.0)])
    assert bounded["summary"]["unbounded"] == {}


def test_half_width_quantile_is_student_t_ppf():
    """summarize_replications takes the 99% Student-t quantile from
    scipy.special.stdtrit, which equals scipy.stats.t.ppf bit for bit for
    every df up to 2000; a scipy that breaks this would move every
    reported half-width."""
    from scipy import stats
    from scipy.special import stdtrit
    df = range(1, 2001)
    assert ([float(stdtrit(d, 0.995)) for d in df]
            == stats.t.ppf(0.995, np.array(df)).tolist())


def test_parallel_jobs_match_serial():
    cfg = cfg_for(3, "slotted_aloha", p=0.3)
    serial = run_replications(cfg, reps=3, jobs=1)
    par = run_replications(cfg, reps=3, jobs=2)
    assert serial["summary"] == par["summary"]
