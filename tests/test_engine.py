"""Event-driven run semantics: timing, determinism, and conservation."""
import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncsim.engine
import ncsim.mac
from ncsim.channel import ChannelConfig
from ncsim.engine import (SimConfig, _Run, run, run_replications,
                          summarize_replications, systems_from_classes)
from ncsim.errors import ConfigurationError
from ncsim.mac import SchedulerPolicy
from ncsim.metrics import mse_of_age
from ncsim.systems import estimate_state, make_preset


def cfg_for(n, variant, channel=None, duration=3.0, trim=0.5, seed=0,
            series=False, pattern=("easy", "mid", "hard"), **pol):
    systems, classes = systems_from_classes(n, pattern)
    return SimConfig(systems=systems, classes=classes,
                     policy=SchedulerPolicy(variant=variant, **pol),
                     channel=channel or ChannelConfig(),
                     duration_s=duration, warmup_s=trim, cooldown_s=trim,
                     seed=seed, record_series=series)


def test_config_validation():
    systems, classes = systems_from_classes(2)
    with pytest.raises(ConfigurationError):
        SimConfig(systems=[], policy=SchedulerPolicy("round_robin"))
    with pytest.raises(ConfigurationError):
        SimConfig(systems=systems, classes=classes,
                  policy=SchedulerPolicy("round_robin"),
                  duration_s=5.0, warmup_s=3.0, cooldown_s=3.0)
    with pytest.raises(ConfigurationError):
        run(cfg_for(3, "adra"))   # threshold/p unresolved
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


@pytest.mark.parametrize("variant, tx", [("round_robin", 80), ("aloha", 80),
                                         ("wifresh", 132)])
def test_last_slot_delivery_is_dropped(variant, tx):
    """With no cooldown the window ends on the last tick.  The last
    transmission counts, but its delivery lands after the run ends."""
    systems, classes = systems_from_classes(1)
    res = run(SimConfig(systems=systems, classes=classes,
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
def test_polling_stops_at_the_run_end(tx, n_polls, n_replies):
    """No poll is sent at or after the run's end at 1 s, and a reply due
    after it is never delivered.  Lossless transactions take two
    transmissions, back to back from time 0: with 3 ms packets the last
    poll goes out at 0.996 s and its reply, due at 1.002 s, is dropped;
    with 5 ms packets the last reply lands on the end and no poll
    follows it."""
    r = _Run(cfg_for(2, "wifresh", duration=1.0, trim=0.2,
                     channel=ChannelConfig(tx_duration=tx)))
    polls, replies, delivered = [], [], []
    gw, deliver = r.gateway, r.on_delivery
    record_poll, record_data = gw.record_poll, gw.record_data
    gw.record_poll = lambda k, now: (polls.append(now), record_poll(k, now))
    gw.record_data = lambda k, now: (replies.append(now),
                                     record_data(k, now))
    r.on_delivery = lambda k, gen: (delivered.append(k), deliver(k, gen))
    r.execute()
    assert max(polls) < 1.0 and max(replies) <= 1.0
    assert len(polls) == n_polls
    assert len(replies) == len(delivered) == n_replies


def test_mef_frames_and_beacons():
    res = run(cfg_for(6, "mef", series=True))
    # Every loop is served within the frame rotation: ages stay bounded.
    for i in range(1, 7):
        assert res["series"][i]["aoi"].max() < 60


def test_estimator_incremental_matches_reference():
    """The engine's rolled-forward estimate equals a cold replay, also
    right after a delivery older than the last tick."""
    r = _Run(cfg_for(1, "round_robin", pattern=("pendulum",)))
    group, j = r.at[0]
    sys = r.cfg.systems[0]
    for t in range(1, 40):
        if t % 7 == 0:   # as if the sample of two ticks ago arrived now
            r.on_delivery(0, t - 2)
        r.on_tick(t)
        nu = int(r.nu[0])
        ref = estimate_state(sys, group.X[nu, j][:, 0],
                             [group.U[q, j, :, 0] for q in range(nu, t)])
        np.testing.assert_allclose(group.xhat[j][:, 0], ref,
                                   rtol=1e-9, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                      min_size=1, max_size=40))
def test_only_strictly_fresher_deliveries_change_the_gateway(steps):
    """A stale or duplicate delivery changes neither the loop's freshest
    generation and estimate nor the gateway's age; ``nu`` never regresses.
    Loop 0 (A = B = 1, no input applied) has state x[t] = t, so an accepted
    delivery of generation g sets its estimate to g."""
    r = _Run(cfg_for(2, "round_robin"))
    group, j = r.at[0]
    group.X[:, j, 0, 0] = np.arange(len(group.X))
    est_age = r.gateway.est_age
    for step, lag in steps:
        r.current_step += step
        gen = max(0, r.current_step - lag)
        before = (int(r.nu[0]), group.xhat[j].item(), int(est_age[0]))
        r.on_delivery(0, gen)
        if gen > before[0]:
            assert r.nu[0] == gen and group.xhat[j].item() == float(gen)
            assert est_age[0] == max(1, r.current_step - gen)
        else:
            assert (int(r.nu[0]), group.xhat[j].item(),
                    int(est_age[0])) == before
        assert r.nu[0] >= before[0]


def test_contention_sender_waits_for_the_next_sample():
    """Each tick replaces the pending sample with its own; a contention
    transmission takes it, and the loop stays silent until the next tick."""
    r = _Run(cfg_for(2, "aloha"))
    r.on_tick(1)
    r.on_tick(2)
    assert r.pending.tolist() == [True, True] and r.current_step == 2
    r.on_slot(2)
    assert r.pending.tolist() == [False, False]
    assert r._contention_transmitters().tolist() == []
    r.on_tick(3)
    assert r._contention_transmitters().tolist() == [0, 1]
    assert r.pending[0] and r.current_step == 3


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
    out = r.metrics.finalize(*sums)
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
    """After every tick of random runs: every age is at least one, no loop
    received more than it sent, ``nu`` never decreased, and each loop's
    estimate equals a cold replay from its freshest sample over its
    inputs."""
    r = _Run(cfg)
    tick, seen = r.on_tick, r.nu.copy()

    def checked_tick(t):
        tick(t)
        assert (r.gateway.est_age >= 1).all()
        assert (r.metrics.rx <= r.metrics.tx).all()
        assert (r.nu >= seen).all()
        seen[:] = r.nu
        for k, (group, j) in enumerate(r.at):
            nu = int(r.nu[k])
            ref = estimate_state(cfg.systems[k], group.X[nu, j][:, 0],
                                 [group.U[q, j, :, 0] for q in range(nu, t)])
            np.testing.assert_array_equal(group.xhat[j][:, 0], ref)

    r.on_tick = checked_tick
    r.execute()


@pytest.mark.parametrize("variant", ["round_robin", "aloha", "mef", "pmef"])
def test_tables_grow_only_to_their_own_loops_ages(variant, monkeypatch):
    """Each plant's table reaches the oldest age its own loops asked for:
    window ages for the metrics, MEF's frame reach for its loops, and the
    ages of every poll decision."""
    cfg = cfg_for(15, variant, pattern=("easy", "pendulum", "hard"),
                  duration=4.0, trim=1.0, series=True,
                  channel=ChannelConfig(mode="offset_capture",
                                        erasure_prob=0.01))
    polled, pick = [], ncsim.engine.pmef_next

    def recording_pick(gw, *args):
        polled.append(gw.est_age.copy())
        return pick(gw, *args)

    monkeypatch.setattr(ncsim.engine, "pmef_next", recording_pick)
    r = _Run(cfg)
    res = r.execute()
    ages = np.array([res["series"][k + 1]["aoi"] for k in range(15)]).T
    window = ages[r.metrics.t_start - 1:r.metrics.t_end]   # row t-1: tick t
    gw, frame = r.gateway, cfg.policy.frame_len
    for p, table in enumerate(gw.plants):
        own = gw.plant == p
        want = window[:, own].max()
        if variant == "mef":
            for t in range(1, r.steps + 1, frame):
                want = max(want, ages[t - 1, own].max() + frame - 1)
        if polled:
            want = max(want, np.array(polled)[:, own].max())
        assert len(table._mse) - 1 == gw.depth[p] == want
    if variant in ("mef", "pmef"):   # easy, pendulum and hard differ
        assert len(set(gw.depth.tolist())) == 3, "plants grew in lockstep"


# (N, class pattern, policy): a scalar mix and a pendulum mix, each under a
# scheduler that ranks loops by their tables.
PLANT_MIXES = [(9, ("easy", "mid", "hard"), "mef"),
               (6, ("easy", "pendulum", "hard"), "pmef")]


@pytest.mark.parametrize("n, pattern, variant", PLANT_MIXES)
def test_one_mse_table_per_plant(n, pattern, variant, monkeypatch):
    cfg = cfg_for(n, variant, pattern=pattern)
    built = []

    class CountedTable(ncsim.mac.MseTable):
        def __init__(self, sys):
            built.append(self)
            super().__init__(sys)

    monkeypatch.setattr(ncsim.mac, "MseTable", CountedTable)
    r = _Run(cfg)
    r.execute()
    assert built == r.gateway.plants
    plants = r.gateway.plants
    assert len(plants) == len({id(s) for s in cfg.systems}) == 3
    tables = [plants[k] for k in r.gateway.plant]      # per loop
    assert all(t.sys is s for t, s in zip(tables, cfg.systems))
    for tab in plants:
        depth = len(tab._mse) - 1
        assert depth > 1
        mse, nmse = tab.curves(depth)
        for d, value in enumerate(mse.tolist()):
            assert value == tab.mse(d) == mse_of_age(tab.sys, d)
            assert nmse[d] == tab.nmse(d)


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


def test_parallel_jobs_match_serial():
    cfg = cfg_for(3, "slotted_aloha", p=0.3)
    serial = run_replications(cfg, reps=3, jobs=1)
    par = run_replications(cfg, reps=3, jobs=2)
    assert serial["summary"] == par["summary"]
