"""Samples to send, gateway state, and the scheduling decision rules."""
import functools
import math
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsim.aoi import optimize_adra
from ncsim.engine import SimConfig, _Plants, _Run, systems_from_classes
from ncsim.errors import ConfigurationError
from ncsim.mac import (ReliabilityWindow, SchedulerPolicy, mef_build_schedule,
                       pmef_next, rr_next, wifresh_next)
from ncsim.metrics import MseTable, mse_of_age, nmse_of_age
from ncsim.systems import LtiSystem, make_preset


def hand_run(variant="round_robin", n=2):
    """A run whose ticks, slots and deliveries the test drives by hand."""
    systems = systems_from_classes(n)
    return _Run(SimConfig(systems=systems,
                          policy=SchedulerPolicy(variant), duration_s=3.0,
                          warmup_s=0.5, cooldown_s=0.5))


def plant_pass(r):
    """Run r's plant pass; returns, per tick t, each row's estimate as
    tick t finds it: the deliveries before it applied, not yet rolled
    forward (scalar loops)."""
    found, tick = defaultdict(dict), _Plants.tick

    def spy(group, t):
        for j, i in enumerate(group.rows.tolist()):
            found[t][i] = group.xhat[j].item()
        tick(group, t)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Plants, "tick", spy)
        r._tick_plants()
    return found


def test_lcfs_keeps_only_freshest():
    """A loop holds one sample to send (last come, first served): each
    tick's sample replaces the older one, so a slot delivers the sample of
    the tick just before it.  The last slot's delivery lands after the
    run ends."""
    r = hand_run("aloha", n=1)
    r.execute()
    # moved[t] lists the samples taken in at tick t, delivered at t - 1.
    delivered = [(gen, t - 1) for t, samples in enumerate(r.moved)
                 for _, gen in samples]
    assert delivered == [(t, t) for t in range(1, r.steps)]


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(["aloha", "slotted_aloha", "adra",
                                "round_robin", "mef"]),
       n=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_lcfs_single_slot_property(variant, n, seed):
    """Under every slotted policy, slot t follows tick t and sends each of
    its transmitters' sample of that tick, at most once per loop."""
    pol = {"p": 0.5, "threshold": 2} if variant in ("slotted_aloha",
                                                    "adra") else {}
    r = _Run(SimConfig(systems=systems_from_classes(n),
                       policy=SchedulerPolicy(variant, **pol),
                       duration_s=1.0, warmup_s=0.2, cooldown_s=0.2,
                       seed=seed))
    slots, blocks = [], r._slots
    r._slots = lambda lo, hi: (slots.extend(range(lo, hi)), blocks(lo, hi))
    r.execute()
    assert slots == list(range(1, r.steps + 1))
    # Row t of the transmit mask is slot t's, and it sends tick t's
    # samples: each one delivered is taken in at the next tick.
    sent = [r.sent[t].nonzero()[0].tolist() for t in slots]
    assert all(len(set(loops)) == len(loops) for loops in sent)
    for t, samples in enumerate(r.moved):
        for k, gen in samples:
            assert gen == t - 1 and k in sent[gen - 1]


def test_rr_rule():
    assert rr_next(1, 7) == 0
    assert rr_next(4, 3) == 0
    for N in (1, 2, 5, 15):
        window = [rr_next(t, N) for t in range(1, N + 1)]
        assert sorted(window) == list(range(N))
        # An array of slots gives each slot's loop.
        slots = np.arange(1, 3 * N + 2)
        assert rr_next(slots, N).tolist() == [rr_next(t, N)
                                              for t in slots.tolist()]
    with pytest.raises(ConfigurationError):
        rr_next(0, 3)
    with pytest.raises(ConfigurationError):
        rr_next(np.arange(0, 4), 3)


def test_gw_on_data_age_update():
    """Loop 1 (A = 1.1, B = 1) accepts the sample of step 7 at step 10:
    its age is 11 - 7 at tick 11, and its controller rolls x[7] forward
    to step 10 through no input before that tick.  The acknowledgement is
    instantaneous: the sender's loop knows gen 7."""
    r = hand_run()
    assert r.on_delivery(1, 7, 10)
    assert r.nu[1] == 7 and r.nu[0] == 0 and r.moved[11] == [(1, 7)]
    found = plant_pass(r)
    group, j = r.at[1]
    assert not group.U[7:10, j].any() and group.X[7, j] != 0
    assert found[11][1] == group.X[7, j].item() * 1.1 * 1.1 * 1.1
    assert r.ages[10:12, 1].tolist() == [10, 4]
    assert r.ages[11, 0] == 11


def test_gw_on_data_ignores_duplicates_and_stale():
    """A duplicate or a stale delivery changes neither the loop's freshest
    generation nor its ages and estimates: the run equals one that never
    received it."""
    r, once = hand_run(), hand_run()
    assert r.on_delivery(1, 7, 10) and once.on_delivery(1, 7, 10)
    assert not r.on_delivery(1, 7, 11)    # duplicate
    assert not r.on_delivery(1, 4, 11)    # stale
    assert r.nu[1] == 7 and r.moved[12] == []
    found, expected = plant_pass(r), plant_pass(once)
    assert found[12][1] == expected[12][1] and found == expected
    assert r.ages[11:13, 1].tolist() == [4, 5]
    assert (r.ages == once.ages).all()


def test_gw_view_age_grows_per_tick():
    r = hand_run()
    r.on_delivery(1, 7, 10)
    assert r.nu[1] == 7
    r._tick_plants()
    assert r.ages[1:11, 1].tolist() == list(range(1, 11))
    assert r.ages[11:16, 1].tolist() == [4, 5, 6, 7, 8]


def test_reliability_window():
    gw = ReliabilityWindow(2)
    for k in range(9):
        gw.record_poll(1, k * 0.01)
    for k in range(5):
        gw.record_data(1, k * 0.01)
    # (5+1)/(9+1) for loop 1; loop 0 was never polled.
    assert list(gw.reliability(0.09)) == [1.0, pytest.approx(0.6)]
    # Outside the 0.5 s window everything is forgotten.
    assert gw.reliability(10.0)[1] == pytest.approx(1.0)
    assert gw.polls == gw.datas == [0, 0]


def test_reliability_bounds():
    gw = ReliabilityWindow(1)
    assert gw.reliability(0.0)[0] == 1.0
    gw.record_poll(0, 0.0)
    assert 0 < gw.reliability(0.0)[0] <= 1.0


def table_for(classes):
    """The error table of loops of the given classes (one plant each)."""
    return MseTable([make_preset(c) for c in classes])


def mef_for(classes, ages, frame_len):
    """MEF's nMSE frame for one replication of loops of the given classes
    with the given age estimates, as a list of loop indices."""
    schedule = mef_build_schedule(table_for(classes), np.array([ages]),
                                  frame_len, use_nmse=True)
    return schedule[:, 0].tolist()


def test_mef_fair_rotation_for_identical_loops():
    sched = mef_for(["mid", "mid", "mid"], [1, 1, 1], frame_len=6)
    assert sched == [0, 1, 2, 0, 1, 2]


def test_mef_huge_age_occupies_first_slot():
    sched = mef_for(["easy", "easy", "hard"], [2, 2, 90], frame_len=4)
    assert sched[0] == 2


def test_mef_greedy_trace_oracle():
    """Replay the greedy rule by hand with the covariance-route error
    values (independent of the table used by the implementation)."""
    from ncsim.metrics import error_covariance
    classes = {0: "easy", 1: "mid", 2: "hard"}
    systems = {i: make_preset(c) for i, c in classes.items()}

    def nmse(i, d):
        cov = error_covariance(systems[i], d)
        base = error_covariance(systems[i], 1)
        return np.trace(cov) / np.trace(base)

    ages = {0: 1, 1: 1, 2: 1}
    expect = []
    for _ in range(6):
        pick = max(sorted(ages), key=lambda i: nmse(i, ages[i]))
        expect.append(pick)
        ages = {i: 1 if i == pick else d + 1 for i, d in ages.items()}
    got = mef_for(classes.values(), [1, 1, 1], frame_len=6)
    assert got == expect


def test_mef_starves_slow_loops_when_slots_are_scarce():
    # Three loops in six slots rotate fairly; once loops outnumber the
    # frame's slack the fast dynamics crowd out the slow ones.
    classes = {k: ["easy", "mid", "hard"][k % 3] for k in range(15)}
    sched = mef_for(classes.values(), [1] * 15, frame_len=20)
    by_class = {c: sum(classes[i] == c for i in sched)
                for c in ("easy", "mid", "hard")}
    assert by_class["hard"] > by_class["mid"] > by_class["easy"]


def test_mef_schedule_shape():
    sched = mef_for(["easy", "hard"], [5, 5], frame_len=20)
    assert len(sched) == 20
    assert set(sched) <= {0, 1}


def test_wifresh_uniform_reliability_picks_max_age():
    assert wifresh_next(np.array([3, 1, 2]), np.ones(3)) == 0


def test_wifresh_tie_breaks_low_id():
    assert wifresh_next(np.array([4, 4]), np.ones(2)) == 0


def test_pmef_prefers_faster_dynamics():
    table = table_for(["easy", "hard"])
    # error(1.2-dynamics, age 3) = 4.5136 > error(1.0-dynamics, age 4) = 4
    assert pmef_next(table, np.array([4, 3]), np.ones(2), use_nmse=True) == 1


def test_pmef_equals_wifresh_for_identical_scalar_loops():
    table, rel = table_for(["mid", "mid", "mid"]), np.ones(3)
    for ages in [(1, 5, 3), (2, 2, 9), (4, 4, 4)]:
        ages = np.array(ages)
        assert (pmef_next(table, ages, rel, use_nmse=True)
                == wifresh_next(ages, rel))


def test_reliability_window_keeps_its_edge():
    """An event exactly ``window_len`` before the query still counts."""
    gw = ReliabilityWindow(1)
    gw.record_poll(0, 0.25)
    assert gw.reliability(0.75)[0] == 0.5
    assert gw.reliability(0.75 + 1e-9)[0] == 1.0


def test_overflowed_errors_tie_to_lowest_id():
    """Loops whose error has overflowed to +inf tie; the lowest index
    wins, and MEF then serves the next overflowed loop."""
    table = MseTable([PLANTS[c]
                      for c in ("easy", "unstable", "easy", "unstable")])
    ages = np.array([30, 6, 30, 9])
    errors = table.errors(ages, use_nmse=True)
    assert errors.tolist()[1::2] == [math.inf, math.inf]
    assert pmef_next(table, ages, np.ones(4), use_nmse=True) == 1
    assert mef_build_schedule(table, ages[None], frame_len=2,
                              use_nmse=True)[:, 0].tolist() == [1, 3]


# ---- plain-Python references for the array schedulers -------------------

PLANTS = {c: make_preset(c) for c in ("easy", "hard", "pendulum")}
# MSE(age) overflows to +inf from age 5 on.
PLANTS["unstable"] = LtiSystem(A=[[1e40]], B=[[1.0]], noise_cov=[[2.0]],
                               Q=[[1.0]], R=[[1.0]], name="unstable")
WINDOW_S = 0.5


class LoopWindow:
    """One loop's poll and reply times, trimmed on their own."""

    def __init__(self):
        self.polls, self.datas = deque(), deque()

    def reliability(self, now):
        horizon = now - WINDOW_S
        for times in (self.polls, self.datas):
            while times and times[0] < horizon:
                times.popleft()
        return (len(self.datas) + 1) / (len(self.polls) + 1)


@functools.cache
def reference_error(plant, age, use_nmse):
    """:func:`nmse_of_age` or :func:`mse_of_age` of a plant in PLANTS."""
    law = nmse_of_age if use_nmse else mse_of_age
    # Overflow is expected: it is what makes the value +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        return law(PLANTS[plant], age)


def first_max(values):
    """Loop index of the largest value under strict ``>``: the lowest
    index wins ties."""
    best = 0
    for k, v in enumerate(values):
        if v > values[best]:
            best = k
    return best


def reference_mef(ages, plants, frame_len, use_nmse):
    pred, schedule = list(ages), []
    for _ in range(frame_len):
        pick = first_max([reference_error(c, a, use_nmse)
                          for c, a in zip(plants, pred)])
        schedule.append(pick)
        pred = [1 if k == pick else a + 1 for k, a in enumerate(pred)]
    return schedule


# Poll and reply histories: (gap to the previous event in seconds, loop
# index, poll or reply).  Dyadic gaps keep the sums exact, so events fall
# exactly on the window's edge.
HISTORIES = st.lists(st.tuples(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                               st.integers(0, 7), st.booleans()),
                     max_size=40)


def replay(n, history):
    """Feed a history to a reliability window and to per-loop windows;
    yield both after each query the gateway would make before recording
    an event."""
    gw = ReliabilityWindow(n)
    ref = [LoopWindow() for _ in range(n)]
    now = 0.0
    for gap, k, is_poll in history:
        now += gap
        k %= n
        yield gw, ref, now
        if is_poll:
            gw.record_poll(k, now)
            ref[k].polls.append(now)
        else:
            gw.record_data(k, now)
            ref[k].datas.append(now)
    yield gw, ref, now + 0.5


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), history=HISTORIES)
def test_global_window_matches_per_loop_trimming(n, history):
    for gw, ref, now in replay(n, history):
        rel = gw.reliability(now).tolist()
        assert rel == [w.reliability(now) for w in ref]
        assert gw.polls == [len(w.polls) for w in ref]
        assert gw.datas == [len(w.datas) for w in ref]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), history=HISTORIES, use_nmse=st.booleans(),
       frame_len=st.integers(1, 25))
def test_argmax_schedulers_match_reference(data, history, use_nmse,
                                           frame_len):
    """WiFresh, pMEF and MEF choose what a loop-by-loop strict-``>`` scan
    chooses, over tied ages, windows straddling their edge, mixed plants
    and errors that overflowed to +inf.  MEF frames 1-4 replications of
    the same loops in one pass, each as if it were alone."""
    n = data.draw(st.integers(1, 8), label="n")
    plants = data.draw(st.lists(st.sampled_from(sorted(PLANTS)),
                                min_size=n, max_size=n), label="plants")
    rows = data.draw(st.lists(st.lists(st.integers(1, 4)
                                       | st.integers(5, 60),
                                       min_size=n, max_size=n),
                              min_size=1, max_size=4), label="ages")
    ages = rows[0]
    table = MseTable([PLANTS[c] for c in plants])
    gw = ReliabilityWindow(n)
    windows = [LoopWindow() for _ in range(n)]
    now = 0.0
    for gap, k, is_poll in history + [(0.5, 0, True)]:
        now += gap
        rel = [w.reliability(now) for w in windows]
        err = [reference_error(c, a, use_nmse) for c, a in zip(plants, ages)]
        assert wifresh_next(np.array(ages), gw.reliability(now)) == first_max(
            [r * a for r, a in zip(rel, ages)])
        assert pmef_next(table, np.array(ages), gw.reliability(now),
                         use_nmse) == first_max(
            [r * e for r, e in zip(rel, err)])
        k %= n
        (gw.record_poll if is_poll else gw.record_data)(k, now)
        (windows[k].polls if is_poll else windows[k].datas).append(now)
    schedule = mef_build_schedule(table, np.array(rows), frame_len, use_nmse)
    assert schedule.shape == (frame_len, len(rows))
    for column, row in zip(schedule.T, rows):
        assert column.tolist() == reference_mef(row, plants, frame_len,
                                                use_nmse)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        SchedulerPolicy("csma")
    with pytest.raises(ConfigurationError):
        SchedulerPolicy("slotted_aloha", p=1.5)
    with pytest.raises(ConfigurationError):
        SchedulerPolicy("adra", p=0.3, threshold=-1)
    with pytest.raises(ConfigurationError):
        SchedulerPolicy("mef", frame_len=0)
    pol = SchedulerPolicy("adra", p=0.3, threshold=4)
    assert pol.is_contention and not pol.is_polling
    assert SchedulerPolicy("pmef").is_polling


def test_policy_parameters_may_be_deferred():
    # Network-size-dependent defaults are resolved where the policy is
    # used, so a bare construction must succeed.
    assert SchedulerPolicy("slotted_aloha").p is None
    assert SchedulerPolicy("slotted_aloha").resolved(5).p == 1 / 5
    # A missing threshold or p tunes the whole age-threshold pair.
    threshold, p = optimize_adra(5)
    tuned = SchedulerPolicy("adra", p=p, threshold=threshold)
    for partial in ({}, {"p": 0.3}, {"threshold": 2}):
        assert SchedulerPolicy("adra", **partial).resolved(5) == tuned
    assert tuned.resolved(7) is tuned
