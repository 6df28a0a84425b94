"""Error-versus-age laws and the windowed metrics accumulator."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsim.engine import SimConfig, _Plants, _Run, systems_from_classes
from ncsim.errors import ConfigurationError
from ncsim.mac import SchedulerPolicy
from ncsim.metrics import (MetricsAccumulator, MseTable, error_covariance,
                           mse_of_age, nmse_of_age)
from ncsim.systems import LtiSystem, make_preset

PRESETS = ["easy", "mid", "hard", "pendulum"]


def test_mse_random_walk_is_linear():
    sys = make_preset("easy")
    for k in (0, 1, 5, 17):
        assert mse_of_age(sys, k) == pytest.approx(float(k))


def test_mse_hard_class_three_periods():
    # 1 + 1.2^2 + 1.2^4
    assert mse_of_age(make_preset("hard"), 3) == pytest.approx(4.5136)


def test_mse_pendulum_one_period_is_noise_trace():
    sys = make_preset("pendulum")
    assert mse_of_age(sys, 1) == pytest.approx(7.729e-5, rel=1e-4)
    assert mse_of_age(sys, 1) == pytest.approx(float(np.trace(sys.noise_cov)))


def test_mse_monte_carlo_oracle():
    """Empirical ||e||^2 from simulated noise accumulation, 4 SE bound."""
    sys = make_preset("hard")
    delta, n_draws = 3, 100_000
    rng = np.random.default_rng(5)
    errs = np.zeros((n_draws, sys.n))
    Ak = np.eye(sys.n)
    for _ in range(delta):
        errs += (rng.normal(size=(n_draws, sys.n)) * sys.noise_std) @ Ak.T
        Ak = sys.A @ Ak
    sq = np.sum(errs ** 2, axis=1)
    se = sq.std(ddof=1) / math.sqrt(n_draws)
    assert abs(sq.mean() - mse_of_age(sys, delta)) <= 4 * se


def test_mse_rejects_negative_age():
    with pytest.raises(ConfigurationError):
        mse_of_age(make_preset("easy"), -1)


def test_mse_overflow_reports_inf():
    assert mse_of_age(make_preset("hard"), 10_000) == math.inf


def test_nmse_is_one_at_age_one():
    for cls in PRESETS:
        assert nmse_of_age(make_preset(cls), 1) == pytest.approx(1.0)


def test_nmse_equals_mse_for_unit_noise_scalars():
    for cls in ("easy", "mid", "hard"):
        sys = make_preset(cls)
        for d in (1, 4, 9):
            assert nmse_of_age(sys, d) == pytest.approx(mse_of_age(sys, d))


def test_nmse_pendulum_between_classes():
    v = nmse_of_age(make_preset("pendulum"), 8)
    assert nmse_of_age(make_preset("easy"), 8) < v < nmse_of_age(make_preset("hard"), 8)


def test_nmse_undefined_for_zero_noise():
    sys = LtiSystem(A=[[0.5]], B=[[1.0]], noise_cov=[[0.0]], Q=[[1.0]],
                    R=[[1.0]])
    with pytest.raises(ConfigurationError):
        nmse_of_age(sys, 3)
    with pytest.raises(ConfigurationError):
        MseTable([make_preset("easy"), sys])


def test_error_covariance_base_cases():
    sys = make_preset("pendulum")
    np.testing.assert_allclose(error_covariance(sys, 1), sys.noise_cov)
    hard = make_preset("hard")
    assert error_covariance(hard, 2)[0, 0] == pytest.approx(2.44)
    with pytest.raises(ConfigurationError):
        error_covariance(sys, 0)


@pytest.mark.parametrize("cls", PRESETS)
def test_trace_identity(cls):
    """The covariance route and the trace route agree to 1e-9 relative."""
    sys = make_preset(cls)
    for delta in range(1, 51):
        cov = error_covariance(sys, delta)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-9)
        assert float(np.trace(cov)) == pytest.approx(
            mse_of_age(sys, delta), rel=1e-9)


@pytest.mark.parametrize("cls", PRESETS)
def test_monotonicity_in_age(cls):
    sys = make_preset(cls)
    prev = mse_of_age(sys, 0)
    for d in range(1, 101):
        cur = mse_of_age(sys, d)
        assert cur > prev
        prev = cur


def table_errors(tab, ages, use_nmse=True):
    """The table's errors at ``ages`` (last axis over its loops), as lists."""
    return tab.errors(np.array(ages), use_nmse).tolist()


def both_reads(tab, ages, stacked_first=False):
    """The table's MSE and nMSE at ``ages`` read both ways, as lists: by
    :meth:`MseTable.errors` and by :meth:`MseTable.mse_and_nmse`, the
    latter first, so that it is the read that grows the table, if
    ``stacked_first``."""
    stacked = lambda: [a.tolist() for a in tab.mse_and_nmse(np.array(ages))]
    first = stacked() if stacked_first else None
    by_flag = [table_errors(tab, ages, use_nmse) for use_nmse in (False, True)]
    return by_flag, first if stacked_first else stacked()


@pytest.mark.parametrize("cls", PRESETS)
def test_table_agrees_with_direct_evaluation(cls):
    sys = make_preset(cls)
    tab = MseTable([sys])
    for d in (0, 1, 7, 33):
        assert table_errors(tab, [d], use_nmse=False) == [mse_of_age(sys, d)]
        assert table_errors(tab, [d]) == [nmse_of_age(sys, d)]


def test_table_stays_inf_after_overflow():
    tab = MseTable([make_preset("hard")])
    assert table_errors(tab, [10_000], use_nmse=False) == [math.inf]
    assert table_errors(tab, [10_001], use_nmse=False) == [math.inf]
    assert not math.isnan(table_errors(tab, [10_001])[0])


def test_argmax_normalization_matters():
    """Raw error starves the pendulum: with peers at scheduling-typical
    ages it is never the raw-MSE argmax until its age exceeds 53, while
    the normalized metric already selects it at age 4."""
    tab = MseTable([make_preset(c) for c in PRESETS])   # one loop each
    # easy, mid and hard at age a, the pendulum at age d.
    ages = [(a, a, a, d) for a in (1, 2, 3) for d in range(1, 51)]
    raw = tab.errors(np.array(ages), use_nmse=False).argmax(axis=1)
    nmse = tab.errors(np.array(ages), use_nmse=True).argmax(axis=1)
    assert "pendulum" not in {PRESETS[k] for k in raw.tolist()}
    assert "pendulum" in {PRESETS[k] for k in nmse.tolist()}
    # The raw-MSE crossover exists but is far out: age 54 against peers
    # holding one-period-fresh information.
    curves = table_errors(tab, [(1, 1, 1, d) for d in range(1, 200)],
                          use_nmse=False)
    first = next(d for d, (easy, _, _, pendulum) in enumerate(curves, 1)
                 if pendulum > easy)
    assert first == 54


# Plants for the table's property test; MSE(age) of "unstable" overflows
# to +inf from age 5 on, that of "hard" from age 1946 on.  The nMSE of
# "damped" divides by 3.7: multiplying by its reciprocal would round
# about half of its first 60 values differently.
PLANTS = {c: make_preset(c) for c in ("easy", "hard", "pendulum")}
PLANTS["unstable"] = LtiSystem(A=[[1e40]], B=[[1.0]], noise_cov=[[2.0]],
                               Q=[[1.0]], R=[[1.0]], name="unstable")
PLANTS["damped"] = LtiSystem(A=[[0.9]], B=[[1.0]], noise_cov=[[3.7]],
                             Q=[[1.0]], R=[[1.0]], name="damped")


@functools.cache
def reference_error(plant, age, use_nmse):
    """:func:`mse_of_age` or :func:`nmse_of_age` of a plant in PLANTS."""
    law = nmse_of_age if use_nmse else mse_of_age
    # Overflow is expected: it is what makes the value +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        return law(PLANTS[plant], age)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_matches_reference_through_any_growth(data):
    """Grown in several calls, in any order of ages and past the
    overflow, the table returns the reference laws bit for bit through
    both of its reads, grows each plant exactly to the oldest age its own
    loops asked, and never narrows its storage, which holds the MSE
    alone."""
    n = data.draw(st.integers(1, 6), label="n")
    names = data.draw(st.lists(st.sampled_from(sorted(PLANTS)),
                               min_size=n, max_size=n), label="plants")
    tab = MseTable([PLANTS[c] for c in names])
    assert [tab.plants[p] for p in tab.plant.tolist()] == \
        [PLANTS[c] for c in names]
    assert len(tab.plants) == len(set(names))
    oldest = {c: 0 for c in names}
    width = tab._mse.shape[1]
    for _ in range(data.draw(st.integers(1, 5), label="calls")):
        rows = data.draw(st.integers(1, 3), label="rows")
        ages = data.draw(st.lists(
            st.lists(st.integers(0, 60) | st.integers(1944, 1948),
                     min_size=n, max_size=n),
            min_size=rows, max_size=rows), label="ages")
        want = [[[reference_error(c, a, use_nmse) for c, a in zip(names, row)]
                 for row in ages] for use_nmse in (False, True)]
        stacked_first = data.draw(st.booleans(), label="stacked_first")
        assert both_reads(tab, ages, stacked_first) == (want, want)
        for row in ages:
            for c, a in zip(names, row):
                oldest[c] = max(oldest[c], a)
        assert tab.depth.tolist() == [oldest[c] for c in dict.fromkeys(names)]
        assert tab._mse.shape == (len(tab.plants), tab._mse.shape[1])
        assert tab._mse.shape[1] >= max(width, tab.depth.max() + 1)
        width = tab._mse.shape[1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_loop_read_is_its_entry_of_errors(data):
    """A loop's error read alone (:meth:`MseTable.error`) is its entry of
    :meth:`MseTable.errors` and the reference law, a float with the same
    bits, +inf past the overflow; a read alone that reaches past its
    plant's curve grows it as far as the row read does."""
    n = data.draw(st.integers(1, 6), label="n")
    names = data.draw(st.lists(st.sampled_from(sorted(PLANTS)),
                               min_size=n, max_size=n), label="plants")
    alone, by_row = (MseTable([PLANTS[c] for c in names]) for _ in range(2))
    for _ in range(data.draw(st.integers(1, 8), label="reads")):
        k = data.draw(st.integers(0, n - 1), label="k")
        age = data.draw(st.integers(0, 60) | st.integers(1944, 1948),
                        label="age")
        use_nmse = data.draw(st.booleans(), label="use_nmse")
        ages = np.zeros(n, np.int64)
        ages[k] = age
        got = alone.error(k, age, use_nmse)
        assert type(got) is float
        want = by_row.errors(ages, use_nmse)[k]
        assert np.float64(got).tobytes() == want.tobytes()
        assert got == reference_error(names[k], age, use_nmse)
        assert alone.depth.tolist() == by_row.depth.tolist()


def test_scalar_tables_grow_without_a_step_per_age(monkeypatch):
    """A one-state plant's curves come from array scans: growing them to
    2,000 ages, past the hard plant's overflow, calls no ``np.trace``,
    which the per-age step calls.  A pendulum table still takes that
    step, and grows once ``np.trace`` is back."""
    classes = ("easy", "mid", "hard")
    tables = [MseTable([make_preset(c)]) for c in classes]
    pendulum = MseTable([make_preset("pendulum")])

    def no_trace(*args, **kwargs):
        raise AssertionError("np.trace called")

    monkeypatch.setattr(np, "trace", no_trace)
    calls = (1, 2, 7, 300, 1950, 2000)
    got = [[table_errors(tab, [age], use_nmse) for age in calls
            for use_nmse in (False, True)] for tab in tables]
    with pytest.raises(AssertionError, match="np.trace"):
        pendulum.grow(np.array([3]))
    monkeypatch.undo()
    with np.errstate(over="ignore"):
        assert got == [[[law(make_preset(c), age)] for age in calls
                        for law in (mse_of_age, nmse_of_age)]
                       for c in classes]
    assert [tab.depth.tolist() for tab in tables] == [[2000]] * 3
    assert table_errors(pendulum, [40]) == \
        [nmse_of_age(make_preset("pendulum"), 40)]


# One-state plants by the kind of A: negative, 0, inside the unit
# circle, 1, outside it, and so large that the MSE overflows at once.
SCALAR_A = (st.floats(-1e300, -1e-300) | st.just(0.0)
            | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
            | st.just(1.0) | st.floats(1.0, 10.0, exclude_min=True)
            | st.floats(10.0, 1e40) | st.floats(1e40, 1e300))
SIGMA = st.floats(1e-3, 1e3) | st.floats(1e-300, 1e300)


@settings(max_examples=60, deadline=None)
@given(a=SCALAR_A, sigma=SIGMA, data=st.data())
def test_scalar_table_matches_reference_bit_for_bit(a, sigma, data):
    """A one-state plant's table, grown in several calls through any ages,
    reads :func:`mse_of_age` and :func:`nmse_of_age` bit for bit at every
    age it computed through both :meth:`MseTable.errors` and
    :meth:`MseTable.mse_and_nmse`, +inf and never nan past an overflow,
    and the same bits as a table grown at once or one age at a time."""
    sys = LtiSystem(A=[[a]], B=[[1.0]], noise_cov=[[sigma]], Q=[[1.0]],
                    R=[[1.0]])
    tab = MseTable([sys])
    for _ in range(data.draw(st.integers(1, 5), label="calls")):
        ages = data.draw(st.lists(st.integers(0, 120), min_size=1,
                                  max_size=3), label="ages")
        tab.grow(np.array(ages)[:, None])
    every = [[age] for age in range(int(tab.depth[0]) + 1)]
    curves, stacked = both_reads(tab, every)
    assert stacked == curves and (tab.depth == len(every) - 1).all()
    # Overflow is expected: it is what makes the value +inf.
    with np.errstate(over="ignore", invalid="ignore"):
        assert curves == [[[law(sys, age)] for [age] in every]
                          for law in (mse_of_age, nmse_of_age)]
    assert not np.isnan(curves).any()
    at_once, one_by_one = MseTable([sys]), MseTable([sys])
    at_once.grow(np.array([len(every) - 1]))
    for [age] in every:
        one_by_one.grow(np.array([age]))
    for other in (at_once, one_by_one):
        assert [table_errors(other, every, use_nmse)
                for use_nmse in (False, True)] == curves


def hand_run(n=2):
    """A run whose deliveries the test makes by hand."""
    systems = systems_from_classes(n)
    return _Run(SimConfig(systems=systems,
                          policy=SchedulerPolicy("round_robin"),
                          duration_s=3.0, warmup_s=0.5, cooldown_s=0.5))


def test_aoi_tracker():
    """The gateway's age: the step minus the freshest delivered
    generation; duplicate and stale deliveries are ignored, and a sample
    of the step it arrives in counts from the next tick, at age one.
    (Poll decisions, which come between ticks, floor it at one:
    test_engine.py::test_poll_decisions_read_the_gateway_ages.)"""
    r = hand_run()
    assert r.on_delivery(0, 3, 5)
    assert r.nu[0] == 3
    assert not r.on_delivery(0, 3, 5)    # duplicate
    assert not r.on_delivery(0, 2, 5)    # stale
    assert r.nu[0] == 3
    assert r.on_delivery(0, 5, 5)        # sampled this step
    assert r.nu[0] == 5 and r.arrivals == [(6, 0, 3), (6, 0, 5)]
    # Both arrive before tick 6; the record keeps the fresher one.
    record = r._listed_deliveries()
    assert [a.tolist() for a in record] == [[6], [0], [5]]
    r._tick_plants(record)
    assert r.ages[1:6, 0].tolist() == [1, 2, 3, 4, 5]
    assert r.ages[6:8, 0].tolist() == [1, 2]


@settings(max_examples=50, deadline=None)
@given(gens=st.lists(st.integers(0, 100), max_size=30))
def test_aoi_tracker_never_regresses(gens):
    """Loop 0 (A = B = 1, no input applied) has state x[t] = t, so its
    estimate is the freshest generation delivered.  Delivery n arrives at
    step 100 + n, and the plants stand still (a tick only records the
    estimate it finds), so every state stays as set."""
    r = hand_run()
    [group] = r.groups
    j = 0
    group.X[:, j, 0, 0] = np.arange(len(group.X))
    seen, freshest, found = 0, {}, {}
    for n, g in enumerate(gens):
        r.on_delivery(0, g, 100 + n)
        seen = max(seen, g)
        assert r.nu[0] == seen
        freshest[101 + n] = seen
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Plants, "tick",
                  lambda g, t: g is group
                  and found.setdefault(t, g.xhat[j].item()))
        r._tick_plants(r._listed_deliveries())
    for t, seen in freshest.items():
        assert found[t] == float(seen) and r.ages[t, 0] == t - seen


def test_run_counts_receptions_in_the_window():
    """A reception counts if its generation lies in the window (steps
    51..250 here), whether or not the gateway accepts the sample."""
    r = hand_run()
    assert r.cfg.window == (51, 250)
    for gen in (50, 51, 250, 251):
        r.on_delivery(0, gen, gen)
    assert r.rx.tolist() == [2, 0]
    assert not r.on_delivery(0, 51, 260)    # stale, still a reception
    assert r.rx.tolist() == [3, 0] and r.tx.tolist() == [0, 0]


def make_acc(n=2, t0=1, t1=4, classes=None):
    return MetricsAccumulator(n, t0, t1, classes or ["?"] * n)


def sums(**rows):
    """One replication's arguments of ``finalize``: per-loop window sums
    of age, MSE, nMSE and cost, transmission and reception counts and
    divergence flags, zero where not given."""
    n = len(next(iter(rows.values())))
    out = {name: np.array(rows.get(name, [0.0] * n), dtype=float)
           for name in ("aoi", "mse", "nmse", "cost")}
    out.update({name: np.array(rows.get(name, [0] * n), dtype=np.int64)
                for name in ("tx", "rx")})
    out["diverged"] = np.array(rows.get("diverged", [False] * n))
    return out


def test_accumulator_constant_age():
    """The sums are divided by the window's length: 4 steps, and 2 for
    the window of steps 2 and 3 (ages 2 and 3 there)."""
    acc = make_acc()
    out = acc.finalize(**sums(aoi=[8, 8], mse=[4.0, 4.0],
                              nmse=[4.0, 4.0], cost=[2.0, 2.0]))
    assert out["network"]["aoi_mean"] == pytest.approx(2.0)
    assert out["expected_samples"] == 4
    assert list(out["samples_per_loop"]) == [4, 4]
    out = make_acc(n=1, t0=2, t1=3).finalize(**sums(aoi=[2 + 3], tx=[2]))
    assert out["per_loop"]["aoi_mean"][0] == pytest.approx(2.5)
    assert out["per_loop"]["tx"][0] == 2


def test_accumulator_fractions():
    acc = make_acc(n=2, classes=["a", "b"])
    out = acc.finalize(**sums(aoi=[4, 4], rx=[300, 100]))
    assert out["fractions"]["a"] == pytest.approx(0.75)
    assert out["fractions"]["b"] == pytest.approx(0.25)
    assert out["loop_classes"] == ["a", "b"]


def test_accumulator_results_do_not_alias_their_inputs():
    """``finalize`` copies the counts and flags it returns, so a result
    stays as it was when the run's arrays change."""
    args = sums(aoi=[4, 4], tx=[3, 2], rx=[2, 1], diverged=[False, True])
    out = make_acc().finalize(**args)["per_loop"]
    for name in ("tx", "rx", "diverged"):
        args[name][:] = 0
    assert out["tx"].tolist() == [3, 2] and out["rx"].tolist() == [2, 1]
    assert out["diverged"].tolist() == [False, True]
