"""Error-versus-age laws and the windowed metrics accumulator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncsim.engine import SimConfig, _Run, systems_from_classes
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


@pytest.mark.parametrize("cls", PRESETS)
def test_table_agrees_with_direct_evaluation(cls):
    sys = make_preset(cls)
    tab = MseTable(sys)
    for d in (0, 1, 7, 33):
        assert tab.mse(d) == pytest.approx(mse_of_age(sys, d), rel=1e-12)
        if d:
            assert tab.nmse(d) == pytest.approx(nmse_of_age(sys, d), rel=1e-12)


def test_table_stays_inf_after_overflow():
    tab = MseTable(make_preset("hard"))
    assert tab.mse(10_000) == math.inf
    assert tab.mse(10_001) == math.inf
    assert not math.isnan(tab.nmse(10_001))


def test_argmax_normalization_matters():
    """Raw error starves the pendulum: with peers at scheduling-typical
    ages it is never the raw-MSE argmax until its age exceeds 53, while
    the normalized metric already selects it at age 4."""
    tables = {c: MseTable(make_preset(c)) for c in PRESETS}
    raw_picks, nmse_picks = set(), set()
    for ages in [(a, d, a, a) for a in (1, 2, 3) for d in range(1, 51)]:
        named = dict(zip(("easy", "pendulum", "mid", "hard"), ages))
        raw_picks.add(max(PRESETS, key=lambda c: tables[c].mse(named[c])))
        nmse_picks.add(max(PRESETS, key=lambda c: tables[c].nmse(named[c])))
    assert "pendulum" not in raw_picks
    assert "pendulum" in nmse_picks
    # The raw-MSE crossover exists but is far out: age 54 against peers
    # holding one-period-fresh information.
    first = next(d for d in range(1, 200)
                 if tables["pendulum"].mse(d) > tables["easy"].mse(1))
    assert first == 54


def hand_run(n=2):
    """A run whose ticks and deliveries the test drives by hand."""
    systems, classes = systems_from_classes(n)
    return _Run(SimConfig(systems=systems, classes=classes,
                          policy=SchedulerPolicy("round_robin"),
                          duration_s=3.0, warmup_s=0.5, cooldown_s=0.5))


def test_aoi_tracker():
    """The gateway's age: the step minus the freshest delivered generation,
    floored at one; duplicate and stale deliveries are ignored."""
    r = hand_run()
    est_age = r.gateway.est_age
    for t in range(1, 6):
        r.on_tick(t)
        assert est_age[0] == t
    r.on_delivery(0, 3)
    assert est_age[0] == 2 and r.nu[0] == 3
    r.on_delivery(0, 3)    # duplicate
    r.on_delivery(0, 2)    # stale
    assert est_age[0] == 2 and r.nu[0] == 3
    r.on_delivery(0, 5)    # sampled this step
    assert est_age[0] == 1 and r.nu[0] == 5


@settings(max_examples=50, deadline=None)
@given(gens=st.lists(st.integers(0, 100), max_size=30))
def test_aoi_tracker_never_regresses(gens):
    """Loop 0 (A = B = 1, no input applied) has state x[t] = t, so its
    estimate is the freshest generation delivered."""
    r = hand_run()
    group, j = r.at[0]
    group.X[:, j, 0, 0] = np.arange(len(group.X))
    r.current_step = 100
    seen = 0
    for g in gens:
        r.on_delivery(0, g)
        seen = max(seen, g)
        assert r.nu[0] == seen and group.xhat[j].item() == float(seen)
        if seen:
            assert r.gateway.est_age[0] == max(1, 100 - seen)


def make_acc(n=2, t0=1, t1=4, classes=None):
    return MetricsAccumulator(n, t0, t1, classes)


def sums(**rows):
    """Per-loop window sums of age, MSE, nMSE and cost, zero where not
    given, as keyword arguments of ``finalize``."""
    n = len(next(iter(rows.values())))
    return {name: np.array(rows.get(name, [0.0] * n), dtype=float)
            for name in ("aoi", "mse", "nmse", "cost")}


def test_accumulator_constant_age():
    acc = make_acc()
    out = acc.finalize(**sums(aoi=[8, 8], mse=[4.0, 4.0], nmse=[4.0, 4.0],
                              cost=[2.0, 2.0]))
    assert out["network"]["aoi_mean"] == pytest.approx(2.0)
    assert out["expected_samples"] == 4
    assert list(out["samples_per_loop"]) == [4, 4]


def test_accumulator_window_gating():
    """Only window steps count: transmissions outside it are ignored, and
    the sums are divided by the window's length (ages 2 and 3 here)."""
    acc = make_acc(n=1, t0=2, t1=3)
    for t in range(1, 6):
        acc.record_tx(0, t)
    out = acc.finalize(**sums(aoi=[2 + 3]))
    assert out["per_loop"]["aoi_mean"][0] == pytest.approx(2.5)
    assert out["per_loop"]["tx"][0] == 2


def test_accumulator_fractions():
    acc = make_acc(n=2, classes=["a", "b"])
    for _ in range(300):
        acc.record_rx(0, 1)
    for _ in range(100):
        acc.record_rx(1, 1)
    out = acc.finalize(**sums(aoi=[4, 4]))
    assert out["fractions"]["a"] == pytest.approx(0.75)
    assert out["fractions"]["b"] == pytest.approx(0.25)
    assert out["loop_classes"] == ["a", "b"]


def test_accumulator_rejects_empty_window():
    with pytest.raises(ConfigurationError):
        MetricsAccumulator(1, 5, 4)
