"""Closed-form mean-age expressions and threshold-policy optimization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from ncsim import aoi
from ncsim.aoi import (adra_mean_aoi, adra_model_valid, cold_start_drain,
                       optimize_adra, rr_mean_aoi, sa_mean_aoi, solve_adra_q)
from ncsim.errors import ConfigurationError, OptimizationError

P_GRID = [i / 500 for i in range(1, 500)]


def test_sa_reference_values():
    assert sa_mean_aoi(3, 1 / 3) == pytest.approx(6.75)
    assert sa_mean_aoi(5, 1 / 5) == pytest.approx(1 / (0.2 * 0.8 ** 4))
    assert sa_mean_aoi(5, 1 / 5) == pytest.approx(12.2070, abs=1e-4)


def test_sa_domain_checks():
    with pytest.raises(ConfigurationError):
        sa_mean_aoi(2, 0.5)
    with pytest.raises(ConfigurationError):
        sa_mean_aoi(3, 0.0)
    with pytest.raises(ConfigurationError):
        sa_mean_aoi(3, 1.0)


@pytest.mark.parametrize("N", [3, 5, 7, 12])
def test_sa_optimum_is_one_over_n(N):
    res = minimize_scalar(lambda p: sa_mean_aoi(N, p), bounds=(1e-4, 0.999),
                          method="bounded")
    assert res.x == pytest.approx(1 / N, abs=1e-4)


def test_sa_log_space_survives_large_n():
    v = sa_mean_aoi(500, 1 / 500)
    assert math.isfinite(v) and v > 0


def test_rr_values():
    assert rr_mean_aoi(5) == 3.0
    assert rr_mean_aoi(1) == 1.0
    assert rr_mean_aoi(15) == 8.0
    with pytest.raises(ConfigurationError):
        rr_mean_aoi(0)


def test_adra_q_no_contention():
    assert solve_adra_q(1, 5, 0.3) == 1.0


def test_adra_q_vanishing_interference():
    assert solve_adra_q(3, 0, 1e-6) == pytest.approx(1.0, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(2, 12), delta=st.integers(0, 30),
       p=st.floats(0.01, 0.95))
def test_adra_q_is_a_fixed_point(N, delta, p):
    q = solve_adra_q(N, delta, p)
    assert 0 < q <= 1
    idle = max(delta - 1, 0)
    busy = 1 / (p * q)
    a = busy / (idle + busy)
    assert q == pytest.approx((1 - p * a) ** (N - 1), abs=1e-8)


def test_adra_q_smallest_root():
    """With several self-consistent operating points the cold-start one
    (reached when every loop begins eligible) must be returned: it is a
    lower bound on all roots and the iteration approaches it from below."""
    N, delta, p = 3, 20, 0.9
    q = solve_adra_q(N, delta, p)
    lower = (1 - p) ** (N - 1)
    assert q >= lower
    # No crossing below the returned root: f(x) > x on a dense grid.
    idle = delta - 1
    for k in range(1, 200):
        x = lower + (q - lower) * k / 201
        busy = 1 / (p * x)
        a = busy / (idle + busy)
        assert (1 - p * a) ** (N - 1) > x


def test_adra_mean_reduces_to_inverse_rate_at_zero_threshold():
    N, p = 4, 0.3
    q = solve_adra_q(N, 0, p)
    assert adra_mean_aoi(N, 0, p) == pytest.approx(1 / (p * q))


def test_adra_beats_plain_slotted_access_in_the_model():
    delta, p = optimize_adra(3)
    assert adra_mean_aoi(3, delta, p) <= sa_mean_aoi(3, 1 / 3)
    assert delta > 0


@pytest.mark.parametrize("N", [3, 5, 7])
def test_adra_curve_dips_below_sa_line(N):
    sa = sa_mean_aoi(N, 1 / N)
    delta, p = optimize_adra(N)
    vals = [adra_mean_aoi(N, d, p) for d in range(0, 3 * N)]
    assert min(vals) < sa


def test_optimize_adra_matches_grid_oracle():
    """Brute force over the same feasible set agrees within 1%."""
    for N in (3, 5):
        delta_s, p_s = optimize_adra(N)
        returned = adra_mean_aoi(N, delta_s, p_s)
        best = math.inf
        for delta in range(0, 61):
            for k in range(1, 100):
                p = k / 100
                if not adra_model_valid(N, delta, p):
                    continue
                best = min(best, adra_mean_aoi(N, delta, p))
        assert returned <= best * 1.01


# (threshold, p.hex()) as returned by the tuning with scipy's
# minimize_scalar as its bounded search (N = 3..7, 10, 15, 30, 60 and 100
# also before the scan was vectorized); the tuning must keep returning
# these exact bits.  N = 3..19 are the only N where the bounded search
# runs: from N = 20 no threshold is feasible.
ADRA_PAIRS = {
    3: (6, "0x1.18935e8ddf0aep-1"),
    4: (9, "0x1.d9165acdeb241p-2"),
    5: (12, "0x1.9168465309dc6p-2"),
    6: (15, "0x1.5a1c7fab1a3ebp-2"),
    7: (18, "0x1.2d0e29a701ab3p-2"),
    8: (21, "0x1.0830fa8c61eccp-2"),
    9: (24, "0x1.d2f15141b99c0p-3"),
    10: (27, "0x1.9db1d45428339p-3"),
    11: (31, "0x1.9580ad6aaf5e9p-3"),
    12: (34, "0x1.6c8aeadb53359p-3"),
    13: (37, "0x1.47adbbc0b3772p-3"),
    14: (41, "0x1.3f7c94d73aa22p-3"),
    15: (44, "0x1.22d08ca613b8ap-3"),
    16: (48, "0x1.1a9f65bc9ae3bp-3"),
    17: (51, "0x1.020bf1003064bp-3"),
    18: (55, "0x1.fbe6bb16e7f46p-4"),
    19: (59, "0x1.eb846d43f64a6p-4"),
    # N = 20 is the first N whose smallest drain over the grid (59.8)
    # lies above the largest threshold's gap of 59 slots.
    20: (0, "0x1.999999999999ap-5"),
    21: (0, "0x1.8618618618618p-5"),
    22: (0, "0x1.745d1745d1746p-5"),
    23: (0, "0x1.642c8590b2164p-5"),
    24: (0, "0x1.5555555555555p-5"),
    25: (0, "0x1.47ae147ae147bp-5"),
    26: (0, "0x1.3b13b13b13b14p-5"),
    27: (0, "0x1.2f684bda12f68p-5"),
    28: (0, "0x1.2492492492492p-5"),
    29: (0, "0x1.1a7b9611a7b96p-5"),
    30: (0, "0x1.1111111111111p-5"),
    60: (0, "0x1.1111111111111p-6"),
    100: (0, "0x1.47ae147ae147bp-7"),
    115: (0, "0x1.1cf06ada2811dp-7"),
}


@pytest.mark.parametrize("N", list(ADRA_PAIRS))
def test_optimize_adra_pairs_pinned(N):
    delta, p = optimize_adra(N)
    assert (delta, p.hex()) == ADRA_PAIRS[N]


@pytest.mark.parametrize("N", [116, 117, 121, 200, 1000, 10000])
def test_optimize_adra_is_slotted_access_past_115(N):
    # Thresholds 0 and 1 are slotted access, whose optimum is the starting
    # best, so the congested guess at threshold 0 (subnormal or zero at
    # p=0.998 from N=116) is never evaluated.
    assert optimize_adra(N) == (0, 1 / N)


def test_optimize_adra_defined_up_to_115():
    assert optimize_adra(115) == (0, 1 / 115)


def test_adra_q_underflow_is_an_optimization_error():
    assert cold_start_drain(121, 0.998) == math.inf
    for N in (116, 121):
        with pytest.raises(OptimizationError, match=f"N={N}, delta=3"):
            solve_adra_q(N, 3, 0.998)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 100), data=st.data())
def test_coarse_scan_shortlists_the_scalar_minimum(N, data):
    drain = [cold_start_drain(N, p) for p in P_GRID]
    deltas = [d for d in range(61) if d <= 1 or min(drain) <= d - 1]
    delta = data.draw(st.sampled_from(deltas))
    feasible = [p for p, dr in zip(P_GRID, drain)
                if delta <= 1 or dr <= delta - 1]
    scalar = np.array([adra_mean_aoi(N, delta, p) for p in feasible])
    vector = aoi._adra_mean_aoi_grid(N, delta, np.array(feasible))
    # The array pass settles every feasible point up to N=100, and agrees
    # with the scalar values well inside the candidate window.
    assert not np.isnan(vector).any()
    rel = np.abs(vector - scalar) / scalar
    assert rel.max() < aoi._COARSE_WINDOW / 100
    first_min = min(feasible, key=lambda p: adra_mean_aoi(N, delta, p))
    assert first_min in aoi._coarse_candidates(feasible, vector)
    assert aoi._coarse_argmin(N, delta, feasible, vector) == first_min


def test_coarse_pick_is_scalar_where_array_order_differs():
    """Array values may order near-tied grid points differently from the
    scalar ones; the pick is still the scalar first minimum.  At N=8 the
    points 0.124 and 0.126 differ by 3.3e-7 relative."""
    N, delta = 8, 0
    scalar = [adra_mean_aoi(N, delta, p) for p in P_GRID]
    best = scalar.index(min(scalar))
    skewed = np.array(scalar)
    skewed[best] *= 1 + aoi._COARSE_WINDOW / 2
    assert skewed.argmin() != best
    assert aoi._coarse_argmin(N, delta, P_GRID, skewed) == P_GRID[best]


THRESHOLDS = range(2, aoi._DELTA_MAX + 1)


@pytest.mark.parametrize("N", list(range(3, 20)))
def test_coarse_values_equal_per_threshold_passes(N):
    """The one pass over every feasible (threshold, p) point gives each
    threshold the bits of a pass over that threshold's points alone."""
    mask = aoi._feasible_mask(N)
    values = aoi._coarse_values(N, mask)
    assert len(values) == len(THRESHOLDS)
    for delta, row, val in zip(THRESHOLDS, mask, values):
        alone = aoi._adra_mean_aoi_grid(N, delta, np.array(P_GRID)[row])
        assert val.tobytes() == alone.tobytes(), delta


def test_feasible_mask_is_the_drain_test():
    """Capping each drain at the largest gap keeps every verdict of
    cold_start_drain(N, p) <= delta - 1."""
    assert aoi._P_GRID.tolist() == P_GRID
    gaps = np.array([delta - 1 for delta in THRESHOLDS])[:, None]
    for N in [*range(3, 131), 1000]:
        drain = np.array([cold_start_drain(N, p) for p in P_GRID])
        assert np.array_equal(aoi._feasible_mask(N), drain <= gaps), N


def _raise(*args):
    raise AssertionError("no fixed point is solved from N = 20")


@pytest.mark.parametrize("N", [20, 116, 1000])
def test_optimize_adra_solves_nothing_from_n20(N, monkeypatch):
    for name in ("solve_adra_q", "_solve_adra_q", "_adra_mean_aoi_grid"):
        monkeypatch.setattr(aoi, name, _raise)
    assert optimize_adra(N) == (0, 1 / N)


def test_optimize_adra_polishes_only_thresholds_its_bound_keeps(monkeypatch):
    """At N = 3 the array pass sees only the feasible rows whose lower
    bound beats slotted access, and at most two of the 55 feasible
    thresholds are polished (the winner is threshold 6)."""
    N = 3
    mask = aoi._feasible_mask(N)
    passes, searches = [], []
    grid, bounded_min = aoi._adra_mean_aoi_grid, aoi._bounded_min
    monkeypatch.setattr(aoi, "_adra_mean_aoi_grid",
                        lambda *a: passes.append(a[1:]) or grid(*a))
    monkeypatch.setattr(aoi, "_bounded_min",
                        lambda *a: searches.append(a) or bounded_min(*a))
    assert optimize_adra(N) == (6, float.fromhex(ADRA_PAIRS[N][1]))
    assert 0 < len(searches) <= 2
    (deltas, ps), = passes
    sa = sa_mean_aoi(N, 1 / N)
    for delta in np.unique(deltas).tolist():
        row = mask[delta - THRESHOLDS[0]]
        assert aoi._adra_bound(delta, aoi._P_GRID[row].max()) < sa, delta
        assert ps[deltas == delta].tolist() == aoi._P_GRID[row].tolist()


def scipy_bounded(f, lo, hi):
    """``(x, f(x)).hex()`` of scipy's bounded search, as optimize_adra ran
    it before the port."""
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-6})
    return float(res.x).hex(), float(res.fun).hex()


def port_bounded(f, lo, hi):
    x, fx = aoi._bounded_min(f, lo, hi)
    return float(x).hex(), float(fx).hex()


def test_bounded_min_stops_at_scipys_evaluation_cap():
    """Over a bracket so wide that golden-section steps need more than
    500 evaluations to reach xatol, both stop at the same 500th."""
    calls = []

    def f(x):
        calls.append(x)
        return 1e-200 * x

    assert port_bounded(f, 0.0, 1e150) == scipy_bounded(f, 0.0, 1e150)
    assert len(calls) == 2 * 500


# Objectives on +, -, *, abs, max and floor only, whose values do not
# depend on whether x arrives as a float or a numpy float64.
OBJECTIVES = {
    # Smooth and unimodal; the minimum is at c, or at a bound if c is
    # outside the bracket.
    "parabola": lambda c, k: lambda x: k * (x - c) * (x - c) + 1.0,
    "quartic": lambda c, k: (
        lambda x: (x - c) * (x - c) * ((x - c) * (x - c) + k) - k * (x - c)),
    "vee": lambda c, k: lambda x: max(k * (c - x), (x - c) / k),
    "slope": lambda c, k: lambda x: k * (x - c),
    # Flat stretches and exact ties.
    "trough": lambda c, k: lambda x: max(abs(x - c) - 1.0 / k, 0.0),
    "terraces": lambda c, k: lambda x: math.floor(k * (x - c) * (x - c)),
    "stairs": lambda c, k: lambda x: math.floor(k * (x - c)),
    "constant": lambda c, k: lambda x: k,
}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(OBJECTIVES)),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.0, 10.0),
       at=st.floats(-0.5, 1.5), k=st.floats(0.1, 100.0))
def test_bounded_min_is_scipys_bit_for_bit(kind, lo, width, at, k):
    """The port returns scipy's x and f(x) to the bit, for a minimum
    inside the bracket, at or past either bound, on a plateau or among
    exact ties."""
    hi = lo + width
    f = OBJECTIVES[kind](lo + at * width, k)
    assert port_bounded(f, lo, hi) == scipy_bounded(f, lo, hi)


@pytest.mark.parametrize("kind", sorted(OBJECTIVES))
@pytest.mark.parametrize("at", [0.0, 1e-7, -0.3, 0.5, 1.3, 1 - 1e-7, 1.0])
def test_bounded_min_at_and_near_the_bounds(kind, at):
    """Minima at a bound, past it, or within tol2 of it, where a parabolic
    step is nudged back towards the middle."""
    lo, hi = -3.0, 0.25
    f = OBJECTIVES[kind](lo + at * (hi - lo), 3.0)
    assert port_bounded(f, lo, hi) == scipy_bounded(f, lo, hi)


def feasible_ps(N, delta):
    drain = [cold_start_drain(N, p) for p in P_GRID]
    return [p for p, dr in zip(P_GRID, drain) if dr <= delta - 1]


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 19), data=st.data())
def test_bounded_min_is_scipys_on_adra_brackets(N, data):
    """On optimize_adra's own objective over a feasible bracket: the
    bracket it polishes, or any sub-bracket of the feasible range."""
    delta = data.draw(st.integers(2, 60).filter(
        lambda d: feasible_ps(N, d)), label="delta")
    feasible = feasible_ps(N, delta)
    coarse = aoi._coarse_argmin(
        N, delta, feasible,
        aoi._adra_mean_aoi_grid(N, delta, np.array(feasible)))
    lo, hi = data.draw(st.one_of(
        st.just((max(min(feasible), coarse - 0.01),
                 min(max(feasible), coarse + 0.01))),
        st.tuples(st.sampled_from(feasible), st.sampled_from(feasible)).map(
            sorted)), label="bracket")
    f = lambda p: adra_mean_aoi(N, delta, p)  # noqa: E731
    assert port_bounded(f, lo, hi) == scipy_bounded(f, lo, hi)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(3, 19), data=st.data())
def test_adra_bound_is_below_every_feasible_value(N, data):
    """No feasible grid point's mean age lies below the threshold's bound
    at that point, which optimize_adra relies on to skip thresholds."""
    delta = data.draw(st.integers(2, 60).filter(
        lambda d: feasible_ps(N, d)), label="delta")
    p = data.draw(st.sampled_from(feasible_ps(N, delta)), label="p")
    assert aoi._adra_mean_aoi(N, delta, p) >= aoi._adra_bound(delta, p)


def test_optimize_adra_rejects_small_networks():
    with pytest.raises(ConfigurationError):
        optimize_adra(2)


@pytest.mark.parametrize("call", [
    lambda: sa_mean_aoi(3.5, 0.3),
    lambda: sa_mean_aoi(True, 0.3),
    lambda: rr_mean_aoi(4.0),
    lambda: solve_adra_q(5.0, 2, 0.3),
    lambda: solve_adra_q(5, 2.5, 0.3),
    lambda: adra_mean_aoi(5.5, 2, 0.3),
    lambda: adra_mean_aoi(5, 2.5, 0.3, q=0.5),
    lambda: cold_start_drain(3.5, 0.3),
    lambda: adra_model_valid(3.5, 1, 0.3),
    lambda: adra_model_valid(3, 1.5, 0.3),
    lambda: optimize_adra(3.5),
], ids=["sa", "sa-bool", "rr", "q-N", "q-threshold", "mean-N",
        "mean-threshold", "drain", "valid-N", "valid-threshold", "optimize"])
def test_non_integer_sizes_are_configuration_errors(call):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_are_accepted():
    N, delta = np.int64(5), np.int32(12)
    assert sa_mean_aoi(N, 0.2) == sa_mean_aoi(5, 0.2)
    assert adra_mean_aoi(N, delta, 0.3) == adra_mean_aoi(5, 12, 0.3)
    assert optimize_adra(N) == optimize_adra(5)


def test_tuning_checks_sizes_outside_its_objective(monkeypatch):
    """The tuning checks its N once and each polished threshold's
    re-check once; the objective, evaluated at every shortlisted grid
    point and every step of each bounded search, checks nothing."""
    calls = []
    is_integer = aoi.is_integer
    monkeypatch.setattr(aoi, "is_integer",
                        lambda v: calls.append(v) or is_integer(v))
    optimize_adra(3)
    assert 0 < len(calls) <= 3 + 2 * len(THRESHOLDS)


def test_cold_start_drain_properties():
    # Two contenders resolve in 1/(2 p (1-p)) slots on average.
    assert cold_start_drain(2, 0.5) == pytest.approx(2.0)
    assert cold_start_drain(2, 0.5) < cold_start_drain(2, 0.9)
    assert cold_start_drain(5, 0.3) > cold_start_drain(3, 0.3)


def test_model_validity_region():
    # Thresholds of at most one never gate access, so the stationary
    # description is exact for any p.
    assert adra_model_valid(3, 0, 0.95)
    assert adra_model_valid(3, 1, 0.95)
    # Aggressive access with a short ineligibility gap self-sustains
    # congestion; the closed form is rejected there.
    assert not adra_model_valid(3, 6, 0.94)
    assert adra_model_valid(3, 6, 0.5)
