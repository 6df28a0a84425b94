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


# (threshold, p.hex()) as returned before the scan was vectorized; the
# tuning must keep returning these exact bits.
ADRA_PAIRS = {
    3: (6, "0x1.18935e8ddf0aep-1"),
    4: (9, "0x1.d9165acdeb241p-2"),
    5: (12, "0x1.9168465309dc6p-2"),
    6: (15, "0x1.5a1c7fab1a3ebp-2"),
    7: (18, "0x1.2d0e29a701ab3p-2"),
    10: (27, "0x1.9db1d45428339p-3"),
    15: (44, "0x1.22d08ca613b8ap-3"),
    30: (0, "0x1.1111111111111p-5"),
    60: (0, "0x1.1111111111111p-6"),
    100: (0, "0x1.47ae147ae147bp-7"),
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
    assert first_min in aoi._coarse_candidates(N, delta, feasible)
    assert aoi._coarse_argmin(N, delta, feasible) == first_min


def test_coarse_pick_is_scalar_where_array_order_differs(monkeypatch):
    """Array values may order near-tied grid points differently from the
    scalar ones; the pick is still the scalar first minimum.  At N=8 the
    points 0.124 and 0.126 differ by 3.3e-7 relative."""
    N, delta = 8, 0
    scalar = [adra_mean_aoi(N, delta, p) for p in P_GRID]
    best = scalar.index(min(scalar))
    skewed = np.array(scalar)
    skewed[best] *= 1 + aoi._COARSE_WINDOW / 2
    assert skewed.argmin() != best
    monkeypatch.setattr(aoi, "_adra_mean_aoi_grid", lambda *args: skewed)
    assert aoi._coarse_argmin(N, delta, P_GRID) == P_GRID[best]


def test_optimize_adra_rejects_small_networks():
    with pytest.raises(ConfigurationError):
        optimize_adra(2)


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
