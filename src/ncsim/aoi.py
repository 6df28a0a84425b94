"""Closed-form mean-age expressions for the random-access and round-robin
policies, and numeric optimization of the age-threshold protocol.

For slotted random access with per-slot access probability p and N >= 3
contenders, each loop sees a mean age of 1 / (p (1-p)^{N-1}) slots.  The
age-threshold variant stays silent until its tracked age reaches a
threshold ``delta`` and then contends with probability p; its mean age
depends on the per-attempt success probability q, which we obtain as the
fixed point of a renewal argument (see :func:`solve_adra_q`).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, OptimizationError, is_integer

__all__ = [
    "sa_mean_aoi",
    "rr_mean_aoi",
    "solve_adra_q",
    "adra_mean_aoi",
    "optimize_adra",
]


def _check_p(p: float):
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"access probability must be in (0,1), got {p}")


def _check_integer(name: str, v):
    if not is_integer(v):
        raise ConfigurationError(f"{name} must be an integer, got {v!r}")


def sa_mean_aoi(N: int, p: float) -> float:
    """Mean age of one loop under slotted random access.

    Valid for N >= 3; the age-optimal access probability is 1/N.
    """
    _check_integer("N", N)
    if N < 3:
        raise ConfigurationError("slotted-access mean-age formula needs N >= 3")
    _check_p(p)
    # (1-p)^(N-1) underflows for very large N; evaluate in log space.
    log_s = math.log(p) + (N - 1) * math.log1p(-p)
    return math.exp(-log_s)


def rr_mean_aoi(N: int) -> float:
    """Mean age under lossless round-robin polling of N loops."""
    _check_integer("N", N)
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    return (N + 1) / 2


# Convergence tolerance on q of the damped fixed-point iteration, and its
# iteration cap.
_Q_TOL = 1e-10
_Q_MAX_ITER = 10**5


def solve_adra_q(N: int, delta: int, p: float) -> float:
    """Per-attempt success probability under the age-threshold policy.

    A loop's renewal cycle consists of max(delta-1, 0) ineligible slots
    followed by a geometric number (mean 1/(pq)) of eligible slots, so a
    peer is eligible in a stationary fraction

        a(q) = (1/(pq)) / (max(delta-1, 0) + 1/(pq))

    of slots.  q solves q = (1 - p a(q))^{N-1}; solved by damped iteration.

    The equation can have several roots when p is large and the threshold
    positive.  We return the smallest one: it is the branch reachable from
    a cold start, where every loop begins eligible, and it is the branch
    simulations settle on.  The iteration starts from the fully-congested
    guess (1-p)^{N-1}, a lower bound on every root, and increases
    monotonically to the first crossing.
    """
    _check_integer("N", N)
    _check_integer("threshold", delta)
    return _solve_adra_q(N, delta, p)


def _solve_adra_q(N: int, delta: int, p: float) -> float:
    """:func:`solve_adra_q` without the integer checks, for the tuning's
    objective, which solves one fixed point per evaluation."""
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    if delta < 0:
        raise ConfigurationError("threshold must be non-negative")
    if N == 1:
        return 1.0
    _check_p(p)
    idle = max(delta - 1, 0)
    q = math.exp((N - 1) * math.log1p(-p))
    # The iterates only rise from this lower bound, so 1/(pq) is finite at
    # every step if it is here; where it is not, no step can converge.
    if p * q == 0.0 or 1.0 / (p * q) == math.inf:
        raise OptimizationError(
            f"congested guess (1-p)^(N-1) = {q!r} underflows for N={N}, "
            f"delta={delta}, p={p}")
    for _ in range(_Q_MAX_ITER):
        mean_busy = 1.0 / (p * q)
        a = mean_busy / (idle + mean_busy)
        q_new = math.exp((N - 1) * math.log1p(-p * a))
        if abs(q_new - q) < _Q_TOL:
            return q_new
        q = 0.5 * (q + q_new)
    raise OptimizationError(
        f"q fixed point did not converge for N={N}, delta={delta}, p={p}")


def adra_mean_aoi(N: int, delta: int, p: float, q: float | None = None) -> float:
    """Network-wide mean age of the age-threshold policy.

    ``q`` defaults to the fixed point from :func:`solve_adra_q`.
    """
    _check_integer("N", N)
    _check_integer("threshold", delta)
    return _adra_mean_aoi(N, delta, p, q)


def _adra_mean_aoi(N: int, delta: int, p: float, q: float | None = None) -> float:
    """:func:`adra_mean_aoi` without the integer checks: the tuning's
    objective."""
    if q is None:
        q = _solve_adra_q(N, delta, p)
    pq = p * q
    return delta / 2 + 1 / pq - delta / (2 * (delta * pq + 1 - pq))


def _adra_bound(delta, p):
    """A lower bound on :func:`adra_mean_aoi` at a threshold ``delta`` >= 2
    over every access probability up to ``p``: the closed form at q = 1.

    With s = p q the closed form reads

        f(s) = delta/2 + 1/s - delta / (2 (1 + (delta-1) s)),

    which strictly decreases in s: with u = (delta-1) s, f'(s) < 0 reads
    2 (1+u)^2 > delta/(delta-1) u^2, and delta/(delta-1) <= 2.  Since
    q lies in (0, 1], s <= p, so every value is at least f(p).  At p = 1
    the bound is (delta+1)/2.  ``delta`` and ``p`` may be arrays.
    """
    return delta / 2 + 1 / p - delta / (2 * (1 + (delta - 1) * p))


def cold_start_drain(N: int, p: float) -> float:
    """Expected slots to drain the all-eligible state down to one loop.

    With k loops eligible and none allowed to leave otherwise, exactly one
    succeeds per slot with probability k p (1-p)^{k-1}; summing the
    expected waits for k = N..2 gives the time for the congested state to
    resolve into the staggered operating point.
    """
    _check_integer("N", N)
    _check_p(p)
    return _drain(N, p, math.inf)


def _drain(N: int, p: float, cap: float) -> float:
    """:func:`cold_start_drain`'s sum, or inf as soon as a partial sum
    passes ``cap``.  The terms are positive and a float sum of positive
    terms never decreases, so the full sum is then above ``cap`` too."""
    total = 0.0
    try:
        for k in range(2, N + 1):
            total += 1.0 / (k * p * (1.0 - p) ** (k - 1))
            if total > cap:
                return math.inf
    except ZeroDivisionError:  # (1-p)^(k-1) underflowed: the wait is unbounded
        return math.inf
    return total


def adra_model_valid(N: int, delta: int, p: float) -> bool:
    """Whether the mean-field closed form is trustworthy at (delta, p).

    For delta <= 1 every loop is always eligible and the stationary model
    describes exactly that state.  For larger thresholds the low-age
    operating point is only sustainable if the congested all-eligible
    state drains within the ineligibility gap of delta - 1 slots;
    otherwise simultaneous eligibility self-sustains and the closed form
    is wildly optimistic.
    """
    _check_integer("N", N)
    _check_integer("threshold", delta)
    if delta <= 1:
        return True
    _check_p(p)
    return _drain(N, p, delta - 1) <= delta - 1


_DELTA_MAX = 60     # largest threshold optimize_adra scans
# The thresholds it scans: 0 and 1 never gate access (slotted access).
_THRESHOLDS = np.arange(2, _DELTA_MAX + 1)
# The coarse grid of access probabilities, i / 500 for i = 1..499.
_P_GRID = np.arange(1, 500) / 500


def _feasible_mask(N: int) -> np.ndarray:
    """``adra_model_valid(N, delta, p)`` for every threshold delta of
    ``_THRESHOLDS`` (rows) and grid p (columns).

    Each p's drain is summed once, and only until it passes
    ``_DELTA_MAX - 1``: every test is drain <= delta - 1 <= _DELTA_MAX - 1,
    so a p past that cap fails at every threshold (see :func:`_drain`).
    No grid p then sums more than 19 terms, whatever N is, and from N = 20
    every grid p passes the cap.
    """
    drain = np.array([_drain(N, p, _DELTA_MAX - 1)
                      for p in _P_GRID.tolist()])
    return drain <= _THRESHOLDS[:, None] - 1


# numpy's exp and log1p are not bit-equal to math's, so the array pass
# only shortlists the grid points within this relative distance of a
# threshold's minimum, and the scalar adra_mean_aoi ranks them.  Where
# the array pass settles a point, the two differ by at most 1.2e-13
# relative over every feasible grid point for N = 3..115.
_COARSE_WINDOW = 1e-6
# Array iterations before a grid point is left to the scalar solver; far
# below solve_adra_q's _Q_MAX_ITER, so a point settled here converges
# there.  The one pass over every feasible (threshold, p) point of an N
# runs until its slowest point settles, at most this many iterations.
_ARRAY_ITER = 1000


def _adra_mean_aoi_grid(N: int, delta, p: np.ndarray) -> np.ndarray:
    """:func:`adra_mean_aoi` at every (threshold, access probability) pair
    of ``delta`` and ``p``, an integer or integer array broadcast against
    the array ``p``.

    Runs the damped iteration of :func:`solve_adra_q`, with its
    tolerance, on arrays; every point takes its own steps, so a point's
    value does not depend on the others in the pass.  A point is NaN
    where this pass cannot settle it: its congested guess underflows
    below the smallest normal float, a value is not finite, or it has not
    converged within ``_ARRAY_ITER`` iterations.
    """
    delta, p = np.broadcast_arrays(delta, p)
    idle = np.maximum(delta - 1, 0)
    q_fixed = np.full(p.shape, np.nan)
    with np.errstate(all="ignore"):
        q = np.exp((N - 1) * np.log1p(-p))
        idx = np.flatnonzero(p * q >= np.finfo(float).tiny)
        pa, ia, q = p[idx], idle[idx], q[idx]
        for _ in range(_ARRAY_ITER):
            if not idx.size:
                break
            mean_busy = 1.0 / (pa * q)
            a = mean_busy / (ia + mean_busy)
            q_new = np.exp((N - 1) * np.log1p(-pa * a))
            done = np.abs(q_new - q) < _Q_TOL
            go = ~done & np.isfinite(q_new)
            if go.all():        # nothing settled: no point leaves the pass
                q = 0.5 * (q + q_new)
                continue
            q_fixed[idx[done]] = q_new[done]
            idx, pa, ia = idx[go], pa[go], ia[go]
            q = 0.5 * (q[go] + q_new[go])
        pq = p * q_fixed
        val = delta / 2 + 1 / pq - delta / (2 * (delta * pq + 1 - pq))
    val[~np.isfinite(val)] = np.nan
    return val


def _coarse_values(N: int, mask: np.ndarray) -> list[np.ndarray]:
    """The array pass's values at the feasible points of ``mask`` (see
    :func:`_feasible_mask`), in one pass over every threshold: one array
    per threshold of ``_THRESHOLDS``, in grid order."""
    rows, cols = np.nonzero(mask)
    val = _adra_mean_aoi_grid(N, _THRESHOLDS[rows], _P_GRID[cols])
    return np.split(val, np.cumsum(mask.sum(axis=1))[:-1])


def _coarse_candidates(feasible: list[float], val: np.ndarray) -> list[float]:
    """The grid points, in grid order, that may hold the first minimum of
    :func:`adra_mean_aoi` over ``feasible``: those whose array-pass values
    ``val`` lie within ``_COARSE_WINDOW`` of their minimum, and those the
    pass cannot settle.
    """
    settled = ~np.isnan(val)
    cut = (val[settled].min() * (1 + _COARSE_WINDOW) if settled.any()
           else math.inf)
    keep = ~settled | (val <= cut)
    return [p for p, k in zip(feasible, keep.tolist()) if k]


def _coarse_argmin(N: int, delta: int, feasible: list[float],
                   val: np.ndarray) -> float:
    """``min(feasible, key=lambda p: adra_mean_aoi(N, delta, p))``, with the
    scalar values computed only for the candidates of the array-pass
    values ``val``.  The scalar path also raises wherever it would over
    the whole list: a point it fails on is one the array pass cannot
    settle, so it is a candidate.
    """
    return min(_coarse_candidates(feasible, val),
               key=lambda p: _adra_mean_aoi(N, delta, p))


# Absolute tolerance on p of the bounded search, and its cap on
# evaluations of the objective.
_XATOL = 1e-6
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# optimize_adra skips a threshold only when its lower bound, shrunk by this
# relative margin, is still not below the best value: rounding of the bound
# or of a value (a few ulp) can then only keep a threshold, never drop one.
_BOUND_MARGIN = 1e-12


def _bounded_min(f, a: float, b: float) -> tuple[float, float]:
    """``(x, f(x))`` at the minimum of ``f`` over [a, b] by Brent's bounded
    search: golden-section steps, with parabolic steps where they are
    acceptable.

    A port of scipy's ``minimize_scalar(f, bounds=(a, b),
    method="bounded", options={"xatol": _XATOL})`` (scipy 1.17.1,
    ``_minimize_scalar_bounded``), with the same operations in the same
    order, so it returns the same bits.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                # Too close to a bound: step tol1 towards the middle.
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (1.0 if xm - xf >= 0 else -1.0)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx


def optimize_adra(N: int) -> tuple[int, float]:
    """Best (threshold, access probability) pair for N >= 3 loops.

    Thresholds 0 and 1 leave every loop always eligible, which is slotted
    access, whose optimum (0, 1/N) is the starting best.  The thresholds
    2.._DELTA_MAX are scanned over a coarse grid of access probabilities
    in four steps:

    - one mask of the feasible (threshold, p) points (see
      :func:`adra_model_valid` and :func:`_feasible_mask`), with each
      p's cold-start drain summed once and only up to the cap of
      _DELTA_MAX - 1 slots;
    - per threshold, a lower bound on every value it can offer: the
      closed form at q = 1 and its largest feasible grid p
      (:func:`_adra_bound`).  Every grid point, polished p and fallback
      of the threshold lies at or below that p, so a threshold whose
      bound is not below the best so far cannot win and is skipped; the
      thresholds whose bound does not beat slotted access leave the mask;
    - one array pass of the fixed point over every point left in the
      mask (:func:`_coarse_values`);
    - per threshold, in order: the scalar closed form ranks the pass's
      shortlist (:func:`_coarse_argmin`), a bounded scalar search
      (:func:`_bounded_min`) polishes p within 0.01 of that grid point,
      and a polished p outside the feasible region falls back to it.

    For N >= 20 no threshold in 2.._DELTA_MAX is feasible (the smallest
    cold-start drain over the grid is already 59.8 slots at N = 20), so
    no fixed point is solved, and no threshold beats slotted access: it
    returns (0, 1/N).
    """
    _check_integer("N", N)
    if N < 3:
        raise ConfigurationError("optimization defined for N >= 3")
    mask = _feasible_mask(N)
    if not mask.any():
        return 0, 1.0 / N
    best = (sa_mean_aoi(N, 1.0 / N), 0, 1.0 / N)
    with np.errstate(divide="ignore"):   # an empty row's bound is inf
        bound = _adra_bound(_THRESHOLDS, (_P_GRID * mask).max(axis=1))
    bound *= 1 - _BOUND_MARGIN
    mask &= (bound < best[0])[:, None]
    for delta, row, low, coarse_val in zip(_THRESHOLDS.tolist(), mask,
                                           bound.tolist(),
                                           _coarse_values(N, mask)):
        if not coarse_val.size or low >= best[0]:
            continue
        feasible = _P_GRID[row].tolist()
        coarse = _coarse_argmin(N, delta, feasible, coarse_val)
        lo = max(min(feasible), coarse - 0.01)
        hi = min(max(feasible), coarse + 0.01)
        p_opt, val = _bounded_min(lambda p: _adra_mean_aoi(N, delta, p),
                                  lo, hi)
        if not adra_model_valid(N, delta, p_opt):
            val, p_opt = _adra_mean_aoi(N, delta, coarse), coarse
        if val < best[0]:
            best = (val, delta, p_opt)
    _, delta_star, p_star = best
    return delta_star, p_star
