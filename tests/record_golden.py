"""Record the golden fingerprint that ``test_golden.py`` checks, into
golden.json.

Usage (from the repository root, on a commit whose results are trusted)::

    PYTHONPATH=src python3 tests/record_golden.py

Simulates a small fixed grid (every policy x three channels x two class
mixes, N=6, 2 replications of 2 s each), a diverging network under every
policy, an N=40 pendulum mix under six policies, the age-threshold
policy at threshold 1 (which never gates), an N=3 mix whose
pendulum is alone in its dimension group and a single loop, each under every
policy, then four schedulers on an N=12 pendulum mix and an N=7 scalar
mix between them in one ``run_replication_sets`` call, and the contention
protocols on one N=100 network in another, long enough that rows read
past the first fill of their random streams, and writes, per case,
the SHA-256 of the ``per_run.csv`` that ``emit_results`` writes and of every
loop's AoI and state series.  Results must stay bit-for-bit identical across
refactors, so regenerate the file only when results are meant to change.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from ncsim.channel import ChannelConfig
from ncsim.engine import (SimConfig, run_replication_sets, run_replications,
                          summarize_replications, systems_from_classes)
from ncsim.experiments import emit_results
from ncsim.mac import PROTOCOLS, SchedulerPolicy
from ncsim.systems import LtiSystem, make_preset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
N_LOOPS = 6
REPS = 2
MIXES = {"scalar": ("easy", "mid", "hard"),
         "pendulum": ("easy", "pendulum", "hard")}
CHANNELS = {
    "strict": ChannelConfig(mode="strict_collision", erasure_prob=0.0),
    "capture": ChannelConfig(mode="offset_capture", erasure_prob=0.01),
    # Tied instants: with 5 ms transmissions a poll transaction lasts one
    # period, so polled deliveries fall on ticks (each timeout shifts them
    # by its 2 ms guard), and a contention packet sent at the latest offset
    # lands exactly on the next tick.
    "tied": ChannelConfig(mode="offset_capture", erasure_prob=0.05,
                          tx_duration=0.005)}
# The age-threshold policy needs a pair; a fixed one keeps the grid
# independent of the optimizer.
POLICY_PARAMS = {"adra": {"threshold": 3, "p": 0.3}}
# An open-loop unstable plant without a controller: its state passes the
# divergence threshold on the second step and overflows to inf, then nan
# (u = -0 x inf), so its cost folds nan into inf; its MSE is +inf from age 7.
UNSTABLE = LtiSystem(A=[[1e30]], B=[[1.0]], noise_cov=[[1.0]], Q=[[1.0]],
                     R=[[1.0]], name="unstable")
# Many loops of both state dimensions: MEF fills whole frames, and polled
# replies on the tied channel can be more than one period old.
WIDE_N = 40
WIDE_VARIANTS = ("aloha", "mef", "pmef", "slotted_aloha", "adra",
                 "round_robin")
# A threshold of 1 never gates: a loop's age is at least 1 at every slot.
LOW_THRESHOLD_PARAMS = {"adra": {"threshold": 1, "p": 0.3}}
# A one-loop network: slotted ALOHA's default p = 1/N would be 1.
SINGLE_PARAMS = {**POLICY_PARAMS, "slotted_aloha": {"p": 0.5}}
# Configs run in one call: the schedulers' batches have the same seeds,
# loops and steps, and the scalar network between them has another size.
SHARED_N, SHARED_SCALAR_N = 12, 7
# Contention configs run in one call: 2 replications of N=100 loops over
# 401 slots read more values than a stream's first fill holds (2**16
# values per purpose), so rows continue their streams past it.
CONTENTION_N, CONTENTION_S = 100, 4.0
CONTENTION = {"aloha": {}, "slotted_aloha": {"p": 0.05},
              "adra-gated": {"threshold": 3, "p": 0.05},
              "adra-open": {"threshold": 0, "p": 0.02}}


def _config(systems, variant, channel, params=POLICY_PARAMS):
    policy = SchedulerPolicy(variant=variant, **params.get(variant, {}))
    return SimConfig(systems=systems, policy=policy,
                     channel=channel, duration_s=2.0, warmup_s=0.5,
                     cooldown_s=0.5, seed=0, record_series=True)


def cases():
    """(case name, SimConfig) for every cell of the grid."""
    for mix, pattern in MIXES.items():
        systems = systems_from_classes(N_LOOPS, pattern)
        for chan, channel in CHANNELS.items():
            for variant in PROTOCOLS:
                yield f"{mix}-{chan}-{variant}", _config(
                    systems, variant, channel)
    easy = make_preset("easy")
    systems = [easy, UNSTABLE, easy, UNSTABLE]
    for variant in PROTOCOLS:
        yield f"diverge-capture-{variant}", _config(
            systems, variant, CHANNELS["capture"])
    systems = systems_from_classes(WIDE_N, MIXES["pendulum"])
    for chan in ("capture", "tied"):
        for variant in WIDE_VARIANTS:
            yield f"wide-{chan}-{variant}", _config(
                systems, variant, CHANNELS[chan])
    systems = systems_from_classes(N_LOOPS, MIXES["pendulum"])
    for chan in ("capture", "tied"):
        yield f"threshold1-{chan}-adra", _config(
            systems, "adra", CHANNELS[chan], LOW_THRESHOLD_PARAMS)
    # One-loop groups: the pendulum's window sums are a single column.
    systems = systems_from_classes(3, MIXES["pendulum"])
    for variant in PROTOCOLS:
        yield f"trio-capture-{variant}", _config(
            systems, variant, CHANNELS["capture"])
    systems = systems_from_classes(1, ("easy",))
    for variant in PROTOCOLS:
        yield f"single-capture-{variant}", _config(
            systems, variant, CHANNELS["capture"], SINGLE_PARAMS)


def shared_cases():
    """(case name, SimConfig) of the configs run together in one
    ``run_replication_sets`` call, in call order."""
    channel = CHANNELS["capture"]
    pendulum = systems_from_classes(SHARED_N, MIXES["pendulum"])
    scalar = systems_from_classes(SHARED_SCALAR_N, MIXES["scalar"])
    shared = lambda variant: (f"shared-pendulum-{variant}",
                              _config(pendulum, variant, channel))
    return [shared("round_robin"), shared("mef"),
            ("shared-scalar-round_robin",
             _config(scalar, "round_robin", channel)),
            shared("wifresh"), shared("pmef")]


def contention_cases():
    """(case name, SimConfig) of the contention protocols on one network,
    run together in one ``run_replication_sets`` call, in call order."""
    systems = systems_from_classes(CONTENTION_N, MIXES["scalar"])
    return [(f"contention-{name}", replace(
                _config(systems, name.split("-")[0], CHANNELS["capture"],
                        {name.split("-")[0]: params}),
                duration_s=CONTENTION_S))
            for name, params in CONTENTION.items()]


def _series_digest(res) -> str:
    h = hashlib.sha256()
    for r in res["replications"]:
        for i in sorted(r["series"]):
            for key, dtype in (("aoi", np.int64), ("state", np.float64)):
                a = np.ascontiguousarray(r["series"][i][key], dtype=dtype)
                h.update(repr(a.shape).encode())
                h.update(a.tobytes())
    return h.hexdigest()


def fingerprint() -> dict:
    """case name -> {"per_run.csv": sha256, "series": sha256}."""
    runs = [(name, cfg, run_replications(cfg, REPS))
            for name, cfg in cases()]
    for together in (shared_cases(), contention_cases()):
        names, cfgs = zip(*together)
        runs += [(name, cfg, summarize_replications(results))
                 for name, (cfg, results) in zip(
                     names, run_replication_sets(list(cfgs), REPS))]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, res in runs:
            emit_results({(cfg.policy.variant, cfg.n_loops): res}, tmp)
            with open(os.path.join(tmp, "per_run.csv"), "rb") as fh:
                csv_digest = hashlib.sha256(fh.read()).hexdigest()
            out[name] = {"per_run.csv": csv_digest,
                         "series": _series_digest(res)}
    return out


def main():
    with open(GOLDEN, "w") as fh:
        json.dump(fingerprint(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
