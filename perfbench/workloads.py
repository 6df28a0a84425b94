"""The benchmark workloads: their configs, set-up, timed operation and
output checks.

A workload is one or more YAML experiment files generated from the
benchmark seed; ncsim only ever sees those files (or the specs parsed from
them).  Why each workload exists:

* ``contention_n100`` - random access at N=100 on the capture channel.
  The channel layer does most of its work here (up to 100 offsets drawn,
  sorted and resolved per slot) and ages climb into the hundreds, so the
  MSE tables grow deep.  The MAC schedulers do nothing.
* ``scheduled_n1000`` - the four gateway schedulers at N=1000.  The
  per-tick engine loop, the O(N) scheduler argmax per poll or frame and
  per-loop MSE table growth dominate; the channel only flips
  point-to-point coins.  0.6 s simulated has the layer split of a 4 s
  run; the 30 s default's split is out of a run's reach (README.md).
* ``cli_jobs2`` - ``ncsim validate --jobs 2`` then ``ncsim pendulum --jobs
  2``.  Validate is small N with one process pool per (protocol, N) and
  the closed-form age theory; pendulum is the only 4-state numpy path,
  with per-tick series and the largest CSVs.  The two commands share one
  workload so that each run can measure long enough to be steady.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import replace

import yaml

import ncsim.aoi
import ncsim.cli
import ncsim.engine
import ncsim.experiments

COMPARISON_CHANNEL = {"mode": "offset_capture", "erasure_prob": 0.01}
IDEAL_CHANNEL = {"mode": "strict_collision", "erasure_prob": 0.0}
SCHEDULERS = ["round_robin", "mef", "wifresh", "pmef"]
JOBS = 2

VALIDATE = {
    "scenario": "validate",
    "protocols": ["round_robin", "slotted_aloha", "adra"],
    "channel": IDEAL_CHANNEL, "n_range": [2, 15],
    "duration_s": 3.0, "warmup_s": 0.5, "cooldown_s": 0.5,
    "replications": 4}
PENDULUM = {
    "scenario": "pendulum", "protocols": SCHEDULERS,
    "channel": COMPARISON_CHANNEL,
    "duration_s": 4.0, "warmup_s": 1.0, "cooldown_s": 1.0,
    "replications": 2}

# Sized so that one operation takes one to five seconds on a 2-CPU host:
# enough work per operation for a steady median, several operations per run.
CONFIGS = {
    "contention_n100": [{
        "scenario": "single", "n_loops": 100,
        "protocols": ["aloha", "slotted_aloha", "adra"],
        "channel": COMPARISON_CHANNEL, "classes": ["easy", "mid", "hard"],
        "duration_s": 3.0, "warmup_s": 0.5, "cooldown_s": 0.5,
        "replications": 1}],
    "scheduled_n1000": [{
        "scenario": "single", "n_loops": 1000, "protocols": SCHEDULERS,
        "channel": COMPARISON_CHANNEL, "classes": ["easy", "mid", "hard"],
        "duration_s": 0.6, "warmup_s": 0.2, "cooldown_s": 0.1,
        "replications": 1}],
    "cli_jobs2": [VALIDATE, PENDULUM],
}
NAMES = list(CONFIGS)

# Network sizes the validate scenario simulates per protocol.
_VALIDATE_NS = {"round_robin": range(2, 16), "slotted_aloha": (3, 5, 7),
                "adra": (3, 5, 7)}
_PENDULUM_LABELS = SCHEDULERS + ["mef_raw"]
_PENDULUM_N = 15


def write_configs(name: str, seed: int, work_dir: str) -> list[str]:
    """Write the workload's experiment files for ``seed``; return their
    paths, in the order the operation runs them."""
    os.makedirs(work_dir, exist_ok=True)
    paths = []
    for config in CONFIGS[name]:
        path = os.path.join(work_dir, config["scenario"] + ".yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(dict(config, seed=seed), fh, sort_keys=True)
        paths.append(path)
    return paths


def set_up(paths: list[str]):
    """Everything a workload does before its first simulated step: parse
    the configs, synthesize the loop classes' gains, and tune the
    age-threshold policy where a single-N run needs its pair.

    Returns the ready specs and the seconds spent in each part.
    """
    clock = time.perf_counter
    specs, parts = [], {"parse": 0.0, "make_preset": 0.0,
                        "optimize_adra": 0.0}
    for path in paths:
        t0 = clock()
        spec = ncsim.experiments.parse_config(path)
        t1 = clock()
        classes = (ncsim.experiments.PENDULUM_PATTERN
                   if spec.scenario == "pendulum" else spec.classes)
        ncsim.engine.systems_from_classes(len(classes), classes)
        t2 = clock()
        if spec.scenario == "single":
            protocols = []
            for policy in spec.protocols:
                if policy.variant == "adra":
                    threshold, p = ncsim.aoi.optimize_adra(spec.n_loops)
                    policy = replace(policy, threshold=threshold, p=p)
                protocols.append(policy)
            spec = replace(spec, protocols=protocols)
        t3 = clock()
        specs.append(spec)
        parts["parse"] += t1 - t0
        parts["make_preset"] += t2 - t1
        parts["optimize_adra"] += t3 - t2
    return specs, parts


def loop_steps(specs) -> int:
    """Simulated loop-steps (N x sampling periods, summed over runs) that
    one operation performs, computed from the configs alone."""
    total = 0
    for spec in specs:
        steps = round(spec.duration_s / ncsim.engine.SimConfig.T_s)
        if spec.scenario == "single":
            runs_n = len(spec.protocols) * spec.n_loops
        elif spec.scenario == "pendulum":
            runs_n = len(_PENDULUM_LABELS) * _PENDULUM_N
        else:
            runs_n = sum(sum(_VALIDATE_NS[p.variant])
                         for p in spec.protocols)
        total += runs_n * spec.replications * steps
    return total


def jobs(specs) -> int:
    """Worker processes the operation asks for."""
    return max(1 if s.scenario == "single" else JOBS for s in specs)


def operate(specs, paths: list[str], out_dir: str) -> list:
    """The timed phase: simulate, aggregate and write the outputs.

    Returns what each experiment produced, for :func:`check`.
    """
    return [_operate(spec, path, out_dir) for spec, path in zip(specs, paths)]


def _operate(spec, config_path, out_dir):
    if spec.scenario == "single":
        results = ncsim.experiments.run_single(spec, jobs=1)
        ncsim.experiments.emit_results(results, out_dir)
        return results
    argv = [spec.scenario, "--config", config_path, "--out", out_dir,
            "--jobs", str(JOBS)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = ncsim.cli.main(argv)
    return status, err.getvalue()


# --------------------------------------------------------------------------
# Output checks

def _csv_files(out_dir):
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))


def digests(specs, produced, out_dir: str) -> dict:
    """SHA-256 of every CSV output, plus the returned network metrics of
    the in-process experiments.  Only simulated statistics are digested,
    so outputs that legitimately vary (timings, manifests) can be added."""
    out = {}
    for fname in _csv_files(out_dir):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            out[fname] = hashlib.sha256(fh.read()).hexdigest()
    for spec, result in zip(specs, produced):
        if spec.scenario != "single":
            continue
        means = ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean")
        network = [
            [label, n, [res["summary"][k] for k in means],
             res["summary"]["fractions"], res["summary"]["diverged_reps"],
             [[r["metrics"]["network"][k] for k in means + ("any_diverged",)]
              for r in res["replications"]]]
            for (label, n), res in sorted(result.items())]
        blob = json.dumps(network, sort_keys=True).encode()
        out["network"] = hashlib.sha256(blob).hexdigest()
    return out


def _rows(out_dir, fname):
    with open(os.path.join(out_dir, fname), newline="") as fh:
        return list(csv.DictReader(fh))


def check(specs, produced, out_dir: str) -> list[str]:
    """Seed-independent invariants of one operation's outputs; returns the
    violations found (empty when the operation is correct)."""
    bad = []
    for spec, result in zip(specs, produced):
        bad += _check(spec, result, out_dir)
    return bad


def _check(spec, produced, out_dir):
    if spec.scenario == "single":
        return _check_single(spec, produced, out_dir)
    status, err = produced
    allowed = (0, 2) if spec.scenario == "validate" else (0,)
    if status not in allowed:
        return [f"ncsim {spec.scenario} exited {status}: {err.strip()}"]
    if spec.scenario == "pendulum":
        return _check_pendulum(spec, out_dir)
    return _check_validate(spec, out_dir)


def _check_single(spec, results, out_dir):
    bad = []
    if (len(results) != len(spec.protocols)
            or any(n != spec.n_loops for _, n in results)):
        bad.append(f"results for {sorted(results)}")
    for key, res in sorted(results.items()):
        reps = res["replications"]
        if len(reps) != spec.replications:
            bad.append(f"{key}: {len(reps)} replications")
        for r in reps:
            m = r["metrics"]
            pl = m["per_loop"]
            if len(pl["tx"]) != spec.n_loops:
                bad.append(f"{key}: {len(pl['tx'])} loops")
            if any(rx > tx for rx, tx in zip(pl["rx"], pl["tx"])):
                bad.append(f"{key}: rx > tx for some loop")
            if any(c != m["expected_samples"] for c in m["samples_per_loop"]):
                bad.append(f"{key}: samples_per_loop != expected_samples")
            if any(not 0.0 <= d <= 1.0 for d in pl["delivery_ratio"]):
                bad.append(f"{key}: delivery ratio outside [0, 1]")
    rows = _rows(out_dir, "per_run.csv")
    want = len(spec.protocols) * spec.replications * spec.n_loops
    if len(rows) != want:
        bad.append(f"per_run.csv has {len(rows)} rows, expected {want}")
    for row in rows:
        if int(row["rx_count"]) > int(row["tx_count"]):
            bad.append(f"per_run.csv {row['run_id']} loop {row['loop_id']}:"
                       " rx > tx")
            break
    return bad


def _check_pendulum(spec, out_dir):
    bad = []
    steps = round(spec.duration_s / ncsim.engine.SimConfig.T_s)
    expect = {
        "pendulum_verdicts.csv": len(_PENDULUM_LABELS) * _PENDULUM_N
        // len(ncsim.experiments.PENDULUM_PATTERN),
        "pendulum_nmse.csv": (len(_PENDULUM_LABELS) * spec.replications
                              * _PENDULUM_N),
        "pendulum_envelopes.csv": len(_PENDULUM_LABELS) * steps,
    }
    for fname, want in expect.items():
        rows = _rows(out_dir, fname)
        if len(rows) != want:
            bad.append(f"{fname} has {len(rows)} rows, expected {want}")
        if {r["protocol"] for r in rows} != set(_PENDULUM_LABELS):
            bad.append(f"{fname}: protocols differ from {_PENDULUM_LABELS}")
    for row in _rows(out_dir, "pendulum_nmse.csv"):
        if not float(row["mean_nmse"]) >= 0.0:
            bad.append(f"pendulum_nmse.csv: negative nMSE {row}")
            break
    return bad


def _check_validate(spec, out_dir):
    bad = []
    rows = _rows(out_dir, "validation.csv")
    got = [(r["protocol"], int(r["N"])) for r in rows]
    want = [(p.variant, n) for p in spec.protocols
            for n in _VALIDATE_NS[p.variant]]
    if got != want:
        bad.append(f"validation.csv rows {got} != {want}")
    for r in rows:
        sim, theory = float(r["simulated"]), float(r["theory"])
        rel = float(r["rel_err"])
        if not (sim > 0 and theory > 0
                and math.isclose(rel, abs(sim - theory) / theory,
                                 rel_tol=1e-12, abs_tol=1e-15)):
            bad.append(f"validation.csv: inconsistent row {r}")
    return bad


def theory_rel_err_max(specs, out_dir: str) -> float:
    """Largest |simulated - closed form| / closed form over the validate
    rows; 0 for workloads without a closed-form reference."""
    if not any(spec.scenario == "validate" for spec in specs):
        return 0.0
    return max(float(r["rel_err"]) for r in _rows(out_dir, "validation.csv"))


def csv_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in _csv_files(out_dir))


def load_reference(path: str) -> dict:
    """Output digests recorded on a trusted commit: workload -> seed ->
    file name -> SHA-256."""
    with open(path) as fh:
        return json.load(fh)
