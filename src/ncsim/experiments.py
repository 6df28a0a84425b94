"""Experiment orchestration: config files, sweeps, theory validation, and
the mixed pendulum case study, with all results emitted as CSV files.

Configuration files are YAML with strict key checking.  A minimal file::

    scenario: single
    protocols: [round_robin]
    n_loops: 5

Four scenarios exist: ``single`` (one N, listed protocols), ``sweep``
(protocols across a range of N), ``validate`` (simulated mean age versus
the closed-form expressions on an idealized channel), and ``pendulum``
(the mixed easy/pendulum/hard network under the schedulers).
"""
from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .aoi import adra_mean_aoi, optimize_adra, rr_mean_aoi, sa_mean_aoi
from .channel import ChannelConfig
from .engine import (SimConfig, replication_tasks, run_replication_sets,
                     run_task, run_tasks, summarize_replications,
                     systems_from_classes, task_pool)
from .errors import ConfigurationError
from .mac import SchedulerPolicy
from .metrics import MseTable
from .systems import make_preset

__all__ = [
    "ExperimentSpec",
    "DEFAULT_COMPARISON_CHANNEL",
    "parse_config",
    "run_single",
    "run_sweep",
    "validate_theory",
    "pendulum_case_study",
    "emit_results",
]

# Testbed-like channel for protocol comparisons.  The erasure rate is a
# calibration knob: 0.01 keeps round-robin's worst loops shy of the
# heavy-tailed regime where replication means stop being comparable.
DEFAULT_COMPARISON_CHANNEL = ChannelConfig(
    mode="offset_capture", erasure_prob=0.01)

SCENARIOS = ("single", "sweep", "validate", "pendulum")

# Relative tolerances for validate_theory.
VALIDATE_TOL = {"round_robin": 0.05, "slotted_aloha": 0.05, "adra": 0.10}


@dataclass
class ExperimentSpec:
    scenario: str
    protocols: list[SchedulerPolicy]
    n_loops: int = 15
    n_range: tuple[int, int] = (2, 15)
    channel: ChannelConfig = field(
        default_factory=lambda: DEFAULT_COMPARISON_CHANNEL)
    classes: tuple[str, ...] = ("easy", "mid", "hard")
    duration_s: float = 30.0
    warmup_s: float = 5.0
    cooldown_s: float = 5.0
    seed: int = 0
    replications: int = 20
    out_dir: str = "results"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.protocols:
            raise ConfigurationError("at least one protocol required")
        lo, hi = self.n_range
        if lo > hi or lo < 1:
            raise ConfigurationError(f"empty or invalid n_range {self.n_range}")

    def sim_config(self, n: int, policy: SchedulerPolicy,
                   record_series: bool = False) -> SimConfig:
        systems, classes = systems_from_classes(n, self.classes)
        return SimConfig(
            systems=systems, classes=classes, policy=policy,
            channel=self.channel, duration_s=self.duration_s,
            warmup_s=self.warmup_s, cooldown_s=self.cooldown_s,
            seed=self.seed, replications=self.replications,
            record_series=record_series)


# --------------------------------------------------------------------------
# Config parsing

_TOP_KEYS = {"scenario", "protocols", "n_loops", "n_range", "channel",
             "classes", "duration_s", "warmup_s", "cooldown_s", "seed",
             "replications", "out_dir"}
_CHANNEL_KEYS = {"mode", "erasure_prob", "tx_duration", "slot_duration",
                 "capture_prob"}
_PROTOCOL_KEYS = {"name", "p", "threshold", "frame_len", "use_nmse"}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def _parse_protocol(entry) -> SchedulerPolicy:
    if isinstance(entry, str):
        return SchedulerPolicy(variant=entry)
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigurationError(
            f"protocol entries must be a name or a mapping with 'name', "
            f"got {entry!r}")
    _reject_unknown(entry, _PROTOCOL_KEYS, f"protocol {entry.get('name')!r}")
    kwargs = {k: v for k, v in entry.items() if k != "name"}
    return SchedulerPolicy(variant=entry["name"], **kwargs)


def parse_config(path: str) -> ExperimentSpec:
    """Read and validate a YAML experiment file; typos are errors."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    _reject_unknown(raw, _TOP_KEYS, path)
    if "scenario" not in raw or "protocols" not in raw:
        raise ConfigurationError(f"{path}: 'scenario' and 'protocols' required")
    kwargs = dict(raw)
    kwargs["protocols"] = [_parse_protocol(e) for e in raw["protocols"]]
    if "channel" in raw:
        ch = raw["channel"]
        if not isinstance(ch, dict):
            raise ConfigurationError(f"{path}: channel must be a mapping")
        _reject_unknown(ch, _CHANNEL_KEYS, f"{path} channel section")
        kwargs["channel"] = ChannelConfig(**ch)
    if "n_range" in raw:
        kwargs["n_range"] = tuple(raw["n_range"])
    if "classes" in raw:
        kwargs["classes"] = tuple(raw["classes"])
    try:
        return ExperimentSpec(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


# --------------------------------------------------------------------------
# CSV emission

def _fmt(v):
    if isinstance(v, float):
        if math.isnan(v):
            return "inf"  # nan only arises downstream of divergence
        return repr(v)
    return v


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


PER_RUN_HEADER = ["run_id", "protocol", "N", "rep", "loop_id", "class",
                  "mean_aoi", "mean_mse", "mean_nmse", "lqg_cost",
                  "tx_count", "rx_count", "delivery_ratio", "diverged"]
SUMMARY_HEADER = ["protocol", "N", "metric", "mean", "ci99_half"]


def emit_results(results: dict, out_dir: str):
    """Write the per-run, summary and figure-family CSVs.

    ``results`` maps (protocol label, N) to a run_replications result.
    """
    per_run, summary, by_metric = [], [], {}
    fractions_rows = []
    for (label, n), res in sorted(results.items()):
        for rep, r in enumerate(res["replications"]):
            pl = r["metrics"]["per_loop"]
            for li in range(len(pl["aoi_mean"])):
                per_run.append([
                    f"{label}-N{n}-r{rep}", label, n, rep, li + 1,
                    r["metrics"]["loop_classes"][li],
                    float(pl["aoi_mean"][li]), float(pl["mse_mean"][li]),
                    float(pl["nmse_mean"][li]), float(pl["lqg_mean"][li]),
                    int(pl["tx"][li]), int(pl["rx"][li]),
                    float(pl["delivery_ratio"][li]), bool(pl["diverged"][li])])
        for metric in ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean"):
            s = res["summary"][metric]
            summary.append([label, n, metric, s["mean"], s["ci99_half"]])
            by_metric.setdefault(metric, []).append(
                [label, n, s["mean"], s["ci99_half"]])
        for cls, frac in res["summary"]["fractions"].items():
            fractions_rows.append([label, n, cls, frac])
    _write_csv(os.path.join(out_dir, "per_run.csv"), PER_RUN_HEADER, per_run)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, summary)
    fig_name = {"aoi_mean": "aoi_vs_n.csv", "lqg_mean": "lqg_vs_n.csv",
                "mse_mean": "mse_vs_n.csv", "nmse_mean": "nmse_vs_n.csv"}
    for metric, rows in by_metric.items():
        _write_csv(os.path.join(out_dir, fig_name[metric]),
                   ["protocol", "N", "mean", "ci99_half"], rows)
    _write_csv(os.path.join(out_dir, "fractions.csv"),
               ["protocol", "N", "class", "delivery_fraction"], fractions_rows)


def emit_nmse_curves(out_dir: str, max_age: int = 60):
    """Error-versus-age curves for every preset, including the pendulum's
    raw MSE before normalization."""
    tables = {c: MseTable(make_preset(c))
              for c in ("easy", "mid", "hard", "pendulum")}
    rows = []
    for age in range(1, max_age + 1):
        rows.append([age,
                     tables["easy"].nmse(age), tables["mid"].nmse(age),
                     tables["hard"].nmse(age), tables["pendulum"].nmse(age),
                     tables["pendulum"].mse(age)])
    _write_csv(os.path.join(out_dir, "nmse_vs_age.csv"),
               ["age", "easy", "mid", "hard", "pendulum", "pendulum_raw_mse"],
               rows)


# --------------------------------------------------------------------------
# Scenarios

def _label(policy: SchedulerPolicy) -> str:
    if policy.variant in ("mef", "pmef") and not policy.use_nmse:
        return policy.variant + "_raw"
    return policy.variant


def _replicate(cfgs: list[SimConfig], jobs: int) -> dict:
    """:func:`run_replication_sets` keyed by (protocol label, N)."""
    return {(_label(cfg.policy), cfg.n_loops): res
            for cfg, res in zip(cfgs, run_replication_sets(cfgs, jobs=jobs))}


def run_single(spec: ExperimentSpec, jobs: int = 1) -> dict:
    return _replicate([spec.sim_config(spec.n_loops, policy)
                       for policy in spec.protocols], jobs)


def run_sweep(spec: ExperimentSpec, jobs: int = 1) -> dict:
    lo, hi = spec.n_range
    return _replicate([spec.sim_config(n, policy) for policy in spec.protocols
                       for n in range(lo, hi + 1)], jobs)


def _tuned(policy: SchedulerPolicy, n: int) -> SchedulerPolicy:
    """``policy`` with the age-threshold pair optimized for ``n`` loops."""
    threshold, p = optimize_adra(n)
    return replace(policy, p=p, threshold=threshold)


def _theory(policy: SchedulerPolicy, n: int) -> float:
    if policy.variant == "round_robin":
        return rr_mean_aoi(n)
    if policy.variant == "slotted_aloha":
        return sa_mean_aoi(n, policy.p)
    return adra_mean_aoi(n, policy.threshold, policy.p)


def validate_theory(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Simulated network mean age versus the closed-form expressions.

    Requires the idealized channel (strict collisions, no erasures).
    Returns a report whose ``passed`` flag reflects the per-protocol
    tolerances; parameter-free protocols use their defaults: slotted
    ALOHA p = 1/N, the age-threshold policy its optimized pair.

    Every tuning and replication is a task in one pool of at most ``jobs``
    workers.  The tunings go first, and each one's replications are queued
    as soon as it is done, so they overlap the other protocols' runs.
    """
    ch = spec.channel
    if ch.mode != "strict_collision" or ch.erasure_prob != 0.0:
        raise ConfigurationError(
            "theory validation needs mode=strict_collision and erasure_prob=0")
    allowed = set(VALIDATE_TOL)
    plan = []   # (policy, n) per report row
    for policy in spec.protocols:
        if policy.variant not in allowed:
            raise ConfigurationError(
                f"no closed form for {policy.variant!r}; "
                f"validate supports {sorted(allowed)}")
        if policy.variant == "round_robin":
            n_list = list(range(spec.n_range[0], spec.n_range[1] + 1))
        else:
            n_list = [n for n in (3, 5, 7)
                      if spec.n_range[0] <= n <= spec.n_range[1]] or [3, 5, 7]
        plan += [(policy, n) for n in n_list]
    tune = [k for k, (policy, _) in enumerate(plan)
            if policy.variant == "adra"
            and (policy.p is None or policy.threshold is None)]
    n_tasks = len(tune) + len(plan) * spec.replications
    runs = {}   # row index -> (policy as run, replication futures)
    with task_pool(jobs, n_tasks) as pool:
        def submit(k, pol):
            tasks = replication_tasks(spec.sim_config(plan[k][1], pol))
            runs[k] = pol, [pool.submit(run_task, t) for t in tasks]

        tunings = {pool.submit(_tuned, *plan[k]): k for k in tune}
        for k, (policy, n) in enumerate(plan):
            if k not in tune:
                submit(k, policy.resolved(n))
        for future in concurrent.futures.as_completed(tunings):
            submit(tunings[future], future.result())
        rows = []
        for k, (policy, n) in enumerate(plan):
            pol, futures = runs[k]
            res = summarize_replications([f.result() for f in futures])
            sim = res["summary"]["aoi_mean"]["mean"]
            theory = _theory(pol, n)
            rel = abs(sim - theory) / theory
            rows.append({
                "protocol": policy.variant, "N": n,
                "params": {"p": pol.p, "threshold": pol.threshold},
                "simulated": sim, "theory": theory, "rel_err": rel,
                "tol": VALIDATE_TOL[policy.variant],
                "ok": rel <= VALIDATE_TOL[policy.variant]})
    return {"rows": rows, "passed": all(r["ok"] for r in rows)}


def emit_validation(report: dict, out_dir: str):
    rows = [[r["protocol"], r["N"], r["params"]["p"], r["params"]["threshold"],
             r["simulated"], r["theory"], r["rel_err"], r["tol"], r["ok"]]
            for r in report["rows"]]
    _write_csv(os.path.join(out_dir, "validation.csv"),
               ["protocol", "N", "p", "threshold", "simulated", "theory",
                "rel_err", "tol", "ok"], rows)


PENDULUM_PATTERN = ("easy", "pendulum", "hard")
STABILIZATION_DEG = 10.0


def pendulum_case_study(spec: ExperimentSpec, jobs: int = 1,
                        include_raw_ablation: bool = True) -> dict:
    """Mixed network of easy / pendulum / hard loops under the schedulers.

    For each protocol: per-class error statistics, per-pendulum angle and
    position envelopes over the evaluated window (min/max across
    replications), and a stabilization verdict (|angle| within
    10 degrees).  Optionally adds the raw-MSE ablation of the framed
    scheduler, whose pendulum age trajectories document starvation.
    Every replication of every scheduler is a task in one pool of at most
    ``jobs`` workers; the report does not depend on ``jobs``.

    ``aoi_monotone`` is False under every scheduler in this model: every
    loop is served again sooner or later, so its age is a sawtooth.  Even
    raw-MSE ranking serves a starved pendulum once its unbounded MSE tops
    the frame; starvation shows as a high ``aoi_window_mean`` instead.
    """
    spec = replace(spec, classes=PENDULUM_PATTERN, n_loops=15)
    policies = list(spec.protocols)
    if include_raw_ablation and any(
            p.variant == "mef" and p.use_nmse for p in policies):
        policies.append(SchedulerPolicy(variant="mef", use_nmse=False))
    cfgs = [spec.sim_config(spec.n_loops, policy, record_series=True)
            for policy in policies]
    results = iter(run_tasks(
        [t for cfg in cfgs for t in replication_tasks(cfg)], jobs))
    report = {}
    for policy, cfg in zip(policies, cfgs):
        ips = [i for i, c in enumerate(cfg.classes, start=1)
               if c == "pendulum"]
        runs = [next(results) for _ in range(spec.replications)]
        t_start, t_end = cfg.window
        window = slice(t_start - 1, t_end)   # series index 0 holds step 1
        per_ip = {}
        for i in ips:
            phi = np.concatenate([np.degrees(
                r["series"][i]["state"][window, 2]) for r in runs])
            xi = np.concatenate([
                r["series"][i]["state"][window, 0] for r in runs])
            aoi = np.stack([r["series"][i]["aoi"] for r in runs])
            per_ip[i] = {
                "phi_min": float(phi.min()), "phi_max": float(phi.max()),
                "xi_min": float(xi.min()), "xi_max": float(xi.max()),
                "stabilized": bool(np.max(np.abs(phi)) <= STABILIZATION_DEG),
                "aoi_window_mean": float(aoi[:, window].mean()),
                "aoi_monotone": bool(np.all(np.diff(
                    aoi[:, window], axis=1) >= 0)),
            }
        per_class = {}
        for cls in dict.fromkeys(cfg.classes):
            idx = [k for k, c in enumerate(cfg.classes) if c == cls]
            vals = [float(r["metrics"]["per_loop"]["nmse_mean"][k])
                    for r in runs for k in idx]
            per_class[cls] = vals
        report[_label(policy)] = {
            "per_ip": per_ip, "per_class_nmse": per_class,
            "classes": cfg.classes, "runs": runs}
    return report


def emit_pendulum(report: dict, out_dir: str):
    box_rows, env_rows, verdict_rows = [], [], []
    for label, entry in report.items():
        for cls, vals in entry["per_class_nmse"].items():
            for v in vals:
                box_rows.append([label, cls, v])
        for i, d in entry["per_ip"].items():
            verdict_rows.append([label, i, d["stabilized"],
                                 d["phi_min"], d["phi_max"],
                                 d["xi_min"], d["xi_max"],
                                 d["aoi_window_mean"], d["aoi_monotone"]])
        runs = entry["runs"]
        ips = sorted(entry["per_ip"])
        steps = runs[0]["series"][ips[0]]["state"].shape[0]
        phi = np.stack([np.degrees(r["series"][i]["state"][:, 2])
                        for r in runs for i in ips])
        xi = np.stack([r["series"][i]["state"][:, 0]
                       for r in runs for i in ips])
        for t in range(steps):
            env_rows.append([label, t + 1,
                             float(phi[:, t].min()), float(phi[:, t].max()),
                             float(xi[:, t].min()), float(xi[:, t].max())])
    _write_csv(os.path.join(out_dir, "pendulum_nmse.csv"),
               ["protocol", "class", "mean_nmse"], box_rows)
    _write_csv(os.path.join(out_dir, "pendulum_envelopes.csv"),
               ["protocol", "step", "phi_min_deg", "phi_max_deg",
                "xi_min", "xi_max"], env_rows)
    _write_csv(os.path.join(out_dir, "pendulum_verdicts.csv"),
               ["protocol", "loop_id", "stabilized", "phi_min_deg",
                "phi_max_deg", "xi_min", "xi_max", "aoi_window_mean",
                "aoi_monotone"], verdict_rows)
