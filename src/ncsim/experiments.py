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

Results are CSV files with a header row and ``\\r\\n`` line ends.  A float
is written as its Python ``repr`` (shortest round trip) and nan as ``inf``
(nan only arises downstream of divergence), a numpy scalar as its Python
value, None as an empty cell, and any other value as its ``str``.  A cell
holding a comma, a double quote or a line break is quoted as the csv
module quotes it by default (QUOTE_MINIMAL).
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice

import numpy as np
import yaml

from .aoi import adra_mean_aoi, rr_mean_aoi, sa_mean_aoi
from .channel import ChannelConfig
from .engine import (DEFAULT_CLASSES, SimConfig, run_replication_sets,
                     summarize_replications, systems_from_classes)
from .errors import ConfigurationError, is_integer, is_real
from .mac import SchedulerPolicy
from .metrics import MseTable
from .systems import PRESET_CLASSES, make_preset

__all__ = [
    "ExperimentSpec",
    "DEFAULT_COMPARISON_CHANNEL",
    "parse_config",
    "run_single",
    "run_sweep",
    "validate_theory",
    "THEORY",
    "pendulum_case_study",
    "emit_results",
]

# Testbed-like channel for protocol comparisons.  The erasure rate is a
# calibration knob: 0.01 keeps round-robin's worst loops shy of the
# heavy-tailed regime where replication means stop being comparable.
DEFAULT_COMPARISON_CHANNEL = ChannelConfig(
    mode="offset_capture", erasure_prob=0.01)

SCENARIOS = ("single", "sweep", "validate", "pendulum")

# Each protocol validate_theory checks, in the validate command's default
# order: its closed-form mean age, of the resolved policy and N, and the
# relative error tolerated.
THEORY = {
    "round_robin": (lambda policy, n: rr_mean_aoi(n), 0.05),
    "slotted_aloha": (lambda policy, n: sa_mean_aoi(n, policy.p), 0.05),
    "adra": (lambda policy, n: adra_mean_aoi(n, policy.threshold, policy.p),
             0.10),
}
# The N of a contention protocol's validate rows, those inside n_range.
CONTENTION_NS = (3, 5, 7)


def _label(policy: SchedulerPolicy) -> str:
    """The protocol's name in reports and CSVs."""
    if policy.variant in ("mef", "pmef") and not policy.use_nmse:
        return policy.variant + "_raw"
    return policy.variant


@dataclass
class ExperimentSpec:
    scenario: str
    protocols: list[SchedulerPolicy]
    n_loops: int = 15
    n_range: tuple[int, int] = (2, 15)
    channel: ChannelConfig = field(
        default_factory=lambda: DEFAULT_COMPARISON_CHANNEL)
    classes: tuple[str, ...] = DEFAULT_CLASSES
    duration_s: float = SimConfig.duration_s
    warmup_s: float = SimConfig.warmup_s
    cooldown_s: float = SimConfig.cooldown_s
    seed: int = SimConfig.seed
    replications: int = 20
    out_dir: str = "results"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.protocols:
            raise ConfigurationError("at least one protocol required")
        labels = [_label(p) for p in self.protocols]
        if len(set(labels)) < len(labels):
            raise ConfigurationError(
                f"protocols {labels} repeat a name; results are keyed by it")
        for key in ("n_loops", "seed", "replications"):
            if not is_integer(getattr(self, key)):
                raise ConfigurationError(
                    f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications!r}")
        for key in ("duration_s", "warmup_s", "cooldown_s"):
            if not is_real(getattr(self, key)):
                raise ConfigurationError(
                    f"{key} must be a number, got {getattr(self, key)!r}")
        if not (len(self.n_range) == 2 and all(map(is_integer, self.n_range))
                and 1 <= self.n_range[0] <= self.n_range[1]):
            raise ConfigurationError(
                f"n_range must be two integers lo <= hi with lo >= 1, "
                f"got {list(self.n_range)}")

    def sim_config(self, n: int, policy: SchedulerPolicy,
                   record_series: bool = False) -> SimConfig:
        """The run of ``policy`` at ``n`` loops."""
        return SimConfig(
            systems=systems_from_classes(n, self.classes),
            policy=policy, channel=self.channel,
            duration_s=self.duration_s, warmup_s=self.warmup_s,
            cooldown_s=self.cooldown_s, seed=self.seed,
            record_series=record_series)


# --------------------------------------------------------------------------
# Config parsing

def _keys(cls) -> set[str]:
    return {f.name for f in fields(cls)}


_TOP_KEYS = _keys(ExperimentSpec)
_CHANNEL_KEYS = _keys(ChannelConfig)
# A protocol entry names its variant under "name".
_PROTOCOL_KEYS = _keys(SchedulerPolicy) - {"variant"} | {"name"}


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
    for key in ("protocols", "n_range", "classes"):
        if key in raw and not isinstance(raw[key], list):
            raise ConfigurationError(
                f"{path}: {key} must be a list, got {raw[key]!r}")
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

_NEEDS_QUOTES = re.compile('[,"\r\n]').search
# Equal values of these types are one value, with one cell.
_EXACT = {str, int, type(None)}


def _cell(value) -> str:
    """One value's cell (see the module docstring)."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, float):
        return "inf" if value != value else repr(value)
    text = str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass
class _Each:
    """A column of each of ``values`` as many times as its count: one value
    for a block of rows, such as one run's or one config's."""
    values: list
    counts: list


@dataclass
class _Tiles:
    """A column made of tiles end to end: tile i, itself a column,
    ``counts[i]`` times over."""
    tiles: list
    counts: list


def _cells(column) -> list[str]:
    """A column's cells, each distinct value's made once.

    A number or bool array finds its distinct values by their bits, with
    one ``np.sort`` of its integer view: -0.0 and 0.0 (equal, yet their
    cells differ) stay apart, as do nans of different payloads.  Where the
    distinct values are few (at most a quarter of the rows) a binary
    search finds each row's; otherwise the inverse of ``np.unique`` does,
    as unordered binary searches among many values cost more than its
    argsort.  Each distinct value's cell is the ``repr`` of its Python
    float (``inf`` for nan) or its ``str``, and one gather by the rows'
    indices lays them out.  :class:`_Each` makes the cell of each value
    once and :class:`_Tiles` the cells of each distinct tile (the same
    object), and both repeat them.  Any other column tells its values
    apart by themselves if they are all of _EXACT types and by their repr
    otherwise."""
    if isinstance(column, _Each):
        cells = []
        for cell, count in zip(_cells(list(column.values)), column.counts,
                               strict=True):
            cells += [cell] * count
        return cells
    if isinstance(column, _Tiles):
        tiles = {id(tile): tile for tile in column.tiles}
        made = {key: _cells(tile) for key, tile in tiles.items()}
        cells = []
        for tile, count in zip(column.tiles, column.counts):
            cells += made[id(tile)] * count
        return cells
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        keys = column.view(f"i{column.itemsize}")
        ordered = np.sort(keys)
        new = np.ones(len(keys), bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        bits = ordered[new]
        if len(bits) * 4 <= len(keys):
            index = np.searchsorted(bits, keys)
        else:
            index = np.unique(keys, return_inverse=True)[1]
        values = bits.view(column.dtype)
        floats = column.dtype.kind == "f"
        cells = np.array(list(map(repr if floats else str, values.tolist())),
                         dtype=object)
        if floats:
            cells[np.isnan(values)] = "inf"
        return cells[index].tolist()
    values = column.tolist() if isinstance(column, np.ndarray) else column
    keys = values if set(map(type, values)) <= _EXACT else list(
        map(repr, values))
    cell = {key: _cell(v) for key, v in dict(zip(keys, values)).items()}
    return list(map(cell.__getitem__, keys))


def _write_csv(path, header, columns):
    """Write ``header`` and the rows of ``columns``, arrays, sequences,
    :class:`_Each` or :class:`_Tiles` of equal length, with one write.

    Leading :class:`_Each` columns of equal counts hold one value per
    block of rows.  Their cells are joined once per block into the head of
    its rows, and one join puts the head before each row of the block."""
    lead = 0
    while (lead < len(columns) - 1 and isinstance(columns[lead], _Each)
           and columns[lead].counts == columns[0].counts):
        lead += 1
    cells = list(map(_cells, columns[lead:]))
    rows = map(",".join, zip(*cells, strict=True))
    if lead:
        counts = columns[0].counts
        if sum(counts) != len(cells[0]):
            raise ValueError("columns of unequal length")
        heads = map(",".join, zip(*(_cells(list(column.values))
                                    for column in columns[:lead]),
                                  strict=True))
        rows = [head + "," + ("\r\n" + head + ",").join(islice(rows, count))
                for head, count in zip(heads, counts, strict=True) if count]
    text = "\r\n".join([",".join(_cells(header)), *rows, ""])
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _joined(arrays: list) -> np.ndarray:
    """The arrays end to end."""
    return np.concatenate(arrays) if arrays else np.empty(0)


PER_RUN_HEADER = ["run_id", "protocol", "N", "rep", "loop_id", "class",
                  "mean_aoi", "mean_mse", "mean_nmse", "lqg_cost",
                  "tx_count", "rx_count", "delivery_ratio", "diverged"]
PER_LOOP_KEYS = ("aoi_mean", "mse_mean", "nmse_mean", "lqg_mean", "tx", "rx",
                 "delivery_ratio", "diverged")
METRICS, STATS = PER_LOOP_KEYS[:4], ("mean", "ci99_half")


def emit_results(results: dict, out_dir: str):
    """Write the per-run, summary and figure-family CSVs.

    ``results`` maps (protocol label, N) to a run_replications result.
    """
    keys = sorted(results)
    runs = [(f"{label}-N{n}-r{rep}", label, n, rep, r["metrics"])
            for label, n in keys
            for rep, r in enumerate(results[label, n]["replications"])]
    metrics = [run[-1] for run in runs]
    loops = [len(m["loop_classes"]) for m in metrics]
    # Runs of equal class lists (of strings) share one tile, formatted once.
    shared = {}
    classes = [shared.setdefault(tuple(m["loop_classes"]), m["loop_classes"])
               for m in metrics]
    _write_csv(os.path.join(out_dir, "per_run.csv"), PER_RUN_HEADER, [
        *(_Each([run[i] for run in runs], loops) for i in range(4)),
        _joined([np.arange(1, k + 1) for k in loops]),
        _Tiles(classes, [1] * len(runs)),
        *(_joined([m["per_loop"][key] for m in metrics])
          for key in PER_LOOP_KEYS)])
    summaries = [results[key]["summary"] for key in keys]
    labels, ns = [key[0] for key in keys], [key[1] for key in keys]
    per_key = [len(METRICS)] * len(keys)
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["protocol", "N", "metric", *STATS],
               [_Each(labels, per_key), _Each(ns, per_key),
                list(METRICS) * len(keys),
                *([s[metric][stat] for s in summaries for metric in METRICS]
                  for stat in STATS)])
    for metric in METRICS:
        _write_csv(os.path.join(out_dir, metric.replace("_mean", "_vs_n.csv")),
                   ["protocol", "N", *STATS],
                   [labels, ns, *([s[metric][stat] for s in summaries]
                                  for stat in STATS)])
    fractions = [s["fractions"] for s in summaries]
    counts = list(map(len, fractions))
    _write_csv(os.path.join(out_dir, "fractions.csv"),
               ["protocol", "N", "class", "delivery_fraction"],
               [_Each(labels, counts), _Each(ns, counts),
                [cls for f in fractions for cls in f],
                [frac for f in fractions for frac in f.values()]])


# Ages 1..NMSE_CURVE_AGES of the error-versus-age curves.
NMSE_CURVE_AGES = 60


def emit_nmse_curves(out_dir: str):
    """Error-versus-age curves for every preset, including the pendulum's
    raw MSE before normalization."""
    table = MseTable([make_preset(c) for c in PRESET_CLASSES])
    ages = np.arange(1, NMSE_CURVE_AGES + 1)
    mse, nmse = table.mse_and_nmse(
        np.repeat(ages[:, None], len(PRESET_CLASSES), 1))
    _write_csv(os.path.join(out_dir, "nmse_vs_age.csv"),
               ["age", *PRESET_CLASSES, "pendulum_raw_mse"],
               [ages, *nmse.T, mse[:, PRESET_CLASSES.index("pendulum")]])


# --------------------------------------------------------------------------
# Scenarios

def _replicate(cfgs: list[SimConfig], reps: int, jobs: int) -> dict:
    """Each config's summarized replications, keyed by (protocol label,
    N)."""
    return {(_label(cfg.policy), cfg.n_loops): summarize_replications(runs)
            for cfg, runs in run_replication_sets(cfgs, reps, jobs)}


def run_single(spec: ExperimentSpec, jobs: int = 1) -> dict:
    return _replicate([spec.sim_config(spec.n_loops, policy)
                       for policy in spec.protocols], spec.replications, jobs)


def run_sweep(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Every protocol at every N of ``n_range``, network by network, so
    that the protocols of one N run one after another and share what they
    derive from their network alone (see
    :func:`~ncsim.engine.run_replication_sets`)."""
    lo, hi = spec.n_range
    return _replicate([spec.sim_config(n, policy) for n in range(lo, hi + 1)
                       for policy in spec.protocols], spec.replications, jobs)


def validate_theory(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Simulated network mean age versus the closed-form expressions.

    Requires the idealized channel (strict collisions, no erasures) and
    protocols of :data:`THEORY`.  Round-robin runs at every N of
    ``n_range``, a contention protocol at each of :data:`CONTENTION_NS`
    inside it.  Returns a report whose ``passed`` flag reflects the
    per-protocol tolerances; parameter-free protocols use their defaults
    from :meth:`SchedulerPolicy.resolved`.

    Every tuning and replication is a task of one
    :func:`~ncsim.engine.run_replication_sets` call.  The report reads
    only mean ages, which depend only on when samples are delivered, so
    the replications are age-only runs: they build and tick no plant.
    The simulated mean is the mean of the replications' ``aoi_mean``.
    """
    ch = spec.channel
    if ch.mode != "strict_collision" or ch.erasure_prob != 0.0:
        raise ConfigurationError(
            "theory validation needs mode=strict_collision and erasure_prob=0")
    lo, hi = spec.n_range
    cfgs = []   # one per report row
    for policy in spec.protocols:
        if policy.variant not in THEORY:
            raise ConfigurationError(
                f"no closed form for {policy.variant!r}; "
                f"validate supports {sorted(THEORY)}")
        if policy.variant == "round_robin":
            n_list = range(lo, hi + 1)
        else:
            n_list = [n for n in CONTENTION_NS if lo <= n <= hi]
            if not n_list:
                raise ConfigurationError(
                    f"validate runs {policy.variant} at N in "
                    f"{list(CONTENTION_NS)}, none of them in n_range "
                    f"{list(spec.n_range)}")
        cfgs += [spec.sim_config(n, policy) for n in n_list]
    rows = []
    for cfg, runs in run_replication_sets(cfgs, spec.replications, jobs,
                                          ages_only=True):
        pol, n = cfg.policy, cfg.n_loops
        sim = float(np.mean([r["metrics"]["network"]["aoi_mean"]
                             for r in runs]))
        mean_aoi, tol = THEORY[pol.variant]
        theory = mean_aoi(pol, n)
        rel = abs(sim - theory) / theory
        rows.append({
            "protocol": pol.variant, "N": n,
            "params": {"p": pol.p, "threshold": pol.threshold},
            "simulated": sim, "theory": theory, "rel_err": rel,
            "tol": tol, "ok": rel <= tol})
    return {"rows": rows, "passed": all(r["ok"] for r in rows)}


def emit_validation(report: dict, out_dir: str):
    header = ["protocol", "N", "p", "threshold", "simulated", "theory",
              "rel_err", "tol", "ok"]
    rows = [{**r, **r["params"]} for r in report["rows"]]
    _write_csv(os.path.join(out_dir, "validation.csv"), header,
               [[r[key] for r in rows] for key in header])


PENDULUM_PATTERN = ("easy", "pendulum", "hard")
STABILIZATION_DEG = 10.0


def pendulum_case_study(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Mixed network of easy / pendulum / hard loops under the schedulers.

    For each protocol: per-class error statistics, per-pendulum angle and
    position extremes over the evaluated window (min/max across
    replications) with a stabilization verdict (|angle| within
    10 degrees), and the per-step ``envelope`` of angle and position over
    every replication and pendulum, all read from one stack of the
    pendulums' series.  With the framed scheduler on its normalized error
    and not on its raw MSE, adds that raw-MSE ablation, whose pendulum age
    trajectories document starvation.  Every replication of every
    scheduler is a task of one :func:`~ncsim.engine.run_replication_sets`
    call; the report does not depend on ``jobs``.

    ``aoi_monotone`` is False under every scheduler in this model: every
    loop is served again sooner or later, so its age is a sawtooth.  Even
    raw-MSE ranking serves a starved pendulum once its unbounded MSE tops
    the frame; starvation shows as a high ``aoi_window_mean`` instead.
    """
    spec = replace(spec, classes=PENDULUM_PATTERN, n_loops=15)
    policies = list(spec.protocols)
    labels = {_label(p) for p in policies}
    if "mef" in labels and "mef_raw" not in labels:
        policies.append(SchedulerPolicy(variant="mef", use_nmse=False))
    sets = run_replication_sets(
        [spec.sim_config(spec.n_loops, policy, record_series=True)
         for policy in policies], spec.replications, jobs)
    report = {}
    for cfg, runs in sets:
        ips = [i for i, c in enumerate(cfg.classes, start=1)
               if c == "pendulum"]
        t_start, t_end = cfg.window
        window = slice(t_start - 1, t_end)   # series index 0 holds step 1
        # (replication, pendulum, step) arrays of every pendulum's series.
        states = np.stack([[r["series"][i]["state"] for i in ips]
                           for r in runs])
        phi, xi = np.degrees(states[..., 2]), states[..., 0]
        aoi = np.stack([[r["series"][i]["aoi"] for i in ips] for r in runs])
        per_ip = {}
        for j, i in enumerate(ips):
            ip_phi, ip_xi, ip_aoi = (a[:, j, window] for a in (phi, xi, aoi))
            per_ip[i] = {
                "phi_min": float(ip_phi.min()),
                "phi_max": float(ip_phi.max()),
                "xi_min": float(ip_xi.min()), "xi_max": float(ip_xi.max()),
                "stabilized": bool(np.max(np.abs(ip_phi))
                                   <= STABILIZATION_DEG),
                "aoi_window_mean": float(ip_aoi.mean()),
                "aoi_monotone": bool(np.all(np.diff(ip_aoi, axis=1) >= 0)),
            }
        # Per-step extremes over every replication and pendulum.
        envelope = {"phi_min": phi.min(axis=(0, 1)),
                    "phi_max": phi.max(axis=(0, 1)),
                    "xi_min": xi.min(axis=(0, 1)),
                    "xi_max": xi.max(axis=(0, 1))}
        per_class = {}
        for cls in dict.fromkeys(cfg.classes):
            idx = [k for k, c in enumerate(cfg.classes) if c == cls]
            vals = [float(r["metrics"]["per_loop"]["nmse_mean"][k])
                    for r in runs for k in idx]
            per_class[cls] = vals
        report[_label(cfg.policy)] = {
            "per_ip": per_ip, "envelope": envelope,
            "per_class_nmse": per_class, "classes": cfg.classes,
            "runs": runs}
    return report


def emit_pendulum(report: dict, out_dir: str):
    boxes = [(label, cls, vals) for label, entry in report.items()
             for cls, vals in entry["per_class_nmse"].items()]
    counts = [len(vals) for *_, vals in boxes]
    _write_csv(os.path.join(out_dir, "pendulum_nmse.csv"),
               ["protocol", "class", "mean_nmse"],
               [_Each([b[0] for b in boxes], counts),
                _Each([b[1] for b in boxes], counts),
                list(chain.from_iterable(vals for *_, vals in boxes))])
    envelopes = [entry["envelope"] for entry in report.values()]
    steps = [len(env["phi_min"]) for env in envelopes]
    _write_csv(os.path.join(out_dir, "pendulum_envelopes.csv"),
               ["protocol", "step", "phi_min_deg", "phi_max_deg",
                "xi_min", "xi_max"],
               [_Each(report, steps),
                _joined([np.arange(1, k + 1) for k in steps]),
                *(_joined([env[key] for env in envelopes])
                  for key in ("phi_min", "phi_max", "xi_min", "xi_max"))])
    per_ip = [entry["per_ip"] for entry in report.values()]
    verdicts = [(i, d) for ips in per_ip for i, d in ips.items()]
    _write_csv(os.path.join(out_dir, "pendulum_verdicts.csv"),
               ["protocol", "loop_id", "stabilized", "phi_min_deg",
                "phi_max_deg", "xi_min", "xi_max", "aoi_window_mean",
                "aoi_monotone"],
               [_Each(report, list(map(len, per_ip))),
                [i for i, _ in verdicts],
                *([d[key] for _, d in verdicts]
                  for key in ("stabilized", "phi_min", "phi_max", "xi_min",
                              "xi_max", "aoi_window_mean", "aoi_monotone"))])
