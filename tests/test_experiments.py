"""Config parsing, CSV emission, and the theory-validation scenario."""
import csv
import hashlib
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import ncsim.engine
import ncsim.experiments
from ncsim.channel import ChannelConfig
from ncsim.errors import ConfigurationError
from ncsim.experiments import (DEFAULT_COMPARISON_CHANNEL, THEORY,
                               ExperimentSpec, _write_csv, emit_nmse_curves,
                               emit_results, emit_validation, parse_config,
                               pendulum_case_study, run_single,
                               validate_theory)
from ncsim.mac import SchedulerPolicy
from ncsim.metrics import mse_of_age, nmse_of_age
from ncsim.systems import make_preset


def write_config(tmp_path, text, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def tiny_spec(**kw):
    base = dict(scenario="single",
                protocols=[SchedulerPolicy("round_robin")],
                n_loops=3, duration_s=2.0, warmup_s=0.5, cooldown_s=0.5,
                replications=2)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        tiny_spec(scenario="fancy")
    with pytest.raises(ConfigurationError):
        tiny_spec(protocols=[])
    with pytest.raises(ConfigurationError):
        tiny_spec(n_range=(9, 2))


def test_spec_rejects_repeated_protocol_labels():
    """Results are keyed by protocol label, so two entries of one label
    would keep only one entry's runs."""
    with pytest.raises(ConfigurationError, match="repeat a name"):
        tiny_spec(protocols=[SchedulerPolicy("slotted_aloha", p=0.2),
                             SchedulerPolicy("slotted_aloha", p=0.3)])
    tiny_spec(protocols=[SchedulerPolicy("mef"),
                         SchedulerPolicy("mef", use_nmse=False)])


def test_pendulum_adds_the_raw_ablation_only_when_unlisted(monkeypatch):
    """A listed raw-MSE framed scheduler is the ablation: it is run and
    reported once, in list order."""
    runs = []
    engine_run = ncsim.engine.run
    monkeypatch.setattr(ncsim.engine, "run", lambda cfg, seeds, **kw: (
        runs.append(cfg) or engine_run(cfg, seeds, **kw)))
    spec = tiny_spec(scenario="pendulum", duration_s=1.0, warmup_s=0.3,
                     cooldown_s=0.2, replications=1)
    for protocols, labels in (
            ([SchedulerPolicy("mef")], ["mef", "mef_raw"]),
            ([SchedulerPolicy("mef", use_nmse=False), SchedulerPolicy("mef")],
             ["mef_raw", "mef"])):
        runs.clear()
        report = pendulum_case_study(replace(spec, protocols=protocols))
        assert list(report) == labels and len(runs) == 2


def test_parse_minimal_config(tmp_path):
    path = write_config(tmp_path, "scenario: single\nprotocols: [round_robin]\n")
    spec = parse_config(path)
    assert spec.scenario == "single"
    assert spec.n_loops == 15
    assert spec.protocols == [SchedulerPolicy("round_robin")]
    assert spec.channel == DEFAULT_COMPARISON_CHANNEL
    assert spec.classes == ("easy", "mid", "hard")


def test_parse_full_config(tmp_path):
    path = write_config(tmp_path, """
scenario: sweep
protocols:
  - round_robin
  - {name: slotted_aloha, p: 0.2}
  - {name: mef, frame_len: 10, use_nmse: false}
n_range: [2, 6]
classes: [easy, hard]
channel: {mode: strict_collision, erasure_prob: 0.1}
seed: 7
replications: 3
""")
    spec = parse_config(path)
    assert spec.n_range == (2, 6)
    assert spec.classes == ("easy", "hard")
    assert spec.channel.mode == "strict_collision"
    assert spec.channel.erasure_prob == 0.1
    assert spec.protocols[1].p == 0.2
    assert spec.protocols[2].frame_len == 10 and not spec.protocols[2].use_nmse
    assert spec.seed == 7 and spec.replications == 3


def test_parse_accepts_every_dataclass_field(tmp_path):
    """Each field of the spec, the channel and the policy is a key, with
    ``name`` standing for the policy's ``variant``."""
    protocol = {"name": "adra", "p": 0.2, "threshold": 3, "frame_len": 10,
                "use_nmse": False}
    channel = {"mode": "offset_capture", "erasure_prob": 0.1,
               "tx_duration": 0.002, "slot_duration": 0.01,
               "capture_prob": 0.5}
    top = {"scenario": "single", "protocols": [protocol], "n_loops": 4,
           "n_range": [2, 5], "channel": channel, "classes": ["easy"],
           "duration_s": 3.0, "warmup_s": 0.5, "cooldown_s": 0.5,
           "seed": 3, "replications": 2, "out_dir": "out"}
    assert set(top) == {f.name for f in fields(ExperimentSpec)}
    assert set(channel) == {f.name for f in fields(ChannelConfig)}
    assert set(protocol) - {"name"} | {"variant"} == \
        {f.name for f in fields(SchedulerPolicy)}
    spec = parse_config(write_config(tmp_path, yaml.safe_dump(top)))
    assert spec == ExperimentSpec(**{
        **top, "protocols": [SchedulerPolicy("adra", 0.2, 3, 10, False)],
        "n_range": (2, 5), "channel": ChannelConfig(**channel),
        "classes": ("easy",)})


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_config(
        tmp_path, "scenario: single\nprotocols: [round_robin]\nn_lops: 4\n")
    with pytest.raises(ConfigurationError, match="n_lops"):
        parse_config(path)
    path = write_config(
        tmp_path,
        "scenario: single\nprotocols: [round_robin]\n"
        "channel: {mode: strict_collision, fading: rayleigh}\n")
    with pytest.raises(ConfigurationError, match="fading"):
        parse_config(path)
    path = write_config(
        tmp_path,
        "scenario: single\nprotocols: [{name: mef, beacon_len: 2}]\n")
    with pytest.raises(ConfigurationError, match="beacon_len"):
        parse_config(path)


def test_parse_rejects_bad_values(tmp_path):
    path = write_config(
        tmp_path,
        "scenario: single\nprotocols: [{name: slotted_aloha, p: 1.5}]\n")
    with pytest.raises(ConfigurationError):
        parse_config(path)
    path = write_config(tmp_path, "scenario: single\n")
    with pytest.raises(ConfigurationError, match="protocols"):
        parse_config(path)
    path = write_config(tmp_path, "- just\n- a list\n")
    with pytest.raises(ConfigurationError, match="mapping"):
        parse_config(path)
    # YAML values of the wrong type are rejected where they enter.
    for text, key in [
            ('channel: {erasure_prob: "0.1"}', "erasure_prob"),
            ("channel: {tx_duration: [0.003]}", "tx_duration"),
            ("channel: {slot_duration: null}", "slot_duration"),
            ("channel: {capture_prob: true}", "capture_prob"),
            ("channel: {mode: 3}", "mode"),
            ('protocols: [{name: mef, use_nmse: "no"}]', "use_nmse"),
            ("protocols: [{name: pmef, use_nmse: 1}]", "use_nmse"),
            ("replications: 0", "replications"),
            ("replications: -2", "replications")]:
        if not text.startswith("protocols"):
            text = "protocols: [round_robin]\n" + text
        path = write_config(tmp_path, f"scenario: single\n{text}\n")
        with pytest.raises(ConfigurationError, match=f"{key} must"):
            parse_config(path)


def test_class_pattern_cycles_over_loops():
    cfg = tiny_spec(n_loops=5).sim_config(5, SchedulerPolicy("round_robin"))
    assert cfg.classes == ["easy", "mid", "hard", "easy", "mid"]


def test_emit_results_files_and_reruns_identically(tmp_path):
    spec = tiny_spec()
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    emit_results(run_single(spec), out_a)
    emit_results(run_single(spec), out_b)
    names = ["per_run.csv", "summary.csv", "aoi_vs_n.csv", "lqg_vs_n.csv",
             "mse_vs_n.csv", "nmse_vs_n.csv", "fractions.csv"]
    for name in names:
        pa, pb = os.path.join(out_a, name), os.path.join(out_b, name)
        assert os.path.exists(pa)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_per_run_rows_cover_loops_and_reps(tmp_path):
    spec = tiny_spec()
    out = str(tmp_path / "r")
    emit_results(run_single(spec), out)
    with open(os.path.join(out, "per_run.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == spec.replications * spec.n_loops
    assert {r["class"] for r in rows} == {"easy", "mid", "hard"}
    assert {r["protocol"] for r in rows} == {"round_robin"}
    # Round-robin at N=3 keeps each loop's mean age near 2 (the short
    # window is not a multiple of the cycle, hence the slack).
    for r in rows:
        assert float(r["mean_aoi"]) == pytest.approx(2.0, abs=0.1)


def test_emit_nmse_curves(tmp_path):
    out = str(tmp_path / "curves")
    emit_nmse_curves(out)
    with open(os.path.join(out, "nmse_vs_age.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    first = rows[0]
    for col in ("easy", "mid", "hard", "pendulum"):
        assert float(first[col]) == pytest.approx(1.0)
    # The raw error column shows the tiny-noise pendulum scale.
    assert float(first["pendulum_raw_mse"]) < 1e-3
    assert float(rows[-1]["pendulum"]) > float(rows[-1]["easy"])
    # Every value is the repr of the reference law's float.
    presets = [make_preset(c) for c in ("easy", "mid", "hard", "pendulum")]
    for age, row in enumerate(rows, 1):
        assert list(row.values()) == [
            str(age), *(repr(nmse_of_age(s, age)) for s in presets),
            repr(mse_of_age(presets[-1], age))]


def test_validate_requires_ideal_channel():
    spec = tiny_spec(scenario="validate")
    with pytest.raises(ConfigurationError, match="strict_collision"):
        validate_theory(spec)   # default comparison channel has erasures


def test_validate_rejects_protocols_without_closed_form():
    spec = tiny_spec(scenario="validate", channel=ChannelConfig(),
                     protocols=[SchedulerPolicy("mef")])
    with pytest.raises(ConfigurationError, match="closed form"):
        validate_theory(spec)


def test_validate_round_robin_is_exact():
    spec = tiny_spec(scenario="validate", channel=ChannelConfig(),
                     n_range=(2, 4), duration_s=3.0, replications=1)
    report = validate_theory(spec)
    assert report["passed"]
    assert [r["N"] for r in report["rows"]] == [2, 3, 4]
    for r in report["rows"]:
        assert r["rel_err"] <= 0.02
        assert math.isclose(r["theory"], (r["N"] + 1) / 2)


def test_validate_runs_contention_protocols_only_inside_n_range():
    """A contention protocol is checked at those of N = 3, 5, 7 that lie
    in n_range; with none of them there it is a configuration error that
    names the protocol and the range, raised before anything runs."""
    spec = tiny_spec(scenario="validate", channel=ChannelConfig(),
                     protocols=[SchedulerPolicy("round_robin"),
                                SchedulerPolicy("slotted_aloha")],
                     n_range=(4, 6), replications=1)
    report = validate_theory(spec)
    assert [(r["protocol"], r["N"]) for r in report["rows"]] == [
        ("round_robin", 4), ("round_robin", 5), ("round_robin", 6),
        ("slotted_aloha", 5)]
    with pytest.raises(ConfigurationError,
                       match=r"slotted_aloha.*n_range \[8, 10\]"):
        validate_theory(replace(spec, n_range=(8, 10)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_validate_builds_no_plant(monkeypatch, jobs):
    """Validation reads only mean ages, so none of its runs builds a
    plant group.  At jobs=2 the forked workers inherit the patch: a full
    run in the same pool fails on it."""
    def refuse(*args):
        raise RuntimeError("a plant group was built")

    monkeypatch.setattr(ncsim.engine._Plants, "__init__", refuse)
    spec = tiny_spec(scenario="validate", channel=ChannelConfig(),
                     protocols=[SchedulerPolicy(v) for v in THEORY],
                     n_range=(3, 4), duration_s=10.0, replications=4)
    report = validate_theory(spec, jobs=jobs)
    assert report["passed"]
    assert [(r["protocol"], r["N"]) for r in report["rows"]] == [
        ("round_robin", 3), ("round_robin", 4), ("slotted_aloha", 3),
        ("adra", 3)]
    with pytest.raises(RuntimeError, match="plant group"):
        ncsim.engine.run_replication_sets([spec.sim_config(3, SchedulerPolicy(
            "round_robin"))], reps=2, jobs=jobs)


@pytest.mark.parametrize("duration, cooldown, t_end",
                         [(4.0, 1.015, 299), (4.025, 1.0, 302)])
def test_pendulum_window_is_the_engines(duration, cooldown, t_end):
    """With durations that are not whole periods, each pendulum's
    windowed mean age is the mean of its age series over the engine's
    window, steps 101..t_end, which the engine's own mean age covers."""
    spec = tiny_spec(scenario="pendulum", duration_s=duration, warmup_s=1.0,
                     cooldown_s=cooldown, replications=1)
    (entry,) = pendulum_case_study(spec).values()
    (run,) = entry["runs"]
    assert entry["per_ip"]
    for i, verdict in entry["per_ip"].items():
        aoi = run["series"][i]["aoi"]       # index 0 holds step 1
        assert verdict["aoi_window_mean"] == aoi[100:t_end].mean()
        assert verdict["aoi_window_mean"] == \
            run["metrics"]["per_loop"]["aoi_mean"][i - 1]


# SHA-256 of every CSV emit_results writes for record_golden.py's
# diverge-* cases, recorded with the csv module's writer.  Their summary
# carries inf means and half-widths, and per_run.csv the inf that stands
# for a nan cost.
DIVERGE_SHA256 = {
    "aoi_vs_n.csv":
        "851ff620660dd199aa761b7884ce332c3731f8c0dd19c2df916dfc993a0fa826",
    "fractions.csv":
        "4038b95421a690e5997e578d3eca792bbb87c19df9f0e4300635260c746747c1",
    "lqg_vs_n.csv":
        "d0b008930d0525b9bee8ad9b4b066d623a199686b5e313a896c6d37e701ea5c3",
    "mse_vs_n.csv":
        "912a178162c54aa481114d1dd963c90411a23d1b2c2238406c3e96abacd7539b",
    "nmse_vs_n.csv":
        "912a178162c54aa481114d1dd963c90411a23d1b2c2238406c3e96abacd7539b",
    "per_run.csv":
        "ac661f9bce29702b62fd1ca3489d6628e11fda918eb286f5aff45c97c1e072f8",
    "summary.csv":
        "db62ecac6b7fcf80e2e4f89e057316c43f988bac3459785155402f646f02743a",
}


def test_diverging_run_single_writes_pinned_bytes(tmp_path, monkeypatch):
    """run_single over the golden fixture's diverging network, every
    policy at its fixed parameters, 2 replications: every file keeps its
    recorded bytes."""
    from record_golden import CHANNELS, REPS, cases
    diverging = [cfg for name, cfg in cases() if name.startswith("diverge-")]
    systems = diverging[0].systems
    monkeypatch.setattr(ncsim.experiments, "systems_from_classes",
                        lambda n, classes: systems)
    spec = tiny_spec(protocols=[cfg.policy for cfg in diverging],
                     n_loops=len(systems), channel=CHANNELS["capture"],
                     replications=REPS)
    out = str(tmp_path / "diverge")
    emit_results(run_single(spec), out)
    written = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            written[name] = fh.read()
    assert b",inf,inf\r\n" in written["summary.csv"]
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in written.items()} == DIVERGE_SHA256


def _fmt(v):
    """A cell as the csv module's writer was given it, before CSVs were
    written column by column."""
    if isinstance(v, float):
        if math.isnan(v):
            return "inf"  # nan only arises downstream of divergence
        return repr(v)
    return v


def oracle_csv(path, header, rows):
    """The row-by-row writer that _write_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


TEXT = st.text(st.sampled_from('ab ,"\r\n\t;\x00\u00e9'), max_size=6)
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2])
CELLS = FLOATS | st.integers() | st.booleans() | st.none() | TEXT


@st.composite
def tables(draw, cells=CELLS):
    width = draw(st.integers(2, 5))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                         max_size=12))
    return header, rows


@settings(max_examples=300, deadline=None)
@given(tables())
# Equal values whose cells differ, within a column.
@example(table=(["a", "b", "c", "d"], [[1, 0.0, None, math.nan],
                                       [True, -0.0, "", "inf"],
                                       [0, 1.0, "None", 5e-324],
                                       [False, 1, "nan", True]]))
def test_write_csv_is_the_csv_module_writer(tmp_path_factory, table):
    """Mixed columns of floats (nan, +-inf, -0.0, subnormals, exponents),
    ints, bools, None and text that needs quoting or none: the same bytes
    as csv.writer over the cells of the row-by-row writer."""
    header, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    oracle_csv(tmp / "rows.csv", header, rows)
    columns = [list(c) for c in zip(*rows)] or [[] for _ in header]
    _write_csv(str(tmp / "columns.csv"), header, columns)
    assert read_bytes(tmp / "columns.csv") == read_bytes(tmp / "rows.csv")


# Element strategies and dtypes of array columns; numpy text arrays drop
# trailing NULs, so their text holds none.
ARRAY_KINDS = [
    (FLOATS, np.float64), (st.floats(width=32), np.float32),
    (st.integers(-2**63, 2**63 - 1), np.int64), (st.booleans(), bool),
    (st.text(st.sampled_from('ab ,"\r\n\u00e9'), max_size=6), str)]


@st.composite
def array_columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(ARRAY_KINDS), min_size=2,
                          max_size=4))
    return [np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                     dtype=dtype) for elements, dtype in kinds]


@settings(max_examples=300, deadline=None)
@given(array_columns())
def test_array_column_writes_its_python_scalars(tmp_path_factory, columns):
    """An array column writes the bytes of the list of Python scalars it
    holds (repeated values, -0.0 beside 0.0 and nan payloads included),
    which are the row-by-row writer's."""
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(len(columns))]
    scalars = [c.tolist() for c in columns]
    _write_csv(str(tmp / "arrays.csv"), header, columns)
    _write_csv(str(tmp / "lists.csv"), header, scalars)
    oracle_csv(tmp / "rows.csv", header, zip(*scalars))
    assert read_bytes(tmp / "arrays.csv") == read_bytes(tmp / "lists.csv") \
        == read_bytes(tmp / "rows.csv")


def test_numpy_scalars_write_their_python_values(tmp_path):
    """Under numpy 2 the repr of np.float64(0.1) is 'np.float64(0.1)', which
    the row-by-row writer wrote for a numpy float it was given; every
    numpy scalar is now written as its Python value."""
    path = tmp_path / "scalars.csv"
    _write_csv(str(path), ["a", "b"],
               [[np.float64(0.1), np.float64("nan"), np.float32(0.1)],
                [np.int64(3), np.bool_(True), np.str_("x,y")]])
    assert read_bytes(path) == (
        b'a,b\r\n0.1,3\r\ninf,True\r\n0.10000000149011612,"x,y"\r\n')
    report = {"rows": [{
        "protocol": "adra", "N": np.int64(3),
        "params": {"p": np.float64(0.3), "threshold": np.int64(4)},
        "simulated": np.float64(2.5), "theory": np.float64(2.25),
        "rel_err": np.float64(1 / 9), "tol": 0.1, "ok": np.bool_(False)}]}
    emit_validation(report, str(tmp_path))
    with open(tmp_path / "validation.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {"protocol": "adra", "N": "3", "p": "0.3", "threshold": "4",
                   "simulated": "2.5", "theory": "2.25",
                   "rel_err": repr(1 / 9), "tol": "0.1", "ok": "False"}


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1, 2], [3]])
    assert not (tmp_path / "t.csv").exists()
