"""Config parsing, CSV emission, and the theory-validation scenario."""
import csv
import math
import os

import pytest

from ncsim.channel import ChannelConfig
from ncsim.errors import ConfigurationError
from ncsim.experiments import (DEFAULT_COMPARISON_CHANNEL, ExperimentSpec,
                               emit_nmse_curves, emit_results, parse_config,
                               pendulum_case_study, run_single,
                               validate_theory)
from ncsim.mac import SchedulerPolicy


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
    emit_nmse_curves(out, max_age=30)
    with open(os.path.join(out, "nmse_vs_age.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    first = rows[0]
    for col in ("easy", "mid", "hard", "pendulum"):
        assert float(first[col]) == pytest.approx(1.0)
    # The raw error column shows the tiny-noise pendulum scale.
    assert float(first["pendulum_raw_mse"]) < 1e-3
    assert float(rows[-1]["pendulum"]) > float(rows[-1]["easy"])


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


@pytest.mark.parametrize("duration, cooldown, t_end",
                         [(4.0, 1.015, 299), (4.025, 1.0, 302)])
def test_pendulum_window_is_the_engines(duration, cooldown, t_end):
    """With durations that are not whole periods, each pendulum's
    windowed mean age is the mean of its age series over the engine's
    window, steps 101..t_end, which the engine's own mean age covers."""
    spec = tiny_spec(scenario="pendulum", duration_s=duration, warmup_s=1.0,
                     cooldown_s=cooldown, replications=1)
    (entry,) = pendulum_case_study(spec, include_raw_ablation=False).values()
    (run,) = entry["runs"]
    assert entry["per_ip"]
    for i, verdict in entry["per_ip"].items():
        aoi = run["series"][i]["aoi"]       # index 0 holds step 1
        assert verdict["aoi_window_mean"] == aoi[100:t_end].mean()
        assert verdict["aoi_window_mean"] == \
            run["metrics"]["per_loop"]["aoi_mean"][i - 1]
