"""Exit codes, flag handling, and file emission of the console entry point."""
import ast
import concurrent.futures
import hashlib
import os
import subprocess
import sys

import pytest

import ncsim.engine
from ncsim.aoi import optimize_adra
from ncsim.cli import build_parser, main
from ncsim.errors import InvariantViolation
from ncsim.experiments import parse_config, run_sweep

RUN_CFG = """
scenario: single
protocols: [round_robin, {name: slotted_aloha, p: 0.3}]
n_loops: 3
duration_s: 2.0
warmup_s: 0.5
cooldown_s: 0.5
replications: 2
channel: {mode: strict_collision}
"""

VALIDATE_OK_CFG = """
scenario: validate
protocols: [round_robin]
n_range: [2, 3]
duration_s: 3.0
warmup_s: 0.5
cooldown_s: 0.5
replications: 1
channel: {mode: strict_collision, erasure_prob: 0.0}
"""

# An aggressive access probability with a short ineligibility gap keeps the
# network congested, far from the stationary closed form: must exit 2.
VALIDATE_BAD_CFG = """
scenario: validate
protocols: [{name: adra, p: 0.9, threshold: 6}]
n_range: [3, 3]
duration_s: 5.0
warmup_s: 1.0
cooldown_s: 1.0
replications: 2
channel: {mode: strict_collision, erasure_prob: 0.0}
"""


def cfg_file(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return str(p)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["launch"])


def test_parser_flags():
    args = build_parser().parse_args(
        ["run", "--config", "c.yaml", "--out", "o", "--seed", "9",
         "--reps", "4", "--jobs", "2"])
    assert args.command == "run" and args.config == "c.yaml"
    assert args.out == "o" and args.seed == 9
    assert args.reps == 4 and args.jobs == 2


def test_run_emits_csv_and_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "res")
    rc = main(["run", "--config", cfg_file(tmp_path, RUN_CFG), "--out", out])
    assert rc == 0
    for name in ("per_run.csv", "summary.csv", "aoi_vs_n.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert "results written" in capsys.readouterr().out


def test_seed_and_reps_overrides(tmp_path):
    out = str(tmp_path / "res")
    rc = main(["run", "--config", cfg_file(tmp_path, RUN_CFG),
               "--out", out, "--seed", "5", "--reps", "3"])
    assert rc == 0
    with open(os.path.join(out, "per_run.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    # 2 protocols x 3 replications x 3 loops
    assert len(rows) == 18


def test_missing_config_exits_one(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    path = cfg_file(tmp_path, "scenario: single\nprotocols: [warp_drive]\n")
    rc = main(["run", "--config", path])
    assert rc == 1
    assert "warp_drive" in capsys.readouterr().err


def with_line(text, line):
    """``text`` with the top-level line of ``line``'s key replaced by it."""
    key = line.partition(":")[0]
    kept = [row for row in text.splitlines() if not row.startswith(key + ":")]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize("command, line, key", [
    ("run", "n_range: [2, 3, 4]", "n_range"),
    ("run", "n_range: 5", "n_range"),
    ("run", 'duration_s: "1.0"', "duration_s"),
    ("run", "replications: 1.5", "replications"),
    ("run", "n_loops: 2.5", "n_loops"),
    ("run", "seed: 1.5", "seed"),
    ("run", "protocols: round_robin", "protocols"),
    ("run", "classes: easy", "classes"),
    ("run", "protocols: [{name: mef, frame_len: 2.5}]", "frame_len"),
    # Ages are whole periods: a threshold of 2.5 would run as 3 but be
    # checked against the closed form at 2.5.
    ("validate", "protocols: [{name: adra, threshold: 2.5, p: 0.3}]",
     "threshold"),
    ("run", "warmup_s: -0.5", "warmup_s"),
    ("run", "cooldown_s: -0.5", "cooldown_s"),
    ("run", "duration_s: .inf", "duration_s"),
    ("run", "warmup_s: .nan", "warmup_s"),
    ("run", "cooldown_s: .nan", "cooldown_s"),
    ("run", "channel: {tx_duration: .nan}", "tx_duration"),
    ("run", "channel: {slot_duration: .nan}", "slot_duration"),
    ("run", 'channel: {erasure_prob: "0.1"}', "erasure_prob"),
    ("run", "channel: {mode: [strict_collision]}", "mode"),
    ("run", 'protocols: [{name: mef, use_nmse: "no"}]', "use_nmse"),
    ("run", "replications: 0", "replications"),
    # A line starting with -- is a command-line option, not a config line.
    ("run", "--reps 0", "replications"),
    ("validate", "--reps -1", "replications"),
])
def test_malformed_value_exits_one_naming_its_key(tmp_path, capsys, command,
                                                  line, key):
    base = VALIDATE_OK_CFG if command == "validate" else RUN_CFG
    option = line.split() if line.startswith("--") else []
    path = cfg_file(tmp_path, base if option else with_line(base, line))
    rc = main([command, "--config", path, "--out", str(tmp_path / "res"),
               *option])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must" in err
    assert not os.path.exists(tmp_path / "res")


@pytest.mark.parametrize("command, scenario", [
    ("run", "sweep"), ("sweep", "single"), ("validate", "single"),
    ("pendulum", "validate")])
def test_scenario_must_match_subcommand(tmp_path, capsys, command,
                                        scenario):
    path = cfg_file(tmp_path, RUN_CFG.replace("scenario: single",
                                              f"scenario: {scenario}"))
    rc = main([command, "--config", path, "--out", str(tmp_path / "res")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(tmp_path / "res")


def test_run_tunes_a_parameter_free_adra_entry(tmp_path):
    """A bare adra entry runs with optimize_adra's pair for its N."""
    threshold, p = optimize_adra(5)
    per_run = []
    for entry in ("adra", f"{{name: adra, threshold: {threshold}, "
                          f"p: {p!r}}}"):
        cfg = RUN_CFG.replace(
            "protocols: [round_robin, {name: slotted_aloha, p: 0.3}]",
            f"protocols: [{entry}]").replace("n_loops: 3", "n_loops: 5")
        out = tmp_path / f"res{len(per_run)}"
        rc = main(["run", "--config", cfg_file(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        per_run.append((out / "per_run.csv").read_bytes())
    assert per_run[0] == per_run[1]


def test_empty_class_pattern_exits_one(tmp_path, capsys):
    path = cfg_file(tmp_path, RUN_CFG + "classes: []\n")
    rc = main(["run", "--config", path, "--out", str(tmp_path / "res")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: the class pattern")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bare_adra_below_three_loops_names_policy_and_n(tmp_path, capsys,
                                                        jobs):
    """The default sweep starts at N = 2, where no tuned pair exists; the
    error crosses the pool at --jobs 2."""
    path = cfg_file(tmp_path, JOBS_CFGS["sweep"].replace(
        "[round_robin, mef]", "[adra]").replace("n_range: [2, 3]\n", ""))
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "res"),
               "--jobs", jobs])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: adra with N=2 needs an explicit p and threshold")


def test_bad_jobs_exits_one(tmp_path, capsys):
    path = cfg_file(tmp_path, RUN_CFG)
    rc = main(["run", "--config", path, "--jobs", "0"])
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err


def test_validate_within_tolerance_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "val")
    rc = main(["validate", "--config", cfg_file(tmp_path, VALIDATE_OK_CFG),
               "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "validation.csv"))
    printed = capsys.readouterr().out
    assert "round_robin" in printed and "ok" in printed


def test_validate_outside_tolerance_exits_two(tmp_path, capsys):
    out = str(tmp_path / "val")
    rc = main(["validate", "--config", cfg_file(tmp_path, VALIDATE_BAD_CFG),
               "--out", out])
    assert rc == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "validation FAILED" in captured.err
    assert os.path.exists(os.path.join(out, "validation.csv"))


def test_validate_contention_outside_n_range_exits_one(tmp_path, capsys):
    """slotted_aloha is checked at N = 3, 5, 7 only; none lies in [8, 10]."""
    text = with_line(VALIDATE_OK_CFG, "protocols: [slotted_aloha]")
    path = cfg_file(tmp_path, with_line(text, "n_range: [8, 10]"))
    rc = main(["validate", "--config", path, "--out", str(tmp_path / "res")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "slotted_aloha" in err and "[8, 10]" in err
    assert not os.path.exists(tmp_path / "res")


# Small configs of every subcommand, each with several tasks: validate
# tunes its parameter-free adra entry in the pool, and pendulum returns
# per-tick series from the workers (pendulum_envelopes.csv).
JOBS_CFGS = {
    "run": RUN_CFG,
    "sweep": """
scenario: sweep
protocols: [round_robin, mef]
n_range: [2, 3]
duration_s: 2.0
warmup_s: 0.5
cooldown_s: 0.5
replications: 2
""",
    "validate": """
scenario: validate
protocols: [round_robin, adra]
n_range: [3, 3]
duration_s: 2.0
warmup_s: 0.5
cooldown_s: 0.5
replications: 2
channel: {mode: strict_collision, erasure_prob: 0.0}
""",
    "pendulum": """
scenario: pendulum
protocols: [round_robin, mef]
duration_s: 1.0
warmup_s: 0.3
cooldown_s: 0.2
replications: 2
""",
}


@pytest.fixture
def pools(monkeypatch):
    """Swap in a process pool that records each instance's worker cap."""
    created = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self._max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    return created


def _csv_bytes(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


# SHA-256 of every CSV that each JOBS_CFGS command writes, recorded with
# the csv module's writer: a change to how CSVs are written must keep
# every byte.
EMITTED_SHA256 = {
    "pendulum": {
        "pendulum_envelopes.csv":
            "36fac78b5b0d697dd563f0e972eaa2328d34e46e57c52664a38015f610fef487",
        "pendulum_nmse.csv":
            "6847edcbc9c26aeb0d6324c788be80fead3c51f498489dfe134a119012ba0191",
        "pendulum_verdicts.csv":
            "e618d0b64c62c71ac952b7ba2521be4a1d3c5da601a53244966900c34464433f",
    },
    "run": {
        "aoi_vs_n.csv":
            "dd013388edb31891733cc14dd58901fd81728d4d4abe4fdf452f257c01a04faa",
        "fractions.csv":
            "b42b2c5aa7850799322fe628060c1b58665389c3275e5031da6ed2f90924d267",
        "lqg_vs_n.csv":
            "c4b780c6efdb418dd6378520879cdd4ac000b2b7d47d0b5732a25f9cb3f36d10",
        "mse_vs_n.csv":
            "1f8da8a2b0f07674d3f93d1d951fc434733a15ba5aeb59f546fcf48f8927b1a2",
        "nmse_vs_n.csv":
            "1f8da8a2b0f07674d3f93d1d951fc434733a15ba5aeb59f546fcf48f8927b1a2",
        "per_run.csv":
            "0ec1a31b1f5ffd9243978ee8929aa9ad88bf421a40a0fa8f0add0183388790c7",
        "summary.csv":
            "f2826040ca9b1afb7a8c9036bbf1ccce8fd64c7c8eb270387e3def7ad91746c9",
    },
    "sweep": {
        "aoi_vs_n.csv":
            "51db77d77bdee8d52c7c0cbd787968b2af39f6280fba77aa91971c9125686ed9",
        "fractions.csv":
            "b986d18f148678317da2d3628ed968c7b7664c9eefe8f521a05f6c6e096d12f2",
        "lqg_vs_n.csv":
            "cd5f695ef09e51c5375b9ee8e640583a5c97889ce8fce3cf2f65e45e4e7e85b0",
        "mse_vs_n.csv":
            "4f42f5fbde0de9f4d9cc5b580e89567312ac77c4d255e43d473a72681e2bdba6",
        "nmse_vs_age.csv":
            "25ab31df6e7a14e4359221a53240607b8d82afe4e3992234a814a0d796cf8769",
        "nmse_vs_n.csv":
            "4f42f5fbde0de9f4d9cc5b580e89567312ac77c4d255e43d473a72681e2bdba6",
        "per_run.csv":
            "a5dc9fc68ca8a78ec16d7341cc4d659e066befdee6e12a4ad89558aa73a04c7e",
        "summary.csv":
            "f4d7017155b44d84c5e28d50cdc5a76afbe1fdd9d34f4505fbf0d17a2735ffb4",
    },
    "validate": {
        "validation.csv":
            "d9ab74d6d3ba89db59264f08fcb016684d55e2b842677bc87f8c3690be5cb47d",
    },
}


@pytest.mark.parametrize("command", sorted(JOBS_CFGS))
def test_commands_write_pinned_bytes(command, tmp_path):
    """Every file a command writes keeps its recorded bytes, the empty
    cells of validate's parameter-free round_robin row included."""
    out = str(tmp_path / "out")
    rc = main([command, "--config", cfg_file(tmp_path, JOBS_CFGS[command]),
               "--out", out])
    assert rc in ((0, 2) if command == "validate" else (0,))
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in _csv_bytes(out).items()} == \
        EMITTED_SHA256[command]


@pytest.mark.parametrize("command", sorted(JOBS_CFGS))
def test_jobs_use_one_pool_and_write_serial_bytes(command, tmp_path, pools):
    path = cfg_file(tmp_path, JOBS_CFGS[command])
    written = {}
    for jobs in (1, 2):
        out = str(tmp_path / f"jobs{jobs}")
        rc = main([command, "--config", path, "--out", out,
                   "--jobs", str(jobs)])
        assert rc in ((0, 2) if command == "validate" else (0,))
        assert pools == ([] if jobs == 1 else [2])
        written[jobs] = _csv_bytes(out)
    assert written[1] and written[1] == written[2]


def test_sweep_tunes_bare_adra_in_the_pool(tmp_path, pools):
    """Each N's tuning is a task of the run's one pool, counted with the
    runs when the pool is sized: 2 tunings and 2 runs fill 3 workers."""
    path = cfg_file(tmp_path, JOBS_CFGS["sweep"].replace(
        "[round_robin, mef]", "[adra]").replace("[2, 3]", "[3, 4]").replace(
        "replications: 2", "replications: 1"))
    written = {}
    for jobs in (1, 2, 3):
        out = str(tmp_path / f"jobs{jobs}")
        pools.clear()
        rc = main(["sweep", "--config", path, "--out", out,
                   "--jobs", str(jobs)])
        assert rc == 0
        assert pools == ([] if jobs == 1 else [jobs])
        written[jobs] = _csv_bytes(out)
    assert written[1] and written[1] == written[2] == written[3]


def test_pool_never_exceeds_task_count(tmp_path, pools):
    two_tasks = RUN_CFG.replace(
        "protocols: [round_robin, {name: slotted_aloha, p: 0.3}]",
        "protocols: [round_robin]")
    rc = main(["run", "--config", cfg_file(tmp_path, two_tasks),
               "--out", str(tmp_path / "res"), "--jobs", "4"])
    assert rc == 0
    assert pools == [2]


def test_dead_worker_exits_one(tmp_path, monkeypatch, capsys):
    # Forked workers inherit the patch and die mid-task.
    monkeypatch.setattr(ncsim.engine, "run",
                        lambda cfg, seeds, **kw: os._exit(1))
    rc = main(["run", "--config", cfg_file(tmp_path, RUN_CFG),
               "--out", str(tmp_path / "res"), "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_worker_invariant_violation_reaches_caller(tmp_path, monkeypatch,
                                                   capsys):
    def violate(cfg, seeds, **kw):
        raise InvariantViolation(f"rx > tx in seed {seeds[0]}")

    monkeypatch.setattr(ncsim.engine, "run", violate)
    path = cfg_file(tmp_path, JOBS_CFGS["sweep"])
    with pytest.raises(InvariantViolation, match="rx > tx in seed"):
        run_sweep(parse_config(path), jobs=2)
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "res"),
               "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: rx > tx in seed")


def modules_after(code, package="scipy"):
    """The modules of ``package`` loaded in a fresh interpreter that ran
    ``code``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(sorted("
         f"m for m in sys.modules if (m + '.').startswith({package!r} + '.')"
         "))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    """scipy is imported by the functions that use it, so starting the
    CLI does not pay for it; numpy.random is loaded by the first run."""
    assert modules_after("import ncsim") == "[]"
    assert modules_after("import ncsim", "numpy.random") == "[]"


def test_pool_workers_start_with_numpy_random():
    """A process pool loads numpy.random before it forks its workers, so
    they do not each import it again on their first stream.  ``eval`` is
    pickled by name, and its expression runs in the worker."""
    code = ("import sys\n"
            "from ncsim.engine import _pool\n"
            "assert 'numpy.random' not in sys.modules\n"
            "with _pool(2) as pool:\n"
            "    assert pool.submit(\n"
            "        eval, \"'numpy.random' in __import__('sys').modules\"\n"
            "    ).result()\n")
    assert "'numpy.random'" in modules_after(code, "numpy.random")


# One replication of a parameter-free adra at N=5, so optimize_adra's
# bounded search runs (N=5 tunes to threshold 12).
TUNED_RUN = (
    "from ncsim.engine import (SimConfig, run_replication_sets,\n"
    "                          summarize_replications, systems_from_classes)\n"
    "from ncsim.mac import SchedulerPolicy\n"
    "cfg = SimConfig(systems=systems_from_classes(5), duration_s=1.0,\n"
    "                warmup_s=0.2, cooldown_s=0.2,\n"
    "                policy=SchedulerPolicy('adra'))\n"
    "[(tuned, results)] = run_replication_sets([cfg], 1)\n"
    "assert tuned.policy.threshold == 12\n")


def test_tuned_single_replication_loads_no_scipy():
    """The tuning's bounded search is ncsim's own, and one replication has
    no confidence interval, so neither loads any scipy module."""
    assert modules_after(
        TUNED_RUN + "summarize_replications(results)\n") == "[]"


def test_tuning_and_interval_load_no_optimize_or_stats():
    """A half-width needs scipy.special only: neither the tuning nor the
    Student-t quantile loads scipy.optimize or scipy.stats."""
    loaded = ast.literal_eval(modules_after(
        TUNED_RUN + "out = summarize_replications(results * 3)\n"
        "assert out['summary']['unbounded'] == {}\n"))
    assert "scipy.special" in loaded
    assert not [m for m in loaded
                if m.startswith(("scipy.optimize", "scipy.stats"))]


def test_pendulum_loads_no_scipy(tmp_path):
    """The case study reads its runs raw: no confidence interval, so no
    scipy."""
    path = cfg_file(tmp_path, JOBS_CFGS["pendulum"])
    out = str(tmp_path / "res")
    assert modules_after(
        "from ncsim.cli import main\n"
        f"assert main(['pendulum', '--config', {path!r}, '--out', {out!r}])"
        " == 0") == "[]"
