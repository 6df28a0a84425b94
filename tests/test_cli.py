"""Exit codes, flag handling, and file emission of the console entry point."""
import concurrent.futures
import os

import pytest

import ncsim.engine
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
    monkeypatch.setattr(ncsim.engine, "run", lambda cfg: os._exit(1))
    rc = main(["run", "--config", cfg_file(tmp_path, RUN_CFG),
               "--out", str(tmp_path / "res"), "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_worker_invariant_violation_reaches_caller(tmp_path, monkeypatch,
                                                   capsys):
    def violate(cfg):
        raise InvariantViolation(f"rx > tx in seed {cfg.seed}")

    monkeypatch.setattr(ncsim.engine, "run", violate)
    path = cfg_file(tmp_path, JOBS_CFGS["sweep"])
    with pytest.raises(InvariantViolation, match="rx > tx in seed"):
        run_sweep(parse_config(path), jobs=2)
    rc = main(["sweep", "--config", path, "--out", str(tmp_path / "res"),
               "--jobs", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: rx > tx in seed")
