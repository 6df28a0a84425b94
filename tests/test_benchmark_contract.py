"""The benchmark's correctness gate, run as a test.

Every workload of ``perfbench/workloads.py`` must pass its own output
checks at seed 0 and write outputs whose digests are the ones recorded
in ``perfbench/reference.json``, and the per-layer tracer of
``perfbench/tracing.py`` must install over the program, leave its
outputs and its count of loop-steps as ``perfbench/run.py --trace 1``
checks them, and leave the program as it found it.
"""
import concurrent.futures
import importlib.util
import json
import os

import pytest

import ncsim.aoi
import ncsim.cli
import ncsim.engine
import ncsim.experiments
import ncsim.mac
import ncsim.metrics

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks_with_reference_digests(tmp_path, name):
    paths = workloads.write_configs(name, 0, str(tmp_path))
    specs, _ = workloads.set_up(paths)
    out_dir = str(tmp_path / "out")
    produced = workloads.operate(specs, paths, out_dir)
    assert workloads.check(specs, produced, out_dir) == []
    assert workloads.digests(specs, produced, out_dir) == REFERENCE[name]["0"]


@pytest.mark.parametrize("name", ["scheduled_n1000", "contention_n100"])
def test_traced_workload_keeps_its_outputs_and_loop_steps(tmp_path, name):
    """What ``run.py --trace 1`` checks of a traced serial workload: with
    every shim in place its outputs pass their checks with the reference
    digests, and the tracer counts every loop-step its configs ask for.
    The polling rules stay visible to its per-layer metrics: the
    scheduled workload calls both through the names it wraps."""
    paths = workloads.write_configs(name, 0, str(tmp_path))
    specs, _ = workloads.set_up(paths)
    out_dir = str(tmp_path / "out")
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        produced = workloads.operate(specs, paths, out_dir)
        layers = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert workloads.check(specs, produced, out_dir) == []
    assert workloads.digests(specs, produced, out_dir) == REFERENCE[name]["0"]
    assert workloads.jobs(specs) == 1
    assert layers["engine.loop_steps"] == workloads.loop_steps(specs)
    if name == "scheduled_n1000":
        assert layers["mac.pmef_next.calls"] > 0
        assert layers["mac.wifresh_next.calls"] > 0


def test_traced_cli_jobs2_keeps_its_outputs(tmp_path):
    """``cli_jobs2`` under the installed tracer: its pool workers fork
    with the tracer's ``engine.run`` in place, which must hand validate's
    age-only runs their keyword on, and the outputs keep their reference
    digests.  Its loop-step count is not checked: the tracer counts one
    replication per batch."""
    paths = workloads.write_configs("cli_jobs2", 0, str(tmp_path))
    specs, _ = workloads.set_up(paths)
    out_dir = str(tmp_path / "out")
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        produced = workloads.operate(specs, paths, out_dir)
    finally:
        tracer.uninstall()
    assert workloads.check(specs, produced, out_dir) == []
    assert workloads.digests(specs, produced, out_dir) == \
        REFERENCE["cli_jobs2"]["0"]


def test_tracer_uninstall_restores_every_patched_attribute():
    concurrent.futures.ProcessPoolExecutor     # loaded on first access
    owners = [ncsim.aoi, ncsim.cli, ncsim.engine, ncsim.experiments,
              ncsim.mac, ncsim.metrics, ncsim.metrics.MseTable,
              ncsim.metrics.MetricsAccumulator, concurrent.futures]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        patched = [(owner, key) for owner, attrs in zip(owners, before)
                   for key, value in attrs.items()
                   if vars(owner).get(key) is not value]
        assert (ncsim.cli, "main") in patched
        assert (ncsim.metrics.MseTable, "__init__") in patched
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        now = vars(owner)
        assert {key for key in attrs if now.get(key) is not attrs[key]} \
            == set(), owner
