"""The benchmark's correctness gate, run as a test.

Every workload of ``perfbench/workloads.py`` must pass its own output
checks at seed 0 and write outputs whose digests are the ones recorded
in ``perfbench/reference.json``, and the per-layer tracer of
``perfbench/tracing.py`` must install over the program and leave it as
it found it.
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
