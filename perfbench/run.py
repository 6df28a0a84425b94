"""ncsim benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contention_n100 --seed 0 \\
        --seconds 30 --trace 0

The run writes the workload's experiment files under ``.perfbench/`` from
``--seed`` and does the workload's set-up once in-process (untimed).  An
untimed warm-up operation at REFERENCE_SEED must reproduce the digests in
``reference.json``.  Then the timed operation (simulate + aggregate +
write outputs) repeats at ``--seed`` for ``--seconds``;
every operation's outputs are checked, must agree with each other, and
must match ``reference.json`` where it has the seed.  Set-up time is
measured separately, in fresh interpreters.

Times are reported at reference host speed (see ``hostspeed.py``): a
host-speed sampler runs in every process of an operation and of a set-up
probe, and each measured duration is scaled by the speed it saw.  The raw
host seconds are reported with the per-layer metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the per-layer shims of ``tracing.py``
installed, checks that both halves wrote identical bytes, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  All times are host time, never simulated time.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
REFERENCE_SEED = 0
SETUP_LAYERS = ("systems.make_preset.", "aoi.optimize_adra.")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class Case:
    """A workload's experiment files at one seed, set up and ready to run,
    with the digests its outputs must have."""

    def __init__(self, workloads, name: str, seed: int, work_dir: str,
                 reference: dict):
        self.seed = seed
        self.configs = workloads.write_configs(name, seed, work_dir)
        self.out_dir = os.path.join(work_dir, "out")
        self.specs, _ = workloads.set_up(self.configs)
        self.expected = reference.get(name, {}).get(str(seed))
        self.digests = None


class Bench:
    """One workload: runs operations, checks them and tallies failures.

    ``case`` is the workload at ``--seed``, the one measured.  ``reference``
    is the workload at REFERENCE_SEED; its one operation doubles as the
    untimed warm-up, so every run checks outputs against reference.json.
    """

    def __init__(self, workloads, name: str, seed: int):
        self.wl = workloads
        self.name = name
        self.work_dir = os.path.join(WORK, name)
        reference = workloads.load_reference(
            os.path.join(HERE, "reference.json"))
        self.case = Case(workloads, name, seed, self.work_dir, reference)
        self.reference = Case(workloads, name, REFERENCE_SEED,
                              os.path.join(self.work_dir, "reference"),
                              reference)
        if self.reference.expected is None:
            raise SystemExit(f"reference.json has no {name} at seed "
                             f"{REFERENCE_SEED}")
        self.specs = self.case.specs
        self.jobs = workloads.jobs(self.specs)
        self.loop_steps = workloads.loop_steps(self.specs)
        self.attempted = 0
        self.failed = 0
        self.sampler = hostspeed.Sampler(os.path.join(self.work_dir, "spool"))

    def _fail(self, case: Case, what: str):
        self.failed += 1
        print(f"FAILED [{self.name} seed {case.seed}]: {what}",
              file=sys.stderr)

    def warm_up(self):
        """Untimed: lazy imports and first-call costs, plus the reference
        check."""
        self.operate(case=self.reference)

    def operate(self, tracer=None, case=None) -> dict:
        """One timed operation plus its output checks."""
        case = case or self.case
        shutil.rmtree(case.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        self.attempted += 1
        cpu0 = _children_cpu()
        self.sampler.start()
        t0 = time.perf_counter()
        try:
            produced = self.wl.operate(case.specs, case.configs,
                                       case.out_dir)
        except Exception:  # noqa: BLE001 - an exception is a failed operation
            produced = traceback.format_exc()
        host_wall = time.perf_counter() - t0
        speed = self.sampler.stop()
        sample = {"host_wall": host_wall, "speed": speed,
                  "wall": host_wall * speed,
                  "child_cpu": _children_cpu() - cpu0}
        if isinstance(produced, str):
            problems = [produced]
        else:
            try:
                problems = self._problems(case, produced, tracer, sample)
            except Exception:  # noqa: BLE001
                problems = [traceback.format_exc()]
        for p in problems:
            self._fail(case, p)
        sample["ok"] = not problems
        return sample

    def _problems(self, case, produced, tracer, sample) -> list[str]:
        problems = self.wl.check(case.specs, produced, case.out_dir)
        digests = self.wl.digests(case.specs, produced, case.out_dir)
        if case.digests is None:
            case.digests = digests
            if case.expected is not None and digests != case.expected:
                problems.append(f"outputs differ from reference.json: "
                                f"{digests} != {case.expected}")
        elif digests != case.digests:
            problems.append("outputs differ between operations of one run")
        if tracer is not None:
            sample["layers"] = _at_reference_speed(tracer.snapshot(),
                                                   sample["speed"])
            problems += self._check_trace(sample["layers"])
        sample["theory_rel_err_max"] = self.wl.theory_rel_err_max(
            case.specs, case.out_dir)
        sample["csv_bytes"] = self.wl.csv_bytes(case.out_dir)
        return problems

    def _check_trace(self, layers) -> list[str]:
        # Runs in --jobs workers are invisible to the shims, so only a
        # serial workload must account for every configured loop-step.
        steps = layers["engine.loop_steps"]
        if steps > self.loop_steps or (self.jobs == 1
                                       and steps != self.loop_steps):
            return [f"traced loop-steps {steps}, configured "
                    f"{self.loop_steps}"]
        return []

    def repeat(self, seconds: float, tracer=None) -> list[dict]:
        """Operations for ``seconds``: at least one, and none that the
        mean operation so far says would end past the deadline."""
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(self.operate(tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(samples) + 1) / len(samples) > seconds:
                return samples

    def probe_setup(self, trace: bool) -> list[dict]:
        """Set-up timed from a fresh interpreter to ready, several times."""
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               *self.case.configs] + (["--trace"] if trace else [])
        probes = []
        for _ in range(SETUP_PROBES):
            self.attempted += 1
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                  text=True) as proc:
                line = proc.stdout.readline()
                ready = time.perf_counter() - t0
                rest = proc.stdout.read()
                status = proc.wait(timeout=120)
            if status != 0 or not line:
                self._fail(self.case,
                           f"set-up probe exited {status}: {line}{rest}")
                continue
            probe = json.loads(line)
            speed = probe["speed"]
            probe["setup_s"] = ready * speed
            probe["parts"] = {k: v * speed for k, v in probe["parts"].items()}
            probe["layers"] = _at_reference_speed(probe["layers"], speed)
            probes.append(probe)
        if not probes:
            raise SystemExit("every set-up probe failed")
        return probes


def _at_reference_speed(layers: dict, speed: float) -> dict:
    return {k: v * speed if _unit(k) == "s" else v
            for k, v in layers.items()}


def _unit(key: str) -> str:
    return ("s" if key.endswith(("_s", ".s")) else
            "ratio" if key.endswith("ratio") else "count")


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.warm_up()
    samples = bench.repeat(seconds)
    peak = _maxrss_mib(resource.RUSAGE_SELF)
    # Read before the set-up probes start, so only workers count here.
    peak += _maxrss_mib(resource.RUSAGE_CHILDREN)
    probes = bench.probe_setup(trace=False)
    ok = [s for s in samples if s["ok"]]
    if ok and ok[0]["theory_rel_err_max"]:
        print(f"aoi.theory_rel_err_max {ok[0]['theory_rel_err_max']!r} "
              "(reported per layer with --trace 1)")
    print(f"host: median {_median(samples, 'host_wall'):.4f} s per operation "
          f"at speed factor {_median(samples, 'speed'):.3f} "
          f"({len(samples)} operations)")
    return {
        "wall_s": (_median(samples, "wall"), "s"),
        "loop_steps_per_s": (statistics.median(
            bench.loop_steps / s["wall"] for s in samples), "1/s"),
        "setup_s": (_median(probes, "setup_s"), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    import tracing

    bench.warm_up()
    plain = bench.repeat(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.repeat(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(bench.work_dir, "spans.jsonl")
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    probes = bench.probe_setup(trace=True)
    traced = [s for s in traced if s["ok"]]
    if not traced:
        raise SystemExit("no traced operation succeeded")
    out = {}
    for key in traced[0]["layers"]:
        unit = _unit(key)
        value = statistics.median(s["layers"][key] for s in traced)
        if key.startswith(SETUP_LAYERS):
            # Set-up runs once per workload pass; the probes traced it.
            value += statistics.median(p["layers"][key] for p in probes)
        out[key] = (value, unit)
    out["engine.pool.busy_frac"] = (statistics.median(
        s["child_cpu"] / (bench.jobs * s["host_wall"]) for s in traced),
        "ratio")
    for part in ("import", "parse", "make_preset", "optimize_adra"):
        out[f"setup.{part}_s"] = (statistics.median(
            p["parts"][part] for p in probes), "s")
    out["aoi.theory_rel_err_max"] = (
        _median(traced, "theory_rel_err_max"), "ratio")
    out["experiments.csv_bytes"] = (_median(traced, "csv_bytes"), "bytes")
    untraced_wall = _median(plain, "wall")
    traced_wall = _median(traced, "wall")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    out["host.wall_s"] = (_median(plain, "host_wall"), "s")
    out["host.speed"] = (_median(plain, "speed"), "ratio")
    print(f"tracing overhead: traced wall {traced_wall:.4f} s vs untraced "
          f"{untraced_wall:.4f} s ({traced_wall / untraced_wall - 1:+.1%}); "
          f"spans in {os.path.relpath(spans_path, ROOT)}")
    if bench.jobs > 1:
        print("note: replications run in --jobs worker processes are out of "
              "reach of the shims (engine, mac, channel and metrics read "
              "zero for them); take the worker-side layer split from the "
              "serial workloads")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncsim", "__init__.py")):
        print(f"perfbench: no ncsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    bench = Bench(workloads, args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(bench, args.seconds)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
