"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py CONFIG... [--trace]``.  Imports
ncsim, then does the set-up of :func:`workloads.set_up` (config parse,
gain synthesis, age-threshold tuning) and prints one JSON line the moment
it is ready to simulate: the seconds of each part, the host-speed factor
sampled meanwhile and, with ``--trace``, the per-layer counters of the
set-up calls.  The parent times the whole probe, interpreter start
included, up to that line.
"""
import json
import os
import sys
import time

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402

sampler = hostspeed.Sampler(os.path.join(
    os.path.dirname(os.path.abspath(sys.argv[1])), "spool-probe"))
sampler.start()

import ncsim  # noqa: E402,F401 - timed as the import part of set-up

t_imported = time.perf_counter()

import workloads  # noqa: E402


def main():
    configs = [a for a in sys.argv[1:] if a != "--trace"]
    tracer = None
    if "--trace" in sys.argv[1:]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    _, parts = workloads.set_up(configs)
    parts["import"] = t_imported - t_start
    layers = tracer.snapshot() if tracer is not None else {}
    speed = sampler.stop()
    print(json.dumps({"parts": parts, "layers": layers, "speed": speed}),
          flush=True)


if __name__ == "__main__":
    main()
