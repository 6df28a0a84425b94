"""Record the output digests that ``run.py`` checks, into reference.json.

Usage (from the repository root, on a commit whose outputs are trusted)::

    python3 perfbench/record_reference.py 0 1 2 3 4 5 6 7 8 9

Runs one operation of every workload at each given seed and writes the
SHA-256 of each output file (and of the in-process workloads' returned
network metrics).  Outputs must stay bit-for-bit identical across
refactors, so the file changes only when the program's results are meant
to change.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(seeds):
    table = {}
    for name in workloads.NAMES:
        for seed in seeds:
            work = os.path.join(ROOT, ".perfbench", "reference", name)
            out_dir = os.path.join(work, "out")
            shutil.rmtree(out_dir, ignore_errors=True)
            configs = workloads.write_configs(name, seed, work)
            specs, _ = workloads.set_up(configs)
            produced = workloads.operate(specs, configs, out_dir)
            problems = workloads.check(specs, produced, out_dir)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            table.setdefault(name, {})[str(seed)] = workloads.digests(
                specs, produced, out_dir)
            print(name, seed, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0])
