"""Closed-form mean age versus simulation on the idealized channel.

Round-robin has an exact answer, slotted ALOHA a stationary formula, and
the age-threshold policy a fixed-point model whose optimized (threshold,
access probability) pair this script also prints, next to plain slotted
access at p = 1/N.  The rows are those of ``ncsim validate``
(:func:`ncsim.experiments.validate_theory`) with the default protocols.

    python demos/theory_check.py [--reps 10] [--seed 0]
"""
import argparse

from ncsim.aoi import sa_mean_aoi
from ncsim.channel import ChannelConfig
from ncsim.experiments import THEORY, ExperimentSpec, validate_theory
from ncsim.mac import SchedulerPolicy


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = ExperimentSpec(
        scenario="validate", protocols=[SchedulerPolicy(v) for v in THEORY],
        channel=ChannelConfig(), seed=args.seed, replications=args.reps)
    print(f"{'policy':>16s} {'N':>3s} {'params':>22s} "
          f"{'simulated':>10s} {'theory':>10s} {'rel err':>8s}")
    for r in validate_theory(spec)["rows"]:
        n, p, delta = r["N"], r["params"]["p"], r["params"]["threshold"]
        params = ("" if p is None else f"p={p:.3f}" if delta is None
                  else f"delta={delta}, p={p:.3f}")
        line = (f"{r['protocol']:>16s} {n:3d} {params:>22s} "
                f"{r['simulated']:10.4f} {r['theory']:10.4f} "
                f"{r['rel_err']:8.2%}")
        if r["protocol"] == "adra":
            line += f"   (plain slotted access: {sa_mean_aoi(n, 1.0 / n):.2f})"
        print(line)


if __name__ == "__main__":
    main()
