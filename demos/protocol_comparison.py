"""Head-to-head scheduler comparison on the testbed-like channel.

Fifteen heterogeneous loops (cycling easy / mid / hard dynamics) share
one hop under four schedulers.  The interesting outcome: the freshest
network (lowest mean age, WiFresh-style polling) does NOT achieve the
lowest control cost — weighting the poll decision by each loop's
normalized estimation error does.  The delivery fractions show why:
age-fair policies split the medium evenly, error-aware ones skew it
toward the fast dynamics.

    python demos/protocol_comparison.py [--reps 5] [--n 15] [--seed 0]
"""
import argparse

from ncsim.engine import (SimConfig, run_replication_sets,
                          summarize_replications, systems_from_classes)
from ncsim.experiments import DEFAULT_COMPARISON_CHANNEL
from ncsim.mac import SchedulerPolicy

VARIANTS = ("round_robin", "mef", "wifresh", "pmef")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--n", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    systems = systems_from_classes(args.n)
    cfgs = [SimConfig(systems=systems,
                      policy=SchedulerPolicy(variant),
                      channel=DEFAULT_COMPARISON_CHANNEL, seed=args.seed)
            for variant in VARIANTS]
    rows = {cfg.policy.variant: summarize_replications(runs)["summary"]
            for cfg, runs in run_replication_sets(cfgs, args.reps,
                                                  jobs=args.jobs)}

    print(f"{'scheduler':>12s} {'mean age':>10s} {'mean nMSE':>10s} "
          f"{'LQG cost':>12s}   delivery share easy/mid/hard")
    for variant in VARIANTS:
        s = rows[variant]
        f = s["fractions"]
        print(f"{variant:>12s} {s['aoi_mean']['mean']:10.2f} "
              f"{s['nmse_mean']['mean']:10.2f} {s['lqg_mean']['mean']:12.1f}"
              f"   {f['easy']:.2f} / {f['mid']:.2f} / {f['hard']:.2f}")

    best_age = min(VARIANTS, key=lambda v: rows[v]["aoi_mean"]["mean"])
    best_lqg = min(VARIANTS, key=lambda v: rows[v]["lqg_mean"]["mean"])
    print(f"\nfreshest network: {best_age}; cheapest control: {best_lqg}"
          + ("  <- not the same scheduler!" if best_age != best_lqg else ""))


if __name__ == "__main__":
    main()
