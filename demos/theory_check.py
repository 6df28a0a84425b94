"""Closed-form mean age versus simulation on the idealized channel.

Round-robin has an exact answer, slotted ALOHA a stationary formula, and
the age-threshold policy a fixed-point model whose optimized (threshold,
access probability) pair this script also prints.  Run it to see all
three agree with the event-driven simulator.

    python demos/theory_check.py [--reps 10] [--seed 0]
"""
import argparse

from ncsim.aoi import adra_mean_aoi, optimize_adra, rr_mean_aoi, sa_mean_aoi
from ncsim.channel import ChannelConfig
from ncsim.engine import SimConfig, run_replications, systems_from_classes
from ncsim.mac import SchedulerPolicy


def simulate(n, policy, reps, seed):
    systems = systems_from_classes(n)
    cfg = SimConfig(systems=systems, policy=policy,
                    channel=ChannelConfig(), seed=seed)
    out = run_replications(cfg, reps)
    return out["summary"]["aoi_mean"]["mean"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'policy':>16s} {'N':>3s} {'params':>22s} "
          f"{'simulated':>10s} {'theory':>10s} {'rel err':>8s}")

    for n in (2, 5, 10, 15):
        sim = simulate(n, SchedulerPolicy("round_robin"), args.reps, args.seed)
        th = rr_mean_aoi(n)
        print(f"{'round_robin':>16s} {n:3d} {'':>22s} "
              f"{sim:10.4f} {th:10.4f} {abs(sim - th) / th:8.2%}")

    for n in (3, 5, 7):
        p = 1.0 / n
        sim = simulate(n, SchedulerPolicy("slotted_aloha", p=p),
                       args.reps, args.seed)
        th = sa_mean_aoi(n, p)
        print(f"{'slotted_aloha':>16s} {n:3d} {f'p=1/{n}':>22s} "
              f"{sim:10.4f} {th:10.4f} {abs(sim - th) / th:8.2%}")

    for n in (3, 5, 7):
        delta, p = optimize_adra(n)
        sim = simulate(n, SchedulerPolicy("adra", p=p, threshold=delta),
                       args.reps, args.seed)
        th = adra_mean_aoi(n, delta, p)
        sa = sa_mean_aoi(n, 1.0 / n)
        print(f"{'adra':>16s} {n:3d} {f'delta={delta}, p={p:.3f}':>22s} "
              f"{sim:10.4f} {th:10.4f} {abs(sim - th) / th:8.2%}"
              f"   (plain slotted access: {sa:.2f})")


if __name__ == "__main__":
    main()
