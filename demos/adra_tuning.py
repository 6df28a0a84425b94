"""Tuned (threshold, access probability) of the age-threshold policy per N.

Prints ``optimize_adra(N)`` for N = 3..n-max, with p in hex so that two
versions of the optimizer can be compared bit for bit by diffing the
output, and the wall time of each tuning.

    python demos/adra_tuning.py [--n-max 100]
"""
import argparse
import time

from ncsim.aoi import adra_mean_aoi, optimize_adra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=100)
    args = ap.parse_args()

    print(f"{'N':>4s} {'threshold':>9s} {'p (hex)':>22s} {'p':>10s} "
          f"{'mean age':>10s} {'seconds':>8s}")
    total = 0.0
    for n in range(3, args.n_max + 1):
        t0 = time.perf_counter()
        delta, p = optimize_adra(n)
        dt = time.perf_counter() - t0
        total += dt
        print(f"{n:4d} {delta:9d} {p.hex():>22s} {p:10.6f} "
              f"{adra_mean_aoi(n, delta, p):10.4f} {dt:8.4f}")
    print(f"total {total:.3f} s")


if __name__ == "__main__":
    main()
