"""Why schedulers must normalize estimation error before comparing loops.

Prints the error-versus-age law for each loop class.  The cart-pole's
raw error is minuscule (its process noise is tiny) even though it is the
most fragile plant in the set: ranked by raw error against peers holding
one-period-fresh data it would not win a slot until its information is
54 periods stale.  Dividing by the one-period error puts all classes on
a common scale, and the pendulum's unstable dynamics then dominate
within a few periods.

    python demos/error_vs_age.py [--max-age 12]
"""
import argparse

import numpy as np

from ncsim.metrics import MseTable
from ncsim.systems import PRESET_CLASSES as CLASSES, make_preset


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-age", type=int, default=12)
    args = ap.parse_args()

    # One loop per class; row a - 1 holds every class's error at age a.
    table = MseTable([make_preset(c) for c in CLASSES])
    oldest = max(args.max_age, 499)
    ages = np.repeat(np.arange(1, oldest + 1)[:, None], len(CLASSES), 1)
    mse, nmse = table.mse_and_nmse(ages)

    for title, curves in (("raw error MSE(age):", mse),
                          ("\nnormalized error nMSE(age) = MSE(age) / MSE(1):",
                           nmse)):
        print(title)
        print(f"{'age':>4s}" + "".join(f"{c:>12s}" for c in CLASSES))
        for d in range(1, args.max_age + 1):
            print(f"{d:4d}" + "".join(f"{v:12.4g}" for v in curves[d - 1]))

    pendulum, easy = CLASSES.index("pendulum"), CLASSES.index("easy")
    cross = 1 + int((mse[:, pendulum] > mse[0, easy]).argmax())
    print(f"\nby raw error the pendulum first outranks even a fresh easy "
          f"loop at age {cross}; on the normalized scale it is comparable "
          f"with the scalar classes from the start (between easy and hard "
          f"at every age shown above)")


if __name__ == "__main__":
    main()
