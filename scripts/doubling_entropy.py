#!/usr/bin/env python3
"""Entropy of the circle doubling map from separated-point growth.

Sweeps grid resolutions and prints the per-n curve plus the three growth
proxies at each resolution; the classical value is log 2.
"""

import argparse
import math

from naifslab import (
    GenerationSchedule,
    MapSpec,
    Potential,
    SpaceSpec,
    build_cloud,
    pressure_estimate,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[1024, 2048, 4096])
    ap.add_argument("--eps", type=float, default=2.0**-5)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    schedule = GenerationSchedule(prefix=(), cycle=((MapSpec("doubling"),),))
    psi = Potential("constant", (0.0,))
    print(f"target: log 2 = {math.log(2):.6f}")
    for res in args.resolutions:
        cloud = build_cloud(SpaceSpec("circle_grid", res))
        curve = pressure_estimate(
            cloud, schedule, psi, range(1, args.n_max + 1), [args.eps], word_budget=64, seed=args.seed
        )
        print(f"\nresolution {res}, eps {args.eps:g}")
        for e in curve.entries:
            print(f"  n={e.n:2d} log_sum={e.log_average:9.4f} a_n={e.value:7.4f} saturated={e.saturated}")
        s = curve.per_eps[0]
        print(f"  tail_max={s.tail_max:.4f} ls_slope={s.ls_slope:.4f} max_step={s.max_step:.4f}")
        print(f"  estimate={curve.estimate:.6f} (error {abs(curve.estimate - math.log(2)) / math.log(2):.2%})")


if __name__ == "__main__":
    main()
