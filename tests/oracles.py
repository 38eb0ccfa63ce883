"""Independent brute-force oracles.

Everything here recomputes orbit distances point by point through `compose`
and scans subsets with itertools, deliberately sharing no machinery with
the package's solvers (no bitsets, no subset DP, no greedy).
"""

import itertools
import math

from naifslab import compose, distance, eval_potential


def oracle_cylinder_distance(x, y):
    """2**-k at the first position k where two words differ over their
    common length; 0 when they agree there."""
    for k, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return 2.0 ** -k
    return 0.0


def oracle_bowen(cloud, schedule, w, n, x, y):
    return max(
        distance(cloud, compose(cloud, schedule, w, 1, j, x), compose(cloud, schedule, w, 1, j, y))
        for j in range(n + 1)
    )


def oracle_birkhoff(cloud, schedule, w, n, psi, x):
    return sum(eval_potential(psi, compose(cloud, schedule, w, w.start, j, x)) for j in range(n + 1))


def _bowen_table(cloud, schedule, w, n):
    pts = list(cloud.points)
    return {
        (a, b): oracle_bowen(cloud, schedule, w, n, a, b)
        for a, b in itertools.combinations(pts, 2)
    }


def oracle_max_separated(cloud, schedule, w, n, eps):
    pts = list(cloud.points)
    table = _bowen_table(cloud, schedule, w, n)
    best = 0
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(table[pair] > eps for pair in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def oracle_min_spanning(cloud, schedule, w, n, eps):
    pts = list(cloud.points)
    table = _bowen_table(cloud, schedule, w, n)

    def d(a, b):
        if a == b:
            return 0.0
        return table[(a, b)] if (a, b) in table else table[(b, a)]

    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(any(d(x, y) <= eps for y in sub) for x in pts):
                return r
    raise AssertionError("the full cloud always spans itself")


def oracle_partition_separated(cloud, schedule, w, n, psi, eps):
    """log of sup over separated subsets of sum exp(Birkhoff)."""
    pts = list(cloud.points)
    table = _bowen_table(cloud, schedule, w, n)
    weight = {x: math.exp(oracle_birkhoff(cloud, schedule, w, n, psi, x)) for x in pts}
    best = None
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(table[pair] > eps for pair in itertools.combinations(sub, 2)):
                val = sum(weight[x] for x in sub)
                if best is None or val > best:
                    best = val
    return math.log(best)


def oracle_partition_spanning(cloud, schedule, w, n, psi, eps):
    """log of inf over spanning subsets of sum exp(Birkhoff)."""
    pts = list(cloud.points)
    table = _bowen_table(cloud, schedule, w, n)
    weight = {x: math.exp(oracle_birkhoff(cloud, schedule, w, n, psi, x)) for x in pts}

    def d(a, b):
        if a == b:
            return 0.0
        return table[(a, b)] if (a, b) in table else table[(b, a)]

    best = None
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(any(d(x, y) <= eps for y in sub) for x in pts):
                val = sum(weight[x] for x in sub)
                if best is None or val < best:
                    best = val
    return math.log(best)


def oracle_sup_bowen(cloud, schedule, n, x, y):
    """d*_n by exhaustive enumeration over one prefix+cycle horizon."""
    from naifslab import generation_at

    horizon = len(schedule.prefix) + len(schedule.cycle)
    best = 0.0
    for start in range(1, horizon + 1):
        sizes = [len(generation_at(schedule, start + t)) for t in range(n)]
        for symbols in itertools.product(*(range(s) for s in sizes)):
            from naifslab import Word

            w = Word(start=start, symbols=symbols)
            for t in range(n + 1):
                a = compose(cloud, schedule, w, start, t, x)
                b = compose(cloud, schedule, w, start, t, y)
                best = max(best, distance(cloud, a, b))
    return best
