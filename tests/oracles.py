"""Independent brute-force oracles.

The package holds a cloud as one numpy batch; the oracles work on Python
point values.  `cloud_points` lists a space's points the way the package
once stored them (itertools.product words, k/n grid reals, point ids),
and `pack_points` packs such a list into the batch the package should
build, so the cloud construction is checked against code it does not
share.  `points_of` reads a cloud's points off its batch (sub-clouds built
by tests included), `canonical_key` makes a point hashable, and
`eval_potential` and `compose` are the per-point references for the
package's batch potentials and orbits.

Everything else recomputes orbit distances point by point through
`compose` and scans subsets with itertools, deliberately sharing no
machinery with the package's solvers (no bitsets, no subset DP).  Five
references are the exceptions: reference_bb_cover, a plain bitset search,
reference_greedy_cover, the ratio greedy as one numpy pass per pick,
reference_exhaustive, the subset DP with weights and feasibility in one
pass, reference_first_fit, first fit over an alive array with every row
read in full, step by step, and reference_word_orbits, one orbit and one
Birkhoff vector per word.  They hold the package's heap greedy, its
cached subset enumeration, its windowed first fit and its word batches
to the same results, bit for bit, and its component-wise ball-cover
search to the same least weight.
"""

import itertools
import math

import numpy as np

from naifslab import distance
from naifslab.naifs import apply_factor_batch, apply_map, generation_at
from naifslab.space import CIRCLE, FINITE, INTERVAL, SYMBOLIC, batch_to_points, pairwise_distances, points_to_batch


def cloud_points(spec):
    """The points of a space in cloud order: k/(N-1) on the interval, k/N
    on the circle, words in lexicographic order, point ids otherwise."""
    n = spec.resolution
    if spec.family == INTERVAL:
        return [k / (n - 1) for k in range(n)]
    if spec.family == CIRCLE:
        return [k / n for k in range(n)]
    if spec.family == SYMBOLIC:
        return list(itertools.product(range(spec.alphabet_size), repeat=n))
    return list(range(n))


def pack_points(spec, points):
    """Points as the batch of their space: reals as float64, point ids as
    intp, words as rows of the smallest signed integer type that holds
    the alphabet."""
    if spec.family == SYMBOLIC:
        dtype = next(t for t in (np.int8, np.int16, np.int64) if spec.alphabet_size - 1 <= np.iinfo(t).max)
        return np.array(points, dtype=dtype)
    if spec.family == FINITE:
        return np.array(points, dtype=np.intp)
    return np.array(points, dtype=np.float64)


def points_of(cloud):
    """A cloud's points as Python values, read off its batch."""
    return batch_to_points(cloud.space, cloud.batch)


def canonical_key(space, point):
    """A hashable key that equal points share."""
    if space.family == SYMBOLIC:
        return tuple(int(s) for s in point)
    if space.family == FINITE:
        return int(point)
    return float(point)


def eval_potential(psi, x):
    """The potential at a single point."""
    if psi.kind == "constant":
        return psi.params[0]
    if psi.kind == "coordinate_affine":
        a, b = psi.params
        return a * float(x) + b
    if psi.kind == "piecewise_linear":
        vals = np.asarray(psi.params, dtype=float)
        knots = np.linspace(0.0, 1.0, len(vals))
        return float(np.interp(float(x), knots, vals))
    if psi.kind == "first_symbol_table":
        if len(x) == 0:
            raise ValueError("first_symbol_table is undefined on the empty word")
        return psi.params[int(x[0])]
    if not isinstance(x, (int, np.integer)):
        raise ValueError(f"explicit_table indexes finite_explicit point ids, got {type(x).__name__}")
    xi = int(x)
    if not 0 <= xi < len(psi.params):
        raise KeyError(f"explicit_table has no entry for point id {xi}")
    return float(psi.params[xi])


def compose(cloud, schedule, w, i, k, x):
    """Pointwise f_w^{i,k}(x) (k = 0 is the identity)."""
    if k < 0:
        raise ValueError("composition length k must be >= 0")
    if i < w.start or i + k > w.start + len(w):
        raise ValueError(f"word too short for composition (i={i}, k={k}, start={w.start}, |w|={len(w)})")
    space = cloud.space
    batch = points_to_batch(space, [x])
    for g in range(i, i + k):
        sym = w.symbols[g - w.start]
        gen = generation_at(schedule, g)
        if sym >= len(gen):
            raise ValueError(f"word symbol {sym} outside index set of generation {g}")
        batch = apply_map(space, gen[sym], batch)
    return batch_to_points(space, batch)[0]


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
    pts = points_of(cloud)
    return {
        (a, b): oracle_bowen(cloud, schedule, w, n, a, b)
        for a, b in itertools.combinations(pts, 2)
    }


def oracle_max_separated(cloud, schedule, w, n, eps):
    pts = points_of(cloud)
    table = _bowen_table(cloud, schedule, w, n)
    best = 0
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(table[pair] > eps for pair in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def oracle_min_spanning(cloud, schedule, w, n, eps):
    pts = points_of(cloud)
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
    return oracle_weighted_sum(cloud, schedule, w, n, _birkhoff_of(cloud, schedule, w, n, psi), eps, "separated")


def oracle_partition_spanning(cloud, schedule, w, n, psi, eps):
    """log of inf over spanning subsets of sum exp(Birkhoff)."""
    return oracle_weighted_sum(cloud, schedule, w, n, _birkhoff_of(cloud, schedule, w, n, psi), eps, "spanning")


def _birkhoff_of(cloud, schedule, w, n, psi):
    return {x: oracle_birkhoff(cloud, schedule, w, n, psi, x) for x in points_of(cloud)}


def oracle_weighted_sum(cloud, schedule, w, n, S, eps, kind):
    """log of sup over separated subsets (kind "separated") or inf over
    spanning subsets ("spanning") of sum exp(S[x]), S a dict from the
    cloud's points to their weights in log space."""
    pts = points_of(cloud)
    table = _bowen_table(cloud, schedule, w, n)
    weight = {x: math.exp(S[x]) for x in pts}

    def d(a, b):
        if a == b:
            return 0.0
        return table[(a, b)] if (a, b) in table else table[(b, a)]

    def feasible(sub):
        if kind == "separated":
            return all(table[pair] > eps for pair in itertools.combinations(sub, 2))
        return all(any(d(x, y) <= eps for y in sub) for x in pts)

    best = None
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if feasible(sub):
                val = sum(weight[x] for x in sub)
                if best is None or (val > best if kind == "separated" else val < best):
                    best = val
    return math.log(best)


def oracle_sup_bowen(cloud, schedule, n, x, y):
    """d*_n by exhaustive enumeration over one prefix+cycle horizon."""
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


def oracle_reachable_points(cloud, schedule, steps):
    """Cloud points plus everything reachable in <= steps, by a breadth-first
    search over point tuples keyed by canonical_key: each step's frontier is
    deduplicated within the step only, so a revisited point is still
    expanded by the later generations."""
    space = cloud.space
    seen = {}
    frontier = []
    for p in points_of(cloud):
        if canonical_key(space, p) not in seen:
            seen[canonical_key(space, p)] = p
            frontier.append(p)
    for j in range(1, steps + 1):
        step_seen = {}
        groups = {}
        for p in frontier:
            groups.setdefault(len(p) if space.family == SYMBOLIC else 0, []).append(p)
        for length in sorted(groups):
            batch = points_to_batch(space, groups[length])
            for m in generation_at(schedule, j):
                for p in batch_to_points(space, apply_map(space, m, batch)):
                    key = canonical_key(space, p)
                    if key not in step_seen:
                        step_seen[key] = p
                        seen.setdefault(key, p)
        frontier = list(step_seen.values())
    return list(seen.values())


def oracle_pullback_table(factor, phi_on_target, n_max):
    """phi o pi tabulated point by point over oracle_reachable_points."""
    from naifslab.space import eval_potential_batch

    space = factor.source.cloud.space
    table = {}
    groups = {}
    for p in oracle_reachable_points(factor.source.cloud, factor.source.schedule, n_max):
        groups.setdefault(len(p) if space.family == SYMBOLIC else 0, []).append(p)
    for pts in groups.values():
        images = apply_factor_batch(factor, points_to_batch(space, pts))
        values = eval_potential_batch(factor.target.cloud.space, phi_on_target, images)
        for p, v in zip(pts, values):
            table[canonical_key(space, p)] = float(v)
    return table


def oracle_derived_birkhoff(ctx, schedule, n, phi, psi, p, c):
    """The Birkhoff vectors of check_basic_properties' derived potentials by
    the table path: phi and psi evaluated point by point over
    oracle_reachable_points, each derived potential tabulated by
    canonical_key and looked up row by row along ctx's orbits."""
    from naifslab.pressure import _birkhoff_vector
    from naifslab.space import Potential

    space = ctx.cloud.space
    reach = oracle_reachable_points(ctx.cloud, schedule, n)
    f = np.array([eval_potential(phi, pt) for pt in reach])
    g = np.array([eval_potential(psi, pt) for pt in reach])
    values = {
        "phi": f, "psi": g, "dominating": np.maximum(f, g), "mix": p * f + (1.0 - p) * g, "phi_plus_c": f + c,
        "c_phi": c * f, "phi_plus_psi": f + g, "abs_phi": np.abs(f), "neg_abs_phi": -np.abs(f),
    }
    keys = [[canonical_key(space, pt) for pt in batch_to_points(space, B)] for B in ctx.batches]
    out = {}
    for name, vals in values.items():
        table = {canonical_key(space, pt): float(v) for pt, v in zip(reach, vals)}
        S = np.zeros(ctx.n_points)
        for step in keys:
            S += np.array([table[k] for k in step])
        out[name] = S
    out["zero"] = _birkhoff_vector(ctx, Potential("constant", (0.0,)))
    return out


def per_element_cover_bound(balls, w, uncov):
    """Reference for pressure._cover_lower_bound, one minimum per element:
    each uncovered element takes the least w_i / |ball_i & uncov| over
    the balls that hold it."""
    n = len(balls)
    covers_elem = [[i for i in range(n) if (balls[i] >> e) & 1] for e in range(n)]
    total = 0.0
    for e in range(n):
        if (uncov >> e) & 1:
            total += min(w[i] / (balls[i] & uncov).bit_count() for i in covers_elem[e])
    return total


def reference_bb_cover(balls, wlin):
    """The minimum weighted ball cover by the plain branch and bound that
    pressure._bb_cover runs on each component of its ball graph (the
    search of one component), here over the whole instance: a greedy
    incumbent that rescans every ball per pick, the per-element bound at
    every node, and every child of a node entered.  Its value is the sum
    of the path that found the witness, so a test compares the math.fsum
    of its witness's weights with the package's value."""
    n = len(wlin)
    w = [float(v) for v in wlin]
    full = (1 << n) - 1

    uncov, chosen, cost = full, 0, 0.0
    while uncov:
        best_i, best_ratio = -1, math.inf
        for i in range(n):
            newly = (balls[i] & uncov).bit_count()
            if newly and w[i] / newly < best_ratio:
                best_ratio, best_i = w[i] / newly, i
        chosen |= 1 << best_i
        cost += w[best_i]
        uncov &= ~balls[best_i]
    best = [chosen, cost]

    by_weight = sorted(range(n), key=lambda i: (w[i], i))
    covers_elem = [[i for i in by_weight if (balls[i] >> e) & 1] for e in range(n)]
    elem_order = sorted(range(n), key=lambda e: (len(covers_elem[e]), e))

    def dfs(uncov_mask, chosen_mask, cur):
        if uncov_mask == 0:
            if cur < best[1]:
                best[:] = [chosen_mask, cur]
            return
        if cur + per_element_cover_bound(balls, w, uncov_mask) >= best[1]:
            return
        e = next(e for e in elem_order if (uncov_mask >> e) & 1)
        for i in covers_elem[e]:
            dfs(uncov_mask & ~balls[i], chosen_mask | (1 << i), cur + w[i])

    dfs(full, 0, 0.0)
    return best[0], best[1]


def reference_greedy_cover(matrix, eps, wlin):
    """The ratio greedy cover that pressure._greedy_cover_bits speeds up:
    each pick rescans every ball of matrix <= eps for the least
    w_i / |ball_i & uncovered|, lowest index on ties.  Returns the picks in
    order."""
    ball = matrix <= eps
    n = len(ball)
    uncov = np.ones(n, dtype=bool)
    chosen = []
    while uncov.any():
        newly = (ball & uncov[None, :]).sum(axis=1)
        with np.errstate(divide="ignore"):
            ratio = np.where(newly > 0, wlin / np.maximum(newly, 1), math.inf)
        i = int(np.argmin(ratio))
        chosen.append(i)
        uncov &= ~ball[i]
    return chosen


def reference_bowen_row(ctx, c, js):
    """Bowen distances of an orbit from point c to the points js, one step
    at a time through space.pairwise_distances: no window, no stacked
    forms, no matrix."""
    d = np.zeros(len(js))
    for B in ctx.batches:
        d = np.maximum(d, pairwise_distances(ctx.cloud, B[[c]], B[js])[0])
    return d


def reference_first_fit(ctx, eps, order):
    """First fit over an alive array, the picks in order: the first alive
    candidate is accepted, and every alive point within eps of it (itself
    included) dies, read off a full row."""
    alive = np.asarray(order, dtype=np.intp)
    accepted = []
    while alive.size:
        c = int(alive[0])
        accepted.append(c)
        alive = alive[reference_bowen_row(ctx, c, alive) > eps]
    return accepted


def reference_exhaustive(balls, wlin, kind):
    """The subset DP that pressure._feasible_subsets and _subset_sums split
    in two: feasibility and weights in one pass, bits high to low, one
    index array per bit.  Returns the heaviest independent subset ("separated")
    or the lightest cover ("spanning"), lowest index on ties, and its weight."""
    n = len(wlin)
    size = 1 << n
    ok = np.ones(size, dtype=bool)
    cov = np.zeros(size, dtype=np.int64)
    wsum = np.zeros(size)
    for b in reversed(range(n)):
        base = np.arange(0, size, 1 << (b + 1), dtype=np.int64)
        s = base + (1 << b)
        ok[s] = ok[base] & (((balls[b] & ~(1 << b)) & base) == 0)
        cov[s] = cov[base] | balls[b]
        wsum[s] = wsum[base] + wlin[b]
    if kind == "separated":
        feas = np.flatnonzero(ok)
        best = int(feas[np.argmax(wsum[feas])])
    else:
        feas = np.flatnonzero(cov == size - 1)
        best = int(feas[np.argmin(wsum[feas])])
    return best, float(wsum[best])


def reference_word_orbits(cloud, schedule, words, n, kind, eps_list, terms, strides=(1,), mode="auto"):
    """The per-word loop that pressure.batched_word_orbits replaces, with
    its signature: each word's orbit built alone (orbit_batches of one
    word), every k-th step of it an orbit of its own, and its Birkhoff
    vector summed one step at a time.  Each orbit builds its eps-balls
    itself, one eps at a time as a solve asks for them, so kind, eps_list
    and mode are not read."""
    import functools

    from naifslab.naifs import orbit_batches
    from naifslab.pressure import _BowenOrbit

    for w in words:
        [steps] = orbit_batches(cloud.space, schedule, [w], n, cloud.batch)
        yield tuple(
            (ctx, functools.reduce(np.add, (terms(B) for B in ctx.batches), 0.0))
            for ctx in (_BowenOrbit(cloud, steps[::k]) for k in strides)
        )


def oracle_surjective(factor):
    """Whether every target cloud point has a preimage in the source cloud,
    point by point: an equal image (keys compared), or for
    binary_expansion an image within fiber_tol on the circle."""
    src, tgt = factor.source.cloud, factor.target.cloud
    images = [batch_to_points(tgt.space, apply_factor_batch(factor, points_to_batch(src.space, [x])))[0] for x in points_of(src)]
    if factor.kind == "binary_expansion":

        def arc(x, y):
            t = abs(x % 1.0 - y % 1.0)
            return min(t, 1.0 - t)

        return all(min(arc(p, y) for p in images) <= factor.fiber_tol + 1e-15 for y in points_of(tgt))
    hit = {canonical_key(tgt.space, p) for p in images}
    return all(canonical_key(tgt.space, y) in hit for y in points_of(tgt))
