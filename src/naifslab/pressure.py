"""Extremal separated/spanning sets, partition sums, and pressure curves.

The combinatorial core: a maximal separated set is a maximum independent
set of the proximity graph under a Bowen metric, a minimal spanning set is
a minimum ball cover, and the partition sums are their weighted versions
with vertex weights exp(Birkhoff sum).  Exact solvers run up to fixed
size thresholds (subset enumeration to 20 points, bitset branch and bound
to 64); beyond that deterministic greedy bounds take over and every result
self-reports its method and exactness.

All sums of exponentials are accumulated in log space with max shifting.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .naifs import (
    GenerationSchedule,
    Word,
    enumerate_words,
    orbit_batches,
    sup_orbit_batches,
)
from .space import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    PointCloud,
    Potential,
    cylinder_distance,
    eval_potential_batch,
    pack_words,
    pairwise_distances,
    points_to_batch,
)

log = logging.getLogger("naifslab.pressure")

EXHAUSTIVE_LIMIT = 20
BRANCH_AND_BOUND_LIMIT = 64
MATRIX_LIMIT = 4500
SUBSET_METRIC_LIMIT = 2000
_GREEDY_COVER_LIMIT = 1500
_RECHECK_ROW_CAP = 512

MODES = ("auto", "exhaustive", "branch_and_bound", "greedy")
KINDS = ("separated", "spanning")


def _logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    m = float(values.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


# ---------------------------------------------------------------------------
# orbit contexts


class _BowenOrbit:
    """Orbits of the whole cloud along one word; Bowen distance queries.

    The distance is the running max of the base distance over a list of
    step batches; _sup_orbit builds the longer list of the sup metric.
    """

    def __init__(self, cloud: PointCloud, schedule: GenerationSchedule, word: Word, n: int):
        if word.start != 1:
            raise ValueError("partition sums run over words rooted at start 1; re-root the word")
        if n > len(word):
            raise ValueError(f"n={n} exceeds word length {len(word)}")
        self._set_steps(cloud, orbit_batches(cloud.space, schedule, word, n, cloud.batch()))

    def _set_steps(self, cloud: PointCloud, batches: list[np.ndarray]) -> None:
        self.cloud = cloud
        self.batches = batches
        self.n_points = len(batches[0])
        self.codes = None
        if cloud.space.family == SYMBOLIC:
            m = cloud.space.alphabet_size
            self.codes = [(pack_words(B, m), B.shape[1]) for B in batches]
        self._matrix: np.ndarray | None = None

    def matrix_available(self) -> bool:
        return self.n_points <= MATRIX_LIMIT

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if not self.matrix_available():
                raise ValueError(f"cloud of {self.n_points} points exceeds the matrix limit {MATRIX_LIMIT}")
            n = self.n_points
            m = np.zeros((n, n))
            fam = self.cloud.space.family
            if self.codes is not None:
                alphabet = self.cloud.space.alphabet_size
                for codes, depth in self.codes:
                    np.maximum(m, cylinder_distance(codes[:, :, None], codes[:, None, :], depth, alphabet), out=m)
            elif fam in (INTERVAL, CIRCLE):
                # reused buffers: fresh page-zeroed allocations dominate the
                # runtime on grid-sized clouds otherwise
                d = np.empty((n, n))
                tmp = np.empty((n, n)) if fam == CIRCLE else None
                for B in self.batches:
                    np.subtract(B[:, None], B[None, :], out=d)
                    np.abs(d, out=d)
                    if fam == CIRCLE:
                        np.subtract(1.0, d, out=tmp)
                        np.minimum(d, tmp, out=d)
                    np.maximum(m, d, out=m)
            else:
                for B in self.batches:
                    np.maximum(m, pairwise_distances(self.cloud, B, B), out=m)
            self._matrix = m
        return self._matrix

    def row(self, i: int, js: np.ndarray) -> np.ndarray:
        js = np.asarray(js, dtype=np.intp)
        acc = np.zeros(len(js))
        if self.codes is not None:
            alphabet = self.cloud.space.alphabet_size
            for codes, depth in self.codes:
                np.maximum(acc, cylinder_distance(codes[:, i : i + 1], codes[:, js], depth, alphabet), out=acc)
            return acc
        for B in self.batches:
            np.maximum(acc, pairwise_distances(self.cloud, B[[i]], B[js])[0], out=acc)
        return acc


def _sup_orbit(cloud: PointCloud, schedule: GenerationSchedule, n: int, indices: Sequence[int], word_cap: int = 200_000) -> _BowenOrbit:
    """Orbits of a point subset under every start index and word of length n;
    their distance is the sup metric d*_n."""
    if len(indices) > SUBSET_METRIC_LIMIT:
        raise ValueError(f"sup-metric subset of {len(indices)} points exceeds the limit {SUBSET_METRIC_LIMIT}")
    sub = cloud.batch()[np.asarray(indices, dtype=np.intp)]
    orbit = _BowenOrbit.__new__(_BowenOrbit)
    orbit._set_steps(cloud, sup_orbit_batches(cloud.space, schedule, n, sub, word_cap))
    return orbit


# ---------------------------------------------------------------------------
# exact solvers


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _conflict_masks(matrix: np.ndarray, eps: float) -> list[int]:
    """Bit masks of the eps-neighbours of each point, itself excluded; the
    closed eps-ball of point i is its mask with bit i set."""
    adj = matrix <= eps
    np.fill_diagonal(adj, False)
    return [int(sum(1 << int(j) for j in np.flatnonzero(adj[i]))) for i in range(len(adj))]


def _exhaustive_mwis(conflict: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Scan all subsets; DP marks independence and accumulates weights.

    Bits run high to low so that a subset's tail (its value without the
    lowest set bit, which has only higher bits) is final before use.
    """
    n = len(wlin)
    size = 1 << n
    indep = np.ones(size, dtype=bool)
    wsum = np.zeros(size)
    for b in reversed(range(n)):
        base = np.arange(0, size, 1 << (b + 1), dtype=np.int64)
        s = base + (1 << b)
        indep[s] = indep[base] & ((conflict[b] & base) == 0)
        wsum[s] = wsum[base] + wlin[b]
    feas = np.flatnonzero(indep)
    best = int(feas[np.argmax(wsum[feas])])
    return best, float(wsum[best])


def _exhaustive_cover(balls: list[int], wlin: np.ndarray) -> tuple[int, float]:
    n = len(wlin)
    size = 1 << n
    cov = np.zeros(size, dtype=np.int64)
    wsum = np.zeros(size)
    for b in reversed(range(n)):
        base = np.arange(0, size, 1 << (b + 1), dtype=np.int64)
        s = base + (1 << b)
        cov[s] = cov[base] | balls[b]
        wsum[s] = wsum[base] + wlin[b]
    full = size - 1
    feas = np.flatnonzero(cov == full)
    best = int(feas[np.argmin(wsum[feas])])
    return best, float(wsum[best])


def _bb_mwis(conflict: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Bitset branch and bound with a greedy clique-cover bound."""
    n = len(wlin)
    cliques: list[int] = []
    clique_of = [0] * n
    for v in range(n):
        for ci, members in enumerate(cliques):
            if conflict[v] & members == members:
                cliques[ci] = members | (1 << v)
                clique_of[v] = ci
                break
        else:
            clique_of[v] = len(cliques)
            cliques.append(1 << v)

    order = sorted(range(n), key=lambda i: (-wlin[i], i))
    inc_mask = 0
    blocked = 0
    for v in order:
        if not (blocked >> v) & 1:
            inc_mask |= 1 << v
            blocked |= (1 << v) | conflict[v]
    best_mask = inc_mask
    best_val = float(sum(wlin[i] for i in _bits(inc_mask)))

    def bound(mask: int) -> float:
        per: dict[int, float] = {}
        mm = mask
        while mm:
            lsb = mm & -mm
            v = lsb.bit_length() - 1
            mm ^= lsb
            c = clique_of[v]
            if wlin[v] > per.get(c, 0.0):
                per[c] = wlin[v]
        return sum(per.values())

    def dfs(mask: int, chosen: int, cur: float) -> None:
        nonlocal best_mask, best_val
        if cur > best_val:
            best_val = cur
            best_mask = chosen
        if mask == 0 or cur + bound(mask) <= best_val:
            return
        v, wv = -1, -1.0
        mm = mask
        while mm:
            lsb = mm & -mm
            u = lsb.bit_length() - 1
            mm ^= lsb
            if wlin[u] > wv:
                wv = wlin[u]
                v = u
        dfs(mask & ~(conflict[v] | (1 << v)), chosen | (1 << v), cur + wlin[v])
        dfs(mask & ~(1 << v), chosen, cur)

    dfs((1 << n) - 1, 0, 0.0)
    return best_mask, best_val


def _bb_cover(balls: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Branch and bound minimum weighted ball cover."""
    n = len(wlin)
    full = (1 << n) - 1
    counts = [b.bit_count() for b in balls]

    uncov = full
    chosen = 0
    cost = 0.0
    while uncov:
        best_i, best_ratio = -1, math.inf
        for i in range(n):
            newly = (balls[i] & uncov).bit_count()
            if newly:
                ratio = wlin[i] / newly
                if ratio < best_ratio:
                    best_ratio = ratio
                    best_i = i
        chosen |= 1 << best_i
        cost += wlin[best_i]
        uncov &= ~balls[best_i]
    best_mask, best_val = chosen, float(cost)

    covers_elem = [[i for i in range(n) if (balls[i] >> e) & 1] for e in range(n)]

    def lower(uncov_mask: int) -> float:
        total = 0.0
        mm = uncov_mask
        while mm:
            lsb = mm & -mm
            e = lsb.bit_length() - 1
            mm ^= lsb
            total += min(wlin[i] / (balls[i] & uncov_mask).bit_count() for i in covers_elem[e])
        return total

    def dfs(uncov_mask: int, chosen_mask: int, cur: float) -> None:
        nonlocal best_mask, best_val
        if uncov_mask == 0:
            if cur < best_val:
                best_val = cur
                best_mask = chosen_mask
            return
        if cur + lower(uncov_mask) >= best_val:
            return
        e, fewest = -1, math.inf
        mm = uncov_mask
        while mm:
            lsb = mm & -mm
            u = lsb.bit_length() - 1
            mm ^= lsb
            if len(covers_elem[u]) < fewest:
                fewest = len(covers_elem[u])
                e = u
        for i in sorted(covers_elem[e], key=lambda i: (wlin[i], i)):
            dfs(uncov_mask & ~balls[i], chosen_mask | (1 << i), cur + wlin[i])

    dfs(full, 0, 0.0)
    return best_mask, best_val


# ---------------------------------------------------------------------------
# greedy solvers (deterministic; ties broken by lowest point index)


def _first_fit_separated(ctx, eps: float, order: np.ndarray) -> list[int]:
    """First-fit maximal separated set in the given candidate order,
    computed by repeated elimination (one distance row per accepted point)."""
    alive = np.asarray(order, dtype=np.intp).copy()
    matrix = ctx.matrix() if ctx.matrix_available() else None
    accepted: list[int] = []
    while alive.size:
        c = int(alive[0])
        accepted.append(c)
        d = matrix[c, alive] if matrix is not None else ctx.row(c, alive)
        alive = alive[d > eps]
    return accepted


def _greedy_cover_matrix(matrix: np.ndarray, eps: float, wlin: np.ndarray) -> list[int]:
    """Classic ratio greedy for weighted ball cover (matrix path)."""
    ball = matrix <= eps
    n = len(ball)
    uncov = np.ones(n, dtype=bool)
    chosen: list[int] = []
    while uncov.any():
        newly = (ball & uncov[None, :]).sum(axis=1)
        with np.errstate(divide="ignore"):
            ratio = np.where(newly > 0, wlin / np.maximum(newly, 1), math.inf)
        i = int(np.argmin(ratio))
        chosen.append(i)
        uncov &= ~ball[i]
    return chosen


def _max_ball_size(ctx, eps: float) -> int:
    if ctx.matrix_available():
        return int((ctx.matrix() <= eps).sum(axis=1).max())
    best = 0
    idx = np.arange(ctx.n_points, dtype=np.intp)
    for i in range(ctx.n_points):
        best = max(best, int((ctx.row(i, idx) <= eps).sum()))
    return best


# ---------------------------------------------------------------------------
# result records


@dataclass
class ExtremalSetResult:
    """Cardinality bounds and witness for a separated/spanning extremum."""

    lower_bound: int
    upper_bound: int
    witness: tuple
    exact: bool
    method: str

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact and self.lower_bound != self.upper_bound:
            raise ValueError("exact result must have equal bounds")


@dataclass
class PartitionSumResult:
    """One per-word partition sum, stored in log space."""

    log_value: float
    word: Word
    method: str
    exact: bool
    witness_size: int


def _resolve_method(mode: str, n_points: int) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "auto":
        if n_points <= EXHAUSTIVE_LIMIT:
            return "exhaustive"
        if n_points <= BRANCH_AND_BOUND_LIMIT:
            return "branch_and_bound"
        return "greedy"
    if mode == "exhaustive" and n_points > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode is limited to {EXHAUSTIVE_LIMIT} points")
    if mode == "branch_and_bound" and n_points > BRANCH_AND_BOUND_LIMIT:
        raise ValueError(f"branch_and_bound mode is limited to {BRANCH_AND_BOUND_LIMIT} points")
    return mode


def _recheck_separated(ctx, idxs: list[int], eps: float) -> None:
    if len(idxs) < 2:
        return
    if ctx.matrix_available():
        sub = ctx.matrix()[np.ix_(idxs, idxs)]
        off = sub[~np.eye(len(idxs), dtype=bool)]
        if off.size and float(off.min()) <= eps:
            raise RuntimeError("separated witness failed its defining property")
        return
    arr = np.asarray(idxs, dtype=np.intp)
    for a in range(min(len(idxs), _RECHECK_ROW_CAP)):
        others = np.delete(arr, a)
        if float(ctx.row(int(arr[a]), others).min()) <= eps:
            raise RuntimeError("separated witness failed its defining property")


def _recheck_spanning(ctx, idxs: list[int], eps: float) -> None:
    if not idxs:
        raise RuntimeError("spanning witness is empty")
    n = ctx.n_points
    if ctx.matrix_available():
        covered = (ctx.matrix()[np.asarray(idxs, dtype=np.intp)] <= eps).any(axis=0)
        if not covered.all():
            raise RuntimeError("spanning witness failed its defining property")
        return
    targets = np.arange(n, dtype=np.intp)
    if n > 4 * _RECHECK_ROW_CAP:
        targets = targets[:: max(1, n // (4 * _RECHECK_ROW_CAP))]
    covered = np.zeros(len(targets), dtype=bool)
    for i in idxs:
        covered |= ctx.row(int(i), targets) <= eps
        if covered.all():
            return
    raise RuntimeError("spanning witness failed its defining property")


def _solve_setup(ctx, S: np.ndarray, eps: float, mode: str) -> tuple[str, float, np.ndarray]:
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    method = _resolve_method(mode, ctx.n_points)
    shift = float(S.max())
    return method, shift, np.exp(S - shift)


def _solve_separated_weighted(ctx, S: np.ndarray, eps: float, mode: str) -> tuple[float, list[int], str, bool]:
    """sup over separated sets of sum exp(S); returns (log value, witness,
    method, exact).  Every witness is re-checked before it is returned."""
    method, shift, wlin = _solve_setup(ctx, S, eps, mode)
    if method == "greedy":
        idxs = _first_fit_separated(ctx, eps, np.lexsort((np.arange(ctx.n_points), -S)))
        witness = sorted(idxs)
        _recheck_separated(ctx, witness, eps)
        return shift + math.log(float(wlin[idxs].sum())), witness, "greedy", False
    conflict = _conflict_masks(ctx.matrix(), eps)
    mask, val = (_exhaustive_mwis if method == "exhaustive" else _bb_mwis)(conflict, wlin)
    idxs = _bits(mask)
    if any(conflict[i] & mask for i in idxs):
        raise RuntimeError("separated witness failed its defining property")
    return shift + math.log(val), idxs, method, True


def _solve_spanning_weighted(ctx, S: np.ndarray, eps: float, mode: str) -> tuple[float, list[int], str, bool]:
    """inf over spanning sets of sum exp(S); returns as _solve_separated_weighted."""
    method, shift, wlin = _solve_setup(ctx, S, eps, mode)
    if method == "greedy":
        if ctx.matrix_available() and ctx.n_points <= _GREEDY_COVER_LIMIT:
            idxs = _greedy_cover_matrix(ctx.matrix(), eps, wlin)
        else:
            # an eps-net: a maximal eps-separated set spans at eps
            idxs = _first_fit_separated(ctx, eps, np.arange(ctx.n_points))
        witness = sorted(idxs)
        _recheck_spanning(ctx, witness, eps)
        return shift + math.log(float(wlin[idxs].sum())), witness, "greedy", False
    balls = [m | 1 << i for i, m in enumerate(_conflict_masks(ctx.matrix(), eps))]
    mask, val = (_exhaustive_cover if method == "exhaustive" else _bb_cover)(balls, wlin)
    idxs = _bits(mask)
    covered = 0
    for i in idxs:
        covered |= balls[i]
    if covered != (1 << ctx.n_points) - 1:
        raise RuntimeError("spanning witness failed its defining property")
    return shift + math.log(val), idxs, method, True


# ---------------------------------------------------------------------------
# public operations


def birkhoff_sum(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, x) -> float:
    """Sum of n+1 potential values along the w-orbit of x (steps 0..n)."""
    if n > len(w):
        raise ValueError(f"n={n} exceeds word length {len(w)}")
    space = cloud.space
    pts = [tuple(x)] if space.family == "symbolic_depth" else [x]
    batch = points_to_batch(space, pts)
    total = 0.0
    for step in orbit_batches(space, schedule, w, n, batch):
        total += float(eval_potential_batch(space, psi, step)[0])
    return total


def _birkhoff_vector(ctx: _BowenOrbit, psi: Potential) -> np.ndarray:
    S = np.zeros(ctx.n_points)
    for B in ctx.batches:
        S += eval_potential_batch(ctx.cloud.space, psi, B)
    return S


def max_separated(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, eps: float, mode: str = "auto") -> ExtremalSetResult:
    """Maximal cardinality of an (n, w, eps)-separated subset of the cloud."""
    ctx = _BowenOrbit(cloud, schedule, w, n)
    _, idxs, method, exact = _solve_separated_weighted(ctx, np.zeros(ctx.n_points), eps, mode)
    upper = len(idxs)
    if not exact:
        # s(eps) <= r(eps/2) <= size of any maximal (eps/2)-separated set
        upper = max(upper, len(_first_fit_separated(ctx, eps / 2.0, np.arange(ctx.n_points))))
    return ExtremalSetResult(len(idxs), upper, tuple(cloud.points[i] for i in idxs), exact, method)


def min_spanning(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, eps: float, mode: str = "auto") -> ExtremalSetResult:
    """Minimal cardinality of a cloud subset that (n, w, eps)-spans the cloud."""
    ctx = _BowenOrbit(cloud, schedule, w, n)
    _, idxs, method, exact = _solve_spanning_weighted(ctx, np.zeros(ctx.n_points), eps, mode)
    lower = len(idxs)
    if not exact:
        lower = min(lower, max(1, math.ceil(ctx.n_points / _max_ball_size(ctx, eps))))
    return ExtremalSetResult(lower, len(idxs), tuple(cloud.points[i] for i in idxs), exact, method)


def partition_sum_separated(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, eps: float, mode: str = "auto") -> PartitionSumResult:
    """sup over separated sets E of sum_{x in E} exp(S_{w,n} psi(x))."""
    ctx = _BowenOrbit(cloud, schedule, w, n)
    log_value, idxs, method, exact = _solve_separated_weighted(ctx, _birkhoff_vector(ctx, psi), eps, mode)
    return PartitionSumResult(log_value=log_value, word=w, method=method, exact=exact, witness_size=len(idxs))


def partition_sum_spanning(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, eps: float, mode: str = "auto") -> PartitionSumResult:
    """inf over spanning sets F of sum_{x in F} exp(S_{w,n} psi(x))."""
    ctx = _BowenOrbit(cloud, schedule, w, n)
    log_value, idxs, method, exact = _solve_spanning_weighted(ctx, _birkhoff_vector(ctx, psi), eps, mode)
    return PartitionSumResult(log_value=log_value, word=w, method=method, exact=exact, witness_size=len(idxs))


@dataclass
class AveragedPartitionSum:
    """Word-averaged partition sum at one (n, eps)."""

    log_average: float
    stderr: float
    word_mode: str
    n: int
    eps: float
    kind: str
    method: str
    exact: bool
    min_witness: int
    words_used: int
    word_count: int
    cloud_size: int

    @property
    def saturated(self) -> bool:
        """Every word's extremal set swallowed the whole cloud: the sample
        resolution is exhausted at this (n, eps)."""
        return self.min_witness >= self.cloud_size


def _per_word_sums(cloud, schedule, words, n, psi, eps, kind, mode) -> list[PartitionSumResult]:
    op = partition_sum_separated if kind == "separated" else partition_sum_spanning
    return [op(cloud, schedule, w, n, psi, eps, mode) for w in words]


def _avg_worker(payload):
    cloud, schedule, words, n, psi, eps, kind, mode = payload
    res = _per_word_sums(cloud, schedule, words, n, psi, eps, kind, mode)
    return [(r.log_value, r.method, r.exact, r.witness_size) for r in res]


def averaged_partition_sum(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    n: int,
    psi: Potential,
    eps: float,
    kind: str = "separated",
    word_budget: int | None = 4096,
    seed: int = 0,
    mode: str = "auto",
    workers: int = 1,
) -> AveragedPartitionSum:
    """Arithmetic mean over enumerated or sampled words of the per-word sums,
    accumulated by log-sum-exp.  stderr is the Monte Carlo standard error of
    the average in sampled mode and 0 in exact mode."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    words, word_mode, total = enumerate_words(schedule, 1, n, word_budget, seed)
    if workers > 1 and len(words) >= 8:
        chunks = np.array_split(np.arange(len(words)), min(workers, len(words)))
        payloads = [(cloud, schedule, [words[i] for i in c], n, psi, eps, kind, mode) for c in chunks if len(c)]
        rows: list[tuple] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_avg_worker, payloads):
                rows.extend(part)
    else:
        rows = [(r.log_value, r.method, r.exact, r.witness_size) for r in _per_word_sums(cloud, schedule, words, n, psi, eps, kind, mode)]
    logs = np.array([r[0] for r in rows])
    log_average = _logsumexp(logs) - math.log(len(logs))
    stderr = 0.0
    if word_mode == "sampled" and len(logs) > 1:
        m = float(logs.max())
        lin = np.exp(logs - m)
        mean = float(lin.mean())
        se = float(lin.std(ddof=1)) / math.sqrt(len(lin))
        stderr = se / mean if mean > 0 else 0.0
    methods = {r[1] for r in rows}
    method = methods.pop() if len(methods) == 1 else "mixed"
    return AveragedPartitionSum(
        log_average=log_average,
        stderr=stderr,
        word_mode=word_mode,
        n=n,
        eps=eps,
        kind=kind,
        method=method,
        exact=all(r[2] for r in rows),
        min_witness=min(r[3] for r in rows),
        words_used=len(words),
        word_count=total,
        cloud_size=len(cloud),
    )


# ---------------------------------------------------------------------------
# growth-rate curves


@dataclass
class CurveEntry:
    n: int
    eps: float
    log_avg: float
    value: float  # (1/n) * log_avg
    stderr: float
    word_mode: str
    method: str
    exact: bool
    saturated: bool


@dataclass
class EpsSummary:
    """Per-eps growth proxies.

    tail_max is the limsup proxy (max of (1/n) log over the top half of the
    n range); ls_slope the least-squares slope of log vs n; max_step the
    largest consecutive growth increment over unsaturated entries.  The
    increment proxy is the headline estimate: it reads the local growth
    factor directly and is immune to both the (1/n) offset and saturation
    bending, which the other two proxies only approach as n grows.
    """

    eps: float
    tail_max: float
    ls_slope: float
    max_step: float
    estimate: float


@dataclass
class PressureCurve:
    kind: str
    entries: list[CurveEntry]
    per_eps: list[EpsSummary]
    estimate: float
    eps_star: float
    all_exact: bool


def _tail_max(entries: list[CurveEntry]) -> float:
    ns = [e.n for e in entries]
    cut = math.ceil((min(ns) + max(ns)) / 2)
    return max(e.value for e in entries if e.n >= cut)


def _ls_slope(pairs: list[tuple[int, float]]) -> float:
    if len(pairs) < 2:
        return 0.0
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    xm, ym = xs.mean(), ys.mean()
    denom = float(((xs - xm) ** 2).sum())
    return float(((xs - xm) * (ys - ym)).sum()) / denom


def _max_step(pairs: list[tuple[int, float]]) -> float:
    best = -math.inf
    for (n0, y0), (n1, y1) in zip(pairs, pairs[1:]):
        best = max(best, (y1 - y0) / (n1 - n0))
    return best


def _eps_summary(entries: list[CurveEntry]) -> EpsSummary:
    kept = [e for e in entries if not e.saturated]
    if len(kept) < 2:
        kept = entries
    pairs = [(e.n, e.log_avg) for e in kept]
    if len(pairs) >= 2:
        slope = _ls_slope(pairs)
        step = _max_step(pairs)
    else:
        slope = step = entries[-1].value
    return EpsSummary(
        eps=entries[0].eps,
        tail_max=_tail_max(entries),
        ls_slope=slope,
        max_step=step,
        estimate=step,
    )


def validate_eps_list(eps_list: Sequence[float]) -> list[float]:
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return eps_list


def default_eps_list(cloud: PointCloud) -> list[float]:
    diam = cloud.diameter()
    return [diam * 2.0 ** (-k) for k in range(1, 6)]


def pressure_estimate(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    psi: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    kind: str = "separated",
    mode: str = "auto",
    workers: int = 1,
) -> PressureCurve:
    """Growth-rate curve of the word-averaged partition sums.

    For each (n, eps) the entry value is (1/n) log of the averaged sum; the
    per-eps extrapolations and the final estimate at the smallest eps are
    described on EpsSummary.  The eps -> 0 limit equality of the separated
    and spanning variants is monitored by running both kinds, never assumed.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns or ns[0] < 1:
        raise ValueError("n_range must contain integers >= 1")
    eps_list = validate_eps_list(eps_list)
    entries: list[CurveEntry] = []
    for eps in eps_list:
        for n in ns:
            avg = averaged_partition_sum(
                cloud, schedule, n, psi, eps, kind=kind, word_budget=word_budget, seed=seed, mode=mode, workers=workers
            )
            entries.append(
                CurveEntry(
                    n=n,
                    eps=eps,
                    log_avg=avg.log_average,
                    value=avg.log_average / n,
                    stderr=avg.stderr,
                    word_mode=avg.word_mode,
                    method=avg.method,
                    exact=avg.exact,
                    saturated=avg.saturated,
                )
            )
    per_eps = [_eps_summary([e for e in entries if e.eps == eps]) for eps in eps_list]
    return PressureCurve(
        kind=kind,
        entries=entries,
        per_eps=per_eps,
        estimate=per_eps[-1].estimate,
        eps_star=eps_list[-1],
        all_exact=all(e.exact for e in entries),
    )


# ---------------------------------------------------------------------------
# sup-metric entropy of a subset


@dataclass
class SupEntropyEntry:
    n: int
    eps: float
    separated: int
    spanning: int
    exact: bool
    method: str
    saturated: bool


@dataclass
class SandwichCheck:
    n: int
    eps: float
    r_eps: int
    s_eps: int
    r_half: int
    ok: bool


@dataclass
class SupEntropyEstimate:
    estimate: float
    eps_star: float
    limsup_proxy: float
    entries: list[SupEntropyEntry]
    sandwiches: list[SandwichCheck]
    subset_size: int
    all_exact: bool


def sup_entropy_estimate(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    subset: Sequence,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    mode: str = "auto",
    word_cap: int = 200_000,
) -> SupEntropyEstimate:
    """Growth rate of maximal separated sets of a subset under the sup metric
    d*_n (sup over start indices and words of the orbit maximum).

    The empty subset has entropy 0 by convention.  Whenever all three counts
    are exact the sandwich r*(eps) <= s*(eps) <= r*(eps/2) is verified.
    """
    eps_list = validate_eps_list(eps_list)
    ns = sorted(set(int(n) for n in n_range))
    if not ns or ns[0] < 1:
        raise ValueError("n_range must contain integers >= 1")
    indices = _subset_indices(cloud, subset)
    if not indices:
        return SupEntropyEstimate(0.0, eps_list[-1], 0.0, [], [], 0, True)
    entries: list[SupEntropyEntry] = []
    sandwiches: list[SandwichCheck] = []
    for n in ns:
        ctx = _sup_orbit(cloud, schedule, n, indices, word_cap=word_cap)
        zeros = np.zeros(ctx.n_points)
        for eps in eps_list:
            _, s_idx, s_method, s_exact = _solve_separated_weighted(ctx, zeros, eps, mode)
            _, r_idx, _, r_exact = _solve_spanning_weighted(ctx, zeros, eps, mode)
            _, rh_idx, _, rh_exact = _solve_spanning_weighted(ctx, zeros, eps / 2.0, mode)
            entries.append(
                SupEntropyEntry(
                    n=n,
                    eps=eps,
                    separated=len(s_idx),
                    spanning=len(r_idx),
                    exact=s_exact and r_exact,
                    method=s_method,
                    saturated=len(s_idx) >= len(indices),
                )
            )
            if s_exact and r_exact and rh_exact:
                sandwiches.append(
                    SandwichCheck(
                        n=n,
                        eps=eps,
                        r_eps=len(r_idx),
                        s_eps=len(s_idx),
                        r_half=len(rh_idx),
                        ok=len(r_idx) <= len(s_idx) <= len(rh_idx),
                    )
                )
    star = [e for e in entries if e.eps == eps_list[-1]]
    curve = [
        CurveEntry(
            n=e.n,
            eps=e.eps,
            log_avg=math.log(e.separated),
            value=math.log(e.separated) / e.n,
            stderr=0.0,
            word_mode="exact",
            method=e.method,
            exact=e.exact,
            saturated=e.saturated,
        )
        for e in star
    ]
    summary = _eps_summary(curve)
    return SupEntropyEstimate(
        estimate=summary.estimate,
        eps_star=eps_list[-1],
        limsup_proxy=summary.tail_max,
        entries=entries,
        sandwiches=sandwiches,
        subset_size=len(indices),
        all_exact=all(e.exact for e in entries),
    )


def _subset_indices(cloud: PointCloud, subset: Sequence) -> list[int]:
    indices = []
    for p in subset:
        if isinstance(p, (int, np.integer)) and cloud.space.family != "finite_explicit":
            indices.append(int(p))
        else:
            indices.append(cloud.index_of(p))
    return sorted(set(indices))
