"""Extremal separated/spanning sets, partition sums, and pressure curves.

The combinatorial core: a maximal separated set is a maximum independent
set of the proximity graph under a Bowen metric, a minimal spanning set is
a minimum ball cover, and the partition sums are their weighted versions
with vertex weights exp(Birkhoff sum).  Exact solvers run up to fixed
size thresholds (subset enumeration to 20 points, bitset branch and bound
to 64); beyond that deterministic greedy bounds take over and every result
self-reports its method and exactness.  The spanning branch and bound
prunes with a per-element ratio bound that reads, for each uncovered
element, only the balls holding it, and a ball's ratio only once per node
(_cover_lower_bound); its search tree and result do not depend on how the
bound is computed.

An orbit object (_BowenOrbit) is built from one list of step batches:
the orbit of the cloud along one word (_word_orbit), every n-th step of
such an orbit (the power system's orbit), or the orbits of a subset under
every start and word (_sup_orbit).  It caches what a solve reads that does
not depend on the weights: the dense Bowen matrix, its closed eps-balls
per eps, and per (eps, kind) the subsets that subset enumeration may
return.  Callers that solve several potentials, both kinds or a repeated
eps on one orbit build these once; the cache is freed with the orbit.

Greedy first fit reads one row per accepted point, and only over the
point's step-0 window when step 0 is the cloud itself (_BowenOrbit.window);
the witness re-checks read every pair or every point, so they do not
depend on the window being right.

A pressure curve holds one AveragedPartitionSum per (n, eps): the
word-averaged sum in log space and its growth value (1/n) log.  It takes
its cells n by n behind a memo of the per-word sums at the current n
(_CurveMemo): each distinct word's orbit is built once and solves every
eps.  The memo is serial-only and dropped when the curve returns or
raises; called on their own, the per-word sums are not memoised.

All sums of exponentials are accumulated in log space with max shifting.
"""

from __future__ import annotations

import heapq
import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
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
    FINITE,
    INTERVAL,
    SYMBOLIC,
    PointCloud,
    Potential,
    _distance_kernel,
    _to_distance_form,
    eval_potential_batch,
    points_to_batch,
)

log = logging.getLogger("naifslab.pressure")

EXHAUSTIVE_LIMIT = 20
BRANCH_AND_BOUND_LIMIT = 64
# the dense Bowen matrix serves the exact solvers and the ratio greedy cover
MATRIX_LIMIT = 1500
SUBSET_METRIC_LIMIT = 2000
# elements of one distance tile (512 KiB of float64)
_TILE_ELEMENTS = 1 << 16

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
    """Bowen distances of the cloud over a list of orbit step batches.

    The distance is the running max of the space's base distance over the
    steps; the steps are those of one word (_word_orbit), of every start
    and word of the sup metric (_sup_orbit), or any list a caller already
    holds.  Each step is put in distance form once, and the forms are held
    stacked on one step axis, so that a row reads every step in one kernel
    call.  Queries read rows and tiles of it; the dense matrix is built
    only for small clouds (MATRIX_LIMIT), one kernel call per tile over
    every step, and then serves every later block.  Tiles are written
    into two buffers the orbit reuses.

    When step 0 is the enumerated cloud itself, a Bowen distance is at
    least the base distance, so the closed eps-ball of a point lies in its
    base ball: an index window on the grids and a run of the lexicographic
    order on words (window).  Greedy rows read only the window.

    The matrix, its eps-balls (balls) and the feasible subsets of subset
    enumeration (feasible_subsets) are built on first use and kept for the
    life of the orbit, one entry per eps and per (eps, kind): solves of
    other weight vectors on the same orbit read them instead of rebuilding.
    """

    def __init__(self, cloud: PointCloud, steps: list[np.ndarray]):
        self.cloud = cloud
        self.batches = steps
        self.n_points = len(steps[0])
        self.forms = _stack_forms([_to_distance_form(cloud, B) for B in steps])
        # a finite space has no order that its balls follow
        self._windowed = cloud.enumerated and steps[0] is cloud.batch and cloud.space.family != FINITE
        self._matrix: np.ndarray | None = None
        self._balls: dict[float, list[int]] = {}
        self._feasible: dict[tuple[float, str], np.ndarray] = {}
        self._buffers: list[np.ndarray | None] = [None, None]

    def _buffer(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """Reused buffer `slot` (0: tiles, 1: one step inside block, or every
        step of a matrix tile) viewed as shape.  It is made the size of a
        whole tile at once (no tile of a small cloud is larger than its
        matrix), so that tiles of varying shape do not regrow it."""
        size = math.prod(shape)
        buf = self._buffers[slot]
        if buf is None or buf.size < size:
            buf = self._buffers[slot] = np.empty(max(size, min(_TILE_ELEMENTS, self.n_points**2)))
        return buf[:size].reshape(shape)

    def block(self, I: np.ndarray | slice, js: np.ndarray | slice, out: np.ndarray | None = None) -> np.ndarray:
        """Distances between the points I (rows) and js (columns), each an
        index array or a slice, written into out when given and otherwise
        into a new array (never a view of the matrix)."""
        if self._matrix is not None:
            sub = self._matrix[I][:, js]
            if out is None:
                out = np.empty_like(sub)
            out[...] = sub
            return out
        a = self._columns(I)[..., None]
        b = self._columns(js)[..., None, :]
        acc = _distance_kernel(self.cloud, a[..., 0, :, :], b[..., 0, :, :], out)
        if a.shape[-3] > 1:
            scratch = self._buffer(1, acc.shape)
            for s in range(1, a.shape[-3]):
                np.maximum(acc, _distance_kernel(self.cloud, a[..., s, :, :], b[..., s, :, :], scratch), out=acc)
        return acc

    def tile(self, I: np.ndarray, js: np.ndarray) -> np.ndarray:
        """block(I, js) in the orbit's tile buffer: the caller may overwrite
        it, and the next tile does."""
        return self.block(I, js, self._buffer(0, (len(I), len(js))))

    def row(self, i: int, js: np.ndarray) -> np.ndarray:
        """Distances from point i to the points js, every step in one kernel call."""
        js = np.asarray(js, dtype=np.intp)
        if self._matrix is not None:
            return self._matrix[i, js]
        return _distance_kernel(self.cloud, self.forms[..., i, None], self._columns(js)).max(axis=0)

    def _columns(self, js: np.ndarray | slice) -> np.ndarray:
        """The forms of the points js, in C order: np.take, unlike an index
        array on the last axis, keeps each step's points contiguous, and the
        kernels then write C-ordered tiles."""
        return self.forms[..., js] if isinstance(js, slice) else np.take(self.forms, js, axis=-1)

    def window(self, c: int, eps: float) -> np.ndarray:
        """Indices that hold every point within eps of point c: all of them,
        unless step 0 is the enumerated cloud (see the class docstring).
        One grid step more than the base ball absorbs float rounding."""
        n = self.n_points
        space = self.cloud.space
        if not self._windowed:
            return np.arange(n)
        if space.family == SYMBOLIC:
            # words within eps agree on their first k symbols, k the least
            # with 2**-k <= eps: a run of alphabet**(depth - k) words
            k = max(0, 1 - math.frexp(min(eps, 1.0))[1])
            size = space.alphabet_size ** max(0, space.resolution - k)
            lo = c - c % size
            return np.arange(lo, lo + size)
        if space.family == INTERVAL:
            r = math.ceil(min(eps, 1.0) * (n - 1)) + 1
            return np.arange(max(0, c - r), min(n, c + r + 1))
        r = math.ceil(min(eps, 0.5) * n) + 1
        if 2 * r + 1 >= n:
            return np.arange(n)
        return np.arange(c - r, c + r + 1) % n

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            n = self.n_points
            if n > MATRIX_LIMIT:
                raise ValueError(f"cloud of {n} points exceeds the matrix limit {MATRIX_LIMIT}")
            # one kernel call per tile reads every step, as row does; the
            # tile's rows shrink with the step count, so that its (steps,
            # rows, N) distances stay within _TILE_ELEMENTS
            steps = self.forms.shape[-2]
            rows = _tile_rows(n * steps)
            m = np.empty((n, n))
            for lo in range(0, n, rows):
                a = self.forms[..., lo : lo + rows, None]
                d = _distance_kernel(self.cloud, a, self.forms[..., None, :], self._buffer(1, (steps, a.shape[-2], n)))
                np.max(d, axis=0, out=m[lo : lo + rows])
            self._matrix = m
        return self._matrix

    def balls(self, eps: float) -> list[int]:
        """The closed eps-balls of the matrix rows as bit masks (_balls)."""
        balls = self._balls.get(eps)
        if balls is None:
            balls = self._balls[eps] = _balls(self.matrix(), eps)
        return balls

    def feasible_subsets(self, eps: float, kind: str) -> np.ndarray:
        """Ascending indices of the eps-separated subsets or of the eps-spanning
        subsets of the cloud (_feasible_subsets)."""
        feas = self._feasible.get((eps, kind))
        if feas is None:
            feas = self._feasible[eps, kind] = _feasible_subsets(self.balls(eps), kind)
            # shared by every later solve at (eps, kind)
            feas.flags.writeable = False
        return feas

    def min_pair_distance(self, idxs: Sequence[int]) -> float:
        """Smallest distance between two distinct points of idxs (inf for
        fewer than two), read over the upper triangle one tile at a time."""
        idxs = np.asarray(idxs, dtype=np.intp)
        best, lo = math.inf, 0
        while lo < len(idxs) - 1:
            cols = idxs[lo + 1 :]
            d = self.tile(idxs[lo : lo + _tile_rows(len(cols))], cols)
            # row r of the tile pairs with columns r.. only (column c is point lo + 1 + c)
            d[np.tril_indices(len(d), -1, d.shape[1])] = math.inf
            best = min(best, float(d.min()))
            lo += len(d)
        return best


def _stack_forms(forms: list[np.ndarray]) -> np.ndarray:
    """Step forms stacked on the second-to-last axis: (steps, N), or
    (chunks, steps, N) for packed words.  A step of shorter words gains
    zero chunks, equal in every word, which change no distance."""
    if forms[0].ndim == 1:
        return np.array(forms)
    stacked = np.zeros((max(len(f) for f in forms), len(forms), forms[0].shape[1]), dtype=forms[0].dtype)
    for s, f in enumerate(forms):
        stacked[: len(f), s] = f
    return stacked


def _tile_rows(n_cols: int) -> int:
    """Rows of a distance tile with n_cols columns."""
    return max(1, _TILE_ELEMENTS // max(1, n_cols))


def _word_orbit(cloud: PointCloud, schedule: GenerationSchedule, word: Word, n: int) -> _BowenOrbit:
    """The orbit of the whole cloud along the first n steps of a word rooted
    at start 1."""
    if word.start != 1:
        raise ValueError("partition sums run over words rooted at start 1; re-root the word")
    if n > len(word):
        raise ValueError(f"n={n} exceeds word length {len(word)}")
    return _BowenOrbit(cloud, orbit_batches(cloud.space, schedule, word, n, cloud.batch))


def _sup_orbit(cloud: PointCloud, schedule: GenerationSchedule, n: int, indices: Sequence[int]) -> _BowenOrbit:
    """Orbits of a point subset under every start index and word of length n;
    their distance is the sup metric d*_n."""
    if len(indices) > SUBSET_METRIC_LIMIT:
        raise ValueError(f"sup-metric subset of {len(indices)} points exceeds the limit {SUBSET_METRIC_LIMIT}")
    sub = cloud.batch[np.asarray(indices, dtype=np.intp)]
    return _BowenOrbit(cloud, sup_orbit_batches(cloud.space, schedule, n, sub))


# ---------------------------------------------------------------------------
# exact solvers


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _balls(matrix: np.ndarray, eps: float) -> list[int]:
    """The closed eps-balls of the matrix rows as bit masks: bit j of ball i
    is set when d(i, j) <= eps.  Point i's conflicts are its ball without
    bit i."""
    rows = np.packbits(matrix <= eps, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in rows]


def _feasible_subsets(balls: list[int], kind: str) -> np.ndarray:
    """Ascending indices of the subsets whose members lie in no other
    member's ball (kind "separated") or whose balls cover every point
    (kind "spanning"): the weight-free half of subset enumeration.

    Bits run high to low so that a subset's tail (its value without the
    lowest set bit, which has only higher bits) is final before use.
    """
    size = 1 << len(balls)
    if kind == "separated":
        idx = np.arange(size, dtype=np.int64)
        ok = np.ones(size, dtype=bool)
        for b in reversed(range(len(balls))):
            step = 1 << (b + 1)
            conflict = balls[b] & ~(1 << b)
            ok[1 << b :: step] = ok[::step] & ((idx[::step] & conflict) == 0)
    else:
        cov = np.zeros(size, dtype=np.int64)
        for b in reversed(range(len(balls))):
            step = 1 << (b + 1)
            np.bitwise_or(cov[::step], balls[b], out=cov[1 << b :: step])
        ok = cov == size - 1
    return np.flatnonzero(ok)


def _subset_sums(wlin: np.ndarray) -> np.ndarray:
    """wsum[s], the sum of wlin over the bits of s: the weight half of
    subset enumeration.  Each subset adds its lowest bit's weight to the sum
    of its tail, so the terms are added from the highest bit down."""
    wsum = np.zeros(1 << len(wlin))
    for b in reversed(range(len(wlin))):
        step = 1 << (b + 1)
        np.add(wsum[::step], wlin[b], out=wsum[1 << b :: step])
    return wsum


def _best_subset(feas: np.ndarray, wlin: np.ndarray, pick) -> tuple[int, float]:
    """The feasible subset whose weight pick (np.argmax or np.argmin)
    selects, lowest index on ties, and its weight."""
    wsum = _subset_sums(wlin)[feas]
    i = pick(wsum)
    return int(feas[i]), float(wsum[i])


def _bb_mwis(conflict: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Bitset branch and bound with a greedy clique-cover bound."""
    n = len(wlin)
    w = wlin.tolist()
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

    order = sorted(range(n), key=lambda i: (-w[i], i))
    inc_mask = 0
    blocked = 0
    for v in order:
        if not (blocked >> v) & 1:
            inc_mask |= 1 << v
            blocked |= (1 << v) | conflict[v]
    best_mask = inc_mask
    best_val = 0.0
    for i in _bits(inc_mask):
        best_val += w[i]

    def bound(mask: int) -> float:
        # heaviest vertex per clique; float addition depends on order, and
        # the sum runs over cliques as first met from the lowest vertex up
        per = [0.0] * len(cliques)
        met: list[int] = []
        mm = mask
        while mm:
            lsb = mm & -mm
            v = lsb.bit_length() - 1
            mm ^= lsb
            c = clique_of[v]
            if w[v] > per[c]:
                if not per[c]:
                    met.append(c)
                per[c] = w[v]
        total = 0.0
        for c in met:
            total += per[c]
        return total

    def dfs(mask: int, chosen: int, cur: float) -> None:
        nonlocal best_mask, best_val
        if cur > best_val:
            best_val = cur
            best_mask = chosen
        if mask == 0 or cur + bound(mask) <= best_val:
            return
        # the heaviest vertex left, lowest index on ties
        for v in order:
            if (mask >> v) & 1:
                break
        dfs(mask & ~(conflict[v] | (1 << v)), chosen | (1 << v), cur + w[v])
        dfs(mask & ~(1 << v), chosen, cur)

    dfs((1 << n) - 1, 0, 0.0)
    # dfs holds itself through its closure; dropping the name frees the
    # clique lists and weights now instead of at some later cycle collection
    del dfs
    return best_mask, best_val


def _cover_lower_bound(balls: list[int], w: list[float], uncov: int, covers_elem: list[list[int]]) -> float:
    """Lower bound on the weight of a cover of the elements in uncov.

    Each uncovered element, in increasing order, is charged the least ratio
    w_i / |ball_i & uncov| over the balls that hold it (covers_elem[e]).  A
    ball's ratio is computed the first time an element reads it, so balls
    that hold no uncovered element cost nothing.  The charges are added in
    increasing element order, which makes the bound the same float as the
    per-element minimum.
    """
    ratio: list[float | None] = [None] * len(balls)
    total = 0.0
    mm = uncov
    while mm:
        lsb = mm & -mm
        mm ^= lsb
        least = math.inf
        for i in covers_elem[lsb.bit_length() - 1]:
            r = ratio[i]
            if r is None:
                r = ratio[i] = w[i] / (balls[i] & uncov).bit_count()
            if r < least:
                least = r
        total += least
    return total


def _greedy_cover_bits(balls: list[int], w: list[float]) -> list[int]:
    """Ratio greedy cover: the ball of least w_i / |ball_i & uncovered|,
    lowest index on ties, until every element is covered.  Returns the
    picks in order.

    The ratios sit in a heap and are refreshed only when popped.  A ratio
    never falls as elements get covered, so a popped ratio that is still
    current is the least one, and equal ratios pop in index order.
    """
    heap = [(w[i] / c, i) for i, b in enumerate(balls) if (c := b.bit_count())]
    heapq.heapify(heap)
    uncov = (1 << len(balls)) - 1
    picks: list[int] = []
    while uncov:
        ratio, i = heapq.heappop(heap)
        newly = (balls[i] & uncov).bit_count()
        if not newly:
            continue
        if w[i] / newly != ratio:
            heapq.heappush(heap, (w[i] / newly, i))
            continue
        picks.append(i)
        uncov &= ~balls[i]
    return picks


def _bb_cover(balls: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Branch and bound minimum weighted ball cover."""
    n = len(wlin)
    w = wlin.tolist()
    best_mask, best_val = 0, 0.0
    for i in _greedy_cover_bits(balls, w):
        best_mask |= 1 << i
        best_val += w[i]

    # the balls holding each element, lightest first (lowest index on ties:
    # the sort is stable), and the elements by how few balls hold them
    covers_elem: list[list[int]] = [[] for _ in range(n)]
    for i in sorted(range(n), key=w.__getitem__):
        b = balls[i]
        while b:
            lsb = b & -b
            covers_elem[lsb.bit_length() - 1].append(i)
            b ^= lsb
    elem_order = sorted(range(n), key=lambda e: (len(covers_elem[e]), e))
    # within one solve the bound depends on the uncovered mask alone
    bounds: dict[int, float] = {}

    def dfs(uncov_mask: int, chosen_mask: int, cur: float) -> None:
        nonlocal best_mask, best_val
        if uncov_mask == 0:
            if cur < best_val:
                best_val = cur
                best_mask = chosen_mask
            return
        lb = bounds.get(uncov_mask)
        if lb is None:
            lb = bounds[uncov_mask] = _cover_lower_bound(balls, w, uncov_mask, covers_elem)
        if cur + lb >= best_val:
            return
        for e in elem_order:
            if (uncov_mask >> e) & 1:
                break
        for i in covers_elem[e]:
            # children come lightest first and the bound is >= 0, so once a
            # child would prune on entry every later one would too
            if cur + w[i] >= best_val:
                break
            dfs(uncov_mask & ~balls[i], chosen_mask | (1 << i), cur + w[i])

    dfs((1 << n) - 1, 0, 0.0)
    # dfs holds itself through its closure; dropping the name frees the
    # memo and ball lists now instead of at some later cycle collection
    del dfs
    return best_mask, best_val


# ---------------------------------------------------------------------------
# greedy solvers (deterministic; ties broken by lowest point index)


def _first_fit_separated(ctx: _BowenOrbit, eps: float, order: np.ndarray) -> list[int]:
    """First-fit maximal separated set in the given candidate order: each
    candidate still alive is accepted, and its row, read over the alive
    points of its window, kills every point within eps."""
    dead = np.zeros(ctx.n_points, dtype=bool)
    accepted: list[int] = []
    for c in np.asarray(order, dtype=np.intp).tolist():
        if dead[c]:
            continue
        accepted.append(c)
        js = ctx.window(c, eps)
        js = js[~dead[js]]
        dead[js[ctx.row(c, js) <= eps]] = True
    return accepted


def _max_ball_size(ctx: _BowenOrbit, eps: float) -> int:
    return max(int((ctx.row(c, ctx.window(c, eps)) <= eps).sum()) for c in range(ctx.n_points))


# ---------------------------------------------------------------------------
# result records


@dataclass
class ExtremalSetResult:
    """Cardinality bounds and witness (ascending cloud indices) for a
    separated/spanning extremum."""

    lower_bound: int
    upper_bound: int
    witness: tuple[int, ...]
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
    """Every pair of the witness is more than eps apart."""
    if ctx.min_pair_distance(idxs) <= eps:
        raise RuntimeError("separated witness failed its defining property")


def _recheck_spanning(ctx, idxs: list[int], eps: float) -> None:
    """Every cloud point lies within eps of the witness; each tile of
    witness rows is read against the points still uncovered."""
    idxs = np.asarray(idxs, dtype=np.intp)
    if not idxs.size:
        raise RuntimeError("spanning witness is empty")
    uncovered = np.arange(ctx.n_points, dtype=np.intp)
    lo = 0
    while uncovered.size and lo < len(idxs):
        rows = idxs[lo : lo + _tile_rows(len(uncovered))]
        uncovered = uncovered[~(ctx.tile(rows, uncovered) <= eps).any(axis=0)]
        lo += len(rows)
    if uncovered.size:
        raise RuntimeError("spanning witness failed its defining property")


def _solve_setup(ctx, S: np.ndarray, eps: float, mode: str) -> tuple[str, float, np.ndarray]:
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    method = _resolve_method(mode, ctx.n_points)
    shift = float(S.max())
    if not math.isfinite(shift):
        # a NaN or an overflowed Birkhoff sum has no partition sum to report
        raise ValueError(f"the Birkhoff sums are not finite (max {shift})")
    return method, shift, np.exp(S - shift)


def _solve_separated_weighted(ctx, S: np.ndarray, eps: float, mode: str = "auto") -> tuple[float, list[int], str, bool]:
    """sup over separated sets of sum exp(S); returns (log value, witness,
    method, exact).  Every witness is re-checked before it is returned."""
    method, shift, wlin = _solve_setup(ctx, S, eps, mode)
    if method == "greedy":
        idxs = _first_fit_separated(ctx, eps, np.lexsort((np.arange(ctx.n_points), -S)))
        witness = sorted(idxs)
        _recheck_separated(ctx, witness, eps)
        return shift + math.log(float(wlin[idxs].sum())), witness, "greedy", False
    balls = ctx.balls(eps)
    if method == "exhaustive":
        mask, val = _best_subset(ctx.feasible_subsets(eps, "separated"), wlin, np.argmax)
    else:
        mask, val = _bb_mwis([b & ~(1 << i) for i, b in enumerate(balls)], wlin)
    idxs = _bits(mask)
    if any(balls[i] & ~(1 << i) & mask for i in idxs):
        raise RuntimeError("separated witness failed its defining property")
    return shift + math.log(val), idxs, method, True


def _solve_spanning_weighted(ctx, S: np.ndarray, eps: float, mode: str = "auto") -> tuple[float, list[int], str, bool]:
    """inf over spanning sets of sum exp(S); returns as _solve_separated_weighted."""
    method, shift, wlin = _solve_setup(ctx, S, eps, mode)
    if method == "greedy":
        if ctx.n_points <= MATRIX_LIMIT:
            idxs = _greedy_cover_bits(ctx.balls(eps), wlin.tolist())
        else:
            # an eps-net: a maximal eps-separated set spans at eps
            idxs = _first_fit_separated(ctx, eps, np.arange(ctx.n_points))
        witness = sorted(idxs)
        _recheck_spanning(ctx, witness, eps)
        return shift + math.log(float(wlin[idxs].sum())), witness, "greedy", False
    balls = ctx.balls(eps)
    if method == "exhaustive":
        mask, val = _best_subset(ctx.feasible_subsets(eps, "spanning"), wlin, np.argmin)
    else:
        mask, val = _bb_cover(balls, wlin)
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
    total = 0.0
    for step in orbit_batches(space, schedule, w, n, points_to_batch(space, [x])):
        total += float(eval_potential_batch(space, psi, step)[0])
    return total


def _birkhoff_vector(ctx: _BowenOrbit, psi: Potential) -> np.ndarray:
    S = np.zeros(ctx.n_points)
    # an overflowed sum is refused by _solve_setup, not warned about here
    with np.errstate(over="ignore"):
        for B in ctx.batches:
            S += eval_potential_batch(ctx.cloud.space, psi, B)
    return S


def max_separated(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, eps: float, mode: str = "auto") -> ExtremalSetResult:
    """Maximal cardinality of an (n, w, eps)-separated subset of the cloud."""
    ctx = _word_orbit(cloud, schedule, w, n)
    _, idxs, method, exact = _solve_separated_weighted(ctx, np.zeros(ctx.n_points), eps, mode)
    upper = len(idxs)
    if not exact:
        # s(eps) <= r(eps/2) <= size of any maximal (eps/2)-separated set
        upper = max(upper, len(_first_fit_separated(ctx, eps / 2.0, np.arange(ctx.n_points))))
    return ExtremalSetResult(len(idxs), upper, tuple(map(int, idxs)), exact, method)


def min_spanning(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, eps: float, mode: str = "auto") -> ExtremalSetResult:
    """Minimal cardinality of a cloud subset that (n, w, eps)-spans the cloud."""
    ctx = _word_orbit(cloud, schedule, w, n)
    _, idxs, method, exact = _solve_spanning_weighted(ctx, np.zeros(ctx.n_points), eps, mode)
    lower = len(idxs)
    if not exact:
        lower = min(lower, max(1, math.ceil(ctx.n_points / _max_ball_size(ctx, eps))))
    return ExtremalSetResult(lower, len(idxs), tuple(map(int, idxs)), exact, method)


def _weighted_solver(kind: str):
    return _solve_separated_weighted if kind == "separated" else _solve_spanning_weighted


class _CurveMemo:
    """The per-word sums of one pressure curve at one n.

    A word's orbit and Birkhoff vector depend on neither eps nor how often
    the word was drawn.  The first request for a word builds them, solves
    every eps of the curve on them and keeps (log value, witness size,
    method, exact) per eps; the orbit is dropped.  Only requests with the
    memo's cloud, schedule and potential (by identity), n and kind, mode
    "auto" and an eps of the curve are served, and only in the process
    that opened the memo: pool workers forked during the curve solve afresh.
    """

    def __init__(self, cloud: PointCloud, schedule: GenerationSchedule, n: int, psi: Potential, kind: str, eps_list: list[float]):
        self.scope = (cloud, schedule, n, psi, kind)
        self.eps_index = {eps: i for i, eps in enumerate(eps_list)}
        self.pid = os.getpid()
        self.sums: dict[Word, list[tuple[float, int, str, bool]]] = {}

    def serves(self, cloud, schedule, n: int, psi, eps: float, mode: str, kind: str) -> bool:
        c, s, m, p, k = self.scope
        return (
            cloud is c and schedule is s and n == m and psi is p and kind == k
            and mode == "auto" and eps in self.eps_index and os.getpid() == self.pid
        )

    def read(self, w: Word, eps: float) -> tuple[float, int, str, bool]:
        sums = self.sums.get(w)
        if sums is None:
            cloud, schedule, n, psi, kind = self.scope
            ctx = _word_orbit(cloud, schedule, w, n)
            S = _birkhoff_vector(ctx, psi)
            solves = (_weighted_solver(kind)(ctx, S, e, "auto") for e in self.eps_index)
            sums = self.sums[w] = [(value, len(idxs), method, exact) for value, idxs, method, exact in solves]
        return sums[self.eps_index[eps]]


# the memo of the pressure curve this thread is computing, if any
# (pressure_estimate); a context variable, so that curves computed in two
# threads at once neither share nor leave behind each other's memo
_curve_memo: ContextVar[_CurveMemo | None] = ContextVar("curve_memo", default=None)


def _partition_sum(kind: str, cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, eps: float, mode: str) -> PartitionSumResult:
    memo = _curve_memo.get()
    if memo is not None and memo.serves(cloud, schedule, n, psi, eps, mode, kind):
        log_value, size, method, exact = memo.read(w, eps)
    else:
        ctx = _word_orbit(cloud, schedule, w, n)
        log_value, idxs, method, exact = _weighted_solver(kind)(ctx, _birkhoff_vector(ctx, psi), eps, mode)
        size = len(idxs)
    return PartitionSumResult(log_value=log_value, word=w, method=method, exact=exact, witness_size=size)


def partition_sum_separated(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, eps: float, mode: str = "auto") -> PartitionSumResult:
    """sup over separated sets E of sum_{x in E} exp(S_{w,n} psi(x))."""
    return _partition_sum("separated", cloud, schedule, w, n, psi, eps, mode)


def partition_sum_spanning(cloud: PointCloud, schedule: GenerationSchedule, w: Word, n: int, psi: Potential, eps: float, mode: str = "auto") -> PartitionSumResult:
    """inf over spanning sets F of sum_{x in F} exp(S_{w,n} psi(x))."""
    return _partition_sum("spanning", cloud, schedule, w, n, psi, eps, mode)


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

    @property
    def value(self) -> float:
        """The growth value (1/n) log of the averaged sum."""
        return self.log_average / self.n


def _word_sums(payload) -> list[PartitionSumResult]:
    """The per-word partition sums of one chunk of words, in word order."""
    cloud, schedule, words, n, psi, eps, kind = payload
    op = partition_sum_separated if kind == "separated" else partition_sum_spanning
    return [op(cloud, schedule, w, n, psi, eps) for w in words]


def averaged_partition_sum(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    n: int,
    psi: Potential,
    eps: float,
    kind: str = "separated",
    word_budget: int | None = 4096,
    seed: int = 0,
    workers: int = 1,
) -> AveragedPartitionSum:
    """Arithmetic mean over enumerated or sampled words of the per-word sums,
    accumulated by log-sum-exp.  stderr is the Monte Carlo standard error of
    the average in sampled mode and 0 in exact mode."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    words, word_mode, total = enumerate_words(schedule, 1, n, word_budget, seed)
    if workers > 1 and len(words) >= 8:
        chunks = np.array_split(np.arange(len(words)), min(workers, len(words), os.cpu_count() or 1))
        payloads = [(cloud, schedule, [words[i] for i in c], n, psi, eps, kind) for c in chunks]
        sums: list[PartitionSumResult] = []
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            for part in pool.map(_word_sums, payloads):
                sums.extend(part)
    else:
        sums = _word_sums((cloud, schedule, words, n, psi, eps, kind))
    logs = np.array([r.log_value for r in sums])
    log_average = _logsumexp(logs) - math.log(len(logs))
    stderr = 0.0
    if word_mode == "sampled" and len(logs) > 1:
        m = float(logs.max())
        lin = np.exp(logs - m)
        mean = float(lin.mean())
        se = float(lin.std(ddof=1)) / math.sqrt(len(lin))
        stderr = se / mean if mean > 0 else 0.0
    methods = {r.method for r in sums}
    method = methods.pop() if len(methods) == 1 else "mixed"
    return AveragedPartitionSum(
        log_average=log_average,
        stderr=stderr,
        word_mode=word_mode,
        n=n,
        eps=eps,
        kind=kind,
        method=method,
        exact=all(r.exact for r in sums),
        min_witness=min(r.witness_size for r in sums),
        words_used=len(words),
        word_count=total,
        cloud_size=len(cloud),
    )


# ---------------------------------------------------------------------------
# growth-rate curves


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
    """One AveragedPartitionSum per (n, eps), eps by eps in the order given
    and n ascending within each, with their per-eps summaries."""

    kind: str
    entries: list[AveragedPartitionSum]
    per_eps: list[EpsSummary]
    estimate: float
    eps_star: float
    all_exact: bool


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


def _eps_summary(eps: float, points: list[tuple[int, float, bool]]) -> EpsSummary:
    """The growth proxies of one eps from its (n, log sum, saturated) points,
    n ascending."""
    kept = [(n, y) for n, y, saturated in points if not saturated]
    if len(kept) < 2:
        kept = [(n, y) for n, y, _ in points]
    if len(kept) >= 2:
        slope = _ls_slope(kept)
        step = _max_step(kept)
    else:
        n, y, _ = points[-1]
        slope = step = y / n
    cut = math.ceil((points[0][0] + points[-1][0]) / 2)
    return EpsSummary(
        eps=eps,
        tail_max=max(y / n for n, y, _ in points if n >= cut),
        ls_slope=slope,
        max_step=step,
        estimate=step,
    )


def validate_eps_list(eps_list: Sequence[float]) -> list[float]:
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    if not all(0 < e < math.inf for e in eps_list):
        raise ValueError("eps values must be positive and finite")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return eps_list


def _is_step_count(v) -> bool:
    """v is an integral real >= 1 (not 2.5, nan or inf)."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, numbers.Real) and float(v).is_integer())
    return integral and v >= 1


def validate_step_count(value, name: str = "n") -> int:
    """value as an int, by the rule of validate_n_range."""
    if not _is_step_count(value):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def validate_n_range(values: Sequence[int], name: str = "n_range") -> list[int]:
    """values as distinct ascending ints; an empty range, a value below 1 or
    a value that is not integral (2.5, nan, inf) is refused."""
    values = list(values)
    if not values or not all(_is_step_count(v) for v in values):
        raise ValueError(f"{name} must be a nonempty list of integers >= 1, got {values!r}")
    return sorted(set(int(v) for v in values))


def pressure_estimate(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    psi: Potential,
    n_range: Sequence[int],
    eps_list: Sequence[float],
    word_budget: int | None = 4096,
    seed: int = 0,
    kind: str = "separated",
    workers: int = 1,
) -> PressureCurve:
    """Growth-rate curve of the word-averaged partition sums.

    For each (n, eps) the entry value is (1/n) log of the averaged sum; the
    per-eps extrapolations and the final estimate at the smallest eps are
    described on EpsSummary.  The eps -> 0 limit equality of the separated
    and spanning variants is monitored by running both kinds, never assumed.
    """
    ns = validate_n_range(n_range)
    eps_list = validate_eps_list(eps_list)
    token, cells = _curve_memo.set(None), {}
    try:
        # n by n, so that each word's orbit serves every eps (_CurveMemo)
        for n in ns:
            _curve_memo.set(_CurveMemo(cloud, schedule, n, psi, kind, eps_list))
            for eps in eps_list:
                cells[eps, n] = averaged_partition_sum(
                    cloud, schedule, n, psi, eps, kind=kind, word_budget=word_budget, seed=seed, workers=workers
                )
    finally:
        _curve_memo.reset(token)
    entries = [cells[eps, n] for eps in eps_list for n in ns]
    per_eps = [_eps_summary(eps, [(e.n, e.log_average, e.saturated) for e in entries if e.eps == eps]) for eps in eps_list]
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
    subset: Sequence[int],
    n_range: Sequence[int],
    eps_list: Sequence[float],
) -> SupEntropyEstimate:
    """Growth rate of maximal separated sets of a subset under the sup metric
    d*_n (sup over start indices and words of the orbit maximum).

    The empty subset has entropy 0 by convention.  Whenever all three counts
    are exact the sandwich r*(eps) <= s*(eps) <= r*(eps/2) is verified.
    """
    eps_list = validate_eps_list(eps_list)
    ns = validate_n_range(n_range)
    indices = _subset_indices(cloud, subset)
    if not indices:
        return SupEntropyEstimate(0.0, eps_list[-1], 0.0, [], [], 0, True)
    entries: list[SupEntropyEntry] = []
    sandwiches: list[SandwichCheck] = []
    for n in ns:
        ctx = _sup_orbit(cloud, schedule, n, indices)
        zeros = np.zeros(ctx.n_points)
        for eps in eps_list:
            _, s_idx, s_method, s_exact = _solve_separated_weighted(ctx, zeros, eps)
            _, r_idx, _, r_exact = _solve_spanning_weighted(ctx, zeros, eps)
            _, rh_idx, _, rh_exact = _solve_spanning_weighted(ctx, zeros, eps / 2.0)
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
    summary = _eps_summary(eps_list[-1], [(e.n, math.log(e.separated), e.saturated) for e in entries if e.eps == eps_list[-1]])
    return SupEntropyEstimate(
        estimate=summary.estimate,
        eps_star=eps_list[-1],
        limsup_proxy=summary.tail_max,
        entries=entries,
        sandwiches=sandwiches,
        subset_size=len(indices),
        all_exact=all(e.exact for e in entries),
    )


def _subset_indices(cloud: PointCloud, subset: Sequence[int]) -> list[int]:
    """The subset's distinct cloud indices, ascending."""
    if not all(isinstance(i, (int, np.integer)) for i in subset):
        raise TypeError("a subset holds cloud indices (integers)")
    indices = {int(i) for i in subset}
    if not all(0 <= i < len(cloud) for i in indices):
        raise KeyError(f"a subset index is outside the cloud of {len(cloud)} points")
    return sorted(indices)
