"""Extremal separated/spanning sets, partition sums, and pressure curves.

The combinatorial core: a maximal separated set is a maximum independent
set of the proximity graph under a Bowen metric, a minimal spanning set is
a minimum ball cover, and the partition sums are their weighted versions
with vertex weights exp(Birkhoff sum).  Exact solvers run up to fixed
size thresholds (subset enumeration to 12 points, bitset branch and bound
to 64).  Beyond that a symbolic orbit is still solved exactly: its Bowen
metric is a max of cylinder ultrametrics, so its closed eps-balls are the
classes of points that agree on their first k symbols at every step, and
each sum is a sum over classes (_class_sum, method "ultrametric_classes").
Other large orbits take deterministic greedy bounds.  Every result
self-reports its method and exactness.  Both branch and bounds first
split their instance into the connected components of its ball graph,
taken on the undirected closure of the balls (_split): a ball covers,
and conflicts with, points of its own component only, so the optimum is
the union of the components' optima.  An isolated point is taken as it
is, a pair whose balls each hold both points gives its lighter point
(spanning), a conflicting pair its heavier one (separated), and every
other component is searched alone.  The spanning search prunes with a
greedy ascent in the dual of the cover LP, scaled down by a stated
rounding margin, none when the weights are integers as the zero
potential's are (_cover_lower_bound); it is computed only at nodes where
it can prune, and stops once the node would prune (_cover_search).  The
weight of a branch and bound witness is math.fsum of its weights in
ascending index order (_witness_value), whichever search path found it.
A spanning sum whose cover weights all underflow is taken again in a
frame where they do not (_solve_spanning_weighted).

An orbit object (_BowenOrbit) is built from one list of step batches:
the orbit of the cloud along one word, every n-th step of such an orbit
(the power system's orbit), or the orbits of a subset under every start
and word (sup_orbit).  The orbits of several words of one length are
built together, in one orbit_batches pass (_word_orbits); a single word
is the one-word case (_word_orbit).  Every row and tile of Bowen
distances is computed from the orbit's distance forms.  Closed eps-balls
have one builder (_word_balls): it reduces tiles of Bowen matrices
(_matrix_tiles) over their steps and packs each tile into bit masks at
every eps it is given, and no orbit keeps a table of distances.  So a
greedy witness is re-checked on distances computed afresh, not on the
balls its cover read.  One predicate (_reads_balls) decides which solves
read balls: the exact ball solvers, and the ratio greedy cover of a
spanning solve up to MATRIX_LIMIT points.  A caller that reads one
orbit's balls at several eps builds them in one pass (the batch path,
sup_entropy_estimate); an orbit asked for balls it lacks builds them at
that eps alone.  sup_entropy_estimate also takes each distinct (kind,
balls) of its exact solves once over all its n and eps.  The orbit
keeps its eps-balls per eps, the one thing a solve reads that does not
depend on the weights, so callers that solve several potentials, both
kinds or a repeated eps on one orbit build them once; they are freed
with the orbit.  Subset enumeration builds
the subsets it may return from the balls at each solve
(_feasible_subsets) and sums the weights of every subset in one pass
(_subset_sums).  A caller with several potentials on one orbit at one
eps hands them over as rows (solve_separated_rows): up to 12 points
they share one table and one pass, and each row keeps the bits of its
single solve.

Greedy first fit reads one row per accepted point, and only over the
point's step-0 window when step 0 is an interval or circle grid itself
(_BowenOrbit.window), as one slice of the forms or two where a circle
window wraps; word clouds have no window, so a forced greedy solve on
words reads full rows.  The witness re-checks read no window, so they
do not depend on the window being right: the spanning re-check reads
every point, and the separated re-check every pair that could fail,
which on interval and circle orbits are the pairs near at step 0
(_recheck_separated).

Every word loop takes one batch path (batched_word_orbits): the words'
orbits are built together, their Birkhoff vectors take one potential
evaluation per step, and the eps-balls of the solves that read them come
from Bowen matrices built a tile of whole matrices at a time
(_matrix_tiles) and packed once per eps.  The batch hands out its
orbits one word at a time and holds one it has handed out only until the
next is asked for, so each orbit is freed once the caller has solved it.
Each word is still solved on its own orbit, so its sums are the bits it
has when solved alone.  The curves' per-word sums (_word_sums) and the
theorem checks' word loops both run on it.

A pressure curve holds one AveragedPartitionSum per (n, eps): the
word-averaged sum in log space and its growth value (1/n) log.  It takes
its cells n by n behind a memo of the per-word sums at the current n
(_CurveMemo).  The first request of a step solves every distinct word
the step drew in one batch, at every eps of the curve (_word_sums).  The
memo is dropped when the curve returns or raises; called on their own,
the per-word sums are not memoised, and a single sum is a batch of one
word.

All sums of exponentials are accumulated in log space with max shifting.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
# unused: perfbench/child.py counts pool_calls (now 0) through this name, and CI's traced step needs every metric
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .naifs import (
    GenerationSchedule,
    Word,
    enumerate_words,
    is_step_count,
    orbit_batches,
    sup_orbit_batches,
    validate_step_count,
)
from .space import (
    CIRCLE,
    FINITE,
    INTERVAL,
    SYMBOLIC,
    TILE_ELEMENTS,
    PointCloud,
    Potential,
    cylinder_keys,
    distance_form,
    distance_kernel,
    eval_potential_batch,
)

log = logging.getLogger("naifslab.pressure")

# the largest N at which one pass of TILE_ELEMENTS subset sums holds the
# basic checks' ten rows; one branch and bound solve is faster at every N
EXHAUSTIVE_LIMIT = 12
BRANCH_AND_BOUND_LIMIT = 64
# the largest orbit whose greedy spanning solve is a ratio cover over its
# eps-balls (N * N bits at each eps); past it, the eps-net reads rows.  The
# name predates the one ball builder and the benchmark reads it.
MATRIX_LIMIT = 1500
SUBSET_METRIC_LIMIT = 2000
# pairs of one chunk of the separated re-check (_step0_near_pairs)
_PAIR_CHUNK = 1 << 12

MODES = ("auto", "exhaustive", "branch_and_bound", "greedy")
# the exact method of symbolic orbits past BRANCH_AND_BOUND_LIMIT in mode
# "auto": their Bowen eps-balls are classes (_ultrametric_classes)
CLASSES = "ultrametric_classes"
KINDS = ("separated", "spanning")


def logsumexp(values: np.ndarray) -> float:
    """log of the sum of exp(values), shifted by the max; -inf for no values."""
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
    steps; the steps are those of one word of a word batch (_word_orbits),
    of every start and word of the sup metric (sup_orbit), or any list a
    caller already holds.  Each step is put in distance form once, and the
    forms are held stacked on one step axis, so that a row reads every
    step in one kernel call.  Rows and tiles are always computed from the
    forms, and no table of distances is kept.  The eps-balls (balls) come
    from the one builder, _word_balls, one kernel call per tile of Bowen
    matrices over every step (_matrix_tiles): run by a word batch for all
    its words, by sup_entropy_estimate at all its eps, or by balls itself
    at the one eps it lacks.  The tiles of tile and block are written into
    two buffers the orbit reuses.

    When step 0 is the enumerated interval or circle grid itself, a Bowen
    distance is at least the base distance, so the closed eps-ball of a
    point lies in its base ball, an index window (window).  Greedy rows
    read only the window.  Word clouds have no window: their large orbits
    are solved by classes (_ultrametric_classes), and a forced greedy
    solve reads full rows.

    The eps-balls (balls) are built on first use and kept for the life of
    the orbit, one entry per eps: solves of other weight vectors on the
    same orbit read them instead of rebuilding.  An orbit of a word batch
    lives until its word is solved: the batch drops it when it hands out
    the next word (batched_word_orbits), so only the caller's reference
    keeps it, and its balls, alive.
    """

    def __init__(self, cloud: PointCloud, steps: list[np.ndarray]):
        self.cloud = cloud
        self.batches = steps
        self.n_points = len(steps[0])
        self.forms = _stack_forms([distance_form(cloud, B) for B in steps], cloud.space.family == SYMBOLIC)
        # only the grids have an order that their balls follow
        self._windowed = cloud.enumerated and steps[0] is cloud.batch and cloud.space.family in (INTERVAL, CIRCLE)
        self._balls: dict[float, list[int]] = {}
        self._buffers: list[np.ndarray | None] = [None, None]

    def _buffer(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """Reused buffer `slot` (0: tiles, 1: one step inside block) viewed
        as shape.  It is made the size of a whole tile at once (no tile of
        a small cloud is larger than its matrix), so that tiles of varying
        shape do not regrow it."""
        size = math.prod(shape)
        buf = self._buffers[slot]
        if buf is None or buf.size < size:
            buf = self._buffers[slot] = np.empty(max(size, min(TILE_ELEMENTS, self.n_points**2)))
        return buf[:size].reshape(shape)

    def block(self, I: np.ndarray | slice, js: np.ndarray | slice, out: np.ndarray | None = None) -> np.ndarray:
        """Distances between the points I (rows) and js (columns), each an
        index array or a slice, computed from the forms and written into out
        when given and otherwise into a new array."""
        a = self._columns(I)[..., None]
        b = self._columns(js)[..., None, :]
        acc = distance_kernel(self.cloud, a[..., 0, :, :], b[..., 0, :, :], out)
        if a.shape[-3] > 1:
            scratch = self._buffer(1, acc.shape)
            for s in range(1, a.shape[-3]):
                np.maximum(acc, distance_kernel(self.cloud, a[..., s, :, :], b[..., s, :, :], scratch), out=acc)
        return acc

    def tile(self, I: np.ndarray, js: np.ndarray) -> np.ndarray:
        """block(I, js) in the orbit's tile buffer: the caller may overwrite
        it, and the next tile does."""
        return self.block(I, js, self._buffer(0, (len(I), len(js))))

    def row(self, i: int, js: np.ndarray | slice) -> np.ndarray:
        """Distances from point i to the points js, an index array or a
        slice, every step in one kernel call."""
        return distance_kernel(self.cloud, self.forms[..., i, None], self._columns(js)).max(axis=0)

    def _columns(self, js: np.ndarray | slice) -> np.ndarray:
        """The forms of the points js, in C order: np.take, unlike an index
        array on the last axis, keeps each step's points contiguous, and the
        kernels then write C-ordered tiles."""
        return self.forms[..., js] if isinstance(js, slice) else np.take(self.forms, js, axis=-1)

    def window(self, c: int, eps: float) -> np.ndarray:
        """Indices that hold every point within eps of point c: all of them,
        unless step 0 is an enumerated grid (see the class docstring).
        One grid step more than the base ball absorbs float rounding.  A
        window is a read-only view of one run of 0..N-1 taken twice over,
        so it wraps past the end of the circle, and is given by its first
        and last entries (_window_slices)."""
        n = self.n_points
        if not self._windowed:
            return self._ring[:n]
        if self.cloud.space.family == INTERVAL:
            r = math.ceil(min(eps, 1.0) * (n - 1)) + 1
            return self._ring[max(0, c - r) : min(n, c + r + 1)]
        r = math.ceil(min(eps, 0.5) * n) + 1
        if 2 * r + 1 >= n:
            return self._ring[:n]
        lo = (c - r) % n
        return self._ring[lo : lo + 2 * r + 1]

    @functools.cached_property
    def _ring(self) -> np.ndarray:
        """0..N-1 twice over, read-only: every window is a view of it, so
        that first fit pays no index array per accepted point."""
        ring = np.tile(np.arange(self.n_points), 2)
        ring.flags.writeable = False
        return ring

    def balls(self, eps: float) -> list[int]:
        """The closed eps-balls of the orbit as bit masks (_balls), built by
        _word_balls at this eps unless a caller built them already."""
        if eps not in self._balls:
            _word_balls([self], [eps])
        return self._balls[eps]

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


def _stack_forms(forms: list[np.ndarray], packed: bool) -> np.ndarray:
    """Forms of equal shape stacked on a new axis: in front, or right after
    the chunk axis of packed words, so that the step forms of an orbit
    give (steps, N) or (chunks, steps, N), and the forms of several
    orbits (words, steps, N) or (chunks, words, steps, N).  Packed words
    with fewer chunks gain zero chunks, equal in every word, which change
    no distance."""
    if not packed:
        return np.array(forms)
    stacked = np.zeros((max(len(f) for f in forms), len(forms), *forms[0].shape[1:]), dtype=forms[0].dtype)
    for s, f in enumerate(forms):
        stacked[: len(f), s] = f
    return stacked


def _matrix_tiles(cloud: PointCloud, forms: np.ndarray):
    """The Bowen matrices of the words on the word axis of forms
    (_stack_forms), one tile at a time: yields (words, rows, d), where
    d[i, s] holds the step-s distances of the matrix rows `rows` of word
    words[i], so that a max over axis -3 gives those rows.

    A tile holds the whole matrices of as many words as fit TILE_ELEMENTS
    with every step or, when one matrix does not, as many rows of one
    word's matrix as fit.  Either way it is one kernel call over every
    step."""
    *_, n_words, steps, n = forms.shape
    per = max(1, TILE_ELEMENTS // (steps * n * n))
    rows = min(n, _tile_rows(n * steps))
    # every tile is written into one buffer: a new array per tile costs
    # more in the allocator than the kernel does.  A finite space's kernel
    # gathers into a new array anyway, so it takes none.
    buf = None if cloud.space.family == FINITE else np.empty(min(per, n_words) * steps * rows * n)
    for lo in range(0, n_words, per):
        words = slice(lo, lo + per)
        k = min(per, n_words - lo)
        for r in range(0, n, rows):
            out = None if buf is None else buf[: k * steps * min(rows, n - r) * n].reshape(k, steps, -1, n)
            yield words, slice(r, r + rows), distance_kernel(cloud, forms[..., words, :, r : r + rows, None], forms[..., words, :, None, :], out)


def _tile_rows(n_cols: int) -> int:
    """Rows of a distance tile with n_cols columns."""
    return max(1, TILE_ELEMENTS // max(1, n_cols))


def _word_orbits(cloud: PointCloud, schedule: GenerationSchedule, words: list[Word], n: int) -> list[_BowenOrbit]:
    """The orbits of the whole cloud along the first n steps of each word,
    rooted at start 1, built in one orbit_batches pass.  Every orbit's
    step 0 is the cloud's batch, so the grids keep their windows."""
    if type(n) is not int or n < 0:
        n = validate_step_count(n, "n", minimum=0)
    for w in words:
        if w.start != 1:
            raise ValueError("partition sums run over words rooted at start 1; re-root the word")
        if n > len(w):
            raise ValueError(f"n={n} exceeds word length {len(w)}")
    return [_BowenOrbit(cloud, steps) for steps in orbit_batches(cloud.space, schedule, words, n, cloud.batch)]


def _word_orbit(cloud: PointCloud, schedule: GenerationSchedule, word: Word, n: int) -> _BowenOrbit:
    """The orbit of the whole cloud along the first n steps of a word rooted
    at start 1: _word_orbits at one word."""
    return _word_orbits(cloud, schedule, [word], n)[0]


def sup_orbit(cloud: PointCloud, schedule: GenerationSchedule, n: int, indices: Sequence[int]) -> _BowenOrbit:
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


def _balls(matrices: np.ndarray, eps: float) -> list:
    """The closed eps-balls of the rows of a matrix, or of each matrix on
    the leading axes, as bit masks in nested lists: bit j of ball i is set
    when d(i, j) <= eps.  Point i's conflicts are its ball without bit i."""
    packed = np.packbits(matrices <= eps, axis=-1, bitorder="little")
    width = packed.shape[-1]
    if width <= 8:
        # up to 64 points a row is one little-endian uint64, which tolist
        # turns into a Python int
        wide = np.zeros((*packed.shape[:-1], 8), dtype=np.uint8)
        wide[..., :width] = packed
        return wide.view("<u8")[..., 0].tolist()
    masks = [int.from_bytes(r.tobytes(), "little") for r in packed.reshape(-1, width)]
    return np.array(masks, dtype=object).reshape(packed.shape[:-1]).tolist()


def _word_balls(orbits: list[_BowenOrbit], eps_list: list[float]) -> None:
    """Give each orbit of one cloud with equally many steps (a word batch,
    or one orbit alone) its eps-balls at every eps of the list (balls):
    each tile of the orbits' Bowen matrices (_matrix_tiles over the stacked
    forms) is reduced over its steps once and packed once per eps.  No
    matrix is kept.  The only writer of an orbit's balls."""
    cloud = orbits[0].cloud
    balls = {eps: [[] for _ in orbits] for eps in eps_list}
    for words, _, d in _matrix_tiles(cloud, _stack_forms([ctx.forms for ctx in orbits], cloud.space.family == SYMBOLIC)):
        tile = d.max(axis=-3)
        for eps, per_word in balls.items():
            for masks, out in zip(_balls(tile, eps), per_word[words]):
                out.extend(masks)
    for eps, per_word in balls.items():
        for ctx, masks in zip(orbits, per_word):
            ctx._balls[eps] = masks


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


def _subset_sums(W: np.ndarray) -> np.ndarray:
    """wsum[s], the sum of the weight vector W over the bits of s: the
    weight half of subset enumeration.  Each subset adds its lowest bit's
    weight to the sum of its tail, so the terms are added from the highest
    bit down.  A stack of weight rows W, shape (rows, N), is summed in the
    same pass, with wsum[s, r] the sum of row r: each entry is the float
    it has when its row is summed alone.  Each row's sums are contiguous
    (the transpose of a C-ordered table), so every add runs along a row."""
    Wt = W.T
    wsum = np.zeros((*W.shape[:-1], 1 << len(Wt))).T
    for b in reversed(range(len(Wt))):
        step = 1 << (b + 1)
        np.add(wsum[::step], Wt[b], out=wsum[1 << b :: step])
    return wsum


def _best_subset(feas: np.ndarray, wlin: np.ndarray, pick) -> tuple[int, float]:
    """The feasible subset whose weight pick (np.ndarray.argmax or
    .argmin) selects, lowest index on ties, and its weight."""
    wsum = _subset_sums(wlin)[feas]
    i = pick(wsum)
    return int(feas[i]), float(wsum[i])


def _split(masks: list[int]) -> tuple[int, list[tuple[int, int]], list[int]]:
    """The connected components of the graph in which i and j are adjacent
    when masks[i] holds j or masks[j] holds i: the undirected closure, so
    that asymmetric masks split as symmetric ones do.  A ball, or a
    point's conflicts, lies inside its own component, so a least cover or
    a heaviest independent set is the union of one per component.

    Returns the isolated points as one mask, the two-point components
    whose points each hold the other as (i, j) pairs, i < j, and every
    other component as a mask.  The isolated points are those whose mask
    holds no other point and which no other mask holds; every other mask
    is merged, as it is read, with the components it meets.
    """
    held = 0
    for i, m in enumerate(masks):
        held |= m & ~(1 << i)
    isolated, comps, seen = 0, [], 0
    for i, m in enumerate(masks):
        m |= 1 << i
        if m == 1 << i and not (held >> i) & 1:
            isolated |= m
            continue
        if not m & seen:
            comps.append(m)
        elif len(comps) == 1:
            comps[0] |= m
        else:
            rest = []
            for c in comps:
                if c & m:
                    m |= c
                else:
                    rest.append(c)
            rest.append(m)
            comps = rest
        seen |= m
    pairs, larger = [], []
    for c in comps:
        if c.bit_count() == 2:
            i, j = _bits(c)
            if masks[i] | 1 << i == c == masks[j] | 1 << j:
                pairs.append((i, j))
                continue
        larger.append(c)
    return isolated, pairs, larger


def _witness_value(w: list[float], mask: int) -> float:
    """The weight of a witness: math.fsum of its weights in ascending
    index order, so that it does not depend on the search path that found
    the witness."""
    return math.fsum([w[i] for i in _bits(mask)])


def _bb_mwis(conflict: list[int], wlin: np.ndarray) -> tuple[int, float]:
    """Maximum weighted independent set by bitset branch and bound, one
    connected component of the conflict graph at a time (_split): an
    isolated point is taken, a conflicting pair gives its heavier point
    (lowest index on ties), and every other component is searched
    (_mwis_search)."""
    w = wlin.tolist()
    chosen, pairs, comps = _split(conflict)
    for i, j in pairs:
        chosen |= 1 << (j if w[j] > w[i] else i)
    for comp in comps:
        chosen |= _mwis_search(conflict, w, comp)
    return chosen, _witness_value(w, chosen)


def _mwis_search(conflict: list[int], w: list[float], comp: int) -> int:
    """The heaviest independent subset of the points of comp, a union of
    components of the conflict graph, by branch and bound with a greedy
    clique-cover bound."""
    members = _bits(comp)
    cliques: list[int] = []
    clique_of = [0] * len(w)
    for v in members:
        for ci, clique in enumerate(cliques):
            if conflict[v] & clique == clique:
                cliques[ci] = clique | (1 << v)
                clique_of[v] = ci
                break
        else:
            clique_of[v] = len(cliques)
            cliques.append(1 << v)

    order = sorted(members, key=lambda i: (-w[i], i))
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
        # heaviest vertex per clique, summed over cliques as first met from
        # the lowest vertex up
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

    dfs(comp, 0, 0.0)
    # dfs holds itself through its closure; dropping the name frees the
    # clique lists and weights now instead of at some later cycle collection
    del dfs
    return best_mask


def _cover_lower_bound(w: list[float], uncov: int, covers_elem: list[list[int]], elem_order: list[int], shrink: float, cur: float, best_val: float) -> float:
    """Lower bound on the weight of a cover of the elements in uncov: a
    greedy ascent in the dual of the cover LP (Chvátal 1979; Beasley
    1990), scaled by shrink (_rounding_shrink of the weights).

    Every ball starts with its weight as slack.  The uncovered elements,
    in elem_order (fewest holders first), each take as charge y_e the
    least slack over the balls that hold it (covers_elem[e]), and that
    charge is taken off the slack of each of those balls.  So no ball i
    is charged more than w_i in all, a feasible dual, and any cover C of
    uncov weighs sum_C w_i >= sum_C sum_{e in B_i} y_e >= sum_e y_e.  The
    ascent stops once a node of cost cur would prune on the bound, once
    (cur + bound) * shrink reaches best_val (_cover_search): the charges
    so far are a feasible dual too.  A charge of +inf means that every
    ball holding e, and so every cover, weighs +inf; cur is finite, so
    the test then passes for every best_val, and the ascent stops with
    the bound +inf before an inf - inf could leave a NaN slack.  Each y_e
    is at most the weight of e's lightest ball.

    Floats, with u = 2**-53 and m elements in elem_order.  When every
    weight is an integer and their sum is below 2**52, every slack, charge
    and sum here is exact, and shrink is 1.0.  Otherwise a ball's slack is
    lowered at most m times, never rises, and each rounded subtraction
    adds at most u times the slack, so at most u w_i, to what the ball is
    charged: the float charges are a feasible dual of the weights
    (1 + m u) w_i.  Their float sum is at most 1 + gamma_m times their
    real sum, gamma_m = m u / (1 - m u).  Addition and subtraction round
    with no underflow error, and charges below 2**-1022 sum exactly, so
    these factors hold for subnormal weights too.  The sum scaled by
    shrink = 1 - 4 (m + 1) u, rounded, is therefore at most the correctly
    rounded weight of every cover of uncov, and at most the float sum of
    every element's lightest ball, in any order.
    """
    slack = w.copy()
    get = slack.__getitem__
    total = 0.0
    for e in elem_order:
        if (uncov >> e) & 1:
            holders = covers_elem[e]
            y = min(map(get, holders))
            if y:
                total += y
                if (cur + total * shrink) * shrink >= best_val:
                    break
                for i in holders:
                    slack[i] -= y
    return total * shrink


def _rounding_shrink(weights: list[float]) -> float:
    """The factor that scales a cover bound over the m = len(weights)
    elements of a search, and a node's cost plus that bound, below the
    rounding of m float charges, of their sum and of a path of m picks
    (_cover_lower_bound, _cover_search): 1.0 when every weight is an
    integer and their sum is below 2**52, so that all of those are exact
    (the zero potential's weights are all 1.0), else 1 - 4 (m + 1) u,
    u = 2**-53.  Integer weights of 2**52 or more fail the test before
    their fsum is taken: two finite weights near the float maximum (the
    floor-scaled weights of _bb_cover) would overflow it."""
    if all(x.is_integer() and x < 2.0**52 for x in weights) and math.fsum(weights) < 2.0**52:
        return 1.0
    return 1.0 - (len(weights) + 1) * 2.0**-51


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
    """Minimum weighted ball cover by branch and bound, one connected
    component of the ball graph at a time (_split): an isolated point is
    covered by its own ball alone, a pair whose balls each hold both
    points by the lighter ball (lowest index on ties), and every other
    component, a pair with a ball that misses its own centre too, is
    searched (_cover_search).
    Among least covers of equal weight the search keeps the first it
    meets.  A point that no ball holds raises RuntimeError."""
    w = wlin.tolist()
    chosen, pairs, comps = _split(balls)
    # an isolated point whose ball is empty lies in no ball at all
    if 0 in balls and not all(balls[i] for i in _bits(chosen)):
        raise RuntimeError("spanning witness failed its defining property")
    for i, j in pairs:
        # _split ORs each point's own bit into its mask
        if balls[i] == 1 << i | 1 << j == balls[j]:
            chosen |= 1 << (j if w[j] < w[i] else i)
        else:
            comps.append(1 << i | 1 << j)
    for comp in comps:
        chosen |= _cover_search(balls, w, comp)
    return chosen, _witness_value(w, chosen)


def _cover_search(balls: list[int], w: list[float], comp: int) -> int:
    """The least cover of the points of comp, a union of components of the
    ball graph, by the balls of its points, found by depth-first search
    from the cover by all of them.  A point of comp that no ball holds
    raises RuntimeError.

    A node branches on the balls that hold its uncovered element held by
    fewest balls (lowest index on ties), lightest first, and prunes with
    the dual-ascent bound (_cover_lower_bound).  A child whose ball covers
    every element left is a leaf: it is taken as the best cover at the
    node, and its heavier siblings are not entered.  Two constant-time
    checks spare the bound where it cannot prune.  When the branching
    element's lightest ball brings the cost up to the best cover found,
    every child would prune on entry, and the node returns.  And the bound
    is at most light, the sum of every point's lightest ball, so at a node
    with cur + light < best_val it is not computed.

    Floats, with u = 2**-53.  Every weight is >= 0 and float addition
    rounds monotonically, so no cover below a child whose cost cur + w_i
    already reaches best_val is lighter.  When every weight of comp is an
    integer and their sum is below 2**52, every path sum is exact, the
    bound is a real lower bound, and the pruning test is cur + bound >=
    best_val, as in exact arithmetic.  Otherwise a cover below a node is
    found at the float sum of its picks in path order, at most m of them,
    m the number of points of comp: at least (1 - gamma_m)(A + R), with A
    the real sum of the node's picks, R that of the picks below it, and
    gamma_m = m u / (1 - m u).  The bound is at most R, and cur is at most
    (1 + gamma_m) A, so the pruning test, cur + bound rounded, scaled by
    _rounding_shrink = 1 - 4 (m + 1) u and rounded, is at most
    (A + R)(1 + gamma_m)(1 + u)**2 (1 - 4 (m + 1) u), below that float; in
    the subnormal range the sums are exact and the scaling rounds at most
    back to the unscaled value.  So a pruned node holds no cover lighter
    than best_val, and the search keeps the best covers, in order, of the
    search that prunes on children alone: among least covers of equal
    float weight, the first it meets.
    """
    # the balls holding each element, lightest first (lowest index on ties:
    # the sort is stable), and the elements by how few balls hold them
    members = _bits(comp)
    best_mask, best_val = comp, 0.0
    for i in members:
        best_val += w[i]
    covers_elem: list[list[int]] = [[] for _ in w]
    held = 0
    for i in sorted(members, key=w.__getitem__):
        b = balls[i]
        held |= b
        while b:
            lsb = b & -b
            covers_elem[lsb.bit_length() - 1].append(i)
            b ^= lsb
    # a ball of a point of comp holds points of comp only
    if held != comp:
        raise RuntimeError("spanning witness failed its defining property")
    light = 0.0
    for e in members:
        light += w[covers_elem[e][0]]
    elem_order = sorted(members, key=lambda e: (len(covers_elem[e]), e))
    shrink = _rounding_shrink([w[i] for i in members])

    def dfs(uncov_mask: int, chosen_mask: int, cur: float) -> None:
        nonlocal best_mask, best_val
        for e in elem_order:
            if (uncov_mask >> e) & 1:
                break
        holders = covers_elem[e]
        if cur + w[holders[0]] >= best_val:
            return
        if cur + light >= best_val and (cur + _cover_lower_bound(w, uncov_mask, covers_elem, elem_order, shrink, cur, best_val)) * shrink >= best_val:
            return
        for i in holders:
            # children come lightest first, so once a child would prune on
            # entry every later one would too
            child = cur + w[i]
            if child >= best_val:
                break
            rest = uncov_mask & ~balls[i]
            if not rest:
                # a leaf lighter than the best: every later child is heavier
                best_val = child
                best_mask = chosen_mask | 1 << i
                break
            dfs(rest, chosen_mask | 1 << i, child)

    dfs(comp, 0, 0.0)
    # dfs holds itself through its closure; dropping the name frees the
    # ball lists now instead of at some later cycle collection
    del dfs
    return best_mask


# ---------------------------------------------------------------------------
# the class solver of symbolic orbits (exact)


def _ultrametric_classes(ctx: _BowenOrbit, eps: float) -> np.ndarray:
    """A class label per point of a symbolic orbit: two points share one
    when at every step they agree on their first k symbols, k the least
    with 2**-k <= eps.

    Each step's cylinder distance is then at most eps, and otherwise one
    step's exceeds eps, so the classes are the closed eps-balls of the
    Bowen metric, a max of ultrametrics.  The label takes one key at a
    time as (label << width) | key, and is made dense (np.unique) where
    the pair could pass 64 bits; the key too, if that is not enough.
    """
    k = max(0, 1 - math.frexp(min(eps, 1.0))[1])
    label, width = np.zeros(ctx.n_points, dtype=np.uint64), 0
    for step in range(ctx.forms.shape[1]):
        for key, bits in cylinder_keys(ctx.forms[:, step], ctx.cloud.space.alphabet_size, k):
            if width + bits > 64:
                label, width = _dense(label)
                if width + bits > 64:
                    key, bits = _dense(key)
            label <<= np.uint64(bits)
            label |= key
            width += bits
    return label


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """values renumbered 0, 1, ... in their order, and the bit length of
    the largest number."""
    _, dense = np.unique(values, return_inverse=True)
    return dense.astype(np.uint64), int(dense.max()).bit_length()


def _class_sum(ctx: _BowenOrbit, S: np.ndarray, eps: float, kind: str) -> tuple[float, list[int]]:
    """The exact partition sum of a symbolic orbit in log space, and its
    witness as ascending indices: the heaviest point of each eps-class
    (_ultrametric_classes) for kind "separated", the lightest for
    "spanning", lowest index on ties.  The witness is re-checked before it
    is returned."""
    label = _ultrametric_classes(ctx, eps)
    # lexsort is stable: points of equal label and S keep index order
    order = np.lexsort((-S if kind == "separated" else S, label))
    label = label[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    np.not_equal(label[1:], label[:-1], out=first[1:])
    idxs = np.sort(order[first]).tolist()
    (_recheck_separated if kind == "separated" else _recheck_spanning)(ctx, idxs, eps)
    shift = float(S.max())
    total = math.fsum(np.exp(S[idxs] - shift))
    # the witness does not read the weights: when all of its own underflow,
    # its sum is taken in its own frame
    return (shift + math.log(total) if total else logsumexp(S[idxs])), idxs


# ---------------------------------------------------------------------------
# greedy solvers (deterministic; ties broken by lowest point index)


def _window_slices(js: np.ndarray) -> tuple[slice, ...]:
    """A window (_BowenOrbit.window) as slices of the index range, read off
    its first and last entries: one slice, or two when it wraps past the
    end of the circle."""
    lo, hi = int(js[0]), int(js[-1]) + 1
    return (slice(lo, hi),) if lo < hi else (slice(lo, None), slice(0, hi))


def _first_fit_separated(ctx: _BowenOrbit, eps: float, order: np.ndarray) -> list[int]:
    """First-fit maximal separated set in the given candidate order: each
    candidate still alive is accepted, and its row, read over its window
    one slice at a time (_window_slices), marks every point within eps
    dead."""
    dead = np.zeros(ctx.n_points, dtype=bool)
    accepted: list[int] = []
    for c in np.asarray(order, dtype=np.intp).tolist():
        if dead[c]:
            continue
        accepted.append(c)
        for js in _window_slices(ctx.window(c, eps)):
            dead[js] |= ctx.row(c, js) <= eps
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
    method: str
    exact: bool
    witness_size: int


def _resolve_method(mode: str, n_points: int, symbolic: bool) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "auto":
        if n_points <= EXHAUSTIVE_LIMIT:
            return "exhaustive"
        if n_points <= BRANCH_AND_BOUND_LIMIT:
            return "branch_and_bound"
        return CLASSES if symbolic else "greedy"
    if mode == "exhaustive" and n_points > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode is limited to {EXHAUSTIVE_LIMIT} points")
    if mode == "branch_and_bound" and n_points > BRANCH_AND_BOUND_LIMIT:
        raise ValueError(f"branch_and_bound mode is limited to {BRANCH_AND_BOUND_LIMIT} points")
    return mode


def _reads_balls(method: str, n_points: int, kind: str) -> bool:
    """Whether a solve of kind by method reads the orbit's eps-balls: the
    exact ball solvers do, and so does the ratio greedy cover of a
    spanning solve up to MATRIX_LIMIT points.  The class solver reads
    cylinder keys, and first fit and the eps-net read rows."""
    return method in ("exhaustive", "branch_and_bound") or (method == "greedy" and kind == "spanning" and n_points <= MATRIX_LIMIT)


def _recheck_separated(ctx, idxs: list[int], eps: float) -> None:
    """Every pair of the witness is more than eps apart.

    A Bowen distance is a max over steps, so a pair more than eps apart at
    any one step cannot fail.  On interval and circle orbits the check
    reads only the pairs within eps + margin of each other at step 0
    (_step0_near_pairs): the witness sorted by its step-0 coordinate x
    (forms[0]), searchsorted finds each point's partners above it up to
    x + eps + margin, cyclically on the circle.  Each further step then
    reads only the pairs the steps before it kept within eps
    (_near_at_every_step), and the witness fails if a pair is kept at
    every step.  The margin, 2**-46 (1 + max |x| + eps), exceeds the summed
    rounding of the kernel's |a - b| and min(d, 1 - d), of x + 1 and of
    x + eps + margin, each at most 2**-52 (1 + max |x| + eps): so every pair
    whose computed step-0 distance is at most eps is read, and the verdict
    is that of reading every pair.  Symbolic and finite orbits read every
    pair (_BowenOrbit.min_pair_distance).  Either way the check reads the
    forms, never a window or the balls."""
    if ctx.cloud.space.family in (INTERVAL, CIRCLE):
        failed = any(_near_at_every_step(ctx, a, b, eps) for a, b in _step0_near_pairs(ctx, idxs, eps))
    else:
        failed = ctx.min_pair_distance(idxs) <= eps
    if failed:
        raise RuntimeError("separated witness failed its defining property")


def _step0_near_pairs(ctx: _BowenOrbit, idxs: Sequence[int], eps: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs of the points idxs of an interval or circle orbit within
    eps + margin of each other at step 0 (see _recheck_separated), as index
    arrays (a, b) of at most _PAIR_CHUNK pairs.  On the circle the sorted
    coordinates are followed by the same plus 1, so a pair close across 0
    is found from its upper point, and eps is taken at most 1/2, past
    which every pair is near."""
    pts = np.asarray(idxs, dtype=np.intp)
    if len(pts) < 2:
        return
    x = ctx.forms[0, pts]
    order = np.argsort(x)
    x, pts = x[order], pts[order]
    if ctx.cloud.space.family == CIRCLE:
        eps = min(eps, 0.5)
        ys, pts = np.concatenate([x, x + 1.0]), np.concatenate([pts, pts])
    else:
        ys = x
    reach = eps + 2.0**-46 * (1.0 + float(np.abs(x).max()) + eps)
    first = np.arange(1, len(x) + 1)
    counts = np.searchsorted(ys, x + reach, side="right") - first
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for lo in range(0, total, _PAIR_CHUNK):
        k = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        i = np.searchsorted(ends, k, side="right")
        # pair k is point i and its (k - start of i)-th partner above it
        yield pts[i], pts[k - (ends[i] - counts[i]) + first[i]]


def _near_at_every_step(ctx: _BowenOrbit, a: np.ndarray, b: np.ndarray, eps: float) -> bool:
    """Whether some pair (a[k], b[k]) is within eps at every step, that is
    in the Bowen distance: each step reads only the pairs the steps before
    it kept."""
    for step in ctx.forms:
        near = distance_kernel(ctx.cloud, step[a], step[b]) <= eps
        a, b = a[near], b[near]
        if not len(a):
            return False
    return True


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


def _solve_method(ctx, eps: float, mode: str) -> str:
    """The method of a solve on ctx at eps in mode; eps must be positive."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _resolve_method(mode, ctx.n_points, ctx.cloud.space.family == SYMBOLIC)


def _weights(S: np.ndarray) -> tuple[float, np.ndarray]:
    """The shift of the Birkhoff sums S (their max) and the weights
    exp(S - shift)."""
    shift = float(S.max())
    if not math.isfinite(shift):
        # a NaN or an overflowed Birkhoff sum has no partition sum to report
        raise ValueError(f"the Birkhoff sums are not finite (max {shift})")
    return shift, np.exp(S - shift)


def _solve_separated_weighted(ctx, S: np.ndarray, eps: float, mode: str = "auto") -> tuple[float, list[int], str, bool]:
    """sup over separated sets of sum exp(S); returns (log value, witness,
    method, exact).  Every witness is re-checked before it is returned."""
    method = _solve_method(ctx, eps, mode)
    shift, wlin = _weights(S)
    if method == CLASSES:
        return *_class_sum(ctx, S, eps, "separated"), method, True
    if not _reads_balls(method, ctx.n_points, "separated"):
        idxs = _first_fit_separated(ctx, eps, np.lexsort((np.arange(ctx.n_points), -S)))
        witness = sorted(idxs)
        _recheck_separated(ctx, witness, eps)
        return shift + math.log(float(wlin[idxs].sum())), witness, "greedy", False
    balls = ctx.balls(eps)
    if method == "exhaustive":
        mask, val = _best_subset(_feasible_subsets(balls, "separated"), wlin, np.ndarray.argmax)
    else:
        mask, val = _bb_mwis([b & ~(1 << i) for i, b in enumerate(balls)], wlin)
    return shift + math.log(val), _separated_witness(balls, mask), method, True


def solve_separated_rows(ctx, S: np.ndarray, eps: float) -> list[tuple[float, list[int], str, bool]]:
    """_solve_separated_weighted of each row of S, shape (rows, N), on one
    orbit at one eps: one (log value, witness, method, exact) per row, the
    bits each row has when solved alone.

    Subset enumeration takes each row's shift and weights as a single
    solve does (_weights), then fills the subset sums of every row in one
    pass (_subset_sums) and reads one feasible table for them all: up to
    EXHAUSTIVE_LIMIT = 12 points the basic checks' ten rows are at most
    ten times 4,096 sums.  Every other method solves row by row."""
    if _solve_method(ctx, eps, "auto") != "exhaustive":
        return [_solve_separated_weighted(ctx, s, eps) for s in S]
    weights = [_weights(s) for s in S]
    balls = ctx.balls(eps)
    feas = _feasible_subsets(balls, "separated")
    wsum = _subset_sums(np.array([wlin for _, wlin in weights]).reshape(S.shape))[feas]
    return [
        (shift + math.log(float(wsum[i, r])), _separated_witness(balls, int(feas[i])), "exhaustive", True)
        for r, ((shift, _), i) in enumerate(zip(weights, wsum.argmax(axis=0).tolist()))
    ]


def _separated_witness(balls: list[int], mask: int) -> list[int]:
    """The points of mask, ascending, re-checked: no point lies in the
    eps-ball of another."""
    idxs = _bits(mask)
    for i in idxs:
        if balls[i] & ~(1 << i) & mask:
            raise RuntimeError("separated witness failed its defining property")
    return idxs


def _solve_spanning_weighted(ctx, S: np.ndarray, eps: float, mode: str = "auto") -> tuple[float, list[int], str, bool]:
    """inf over spanning sets of sum exp(S); returns as _solve_separated_weighted.

    When every weight of the cover underflows (its sum is 0.0), a witness
    that does not read the weights (classes, the eps-net) is summed in its
    own frame, and a ball cover is solved again with S shifted by
    _cover_floor, in whose frame the least cover sums to between 1 and N.
    """
    method = _solve_method(ctx, eps, mode)
    shift, wlin = _weights(S)
    if method == CLASSES:
        return *_class_sum(ctx, S, eps, "spanning"), method, True
    if not _reads_balls(method, ctx.n_points, "spanning"):
        # an eps-net: a maximal eps-separated set spans at eps
        idxs = _first_fit_separated(ctx, eps, np.arange(ctx.n_points))
        _recheck_spanning(ctx, idxs, eps)
        total = float(wlin[idxs].sum())
        return (shift + math.log(total) if total else logsumexp(S[idxs])), idxs, method, False
    balls = ctx.balls(eps)
    idxs, total = _ball_cover(balls, wlin, method)
    if total == 0.0:
        shift = _cover_floor(balls, S)
        if shift > -math.inf:
            # exp(S - shift) overflows only on balls that no least cover holds
            with np.errstate(over="ignore"):
                idxs, total = _ball_cover(balls, np.exp(S - shift), method)
    if method == "greedy":
        _recheck_spanning(ctx, idxs, eps)
    else:
        covered = 0
        for i in idxs:
            covered |= balls[i]
        if covered != (1 << ctx.n_points) - 1:
            raise RuntimeError("spanning witness failed its defining property")
    # a sum still 0.0 has a floor of -inf: every point lies in a ball of weight 0
    return (shift + math.log(total) if total else -math.inf), idxs, method, method != "greedy"


def _ball_cover(balls: list[int], wlin: np.ndarray, method: str) -> tuple[list[int], float]:
    """The cover that method finds over the eps-balls, as ascending
    indices, and its weight: the ratio greedy cover (_greedy_cover_bits,
    summed in pick order) for "greedy", the least cover otherwise."""
    if method == "greedy":
        picks = _greedy_cover_bits(balls, wlin.tolist())
        return sorted(picks), float(wlin[picks].sum())
    if method == "exhaustive":
        mask, total = _best_subset(_feasible_subsets(balls, "spanning"), wlin, np.ndarray.argmin)
    else:
        mask, total = _bb_cover(balls, wlin)
    return _bits(mask), total


def _cover_floor(balls: list[int], S: np.ndarray) -> float:
    """max over points x of the least S_i over the balls i that hold x.
    Every cover holds a ball of that x, so exp(S - floor) gives it a weight
    of at least 1; choosing each point's least ball gives a cover of
    weight at most N."""
    n = len(balls)
    packed = np.frombuffer(b"".join(b.to_bytes(-(-n // 8), "little") for b in balls), dtype=np.uint8)
    held = np.unpackbits(packed.reshape(n, -1), axis=1, count=n, bitorder="little").astype(bool)
    return float(np.where(held, S[:, None], np.inf).min(axis=0).max())


# ---------------------------------------------------------------------------
# public operations


def _birkhoff_vectors(orbits: list[_BowenOrbit], terms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The Birkhoff sums of orbits of one cloud with equally many steps,
    summed step by step: terms(points) gives the summands at a stack of
    points, an array whose last axis runs over the points, and each step
    of every orbit takes one terms call on the stacked points.  The result
    has terms' leading axes, then one row per orbit.  A point's sum does
    not depend on the other orbits.  Only a symbolic generation that holds
    both a shift and a map that keeps the depth gives the orbits' points
    at one step two shapes; those are summed orbit by orbit."""
    S = None
    # an overflowed sum is refused by _weights, not warned about here
    with np.errstate(over="ignore"):
        for points in zip(*(ctx.batches for ctx in orbits)):
            if len(points) == 1:
                t = terms(points[0])
            elif all(p.shape == points[0].shape for p in points):
                t = terms(np.concatenate(points))
            else:
                t = np.concatenate([terms(p) for p in points], axis=-1)
            if S is None:
                S = np.zeros_like(t)
            S += t
    return S.reshape(*S.shape[:-1], len(orbits), orbits[0].n_points)


def _birkhoff_vector(ctx: _BowenOrbit, psi: Potential) -> np.ndarray:
    """The Birkhoff vector of one orbit: _birkhoff_vectors at one orbit of psi."""
    return _birkhoff_vectors([ctx], functools.partial(eval_potential_batch, ctx.cloud.space, psi))[0]


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
    return ExtremalSetResult(spanning_lower_bound(ctx, eps, len(idxs), exact), len(idxs), tuple(map(int, idxs)), exact, method)


def spanning_lower_bound(ctx: _BowenOrbit, eps: float, size: int, exact: bool) -> int:
    """A lower bound on the least eps-spanning set of an orbit, given a
    spanning witness of size points: size itself when the solve was exact,
    else the smaller of size and the cloud's point count over its largest
    eps-ball, rounded up (a ball covers at most that many points)."""
    if exact:
        return size
    return min(size, max(1, math.ceil(ctx.n_points / _max_ball_size(ctx, eps))))


def zero_potential_key(ctx: _BowenOrbit, kind: str, eps: float) -> tuple | None:
    """(kind, the orbit's eps-balls) when an auto-mode solve of kind of the
    zero potential on ctx depends on those balls alone, as subset
    enumeration and branch and bound do, so that solves with equal keys
    are equal; None for the class and greedy solves, which do not."""
    if _solve_method(ctx, eps, "auto") in ("exhaustive", "branch_and_bound"):
        return kind, tuple(ctx.balls(eps))
    return None


def _weighted_solver(kind: str):
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return _solve_separated_weighted if kind == "separated" else _solve_spanning_weighted


def batched_word_orbits(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    words: list[Word],
    n: int,
    kind: str,
    eps_list: list[float],
    terms: Callable[[np.ndarray], np.ndarray],
    strides: Sequence[int] = (1,),
    mode: str = "auto",
) -> Iterator[tuple[tuple[_BowenOrbit, np.ndarray], ...]]:
    """Per word, in order, one (orbit, Birkhoff vector) pair per stride k:
    the orbit of every k-th step of the word's first n, rooted at start 1
    (at k the orbit of the k-step power system along the blocked word),
    and its Birkhoff vector of terms (_birkhoff_vectors; for a potential
    psi, functools.partial(eval_potential_batch, cloud.space, psi)).  The
    caller solves each orbit as kind at the eps of eps_list in mode.

    The words are taken in chunks whose orbits hold at most TILE_ELEMENTS
    points (one word at least).  A chunk's orbits are built together
    (_word_orbits) and, per stride, its Birkhoff vectors take one terms
    call per step.  When a solve of kind in mode reads eps-balls
    (_reads_balls), each stride's balls at every eps come from its Bowen
    matrices, a tile of words at a time (_word_balls).  The chunk then
    hands out its orbits one word at a time and holds one it has handed
    out only until the caller asks for the next word, so an orbit, with
    its eps-balls, is freed once the caller is done with it, not when the
    chunk ends.  Each orbit is solved on its own, so its sums do not
    depend on the other words.
    """
    if type(n) is not int or n < 0:
        n = validate_step_count(n, "n", minimum=0)
    per = max(1, TILE_ELEMENTS // ((n + 1) * len(cloud)))
    reads_balls = _reads_balls(_resolve_method(mode, len(cloud), cloud.space.family == SYMBOLIC), len(cloud), kind)
    for lo in range(0, len(words), per):
        base = _word_orbits(cloud, schedule, words[lo : lo + per], n)
        views = []
        for k in strides:
            orbits = base if k == 1 else [_BowenOrbit(cloud, ctx.batches[::k]) for ctx in base]
            if reads_balls:
                _word_balls(orbits, eps_list)
            views.append((orbits, _birkhoff_vectors(orbits, terms)))
        del base
        for i in range(len(views[0][0])):
            pairs = tuple((orbits[i], S[..., i, :]) for orbits, S in views)
            for orbits, _ in views:
                orbits[i] = None
            yield pairs


def _word_sums(
    cloud: PointCloud, schedule: GenerationSchedule, n: int, psi: Potential, kind: str, eps_list: list[float], words: list[Word], mode: str = "auto"
) -> list[list[tuple[float, int, str, bool]]]:
    """Per word, (log value, witness size, method, exact) at every eps of
    the list, in order: the unit that _CurveMemo reads, solved on the
    batch path (batched_word_orbits)."""
    solve = _weighted_solver(kind)
    terms = functools.partial(eval_potential_batch, cloud.space, psi)
    return [
        [(value, len(idxs), method, exact) for value, idxs, method, exact in (solve(ctx, s, e, mode) for e in eps_list)]
        for [(ctx, s)] in batched_word_orbits(cloud, schedule, words, n, kind, eps_list, terms, mode=mode)
    ]


class _CurveMemo:
    """The per-word sums of one pressure curve at one n.

    A word's orbit and Birkhoff vector depend on neither eps nor how often
    the word was drawn, so the first request for a word with no sums yet
    solves it at every eps of the curve in one batch (_word_sums) with
    every distinct word of the step (expect) that has none yet.  Only
    requests with the memo's cloud, schedule and potential (by identity),
    n and kind, mode "auto" and an eps of the curve are served.
    """

    def __init__(self, cloud: PointCloud, schedule: GenerationSchedule, n: int, psi: Potential, kind: str, eps_list: list[float]):
        self.scope = (cloud, schedule, n, psi, kind, eps_list)
        self.eps_index = {eps: i for i, eps in enumerate(eps_list)}
        self.words: list[Word] = []
        self.sums: dict[Word, list[tuple[float, int, str, bool]]] = {}

    def serves(self, cloud, schedule, n: int, psi, eps: float, mode: str, kind: str) -> bool:
        c, s, m, p, k, _ = self.scope
        return cloud is c and schedule is s and n == m and psi is p and kind == k and mode == "auto" and eps in self.eps_index

    def expect(self, words: list[Word]) -> None:
        """The step's words, as the averaged sum about to read them drew
        them, for the next batch."""
        self.words = words

    def read(self, w: Word, eps: float) -> tuple[float, int, str, bool]:
        sums = self.sums.get(w)
        if sums is None:
            missing = [x for x in dict.fromkeys([*self.words, w]) if x not in self.sums]
            self.sums.update(zip(missing, _word_sums(*self.scope, missing)))
            sums = self.sums[w]
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
        [[(log_value, size, method, exact)]] = _word_sums(cloud, schedule, n, psi, kind, [eps], [w], mode)
    return PartitionSumResult(log_value=log_value, method=method, exact=exact, witness_size=size)


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


def averaged_partition_sum(
    cloud: PointCloud,
    schedule: GenerationSchedule,
    n: int,
    psi: Potential,
    eps: float,
    kind: str = "separated",
    word_budget: int | None = 4096,
    seed: int = 0,
) -> AveragedPartitionSum:
    """Arithmetic mean over enumerated or sampled words of the per-word sums,
    accumulated by log-sum-exp.  stderr is the Monte Carlo standard error of
    the average in sampled mode and 0 in exact mode."""
    n = validate_step_count(n)
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    words, word_mode, total = enumerate_words(schedule, 1, n, word_budget, seed)
    memo = _curve_memo.get()
    if memo is not None and memo.serves(cloud, schedule, n, psi, eps, "auto", kind):
        memo.expect(words)
    op = partition_sum_separated if kind == "separated" else partition_sum_spanning
    sums = [op(cloud, schedule, w, n, psi, eps) for w in words]
    logs = np.array([r.log_value for r in sums])
    log_average = logsumexp(logs) - math.log(len(logs))
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


def validate_n_range(values: Sequence[int], name: str = "n_range") -> list[int]:
    """values as distinct ascending ints; an empty range, a value below 1 or
    a value that is not integral (2.5, nan, inf) is refused, by the rule of
    naifs.is_step_count."""
    values = list(values)
    if not values or not all(is_step_count(v) for v in values):
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
                cells[eps, n] = averaged_partition_sum(cloud, schedule, n, psi, eps, kind=kind, word_budget=word_budget, seed=seed)
    finally:
        _curve_memo.reset(token)
    entries = [cells[eps, n] for eps in eps_list for n in ns]
    per_eps = [_eps_summary(eps, [(e.n, e.log_average, e.saturated) for e in entries if e.eps == eps]) for eps in eps_list]
    return PressureCurve(
        kind=kind,
        entries=entries,
        per_eps=per_eps,
        estimate=per_eps[-1].max_step,
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


@dataclass
class SupEntropyEstimate:
    estimate: float
    eps_star: float
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
    are exact the sandwich r*(eps) <= s*(eps) <= r*(eps/2) is verified, and
    a triple that breaks it raises RuntimeError, as a failed witness
    re-check does.

    When the subset is solved exhaustively or by branch and bound, a solve
    of the zero potential and its witness check read its eps-balls alone,
    so the call solves each distinct (kind, balls) once, over all its n
    and eps, and reads the stored result wherever they recur.  Class and
    greedy solves are taken, and re-checked, at every (n, eps).
    """
    eps_list = validate_eps_list(eps_list)
    ns = validate_n_range(n_range)
    indices = _subset_indices(cloud, subset)
    if not indices:
        return SupEntropyEstimate(0.0, eps_list[-1], [], [], 0, True)
    entries: list[SupEntropyEntry] = []
    sandwiches: list[SandwichCheck] = []
    spanning_eps = sorted({*eps_list, *(eps / 2.0 for eps in eps_list)}, reverse=True)
    method = _resolve_method("auto", len(indices), cloud.space.family == SYMBOLIC)
    # an exact solve is keyed on its balls (zero_potential_key), a class or
    # greedy solve on its (n, eps)
    solved: dict[tuple, tuple[float, list[int], str, bool]] = {}
    for n in ns:
        ctx = sup_orbit(cloud, schedule, n, indices)
        zeros = np.zeros(ctx.n_points)
        # every solve below that reads eps-balls reads them at an eps of spanning_eps
        if _reads_balls(method, ctx.n_points, "spanning"):
            _word_balls([ctx], spanning_eps)
        got = {}
        for kind, eps in [*(("spanning", e) for e in spanning_eps), *(("separated", e) for e in eps_list)]:
            key = zero_potential_key(ctx, kind, eps) or (kind, n, eps)
            got[kind, eps] = solved[key] = solved.get(key) or _weighted_solver(kind)(ctx, zeros, eps)
        for eps in eps_list:
            _, s_idx, s_method, s_exact = got["separated", eps]
            _, r_idx, _, r_exact = got["spanning", eps]
            _, rh_idx, _, rh_exact = got["spanning", eps / 2.0]
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
                r_eps, s_eps, r_half = len(r_idx), len(s_idx), len(rh_idx)
                if not r_eps <= s_eps <= r_half:
                    raise RuntimeError(f"sandwich r*(eps) <= s*(eps) <= r*(eps/2) failed at n={n}, eps={eps}: {r_eps}, {s_eps}, {r_half}")
                sandwiches.append(SandwichCheck(n=n, eps=eps, r_eps=r_eps, s_eps=s_eps, r_half=r_half))
    summary = _eps_summary(eps_list[-1], [(e.n, math.log(e.separated), e.saturated) for e in entries if e.eps == eps_list[-1]])
    return SupEntropyEstimate(
        estimate=summary.max_step,
        eps_star=eps_list[-1],
        entries=entries,
        sandwiches=sandwiches,
        subset_size=len(indices),
        all_exact=all(e.exact for e in entries),
    )


def _subset_indices(cloud: PointCloud, subset: Sequence[int]) -> list[int]:
    """The subset's distinct cloud indices, ascending."""
    bad = [i for i in subset if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
    if bad:
        raise TypeError(f"a subset holds cloud indices (integers), not {bad[0]!r}")
    indices = {int(i) for i in subset}
    if not all(0 <= i < len(cloud) for i in indices):
        raise KeyError(f"a subset index is outside the cloud of {len(cloud)} points")
    return sorted(indices)
