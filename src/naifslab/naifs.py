"""Non-autonomous iterated function systems.

A system is a time-indexed sequence of generations; generation j is a
finite ordered family of self-maps of the space, its index set being
{0, ..., len-1}.  Schedules are eventually periodic (finite prefix plus a
repeating cycle), which makes every supremum over start indices exact.

Words select one map per generation; compositions, Bowen metrics, the
n-step power system, truncated systems, and factor maps between two
systems with identical index sets all live here.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .space import (
    CIRCLE,
    FINITE,
    INTERVAL,
    SYMBOLIC,
    PointCloud,
    batch_to_points,
    canonical_key,
    paired_distances,
    points_to_batch,
)

log = logging.getLogger("naifslab.naifs")

MAP_KINDS = (
    "identity",
    "affine_mod1",
    "affine_clamped",
    "doubling",
    "rotation",
    "tent",
    "permutation_table",
    "shift",
    "symbol_substitution_table",
)

# which map kinds are meaningful on which space family
_KIND_FAMILIES = {
    "identity": (INTERVAL, CIRCLE, SYMBOLIC, FINITE),
    "affine_mod1": (CIRCLE,),
    "affine_clamped": (INTERVAL,),
    "doubling": (CIRCLE,),
    "rotation": (CIRCLE,),
    "tent": (INTERVAL,),
    "permutation_table": (FINITE,),
    "shift": (SYMBOLIC,),
    "symbol_substitution_table": (SYMBOLIC,),
}

WORD_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class MapSpec:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}; expected one of {MAP_KINDS}")
        object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True)
class ComposedMap:
    """Left-to-right composition of primitive maps (used by power systems)."""

    steps: tuple[MapSpec, ...]


Map = MapSpec | ComposedMap
Generation = tuple[Map, ...]


def apply_map(space, m: Map, batch: np.ndarray) -> np.ndarray:
    if isinstance(m, ComposedMap):
        for step in m.steps:
            batch = apply_map(space, step, batch)
        return batch
    k = m.kind
    if k == "identity":
        return batch
    if k == "affine_mod1":
        a, b = m.params
        return (a * batch + b) % 1.0
    if k == "affine_clamped":
        a, b = m.params
        return a * batch + b
    if k == "doubling":
        return (2.0 * batch) % 1.0
    if k == "rotation":
        (alpha,) = m.params
        return (batch + alpha) % 1.0
    if k == "tent":
        return 1.0 - np.abs(2.0 * batch - 1.0)
    if k == "permutation_table":
        table = np.asarray(m.params, dtype=np.intp)
        return table[batch]
    if k == "shift":
        if batch.ndim != 2 or batch.shape[1] == 0:
            raise ValueError("shift applied past the symbolic depth; increase the depth D")
        return batch[:, 1:]
    # symbol_substitution_table
    table = np.asarray(m.params, dtype=np.int8)
    return table[batch]


def validate_map(space, m: Map) -> None:
    if isinstance(m, ComposedMap):
        for step in m.steps:
            validate_map(space, step)
        return
    if space.family not in _KIND_FAMILIES[m.kind]:
        raise ValueError(f"map kind {m.kind!r} is not valid on a {space.family} space")
    if m.kind == "permutation_table":
        table = [int(v) for v in m.params]
        if sorted(table) != list(range(space.resolution)):
            raise ValueError("permutation_table must be a bijection on cloud indices")
    if m.kind == "affine_clamped":
        a, b = m.params
        for endpoint in (b, a + b):
            if not -1e-12 <= endpoint <= 1.0 + 1e-12:
                raise ValueError("affine_clamped must map [0,1] into [0,1]")
    if m.kind == "symbol_substitution_table":
        table = [int(v) for v in m.params]
        if len(table) != space.alphabet_size or any(not 0 <= v < space.alphabet_size for v in table):
            raise ValueError("symbol_substitution_table must map the alphabet into itself")


@dataclass(frozen=True)
class GenerationSchedule:
    """Eventually periodic sequence of generations (prefix + repeating cycle)."""

    prefix: tuple[Generation, ...]
    cycle: tuple[Generation, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        for gen in (*self.prefix, *self.cycle):
            if not gen:
                raise ValueError("every generation must be a nonempty map family")
        object.__setattr__(self, "prefix", tuple(tuple(g) for g in self.prefix))
        object.__setattr__(self, "cycle", tuple(tuple(g) for g in self.cycle))

    @property
    def horizon(self) -> int:
        """Start indices beyond the horizon repeat a cycle position."""
        return len(self.prefix) + len(self.cycle)


def validate_schedule(space, schedule: GenerationSchedule) -> None:
    for gen in (*schedule.prefix, *schedule.cycle):
        for m in gen:
            validate_map(space, m)


def generation_at(schedule: GenerationSchedule, j: int) -> Generation:
    if j < 1:
        raise ValueError(f"generation index must be >= 1, got {j}")
    p = len(schedule.prefix)
    if j <= p:
        return schedule.prefix[j - 1]
    return schedule.cycle[(j - 1 - p) % len(schedule.cycle)]


@dataclass(frozen=True)
class Word:
    """Finite word w_m ... w_{m+n-1}; symbols[t] indexes generation m+t."""

    start: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.start < 1:
            raise ValueError(f"word start must be >= 1, got {self.start}")
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)


def validate_word(schedule: GenerationSchedule, w: Word) -> None:
    for t, s in enumerate(w.symbols):
        gen = generation_at(schedule, w.start + t)
        if not 0 <= s < len(gen):
            raise ValueError(f"word symbol {s} outside index set of generation {w.start + t}")


def compose_batch(space, schedule: GenerationSchedule, w: Word, i: int, k: int, batch: np.ndarray) -> np.ndarray:
    """Apply f_w^{i,k} to a point batch (k = 0 is the identity)."""
    if k < 0:
        raise ValueError("composition length k must be >= 0")
    if i < w.start or i + k > w.start + len(w):
        raise ValueError(f"word too short for composition (i={i}, k={k}, start={w.start}, |w|={len(w)})")
    for g in range(i, i + k):
        sym = w.symbols[g - w.start]
        gen = generation_at(schedule, g)
        if sym >= len(gen):
            raise ValueError(f"word symbol {sym} outside index set of generation {g}")
        batch = apply_map(space, gen[sym], batch)
    return batch


def compose(cloud: PointCloud, schedule: GenerationSchedule, w: Word, i: int, k: int, x):
    """Pointwise f_w^{i,k}(x)."""
    space = cloud.space
    pts = [tuple(x)] if space.family == SYMBOLIC else [x]
    out = compose_batch(space, schedule, w, i, k, points_to_batch(space, pts))
    return batch_to_points(space, out)[0]


def orbit_batches(space, schedule: GenerationSchedule, w: Word, k: int, batch: np.ndarray, start: int | None = None) -> list[np.ndarray]:
    """[B, f(B), ..., f^{start,k}(B)] computed incrementally."""
    i = w.start if start is None else start
    if i < w.start or i + k > w.start + len(w):
        raise ValueError(f"word too short for orbit (start={i}, k={k})")
    out = [batch]
    for g in range(i, i + k):
        gen = generation_at(schedule, g)
        batch = apply_map(space, gen[w.symbols[g - w.start]], batch)
        out.append(batch)
    return out


def bowen_distance(cloud: PointCloud, schedule: GenerationSchedule, w: Word, k: int, x, y) -> float:
    """d_{w,k}(x, y) = max over the first k+1 orbit steps of the base distance."""
    if w.start != 1:
        raise ValueError("Bowen distances are rooted at start index 1; re-root the word first")
    if k > len(w):
        raise ValueError(f"k={k} exceeds word length {len(w)}")
    space = cloud.space
    pts = [tuple(x), tuple(y)] if space.family == SYMBOLIC else [x, y]
    steps = orbit_batches(space, schedule, w, k, points_to_batch(space, pts))
    return max(float(paired_distances(cloud, step[:1], step[1:2])[0]) for step in steps)


def sup_bowen_distance(cloud: PointCloud, schedule: GenerationSchedule, n: int, x, y, word_cap: int = 200_000) -> float:
    """d*_n(x, y): sup over start indices and words of length n of the orbit max.

    The sup over all starts is exact as a max over one prefix+cycle horizon.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    space = cloud.space
    pts = [tuple(x), tuple(y)] if space.family == SYMBOLIC else [x, y]
    steps = sup_orbit_batches(space, schedule, n, points_to_batch(space, pts), word_cap)
    return max(float(paired_distances(cloud, step[:1], step[1:2])[0]) for step in steps)


def sup_orbit_batches(space, schedule: GenerationSchedule, n: int, batch: np.ndarray, word_cap: int = 200_000) -> list[np.ndarray]:
    """The orbit batches of every start index of one prefix+cycle horizon and
    every word of length n, in one list: d*_n is the max distance over it."""
    steps: list[np.ndarray] = []
    for i in range(1, schedule.horizon + 1):
        words, mode, _ = enumerate_words(schedule, i, n, word_cap, seed=0)
        if mode != "exact":
            raise ValueError("sup metric needs exhaustive words; raise word_cap")
        for w in words:
            steps.extend(orbit_batches(space, schedule, w, n, batch, start=i))
    return steps


def power_system(schedule: GenerationSchedule, n: int) -> GenerationSchedule:
    """The system whose generation j collects all n-fold compositions over the
    j-th block of n consecutive generations, enumerated lexicographically.

    The prefix is padded to a block boundary so the result is again
    eventually periodic.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if n == 1:
        return schedule
    p, c = len(schedule.prefix), len(schedule.cycle)
    prefix_blocks = -(-p // n)
    cycle_blocks = math.lcm(c, n) // n

    def block(start: int) -> Generation:
        gens = [generation_at(schedule, start + t) for t in range(n)]
        maps = []
        for combo in itertools.product(*(range(len(g)) for g in gens)):
            steps: list[MapSpec] = []
            for t, sym in enumerate(combo):
                m = gens[t][sym]
                steps.extend(m.steps if isinstance(m, ComposedMap) else (m,))
            maps.append(ComposedMap(tuple(steps)))
        return tuple(maps)

    prefix = tuple(block(1 + b * n) for b in range(prefix_blocks))
    cycle = tuple(block(1 + (prefix_blocks + b) * n) for b in range(cycle_blocks))
    return GenerationSchedule(prefix=prefix, cycle=cycle)


def block_word(schedule: GenerationSchedule, w: Word, n: int) -> Word:
    """Reindex a word of length m*n over the base system as the length-m word
    over the n-step power system that selects the same composition."""
    if w.start != 1:
        raise ValueError("blocking is defined for words rooted at start index 1")
    if len(w) % n != 0:
        raise ValueError(f"word length {len(w)} is not a multiple of {n}")
    symbols = []
    for b in range(len(w) // n):
        sizes = [len(generation_at(schedule, 1 + b * n + t)) for t in range(n)]
        idx = 0
        for t in range(n):
            idx = idx * sizes[t] + w.symbols[b * n + t]
        symbols.append(idx)
    return Word(start=1, symbols=tuple(symbols))


def truncate_system(schedule: GenerationSchedule, k: int) -> GenerationSchedule:
    """The system starting from generation k (generation j maps to j + k - 1)."""
    if k < 1:
        raise ValueError(f"truncation index must be >= 1, got {k}")
    drop = k - 1
    p = len(schedule.prefix)
    if drop < p:
        return GenerationSchedule(prefix=schedule.prefix[drop:], cycle=schedule.cycle)
    rot = (drop - p) % len(schedule.cycle)
    return GenerationSchedule(prefix=(), cycle=schedule.cycle[rot:] + schedule.cycle[:rot])


def count_words(schedule: GenerationSchedule, m: int, n: int) -> int:
    """#I^{m,n} as an exact integer (Python integers do not overflow)."""
    total = 1
    for t in range(n):
        total *= len(generation_at(schedule, m + t))
    return total


def enumerate_words(schedule: GenerationSchedule, m: int, n: int, budget: int | None, seed: int) -> tuple[list[Word], str, int]:
    """All words of I^{m,n} when the count fits the budget, else an i.i.d.
    uniform sample of `budget` words, reproducible from the seed.

    budget=None forces exact enumeration (used by exact-equality checks).
    """
    if m < 1:
        raise ValueError(f"start index must be >= 1, got {m}")
    if budget is not None and budget < 1:
        raise ValueError(f"word budget must be >= 1, got {budget}")
    sizes = [len(generation_at(schedule, m + t)) for t in range(n)]
    total = count_words(schedule, m, n)
    cap = budget if budget is not None else WORD_ENUMERATION_CAP
    if budget is None and total > cap:
        raise ValueError(f"exact enumeration of {total} words exceeds the cap {cap}")
    if total <= cap:
        words = [Word(start=m, symbols=combo) for combo in itertools.product(*(range(s) for s in sizes))]
        return words, "exact", total
    rng = random.Random(seed)
    sampled = sorted(tuple(rng.randrange(s) for s in sizes) for _ in range(budget))
    return [Word(start=m, symbols=sym) for sym in sampled], "sampled", total


@dataclass
class NAIFS:
    """A system bundled with its sampled phase space."""

    cloud: PointCloud
    schedule: GenerationSchedule


FACTOR_KINDS = ("index_table", "binary_expansion", "coordinate_projection")


@dataclass
class FactorMapSpec:
    """A surjective map intertwining two systems with identical index sets."""

    source: NAIFS
    target: NAIFS
    kind: str
    table: tuple[int, ...] | None = None
    fiber_tol: float | None = None

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}; expected one of {FACTOR_KINDS}")
        if self.kind == "index_table":
            if self.table is None:
                raise ValueError("index_table factor requires a table")
            if self.source.cloud.space.family != FINITE or self.target.cloud.space.family != FINITE:
                raise ValueError("index_table factors map finite_explicit spaces")
            self.table = tuple(int(v) for v in self.table)
            if len(self.table) != len(self.source.cloud):
                raise ValueError("index_table length must match the source cloud")
        if self.kind == "binary_expansion":
            if self.source.cloud.space.family != SYMBOLIC or self.target.cloud.space.family != CIRCLE:
                raise ValueError("binary_expansion maps a symbolic space onto a circle grid")
        if self.kind == "coordinate_projection":
            if self.source.cloud.space.family != self.target.cloud.space.family:
                raise ValueError("coordinate_projection needs matching space families")
        if self.fiber_tol is None:
            self.fiber_tol = default_fiber_tol(self.target.cloud)


def default_fiber_tol(target_cloud: PointCloud) -> float:
    """Half the minimum spacing of the target cloud."""
    fam = target_cloud.space.family
    if fam == CIRCLE:
        return 0.5 / target_cloud.space.resolution
    if fam == INTERVAL:
        return 0.5 / (target_cloud.space.resolution - 1)
    if fam == FINITE:
        dm = target_cloud.dmatrix()
        off = dm[~np.eye(len(dm), dtype=bool)]
        return 0.5 * float(off.min())
    return 2.0 ** (-target_cloud.space.resolution)


def apply_factor_batch(factor: FactorMapSpec, batch: np.ndarray) -> np.ndarray:
    if factor.kind == "index_table":
        return np.asarray(factor.table, dtype=np.intp)[batch]
    if factor.kind == "coordinate_projection":
        return batch
    # binary_expansion: truncated base-m expansion onto the circle
    m = factor.source.cloud.space.alphabet_size
    depth = batch.shape[1] if batch.ndim == 2 else 0
    if depth == 0:
        return np.zeros(batch.shape[0])
    weights = (1.0 / m) ** np.arange(1, depth + 1)
    return batch.astype(np.float64) @ weights


def apply_factor(factor: FactorMapSpec, x):
    space = factor.source.cloud.space
    pts = [tuple(x)] if space.family == SYMBOLIC else [x]
    out = apply_factor_batch(factor, points_to_batch(space, pts))
    return batch_to_points(factor.target.cloud.space, out)[0]


def fiber_indices(factor: FactorMapSpec, y) -> list[int]:
    """Source cloud indices of the preimage of a target point.

    Exact preimage for index_table / coordinate_projection; for
    binary_expansion membership is distance to y within fiber_tol (analytic
    preimages are unavailable on depth-truncated clouds).
    """
    src = factor.source.cloud
    images = apply_factor_batch(factor, src.batch())
    if factor.kind == "index_table":
        return [i for i, v in enumerate(images) if int(v) == int(y)]
    if factor.kind == "coordinate_projection":
        return [i for i, v in enumerate(images) if float(v) == float(y)]
    ytile = np.full(len(images), float(y))
    dist = paired_distances(factor.target.cloud, images, ytile)
    return [int(i) for i in np.flatnonzero(dist <= factor.fiber_tol + 1e-15)]


@dataclass
class SemiconjugacyReport:
    max_deviation: float
    surjective: bool
    passed: bool
    detail: str


def check_semiconjugacy(factor: FactorMapSpec, tol: float) -> SemiconjugacyReport:
    """Verify pi o f = g o pi over one prefix+cycle horizon and surjectivity
    of pi onto the target cloud.  Mismatched index sets are a hard error."""
    src, tgt = factor.source, factor.target
    horizon = max(src.schedule.horizon, tgt.schedule.horizon)
    batch = src.cloud.batch()
    pi_batch = apply_factor_batch(factor, batch)
    dev = 0.0
    for j in range(1, horizon + 1):
        fgen = generation_at(src.schedule, j)
        ggen = generation_at(tgt.schedule, j)
        if len(fgen) != len(ggen):
            raise ValueError(f"index sets differ at generation {j}: {len(fgen)} vs {len(ggen)}")
        for i in range(len(fgen)):
            lhs = apply_factor_batch(factor, apply_map(src.cloud.space, fgen[i], batch))
            rhs = apply_map(tgt.cloud.space, ggen[i], pi_batch)
            d = paired_distances(tgt.cloud, lhs, rhs)
            if d.size:
                dev = max(dev, float(d.max()))
    surjective = _is_surjective(factor, pi_batch)
    passed = dev <= tol and surjective
    detail = f"max_deviation={dev!r} tol={tol!r} surjective={surjective}"
    return SemiconjugacyReport(max_deviation=dev, surjective=surjective, passed=passed, detail=detail)


def _is_surjective(factor: FactorMapSpec, pi_batch: np.ndarray) -> bool:
    tgt = factor.target.cloud
    if factor.kind == "binary_expansion":
        # the point nearest to y on the circle is one of y's two cyclic
        # neighbours in sorted order; the two ends are also taken, since the
        # rounded distance is monotone only on each side of y
        srt = np.sort(pi_batch % 1.0)
        ys = np.asarray(tgt.points, dtype=np.float64) % 1.0
        pos = np.searchsorted(srt, ys)
        near = srt[np.stack([pos - 1, pos % len(srt), np.zeros_like(pos), np.full_like(pos, -1)], axis=1)]
        return bool(np.all(paired_distances(tgt, near, ys[:, None]).min(axis=1) <= factor.fiber_tol + 1e-15))
    hit = {canonical_key(tgt.space, p) for p in batch_to_points(tgt.space, pi_batch)}
    return all(canonical_key(tgt.space, p) in hit for p in tgt.points)


def reachable_points(cloud: PointCloud, schedule: GenerationSchedule, steps: int, cap: int = 2_000_000) -> list:
    """Cloud points plus everything map applications can reach in <= steps.

    Deterministic insertion order; used to tabulate derived potentials and
    to take sup norms over the effective phase space.
    """
    space = cloud.space
    seen: dict = {}
    frontier: list = []
    for p in cloud.points:
        key = canonical_key(space, p)
        if key not in seen:
            seen[key] = p
            frontier.append(p)
    for j in range(1, steps + 1):
        # generations differ over time, so the frontier holds everything
        # reachable in exactly j-1 steps (deduplicated within the step only;
        # a revisited point still needs expansion by later generations)
        step_seen: dict = {}
        # symbolic frontiers can mix word lengths once shift and
        # length-preserving maps coexist in a generation; batch per length
        for group in _length_groups(space, frontier):
            batch = points_to_batch(space, group)
            for m in generation_at(schedule, j):
                for p in batch_to_points(space, apply_map(space, m, batch)):
                    key = canonical_key(space, p)
                    if key not in step_seen:
                        step_seen[key] = p
                        seen.setdefault(key, p)
        if len(seen) > cap:
            raise ValueError(f"reachable point set exceeded cap {cap}")
        frontier = list(step_seen.values())
    return list(seen.values())


def _length_groups(space, points: list) -> list[list]:
    if space.family != SYMBOLIC:
        return [points] if points else []
    groups: dict[int, list] = {}
    for p in points:
        groups.setdefault(len(p), []).append(p)
    return [groups[k] for k in sorted(groups)]
