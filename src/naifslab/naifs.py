"""Non-autonomous iterated function systems.

A system is a time-indexed sequence of generations; generation j is a
finite ordered family of self-maps of the space, its index set being
{0, ..., len-1}.  Schedules are eventually periodic (finite prefix plus a
repeating cycle), which makes every supremum over start indices exact.

Words select one map per generation; the orbits of a batch under many
words at once, the orbit batches of the sup metric, the n-step power
system, truncated systems, and factor maps between two systems with
identical index sets all live here.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import (
    CIRCLE,
    FINITE,
    INTERVAL,
    SYMBOLIC,
    PointCloud,
    batch_to_points,
    paired_distances,
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

# parameter counts of the map kinds with fixed-size parameters
_KIND_ARITY = {"affine_mod1": 2, "affine_clamped": 2, "rotation": 1}

WORD_ENUMERATION_CAP = 2_000_000
# words per start index that the sup metric d*_n enumerates at most
SUP_WORD_CAP = 200_000


@dataclass(frozen=True)
class MapSpec:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}; expected one of {MAP_KINDS}")
        object.__setattr__(self, "params", tuple(self.params))
        # a table entry such as 1.9 is refused, not truncated to 1
        if self.kind in ("permutation_table", "symbol_substitution_table") and any(int(v) != v for v in self.params):
            raise ValueError(f"{self.kind} entries must be integers, got {list(self.params)}")

    @cached_property
    def table(self) -> np.ndarray:
        """The params as an index table, converted once per map: every orbit
        step of a permutation or substitution reads it."""
        table = np.asarray(self.params, dtype=np.intp)
        table.flags.writeable = False
        return table


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
        return m.table[batch]
    if k == "shift":
        if batch.ndim != 2 or batch.shape[1] == 0:
            raise ValueError("shift applied past the symbolic depth; increase the depth D")
        return batch[:, 1:]
    # symbol_substitution_table: the words keep their symbol type
    return m.table.astype(batch.dtype, copy=False)[batch]


def validate_map(space, m: MapSpec) -> None:
    if space.family not in _KIND_FAMILIES[m.kind]:
        raise ValueError(f"map kind {m.kind!r} is not valid on a {space.family} space")
    arity = _KIND_ARITY.get(m.kind)
    if arity is not None and len(m.params) != arity:
        raise ValueError(f"map kind {m.kind!r} takes {arity} parameters, got {len(m.params)}")
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
    if type(j) is not int or j < 1:
        j = validate_step_count(j, "j")
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
        if type(self.start) is not int or self.start < 1:
            object.__setattr__(self, "start", validate_step_count(self.start, "start"))
        symbols = self.symbols
        if type(symbols) is not tuple or not all(type(s) is int and s >= 0 for s in symbols):
            symbols = tuple(validate_step_count(s, f"symbols[{t}]", minimum=0) for t, s in enumerate(symbols))
            object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def is_step_count(value, minimum: int = 1) -> bool:
    """value is an integral real >= minimum (2.0 is; 2.5, nan and inf are not)."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    return integral and value >= minimum


def validate_step_count(value, name: str = "n", minimum: int = 1) -> int:
    """value as an int, by the rule of is_step_count.  The count arguments
    of this module's public functions are read through it; generation_at
    and Word, which run once per orbit step and per word, first pass a
    plain int by its type."""
    if not is_step_count(value, minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def orbit_batches(space, schedule: GenerationSchedule, words: list[Word], k: int, batch: np.ndarray, start: int | None = None) -> list[list[np.ndarray]]:
    """Per word, [B, f(B), ..., f^{start,k}(B)]: the orbits of one batch
    under several words of one start, advanced together one step at a time.

    At each step the words that take one map on points of one shape are
    mapped in one apply_map call on their stacked points, and each word's
    step is its part of the image.  Every orbit's step 0 is the batch
    itself.  A map acts on each point alone, so a word's steps do not
    depend on the other words."""
    if type(k) is not int or k < 0:
        k = validate_step_count(k, "k", minimum=0)
    origin = words[0].start if words else 1
    i = origin if start is None else start
    for w in words:
        if w.start != origin:
            raise ValueError(f"orbit_batches takes words of one start, got {origin} and {w.start}")
        if i < w.start or i + k > w.start + len(w):
            raise ValueError(f"word too short for orbit (start={i}, k={k})")
    size = len(batch)
    orbits = [[batch] for _ in words]
    for g in range(i, i + k):
        gen = generation_at(schedule, g)
        # (symbol, point shape) -> the orbits that take that map
        groups: dict[tuple[int, tuple], list[list[np.ndarray]]] = {}
        for w, orbit in zip(words, orbits):
            groups.setdefault((_symbol(w, g - origin, len(gen)), orbit[-1].shape), []).append(orbit)
        for (s, _), members in groups.items():
            if len(members) == 1:
                members[0].append(apply_map(space, gen[s], members[0][-1]))
                continue
            image = apply_map(space, gen[s], np.concatenate([orbit[-1] for orbit in members]))
            for j, orbit in enumerate(members):
                orbit.append(image[j * size : (j + 1) * size])
    return orbits


def _symbol(w: Word, t: int, size: int) -> int:
    """Symbol t of the word, which must index one of the size maps of its generation."""
    s = w.symbols[t]
    if s >= size:
        raise ValueError(f"symbols[{t}] = {s} is outside generation {w.start + t}, whose maps are 0..{size - 1}")
    return s


def sup_orbit_batches(space, schedule: GenerationSchedule, n: int, batch: np.ndarray) -> list[np.ndarray]:
    """The orbit batches of every start index of one prefix+cycle horizon and
    every word of length n, in one list: d*_n is the max distance over it."""
    steps: list[np.ndarray] = []
    for i in range(1, schedule.horizon + 1):
        words, mode, _ = enumerate_words(schedule, i, n, SUP_WORD_CAP, seed=0)
        if mode != "exact":
            raise ValueError(f"sup metric needs exhaustive words: more than SUP_WORD_CAP = {SUP_WORD_CAP} per start")
        for orbit in orbit_batches(space, schedule, words, n, batch, start=i):
            steps.extend(orbit)
    return steps


def power_system(schedule: GenerationSchedule, n: int) -> GenerationSchedule:
    """The system whose generation j collects all n-fold compositions over the
    j-th block of n consecutive generations, enumerated lexicographically.

    The prefix is padded to a block boundary so the result is again
    eventually periodic.
    """
    n = validate_step_count(n)
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


def truncate_system(schedule: GenerationSchedule, k: int) -> GenerationSchedule:
    """The system starting from generation k (generation j maps to j + k - 1)."""
    k = validate_step_count(k, "k")
    drop = k - 1
    p = len(schedule.prefix)
    if drop < p:
        return GenerationSchedule(prefix=schedule.prefix[drop:], cycle=schedule.cycle)
    rot = (drop - p) % len(schedule.cycle)
    return GenerationSchedule(prefix=(), cycle=schedule.cycle[rot:] + schedule.cycle[:rot])


def count_words(schedule: GenerationSchedule, m: int, n: int) -> int:
    """#I^{m,n} as an exact integer (Python integers do not overflow)."""
    m, n = validate_step_count(m, "m"), validate_step_count(n, "n", minimum=0)
    total = 1
    for t in range(n):
        total *= len(generation_at(schedule, m + t))
    return total


def enumerate_words(schedule: GenerationSchedule, m: int, n: int, budget: int | None, seed: int) -> tuple[list[Word], str, int]:
    """All words of I^{m,n} when the count fits the budget, else an i.i.d.
    uniform sample of `budget` words, reproducible from the seed.

    budget=None forces exact enumeration (used by exact-equality checks);
    a budget above WORD_ENUMERATION_CAP is refused before any word is built.
    """
    m, n = validate_step_count(m, "m"), validate_step_count(n, "n", minimum=0)
    seed = validate_step_count(seed, "seed", minimum=0)
    if budget is not None:
        budget = validate_step_count(budget, "word_budget")
        if budget > WORD_ENUMERATION_CAP:
            raise ValueError(f"word_budget must be at most WORD_ENUMERATION_CAP = {WORD_ENUMERATION_CAP}, got {budget}")
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
            if any(not 0 <= v < len(self.target.cloud) for v in self.table):
                raise ValueError("index_table values must be target cloud indices")
        if self.kind == "binary_expansion":
            if self.source.cloud.space.family != SYMBOLIC or self.target.cloud.space.family != CIRCLE:
                raise ValueError("binary_expansion maps a symbolic space onto a circle grid")
        if self.kind == "coordinate_projection":
            if self.source.cloud.space.family != self.target.cloud.space.family:
                raise ValueError("coordinate_projection needs matching space families")
            if self.source.cloud.space.family == FINITE and len(self.source.cloud) > len(self.target.cloud):
                # a finite point is its index, which must index the target cloud
                raise ValueError("coordinate_projection of a finite space needs a target cloud at least as large")
        if self.fiber_tol is None:
            self.fiber_tol = default_fiber_tol(self.target.cloud)
        elif not 0.0 <= self.fiber_tol < math.inf:
            raise ValueError(f"fiber_tol must be finite and >= 0, got {self.fiber_tol!r}")

    @cached_property
    def source_image(self) -> np.ndarray:
        """pi of the source cloud's batch, read-only.  It is computed once
        per factor, which is not changed after construction; the fibers and
        the semiconjugacy check read it, and theorems.py keeps its memo on
        the factor beside it."""
        image = apply_factor_batch(self, self.source.cloud.batch)
        image.flags.writeable = False
        return image


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
    weights = (1.0 / m) ** np.arange(1, depth + 1)
    # one column at a time, so that a row's value does not depend on the
    # rest of its batch (a BLAS dot product rounds batch by batch)
    out = np.zeros(batch.shape[0])
    for k in range(depth):
        out += batch[:, k] * weights[k]
    return out


def fiber_indices(factor: FactorMapSpec, yi: int) -> list[int]:
    """Source cloud indices of the preimage of the target cloud's point yi.

    Exact preimage for index_table / coordinate_projection: the image rows
    equal to the target row; for binary_expansion membership is distance
    to the target point within fiber_tol (analytic preimages are
    unavailable on depth-truncated clouds).  The images are the factor's
    source_image, so the fibers of one factor apply pi once in all.
    """
    tgt = factor.target.cloud
    if isinstance(yi, bool) or not isinstance(yi, (int, np.integer)):
        # numpy would read a bool as a mask
        raise TypeError(f"a target index is an integer, not {yi!r}")
    if not 0 <= yi < len(tgt):
        raise IndexError(f"target index {yi} is outside the cloud of {len(tgt)} points")
    y = tgt.batch[yi]
    images = factor.source_image
    if factor.kind == "binary_expansion":
        hit = paired_distances(tgt, images, np.full(len(images), y)) <= factor.fiber_tol + 1e-15
    elif images.shape[1:] != y.shape:
        # words of another depth are other points
        return []
    else:
        hit = (images == y).reshape(len(images), -1).all(axis=1)
    return np.flatnonzero(hit).tolist()


@dataclass
class SemiconjugacyReport:
    """The measured deviation and surjectivity, judged at tol; the same
    measurement at another tol is dataclasses.replace(report, tol=...)."""

    max_deviation: float
    surjective: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol and self.surjective

    @property
    def detail(self) -> str:
        return f"max_deviation={self.max_deviation!r} tol={self.tol!r} surjective={self.surjective}"


def check_semiconjugacy(factor: FactorMapSpec, tol: float) -> SemiconjugacyReport:
    """Verify pi o f = g o pi over one prefix+cycle horizon and surjectivity
    of pi onto the target cloud.  Mismatched index sets are a hard error.

    pi of the source cloud is the factor's source_image, shared with
    fiber_indices; pi is applied afresh only to the image of each map."""
    src, tgt = factor.source, factor.target
    horizon = max(src.schedule.horizon, tgt.schedule.horizon)
    batch = src.cloud.batch
    pi_batch = factor.source_image
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
    return SemiconjugacyReport(max_deviation=dev, surjective=_is_surjective(factor, pi_batch), tol=tol)


def _is_surjective(factor: FactorMapSpec, pi_batch: np.ndarray) -> bool:
    tgt = factor.target.cloud
    if factor.kind == "binary_expansion":
        # the point nearest to y on the circle is one of y's two cyclic
        # neighbours in sorted order; the two ends are also taken, since the
        # rounded distance is monotone only on each side of y
        srt = np.sort(pi_batch % 1.0)
        ys = tgt.batch % 1.0
        pos = np.searchsorted(srt, ys)
        near = srt[np.stack([pos - 1, pos % len(srt), np.zeros_like(pos), np.full_like(pos, -1)], axis=1)]
        return bool(np.all(paired_distances(tgt, near, ys[:, None]).min(axis=1) <= factor.fiber_tol + 1e-15))
    if pi_batch.shape[1:] != tgt.batch.shape[1:]:
        return False
    # every target row is an image row iff adding the target rows to the
    # distinct image rows adds no new row
    hit = np.unique(pi_batch, axis=0)
    return len(np.unique(np.concatenate([hit, tgt.batch]), axis=0)) == len(hit)


def reachable_batches(cloud: PointCloud, schedule: GenerationSchedule, steps: int, cap: int = 2_000_000) -> list[np.ndarray]:
    """Cloud points plus everything map applications can reach in <= steps,
    as point batches of distinct points in first-occurrence order.

    A symbolic space gets one batch per word length (shift and
    length-preserving maps may coexist in a generation); the other
    families get one batch.  The basic and power checks read potential
    ranges on these points.
    """
    steps = validate_step_count(steps, "steps", minimum=0)
    space = cloud.space
    start = cloud.batch
    start = start[_first_occurrences(start)]
    seen = {_width(start): start}
    total = len(start)
    frontier = [start]
    for j in range(1, steps + 1):
        # generations differ over time, so the frontier holds everything
        # reachable in exactly j-1 steps (deduplicated within the step only;
        # a revisited point still needs expansion by later generations)
        images: dict[int, list[np.ndarray]] = {}
        for batch in frontier:
            for m in generation_at(schedule, j):
                image = apply_map(space, m, batch)
                images.setdefault(_width(image), []).append(image)
        frontier = []
        for width in sorted(images):
            step = np.concatenate(images[width])
            step = step[_first_occurrences(step)]
            frontier.append(step)
            old = seen.get(width)
            if old is None:
                seen[width] = step
                total += len(step)
            else:
                # old rows are distinct, so they keep their places and only
                # rows of this step that old lacks are appended
                both = np.concatenate([old, step])
                seen[width] = both[_first_occurrences(both)]
                total += len(seen[width]) - len(old)
        if total > cap:
            raise ValueError(f"reachable point set exceeded cap {cap}")
    return list(seen.values())


def reachable_points(cloud: PointCloud, schedule: GenerationSchedule, steps: int, cap: int = 2_000_000) -> list:
    """The points of reachable_batches as a list."""
    space = cloud.space
    return [p for batch in reachable_batches(cloud, schedule, steps, cap) for p in batch_to_points(space, batch)]


def _width(batch: np.ndarray) -> int:
    """Word length of a symbolic batch; 0 for the other families."""
    return batch.shape[1] if batch.ndim == 2 else 0


def _first_occurrences(batch: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct point."""
    _, first = np.unique(batch, axis=0 if batch.ndim == 2 else None, return_index=True)
    return np.sort(first)
