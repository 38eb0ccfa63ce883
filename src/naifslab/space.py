"""Finite metric spaces, sampled point clouds, and potential functions.

A compact metric space is represented by a finite cloud of points whose
pairwise distance is exactly evaluable.  Four families are supported:

* ``interval_grid``   -- N equispaced points of [0, 1] with |x - y|,
* ``circle_grid``     -- N equispaced points of R/Z with the arc distance,
* ``symbolic_depth``  -- all length-D words over an m-letter alphabet with
  the dyadic cylinder metric 2**(-k), k the first disagreeing position,
* ``finite_explicit`` -- an arbitrary finite metric given by its matrix.

Points produced by map application are kept as exact analytic values
(truncated words, off-grid reals never occur for the bundled map kinds);
the grid only seeds candidate sets for the extremal-set solvers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger("naifslab.space")

INTERVAL = "interval_grid"
CIRCLE = "circle_grid"
SYMBOLIC = "symbolic_depth"
FINITE = "finite_explicit"
FAMILIES = (INTERVAL, CIRCLE, SYMBOLIC, FINITE)

POTENTIAL_KINDS = (
    "constant",
    "coordinate_affine",
    "piecewise_linear",
    "first_symbol_table",
    "explicit_table",
)

# Triangle inequality is verified exhaustively up to this many points
# (O(N^3)); above it, on a fixed number of seeded random triples.
TRIANGLE_EXHAUSTIVE_LIMIT = 64
TRIANGLE_SAMPLE_COUNT = 10_000
TRIANGLE_SAMPLE_SEED = 20260810


class MetricError(ValueError):
    """A distance matrix violates one of the metric axioms."""


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative description of the sampled metric space.

    ``resolution`` is the grid size N for the grid families and the word
    depth D for ``symbolic_depth``; for ``finite_explicit`` it is derived
    from the matrix.
    """

    family: str
    resolution: int = 0
    alphabet_size: int = 2
    distance_matrix: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown space family {self.family!r}; expected one of {FAMILIES}")
        if self.family == FINITE:
            if self.distance_matrix is None:
                raise ValueError("finite_explicit requires a distance_matrix")
            dm = np.asarray(self.distance_matrix, dtype=float)
            _validate_distance_matrix(dm)
            object.__setattr__(self, "resolution", len(dm))
            object.__setattr__(
                self, "distance_matrix", tuple(tuple(float(v) for v in row) for row in dm)
            )
        else:
            if self.distance_matrix is not None:
                raise ValueError("distance_matrix is only valid for finite_explicit")
            if self.resolution < 2:
                raise ValueError(f"resolution must be >= 2, got {self.resolution}")
            if self.family == SYMBOLIC and self.alphabet_size < 2:
                raise ValueError(f"alphabet_size must be >= 2, got {self.alphabet_size}")


def _validate_distance_matrix(dm: np.ndarray) -> None:
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise MetricError(f"distance matrix must be square, got shape {dm.shape}")
    n = dm.shape[0]
    if n < 2:
        raise MetricError("distance matrix needs at least 2 points")
    if not np.all(np.isfinite(dm)):
        raise MetricError("distance matrix has non-finite entries")
    if np.any(np.diag(dm) != 0.0):
        raise MetricError("distance matrix diagonal must be zero")
    if not np.array_equal(dm, dm.T):
        raise MetricError("distance matrix must be symmetric")
    off = dm[~np.eye(n, dtype=bool)]
    if np.any(off <= 0.0):
        raise MetricError("off-diagonal distances must be positive (points must be distinct)")
    if n <= TRIANGLE_EXHAUSTIVE_LIMIT:
        for k in range(n):
            if np.any(dm > dm[:, k : k + 1] + dm[k : k + 1, :] + 1e-12):
                raise MetricError(f"triangle inequality fails through point {k}")
    else:
        rng = np.random.default_rng(TRIANGLE_SAMPLE_SEED)
        log.info("triangle check sampling %d triples (seed=%d)", TRIANGLE_SAMPLE_COUNT, TRIANGLE_SAMPLE_SEED)
        idx = rng.integers(0, n, size=(TRIANGLE_SAMPLE_COUNT, 3))
        i, j, k = idx.T
        if np.any(dm[i, j] > dm[i, k] + dm[k, j] + 1e-12):
            raise MetricError("triangle inequality fails on a sampled triple")


@dataclass
class PointCloud:
    """Ordered finite sample of the space.  Immutable after construction."""

    points: tuple
    space: SpaceSpec
    _batch: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dm: np.ndarray | None = field(default=None, repr=False, compare=False)
    _index: dict | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def batch(self) -> np.ndarray:
        if self._batch is None:
            self._batch = points_to_batch(self.space, self.points)
        return self._batch

    def dmatrix(self) -> np.ndarray | None:
        if self.space.family == FINITE and self._dm is None:
            self._dm = np.asarray(self.space.distance_matrix, dtype=float)
        return self._dm

    def index_of(self, point) -> int:
        if self._index is None:
            self._index = {canonical_key(self.space, p): i for i, p in enumerate(self.points)}
        return self._index[canonical_key(self.space, point)]

    def diameter(self) -> float:
        if self.space.family == INTERVAL:
            return 1.0
        if self.space.family == CIRCLE:
            return 0.5
        if self.space.family == SYMBOLIC:
            return 1.0
        return float(np.max(self.dmatrix()))


def build_cloud(spec: SpaceSpec) -> PointCloud:
    """Materialize the candidate point set of a space."""
    if spec.family == INTERVAL:
        n = spec.resolution
        pts = tuple(k / (n - 1) for k in range(n))
    elif spec.family == CIRCLE:
        n = spec.resolution
        pts = tuple(k / n for k in range(n))
    elif spec.family == SYMBOLIC:
        pts = tuple(product(range(spec.alphabet_size), repeat=spec.resolution))
    else:
        pts = tuple(range(spec.resolution))
    return PointCloud(points=pts, space=spec)


def canonical_key(space: SpaceSpec, point):
    if space.family == SYMBOLIC:
        return tuple(int(s) for s in point)
    if space.family == FINITE:
        return int(point)
    return float(point)


def points_to_batch(space: SpaceSpec, points: Sequence) -> np.ndarray:
    """Pack points into the family's array representation.

    Symbolic points must share a common length (true along any orbit of the
    cloud, where every step shortens all words uniformly).
    """
    if space.family == SYMBOLIC:
        if not points:
            return np.zeros((0, 0), dtype=np.int8)
        lengths = {len(p) for p in points}
        if len(lengths) != 1:
            raise ValueError("symbolic batch requires words of equal length")
        return np.asarray([list(p) for p in points], dtype=np.int8).reshape(len(points), lengths.pop())
    if space.family == FINITE:
        return np.asarray(points, dtype=np.intp)
    return np.asarray(points, dtype=np.float64)


def batch_to_points(space: SpaceSpec, batch: np.ndarray) -> list:
    if space.family == SYMBOLIC:
        return [tuple(int(s) for s in row) for row in batch]
    if space.family == FINITE:
        return [int(v) for v in batch]
    return [float(v) for v in batch]


def _circle_dist(t: np.ndarray) -> np.ndarray:
    t = np.abs(t) % 1.0
    return np.minimum(t, 1.0 - t)


def pairwise_distances(cloud: PointCloud, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance matrix between two point batches of the same space."""
    fam = cloud.space.family
    if fam == INTERVAL:
        return np.abs(A[:, None] - B[None, :])
    if fam == CIRCLE:
        return _circle_dist(A[:, None] - B[None, :])
    if fam == FINITE:
        return cloud.dmatrix()[np.ix_(np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp))]
    depth = min(A.shape[1], B.shape[1])
    m = cloud.space.alphabet_size
    return cylinder_distance(pack_words(A[:, :depth], m)[:, :, None], pack_words(B[:, :depth], m)[:, None, :], depth, m)


def paired_distances(cloud: PointCloud, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise distances between two equally long batches."""
    fam = cloud.space.family
    if fam == INTERVAL:
        return np.abs(A - B)
    if fam == CIRCLE:
        return _circle_dist(A - B)
    if fam == FINITE:
        return cloud.dmatrix()[np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)]
    depth = min(A.shape[1], B.shape[1])
    m = cloud.space.alphabet_size
    return cylinder_distance(pack_words(A[:, :depth], m), pack_words(B[:, :depth], m), depth, m)


# Chunks stay below 2**52 so that their xor converts to float64 exactly and
# frexp reads its highest set bit exactly.
_CHUNK_BITS = 52


def _symbol_bits(alphabet: int) -> int:
    return max(1, (alphabet - 1).bit_length())


def pack_words(batch: np.ndarray, alphabet: int) -> np.ndarray:
    """Pack an (N, D) batch of words into (chunks, N) uint64 codes.

    Each symbol takes ceil(log2 m) bits, the first symbol highest; a chunk
    holds as many whole symbols as fit in 52 bits, so that equal prefixes
    give equal leading chunks.  A depth-0 batch packs into one zero chunk.
    """
    n, depth = batch.shape
    bits = _symbol_bits(alphabet)
    per = _CHUNK_BITS // bits
    codes = np.zeros((max(1, -(-depth // per)), n), dtype=np.uint64)
    # one symbol column at a time: no (N, D)-sized temporaries
    for k in range(depth):
        row = codes[k // per]
        np.left_shift(row, np.uint64(bits), out=row)
        np.bitwise_or(row, batch[:, k].astype(np.uint64), out=row)
    return codes


def cylinder_distance(a: np.ndarray, b: np.ndarray, depth: int, alphabet: int) -> np.ndarray:
    """Cylinder distance 2**(-k), k the first position where two words of
    the given depth differ (0 for equal words), between packed words.

    `a` and `b` are codes from pack_words; they broadcast against each other
    past the leading chunk axis.
    """
    bits = _symbol_bits(alphabet)
    per = _CHUNK_BITS // bits
    dist = alive = None
    for j, (ca, cb) in enumerate(zip(a, b)):
        x = np.bitwise_xor(ca, cb)
        # x = mant * 2**expo with mant in [0.5, 1), or mant = 0 for x = 0: the
        # highest set bit, expo - 1, lies in the first differing symbol, and
        # ceil(mant) zeroes the distance of equal chunks
        mant, expo = np.frexp(x.astype(np.float64))
        end = min(depth, (j + 1) * per)
        d = np.ldexp(np.ceil(mant), (expo - 1) // bits + 1 - end)
        dist = d if dist is None else np.where(alive, d, dist)
        if j + 1 < len(a):
            alive = x == 0 if alive is None else alive & (x == 0)
    return dist


def distance(cloud: PointCloud, x, y) -> float:
    """Exact distance between two points (cloud members or orbit points)."""
    space = cloud.space
    _check_point(space, x)
    _check_point(space, y)
    # words of different lengths compare on their common prefix
    return float(pairwise_distances(cloud, points_to_batch(space, [x]), points_to_batch(space, [y]))[0, 0])


def _check_point(space: SpaceSpec, x) -> None:
    fam = space.family
    if fam == SYMBOLIC and not isinstance(x, tuple):
        raise ValueError(f"symbolic space expects word tuples, got {type(x).__name__}")
    if fam == FINITE and not isinstance(x, (int, np.integer)):
        raise ValueError(f"finite_explicit space expects integer point ids, got {type(x).__name__}")
    if fam in (INTERVAL, CIRCLE) and not isinstance(x, (float, int, np.floating)):
        raise ValueError(f"{fam} expects real coordinates, got {type(x).__name__}")


@dataclass(frozen=True)
class Potential:
    """A bounded real function on the space.

    ``params`` is a flat number sequence except for ``explicit_table``,
    where it may also be a mapping from canonical point keys to values
    (sequence form indexes finite_explicit point ids).
    """

    kind: str
    params: tuple | Mapping = ()

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {POTENTIAL_KINDS}")
        if self.kind == "constant" and len(self.params) != 1:
            raise ValueError("constant potential takes exactly one parameter")
        if self.kind == "coordinate_affine" and len(self.params) != 2:
            raise ValueError("coordinate_affine potential takes parameters (a, b)")
        if self.kind == "piecewise_linear" and len(self.params) < 2:
            raise ValueError("piecewise_linear potential needs at least two knot values")
        if not isinstance(self.params, Mapping):
            object.__setattr__(self, "params", tuple(float(v) for v in self.params))


def eval_potential(psi: Potential, x) -> float:
    """Evaluate the potential at a single point."""
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
    table = psi.params
    if isinstance(table, Mapping):
        key = tuple(int(s) for s in x) if isinstance(x, tuple) else (int(x) if isinstance(x, (int, np.integer)) else float(x))
        if key not in table:
            raise KeyError(f"explicit_table has no entry for point {key!r}")
        return float(table[key])
    xi = int(x)
    if not 0 <= xi < len(table):
        raise KeyError(f"explicit_table has no entry for point id {xi}")
    return float(table[xi])


def eval_potential_batch(space: SpaceSpec, psi: Potential, batch: np.ndarray) -> np.ndarray:
    """Vectorized potential evaluation over a point batch."""
    n = batch.shape[0]
    if psi.kind == "constant":
        return np.full(n, psi.params[0])
    if psi.kind == "coordinate_affine":
        a, b = psi.params
        return a * batch + b
    if psi.kind == "piecewise_linear":
        vals = np.asarray(psi.params, dtype=float)
        return np.interp(batch, np.linspace(0.0, 1.0, len(vals)), vals)
    if psi.kind == "first_symbol_table":
        if batch.ndim != 2 or batch.shape[1] == 0:
            raise ValueError("first_symbol_table is undefined on the empty word")
        return np.asarray(psi.params, dtype=float)[batch[:, 0]]
    table = psi.params
    if isinstance(table, Mapping):
        fast = _fast_table_eval(space, psi, batch)
        if fast is not None:
            return fast
        pts = batch_to_points(space, batch)
        out = np.empty(n)
        for i, p in enumerate(pts):
            key = canonical_key(space, p)
            if key not in table:
                raise KeyError(f"explicit_table has no entry for point {key!r}")
            out[i] = table[key]
        return out
    arr = np.asarray(table, dtype=float)
    idx = np.asarray(batch, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= len(arr)):
        raise KeyError("explicit_table has no entry for a point id in the batch")
    return arr[idx]


def _fast_table_eval(space: SpaceSpec, psi: Potential, batch: np.ndarray) -> np.ndarray | None:
    """Vectorized lookup for mapping-backed tables (sorted-key search);
    falls back to the pointwise path when keys cannot be packed."""
    cache = getattr(psi, "_table_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(psi, "_table_cache", cache)
    table = psi.params
    if space.family == SYMBOLIC:
        depth, m = batch.shape[1], space.alphabet_size
        if depth * _symbol_bits(m) > _CHUNK_BITS:
            return None
        if depth not in cache:
            keys = sorted(k for k in table if len(k) == depth)
            codes = pack_words(np.asarray(keys, dtype=np.int8).reshape(len(keys), depth), m)[0]
            cache[depth] = (codes, np.array([table[k] for k in keys], dtype=float))
        codes, vals = cache[depth]
        query = pack_words(batch, m)[0]
    elif space.family in (INTERVAL, CIRCLE):
        if "f" not in cache:
            keys = sorted(float(k) for k in table)
            cache["f"] = (np.array(keys, dtype=float), np.array([table[k] for k in keys], dtype=float))
        codes, vals = cache["f"]
        query = np.asarray(batch, dtype=float)
    else:
        return None
    if not len(codes):
        raise KeyError("explicit_table has no entries at this word depth")
    pos = np.searchsorted(codes, query)
    clipped = np.minimum(pos, len(codes) - 1)
    if np.any(codes[clipped] != query):
        raise KeyError("explicit_table has no entry for a point in the batch")
    return vals[clipped]


def sup_norm(space: SpaceSpec, psi: Potential, points: Sequence) -> float:
    """max |psi| over a finite point set (the sup norm on a finite space)."""
    return max(abs(eval_potential(psi, p)) for p in points)


def materialize_potential(space: SpaceSpec, points: Iterable, fn: Callable) -> Potential:
    """Tabulate a point function as an explicit_table potential."""
    table = {canonical_key(space, p): float(fn(p)) for p in points}
    return Potential(kind="explicit_table", params=table)
