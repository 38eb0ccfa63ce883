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

import functools
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

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

# build_cloud refuses spaces with more points.  Greedy solves are quadratic
# in the cloud size: the 4096-point doubling_circle example takes seconds,
# so 2**18 points would take hours.
CLOUD_POINT_LIMIT = 1 << 18


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


@dataclass(eq=False)
class PointCloud:
    """Ordered finite sample of the space: its points as one read-only
    batch, which every orbit of the cloud shares.  Immutable after
    construction.

    enumerated is set by build_cloud alone: the batch is then every point
    of the space in its order (grid index, lexicographic word), so a
    point's index is its position in the space."""

    space: SpaceSpec
    batch: np.ndarray
    _dm: np.ndarray | None = field(default=None, repr=False)
    enumerated: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.batch.flags.writeable = False

    def __setstate__(self, state):
        # an unpickled array is writeable again; the copy stays immutable
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return len(self.batch)

    def dmatrix(self) -> np.ndarray | None:
        if self.space.family == FINITE and self._dm is None:
            self._dm = np.asarray(self.space.distance_matrix, dtype=float)
        return self._dm

    def diameter(self) -> float:
        if self.space.family == INTERVAL:
            return 1.0
        if self.space.family == CIRCLE:
            return 0.5
        if self.space.family == SYMBOLIC:
            return 1.0
        return float(np.max(self.dmatrix()))


def check_point_limit(spec: SpaceSpec) -> None:
    """Raise ValueError when the space has more than CLOUD_POINT_LIMIT points."""
    if spec.family == SYMBOLIC:
        # compared in log2, so that huge alphabets and depths cost nothing
        too_many = spec.resolution * math.log2(spec.alphabet_size) > math.log2(CLOUD_POINT_LIMIT)
    else:
        too_many = spec.resolution > CLOUD_POINT_LIMIT
    if too_many:
        raise ValueError(f"the space has more than CLOUD_POINT_LIMIT = {CLOUD_POINT_LIMIT} points")


def build_cloud(spec: SpaceSpec) -> PointCloud:
    """The points of a space as a batch: the grids in index order, the words
    in lexicographic order, the point ids of a finite space."""
    check_point_limit(spec)
    n = spec.resolution
    if spec.family == INTERVAL:
        batch = np.arange(n) / (n - 1)
    elif spec.family == CIRCLE:
        batch = np.arange(n) / n
    elif spec.family == SYMBOLIC:
        # row k spells k in base m, first symbol highest
        digits = np.indices((spec.alphabet_size,) * n, dtype=_symbol_dtype(spec.alphabet_size))
        batch = np.ascontiguousarray(digits.reshape(n, -1).T)
    else:
        batch = np.arange(n, dtype=np.intp)
    cloud = PointCloud(space=spec, batch=batch)
    cloud.enumerated = True
    return cloud


def _symbol_dtype(alphabet: int) -> type:
    """Smallest signed integer type holding the symbols 0..alphabet-1."""
    return np.int8 if alphabet <= 1 << 7 else np.int16 if alphabet <= 1 << 15 else np.int64


def points_to_batch(space: SpaceSpec, points: Sequence) -> np.ndarray:
    """Pack point values (word tuples, reals, point ids) into the family's
    array representation: where points from outside the cloud enter.

    Symbolic points must share a common length (true along any orbit of the
    cloud, where every step shortens all words uniformly).
    """
    if space.family == SYMBOLIC:
        dtype = _symbol_dtype(space.alphabet_size)
        if not points:
            return np.zeros((0, 0), dtype=dtype)
        lengths = {len(p) for p in points}
        if len(lengths) != 1:
            raise ValueError("symbolic batch requires words of equal length")
        return np.asarray([list(p) for p in points], dtype=dtype).reshape(len(points), lengths.pop())
    if space.family == FINITE:
        return np.asarray(points, dtype=np.intp)
    return np.asarray(points, dtype=np.float64)


def batch_to_points(space: SpaceSpec, batch: np.ndarray) -> list:
    # tolist() yields Python ints and floats
    rows = np.asarray(batch).tolist()
    if space.family == SYMBOLIC:
        return [tuple(row) for row in rows]
    if space.family == FINITE:
        return [int(v) for v in rows]
    return [float(v) for v in rows]


def pairwise_distances(cloud: PointCloud, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance matrix between two point batches of the same space."""
    A, B = _common_forms(cloud, A, B)
    return distance_kernel(cloud, A[..., :, None], B[..., None, :])


def paired_distances(cloud: PointCloud, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise distances between two equally long batches."""
    return distance_kernel(cloud, *_common_forms(cloud, A, B))


def _common_forms(cloud: PointCloud, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # words of different lengths compare on their common prefix
    if cloud.space.family == SYMBOLIC:
        depth = min(A.shape[1], B.shape[1])
        A, B = A[:, :depth], B[:, :depth]
    return distance_form(cloud, A), distance_form(cloud, B)


def distance_form(cloud: PointCloud, batch: np.ndarray) -> np.ndarray:
    """A point batch as distance_kernel reads it, points on the last axis:
    packed codes for words, coordinates reduced mod 1 on the circle, point
    ids or coordinates as they are otherwise.  A circle batch already in
    [0, 1) is returned itself, not copied."""
    fam = cloud.space.family
    if fam == SYMBOLIC:
        return pack_words(batch, cloud.space.alphabet_size)
    if fam == FINITE:
        return np.asarray(batch, dtype=np.intp)
    if fam == CIRCLE:
        if batch.size and 0.0 <= batch.min() and batch.max() < 1.0:
            return batch
        # x mod 1, rounded once as np.mod does, at a tenth of its cost
        return batch - np.floor(batch)
    return batch


def distance_kernel(cloud: PointCloud, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Base distances between batches in distance form; `a` and `b`
    broadcast against each other.  The result is written into `out` when
    it is given (of the broadcast shape) and returned."""
    fam = cloud.space.family
    if fam == SYMBOLIC:
        return cylinder_distance(a, b, cloud.space.alphabet_size, out)
    if fam == FINITE:
        d = cloud.dmatrix()[a, b]
        if out is None:
            return d
        out[...] = d
        return out
    d = np.subtract(a, b, out=out)
    np.abs(d, out=d)
    if fam == CIRCLE:
        # both coordinates lie in [0, 1], so |a - b| needs no reduction
        np.minimum(d, 1.0 - d, out=d)
    return d


# Chunks stay below 2**52 so that their xor converts to float64 exactly and
# frexp reads its highest set bit exactly.
_CHUNK_BITS = 52
# elements of one working tile (512 KiB of float64): the distance tiles of
# pressure.py and the row blocks of pack_words
TILE_ELEMENTS = 1 << 16


def _symbol_bits(alphabet: int) -> int:
    return max(1, (alphabet - 1).bit_length())


@functools.lru_cache(maxsize=64)
def _place_values(bits: int, depth: int) -> np.ndarray:
    """(depth, chunks) float64, read-only: symbol k's place value
    2**(bits * slot) in its chunk k // per, slot per - 1 - k % per counted
    from the low end, and 0 in every other chunk.  Cached, since a run
    packs many batches of a few depths."""
    per = _CHUNK_BITS // bits
    place = np.zeros((depth, max(1, -(-depth // per))))
    k = np.arange(depth)
    place[k, k // per] = np.ldexp(1.0, bits * (per - 1 - k % per))
    place.flags.writeable = False
    return place


def pack_words(batch: np.ndarray, alphabet: int) -> np.ndarray:
    """Pack an (N, D) batch of words into (chunks, N) uint64 codes.

    Each symbol takes ceil(log2 m) bits, the first symbol highest; a chunk
    has room for as many whole symbols as fit in 52 bits, and the last
    chunk's unused room is zero at its low end.  So equal prefixes give
    equal leading chunks, and a symbol's position follows from its bits
    alone.  A depth-0 batch packs into one zero chunk.

    Every chunk is one float64 product of the symbols with their place
    values (_place_values).  It is exact: the symbols' bit fields do not
    overlap, so every product and every partial sum, in whatever order a
    BLAS kernel adds them, is an integer below 2**52.  The rows go in
    blocks of TILE_ELEMENTS symbols, so no temporary outgrows one tile.
    """
    n, depth = batch.shape
    place = _place_values(_symbol_bits(alphabet), depth)
    codes = np.empty((place.shape[1], n), dtype=np.uint64)
    rows = max(1, TILE_ELEMENTS // max(1, depth))
    for r in range(0, n, rows):
        codes[:, r : r + rows] = (batch[r : r + rows] @ place).T
    return codes


def cylinder_keys(codes: np.ndarray, alphabet: int, k: int) -> list[tuple[np.ndarray, int]]:
    """The first k symbol slots of packed words (codes from pack_words), as
    one (key, width) pair per chunk that the slots reach, each key below
    2**width.

    Two words of one depth agree on their first min(k, depth) symbols
    exactly when every key of theirs agrees: the slots past the depth are
    zero in both.  So they are within 2**-k of each other (cylinder_distance)
    exactly then.  Each key has the shape of one chunk of the codes.
    """
    bits = _symbol_bits(alphabet)
    per = _CHUNK_BITS // bits
    keys = []
    for j in range(min(len(codes), -(-k // per))):
        slots = min(per, k - j * per)
        keys.append((codes[j] >> np.uint64(bits * (per - slots)), bits * slots))
    return keys


def cylinder_distance(a: np.ndarray, b: np.ndarray, alphabet: int, out: np.ndarray | None = None) -> np.ndarray:
    """Cylinder distance 2**(-k), k the first position where two words
    differ (0 for equal words), between packed words, written into `out`
    when it is given.

    `a` and `b` are codes from pack_words, and two words compared share
    their depth; they broadcast against each other past the leading chunk
    axis.
    """
    bits = _symbol_bits(alphabet)
    per = _CHUNK_BITS // bits
    dist = alive = None
    for j, (ca, cb) in enumerate(zip(a, b)):
        x = np.bitwise_xor(ca, cb)
        d = out if dist is None and out is not None else np.empty(x.shape)
        # x < 2**52 converts to float exactly; d = mant * 2**expo with mant in
        # [0.5, 1), or mant = 0 for x = 0: the highest set bit, expo - 1, lies
        # in the first differing symbol, and ceil(mant) zeroes the distance of
        # equal chunks.  Each step works in place in d.
        np.copyto(d, x)
        mant, expo = np.frexp(d, out=(d, None))
        np.ceil(mant, out=mant)
        expo -= 1
        expo //= bits
        expo += 1 - (j + 1) * per
        np.ldexp(mant, expo, out=d)
        if dist is None:
            dist = d
        else:
            # later chunks decide only where every earlier chunk is equal
            np.copyto(dist, d, where=alive)
        if j + 1 < len(a):
            alive = x == 0 if alive is None else alive & (x == 0)
    return dist


def distance(cloud: PointCloud, x, y) -> float:
    """Exact distance between two points (cloud members or orbit points)."""
    space = cloud.space
    _check_point(space, x)
    _check_point(space, y)
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
    """A bounded real function on the space, given by a flat number
    sequence (``explicit_table`` indexes finite_explicit point ids)."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {POTENTIAL_KINDS}")
        if self.kind == "constant" and len(self.params) != 1:
            raise ValueError("constant potential takes exactly one parameter")
        if self.kind == "coordinate_affine" and len(self.params) != 2:
            raise ValueError("coordinate_affine potential takes parameters (a, b)")
        if self.kind == "piecewise_linear" and len(self.params) < 2:
            raise ValueError("piecewise_linear potential needs at least two knot values")
        if isinstance(self.params, Mapping):
            # iterating a mapping would read its keys as the values
            raise TypeError("potential params are a number sequence, not a mapping")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if not all(math.isfinite(v) for v in self.params):
            raise ValueError(f"potential params must be finite, got {list(self.params)}")

    @cached_property
    def table(self) -> np.ndarray:
        """The params as a float array, converted once per potential: every
        orbit step of a table or knot potential reads it."""
        table = np.asarray(self.params, dtype=float)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class Pullback:
    """phi o pi on a factor's source: ``pi`` maps a source batch into ``space``, where phi is evaluated."""

    phi: Potential
    space: SpaceSpec
    pi: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def validate_potential(space: SpaceSpec, psi: Potential) -> None:
    """Refuse a potential that cannot be evaluated at the points of the space."""
    fam = space.family
    if psi.kind == "first_symbol_table":
        if fam != SYMBOLIC:
            raise ValueError(f"first_symbol_table needs a symbolic_depth space, not {fam}")
        if len(psi.params) < space.alphabet_size:
            raise ValueError(f"first_symbol_table needs one value per symbol: {len(psi.params)} values for {space.alphabet_size} symbols")
    elif psi.kind in ("coordinate_affine", "piecewise_linear") and fam == SYMBOLIC:
        raise ValueError(f"{psi.kind} needs real coordinates; a symbolic_depth space has words")
    elif psi.kind == "explicit_table":
        if fam != FINITE:
            raise ValueError(f"explicit_table indexes finite_explicit point ids, not {fam} points")
        if len(psi.params) < space.resolution:
            raise ValueError(f"explicit_table needs one value per point: {len(psi.params)} values for {space.resolution} points")


def eval_potential_batch(space: SpaceSpec, psi: Potential | Pullback, batch: np.ndarray) -> np.ndarray:
    """Vectorized potential evaluation over a point batch.  A Pullback is
    phi evaluated at pi of the batch, except that a constant phi reads no
    point: it is filled in without applying pi."""
    n = batch.shape[0]
    if isinstance(psi, Pullback):
        if psi.phi.kind != "constant":
            return eval_potential_batch(psi.space, psi.phi, psi.pi(batch))
        psi = psi.phi
    if psi.kind == "constant":
        return np.full(n, psi.params[0])
    if psi.kind == "coordinate_affine":
        a, b = psi.params
        return a * batch + b
    if psi.kind == "piecewise_linear":
        vals = psi.table
        return np.interp(batch, np.linspace(0.0, 1.0, len(vals)), vals)
    if psi.kind == "first_symbol_table":
        if batch.ndim != 2 or batch.shape[1] == 0:
            raise ValueError("first_symbol_table is undefined on the empty word")
        return psi.table[batch[:, 0]]
    if space.family != FINITE:
        raise ValueError(f"explicit_table indexes finite_explicit point ids, not {space.family} points")
    arr = psi.table
    idx = np.asarray(batch, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= len(arr)):
        raise KeyError("explicit_table has no entry for a point id in the batch")
    return arr[idx]

