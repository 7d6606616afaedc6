"""Exhaustive bijection verification over F_{2^n}, with diagnostics.

The checker evaluates a map on the entire field, on one thread, then
analyzes the value table deterministically with numpy passes, by one of
two routes that give the same report.

The Frobenius-orbit route serves the maps that fix 0 and commute with
squaring, f(x^2) = f(x)^2, as every polynomial over F_2 does (the six
families among them), for n <= TABLE_DEGREE_LIMIT.  Such an f sends each
Frobenius orbit {x, x^2, x^4, ...} onto the orbit of f(x), whose size
divides the first one's.  So f permutes the field exactly when it permutes
the orbits (Akbary-Ghioca-Wang, Finite Fields Appl. 17 (2011)): the orbit
sizes then sum to 2^n - 1 on both sides, so none shrinks, and f maps each
orbit one-to-one onto its image.  In log coordinates, x = g^i, squaring
rotates the n-bit exponent i one place, so the orbits of the nonzero
elements are the rotation classes of [0, 2^n - 1), each led by its least
member.  The leaders and their orbit sizes s depend only on n; they are
found once per n, on first use (52,487 leaders at n = 20, in about 25 ms).
For each leader l, f(g^l) = g^j must be nonzero, and the least rotation of
j, rotr(j, u), is the leader l' of the image orbit.  f permutes the orbits
exactly when the l' are the leaders in some order, which one argsort
shows.  Only then is the commutation tested, on every point, squaring by
two lookups as it is GF(2)-linear.  If it holds, f sends the point at
place t of orbit l, g^(rotl(l, t)), to place t + u of orbit l'.  Pointer
jumping groups the orbits into the cycles of this orbit map.  A cycle of
L orbits of size s whose shifts u sum to U brings each of its points back
to its own orbit U places on, so it splits into gcd(U mod s, s) cycles of
f of length L s / gcd(U mod s, s).  With the 1-cycle at 0 these give the
cycle type, and its 1-cycles are the fixed points.

Every other table takes the exhaustive route.  A map that commutes with
squaring but does not permute pays for the leaders' images and their
ranking first, a few ms at n = 20.  One ``bincount`` over the values
gives the verdict and the missing-value count, followed by the fixed
points and either the cycle type (for permutations) or the first
collision in ascending input order (for everything else).
The collision witness and ``inverse_table`` read one preimage index: the
inputs sorted by (value, x), cut into runs by the bincount's running sums.
The cycle type comes from a ruler walk.  A fixed pseudo-random set of
about one point in RULER_SPACING, the rulers, all step along f at once,
marking the points they pass, until each meets the next ruler on its cycle;
each records that ruler and the gap to it.  The rulers' next-ruler map is a
much smaller permutation: pointer jumping on it (O(log) rounds of gathers
that label every ruler with the minimum of its cycle) groups the gaps, and
each group's exact sum is one cycle length.  The points no walker passed
lie on cycles that hold no ruler; they are renumbered and pointer-jumped
the same way, unweighted.  Tables of fewer than 4 * RULER_SPACING**3
points (2^17) skip the walk and are pointer-jumped whole.

Maps are given either as a callable on FieldElement or as a precomputed
value table (any integer sequence of length 2^n with entries in [0, 2^n),
e.g. the numpy array from ``families.value_table``); other tables raise
ValueError.
"""

import functools
import random
from dataclasses import dataclass

from .field import TABLE_DEGREE_LIMIT, FieldElement, FieldSpec

CHECK_DEGREE_LIMIT = 28
RULER_SPACING = 32   # about one point in this many starts a cycle walker
ORBIT_CHUNK = 1 << 15    # points per step of the orbit route's passes


class BudgetExceededError(Exception):
    """Field too large for the requested exhaustive pass (override with force)."""


class NotAPermutationError(Exception):
    """Cycle structure requested for a non-bijective map."""


@dataclass(frozen=True)
class PermutationReport:
    """Verdict plus diagnostics from one exhaustive pass.

    ``collision_witness`` is the canonical first collision: scanning inputs
    in ascending bit order, the first x2 whose value was already attained,
    paired with that value's first preimage x1.  ``cycle_type`` is present
    only for permutations, as ((length, count), ...) ascending by length.
    """
    is_permutation: bool
    domain_size: int
    missing_count: int
    collision_witness: tuple[FieldElement, FieldElement] | None
    fixed_point_count: int
    cycle_type: tuple[tuple[int, int], ...] | None

    def to_json_dict(self) -> dict:
        return {
            "is_permutation": self.is_permutation,
            "missing_count": self.missing_count,
            "fixed_points": self.fixed_point_count,
            "witness": (None if self.collision_witness is None
                        else [str(x) for x in self.collision_witness]),
            "cycle_type": (None if self.cycle_type is None
                           else [list(pair) for pair in self.cycle_type]),
        }


@dataclass(eq=False, slots=True)
class InverseTable:
    """Exact preimage map of f: every attained value -> ascending preimages,
    held as the preimage index ``xs[offset[v]:offset[v + 1]]`` of v."""
    spec: FieldSpec
    _xs: "numpy.ndarray"
    _offset: "numpy.ndarray"

    def preimages(self, a) -> tuple[FieldElement, ...]:
        bits = a.bits if isinstance(a, FieldElement) else a
        if not 0 <= bits < self.spec.order:     # numpy would wrap or reject it
            return ()
        lo, hi = self._offset[bits:bits + 2].tolist()
        return tuple(FieldElement(self.spec, x) for x in self._xs[lo:hi].tolist())

    def __getitem__(self, a):
        return self.preimages(a)

    def __contains__(self, a):
        return bool(self.preimages(a))

    def __len__(self):
        import numpy as np
        return int(np.count_nonzero(np.diff(self._offset)))

    @property
    def all_singletons(self) -> bool:
        return len(self) == self.spec.order

    def attained(self) -> list[int]:
        """Attained values in the order of their first preimage."""
        import numpy as np
        values = np.flatnonzero(np.diff(self._offset))
        return values[np.argsort(self._xs[self._offset[values]])].tolist()


def guard_budget(spec: FieldSpec, force: bool, task: str,
                 limit: int = CHECK_DEGREE_LIMIT) -> None:
    """Refuse an exhaustive ``task`` over a field beyond n <= limit unless forced."""
    if spec.n > limit and not force:
        raise BudgetExceededError(
            f"{task} over 2^{spec.n} points exceeds the n <= {limit} budget "
            f"(pass force / --force to override)")


def _as_values(f, spec: FieldSpec):
    """Normalize callable-or-table input to a full uint32 value table."""
    import numpy as np
    values = evaluate_map(f, spec) if callable(f) else np.asarray(f)
    if values.shape != (spec.order,):
        raise ValueError(f"value table must have length 2^{spec.n}")
    if values.dtype.kind not in "iu" or values.min() < 0 or values.max() >= spec.order:
        raise ValueError(f"value table entries must be integers in [0, 2^{spec.n})")
    return values.astype(np.uint32, copy=False)


def evaluate_map(f, spec: FieldSpec):
    """Evaluate a FieldElement callable over the whole field, in input order."""
    import numpy as np
    elem = spec.element
    return np.fromiter((f(elem(x)).bits for x in range(spec.order)),
                       dtype=np.uint32, count=spec.order)


def _preimage_index(values, counts):
    """Inputs grouped by value, ``counts`` being the table's bincount: the
    preimages of v are ``xs[offset[v]:offset[v + 1]]``, ascending.  One
    in-place sort of the keys value << 32 | x gives xs as their low halves.
    """
    import numpy as np
    keys = values.astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= np.arange(values.size, dtype=np.uint32)   # widened per buffer, not as a whole
    keys.sort()
    xs = keys.astype(np.uint32)
    del keys
    # the smallest type holding the table size holds every running sum
    offset = np.zeros(counts.size + 1, dtype=np.min_scalar_type(values.size))
    np.cumsum(counts, out=offset[1:], dtype=offset.dtype)
    return xs, offset


def _first_collision(values, counts) -> tuple[int, int]:
    # Called only for non-bijections, so some value repeats.  The canonical
    # witness's x2 is the smallest second member of any run of the preimage
    # index, and x1 is the first member of that run.
    import numpy as np
    xs, offset = _preimage_index(values, counts)
    starts = offset[:-1][counts > 1]
    first = starts[np.argmin(xs[starts + 1])]
    return int(xs[first]), int(xs[first + 1])


def check(f, spec: FieldSpec, *, force: bool = False) -> PermutationReport:
    """Exhaustively decide whether f permutes F_{2^n}.

    ``f`` is a callable on FieldElement or a precomputed value table with
    entries in [0, 2^n).  Fields beyond n = 28 are refused unless ``force``
    is set.
    """
    import numpy as np
    guard_budget(spec, force, "exhaustive check")
    values = _as_values(f, spec)
    cycle_type, witness = _orbit_cycle_type(values, spec), None
    if cycle_type is not None:
        fixed, missing = dict(cycle_type)[1], 0     # 0 is always fixed
    else:
        fixed = int(np.count_nonzero(values == np.arange(values.size, dtype=np.uint32)))
        counts = np.bincount(values, minlength=values.size)
        missing = int(np.count_nonzero(counts == 0))
        if missing == 0:
            del counts      # freed before the cycle walk
            cycle_type = _cycle_type_of_table(values)
        else:
            x1, x2 = _first_collision(values, counts)
            witness = (spec.element(x1), spec.element(x2))
    return PermutationReport(
        is_permutation=missing == 0,
        domain_size=int(values.size),
        missing_count=missing,
        collision_witness=witness,
        fixed_point_count=fixed,
        cycle_type=cycle_type,
    )


def _orbit_cycle_type(values, spec: FieldSpec):
    # The Frobenius-orbit route of the module docstring: the cycle type of a
    # permutation that fixes 0 and commutes with squaring, or None for any
    # other table (which then takes the exhaustive route).  The test on
    # every point comes last, so a commuting map that does not permute the
    # orbits falls back after reading only the leaders' images.
    import numpy as np
    n, m = spec.n, spec.order - 1
    if n > TABLE_DEGREE_LIMIT or values[0]:
        return None
    exp_np, log_np = spec.exp_log_arrays()
    leaders, sizes = _orbit_leaders(n)
    image = values[exp_np[leaders]]
    if not image.all():
        return None
    # The least rotation of each image's log and the right rotation u that
    # reaches it, in one key: rotr(log, u) << 5 | u, minimised over u < n
    # (n <= 20, so u fits the 5 bits).
    logs = log_np[image].astype(np.uint64)
    key, rotated = logs << 5, np.empty_like(logs)
    doubled = logs | (logs << n)       # rotr(log, u) = (doubled >> u) & m
    for u in range(1, n):
        np.right_shift(doubled, u, out=rotated)
        rotated &= m
        rotated <<= 5
        rotated |= u
        np.minimum(key, rotated, out=key)
    least = key >> 5
    order = np.argsort(least)
    if not np.array_equal(least[order], leaders) or not _commutes_with_squaring(values, spec):
        return None
    step = np.empty(leaders.size, dtype=np.uint32)    # orbit -> image orbit
    step[order] = np.arange(leaders.size, dtype=np.uint32)
    heads = _cycle_heads(step)
    orbits = np.bincount(heads)
    cycles = np.flatnonzero(orbits)
    # shift sums below K * n < 2^53, so exact in the float weights
    turns = np.bincount(heads, weights=key & 31)[cycles].astype(np.int64)
    size = sizes[cycles].astype(np.int64)
    split = np.gcd(turns % size, size)
    lengths, where = np.unique(np.append(orbits[cycles] * size // split, 1),
                               return_inverse=True)
    counts = np.bincount(where, weights=np.append(split, 1)).astype(np.int64)
    return tuple(zip(lengths.tolist(), counts.tolist()))


def _commutes_with_squaring(values, spec: FieldSpec) -> bool:
    # f(x^2) = f(x)^2 on every x, ORBIT_CHUNK points at a time.  Squaring is
    # GF(2)-linear: x^2 is the XOR of (X^i)^2 over the set bits i of x, so
    # x^2 = low[x mod c] ^ high[x // c] for the chunk size c and two tables
    # spanned by the squares of the basis, read from the log tables.
    import numpy as np
    exp_np, log_np = spec.exp_log_arrays()
    bits = min(spec.n, ORBIT_CHUNK.bit_length() - 1)
    basis = exp_np[2 * log_np[1 << np.arange(spec.n)].astype(np.int64) % exp_np.size]
    low, high = _xor_span(basis[:bits]), _xor_span(basis[bits:])
    index = np.empty(low.size, dtype=np.intp)
    image, square, part = (np.empty(low.size, dtype=np.uint32) for _ in range(3))
    for lo in range(0, values.size, low.size):
        np.bitwise_xor(low, high[lo >> bits], out=index)
        np.take(values, index, out=image)
        chunk = values[lo:lo + low.size]
        np.bitwise_and(chunk, low.size - 1, out=index)
        np.take(low, index, out=square)
        np.right_shift(chunk, bits, out=index)
        square ^= np.take(high, index, out=part)
        if not np.array_equal(image, square):
            return False
    return True


def _xor_span(images):
    # the XOR of images[i] over the set bits i of y, for every y < 2^len(images)
    import numpy as np
    table = np.zeros(1, dtype=np.uint32)
    for image in images:
        table = np.concatenate([table, table ^ image])
    return table


@functools.lru_cache(maxsize=TABLE_DEGREE_LIMIT)
def _orbit_leaders(n: int):
    """(leaders, sizes): the least member of every orbit of n-bit rotation
    on [0, 2^n - 1), ascending, and the orbit sizes.  Read-only arrays."""
    # A chunk's candidates are rotated one place at a time, and those that
    # a rotation makes smaller drop out; few survive the first rotations.
    import numpy as np
    m = (1 << n) - 1
    parts = []
    for lo in range(0, m, ORBIT_CHUNK):
        lead = np.arange(lo, min(lo + ORBIT_CHUNK, m), dtype=np.uint32)
        turned = lead
        for _ in range(n - 1):
            turned = ((turned << 1) & m) | (turned >> (n - 1))
            keep = turned >= lead
            lead, turned = lead[keep], turned[keep]
        parts.append(lead)
    leaders = np.concatenate(parts)
    sizes = np.full(leaders.size, n, dtype=np.uint8)
    for t in range(n - 1, 0, -1):   # the least period, which divides n, wins
        if n % t == 0:
            sizes[(((leaders << t) & m) | (leaders >> (n - t))) == leaders] = t
    leaders.flags.writeable = sizes.flags.writeable = False
    return leaders, sizes


def _cycle_type_of_table(values) -> tuple[tuple[int, int], ...]:
    # The ruler walk of the module docstring: the sparse ruling set of
    # vector list ranking (Reid-Miller, SPAA 1994).  A ruler is an x whose
    # multiplicative hash falls in the lowest 1/RULER_SPACING of its range,
    # so the choice, and the timing, repeat from run to run.  A walker's
    # cycle holds its own ruler, so every walker stops within one cycle
    # length.  The walk costs about RULER_SPACING * ln(rulers) rounds of
    # fixed numpy overhead.  That pays from about 4 * RULER_SPACING**2
    # rulers on: at spacing 32 the walk halves the time at 2^17 points and
    # only breaks even at 2^16, so smaller tables are pointer-jumped whole.
    # Walkers hold intp indices, which numpy gathers and scatters with no
    # cast.
    import numpy as np
    size = values.size
    if size < 4 * RULER_SPACING ** 3:
        sizes = np.bincount(_cycle_heads(values.copy()))
    else:
        # Fibonacci hashing: x times an odd 2^32 / golden ratio, wrapped to
        # 32 bits, keeping the top log2(size) bits.
        hashed = np.arange(size, dtype=np.uint32)
        hashed *= np.uint32(0x9E3779B1)
        hashed >>= np.uint32(33 - size.bit_length())
        # One byte per point: 2 for a ruler, 1 until a walker passes, then 0.
        mark = (hashed < size // RULER_SPACING).view(np.uint8) + np.uint8(1)
        del hashed
        rulers = np.flatnonzero(mark == 2)
        next_ruler = np.empty(rulers.size, dtype=np.intp)
        gap = np.empty(rulers.size, dtype=np.int64)
        origin = np.arange(rulers.size)
        at = values[rulers].astype(np.intp)
        steps = 1
        while at.size:
            stop = mark[at] == 2
            if stop.any():
                done = origin[stop]
                next_ruler[done] = at[stop]
                gap[done] = steps
                walking = ~stop
                origin, at = origin[walking], at[walking]
            mark[at] = 0
            at = values[at].astype(np.intp)
            steps += 1
        # Rulers and unpassed points are disjoint, so one array renumbers
        # both; it and the marks are freed before the jumping.
        free = np.flatnonzero(mark == 1)
        del mark
        rank = np.empty(size, dtype=np.uint32)
        rank[rulers] = np.arange(rulers.size, dtype=np.uint32)
        rank[free] = np.arange(free.size, dtype=np.uint32)
        ruler_step, free_step = rank[next_ruler], rank[values[free]]
        del rank, free
        ruled = np.zeros(rulers.size, dtype=np.int64)
        np.add.at(ruled, _cycle_heads(ruler_step), gap)
        sizes = np.concatenate([ruled, np.bincount(_cycle_heads(free_step))])
    by_length = np.bincount(sizes[sizes > 0])
    lengths = np.flatnonzero(by_length)
    return tuple(zip(lengths.tolist(), by_length[lengths].tolist()))


def _cycle_heads(step):
    # Pointer jumping on a permutation ``step`` of range(step.size), given
    # as uint32 and used up as a buffer.  After j rounds label[x] is the
    # minimum over the first 2^j points of x's orbit and step = f^(2^j).  A
    # round changes nothing exactly when every cycle is covered; each point
    # is then labelled by the minimum of its cycle (its head).  The rounds
    # reuse four buffers: take() writes straight into ``out`` only in a mode
    # other than "raise", and "clip" never changes an index here because
    # every entry is below step.size.
    import numpy as np
    label = np.arange(step.size, dtype=np.uint32)
    nxt, buf = np.empty_like(label), np.empty_like(label)
    while True:
        np.minimum(label, np.take(label, step, out=nxt, mode="clip"), out=nxt)
        if np.array_equal(nxt, label):
            return label
        label, nxt = nxt, label
        step, buf = np.take(step, step, out=buf, mode="clip"), step


def inverse_table(f, spec: FieldSpec, *, force: bool = False) -> InverseTable:
    """Exact preimage map from one exhaustive pass (n <= 20 unless forced)."""
    import numpy as np
    guard_budget(spec, force, "inverse table", TABLE_DEGREE_LIMIT)
    values = _as_values(f, spec)
    counts = np.bincount(values, minlength=values.size)
    return InverseTable(spec, *_preimage_index(values, counts))


def quick_reject(f, spec: FieldSpec, sample_count: int, seed: int):
    """Probabilistic collision hunt on seeded pseudo-random inputs.

    Returns a witness pair (x1, x2) with f(x1) = f(x2), x1 != x2 if one is
    found among the samples, else None.  None proves nothing; a witness is
    always genuine.  Same seed, same f: identical outcome.
    """
    seen: dict[int, int] = {}
    for x in sample_points(spec, sample_count, seed):
        v = f(spec.element(x)).bits
        prev = seen.get(v)
        if prev is not None and prev != x:
            return spec.element(prev), spec.element(x)
        seen[v] = x
    return None


def sample_points(spec: FieldSpec, sample_count: int, seed: int) -> list[int]:
    """The input sample quick_reject draws for this seed (shared with search)."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = random.Random(seed)
    return rng.sample(range(spec.order), min(sample_count, spec.order))


def cycle_structure(f, spec: FieldSpec, *, force: bool = False) -> tuple[tuple[int, int], ...]:
    """Cycle type of a permutation as ((length, count), ...), ascending.

    Raises NotAPermutationError if f does not permute the field.
    """
    guard_budget(spec, force, "cycle walk")
    import numpy as np
    values = _as_values(f, spec)
    cycle_type = _orbit_cycle_type(values, spec)
    if cycle_type is not None:
        return cycle_type
    if not np.bincount(values, minlength=values.size).all():
        raise NotAPermutationError("map is not a bijection")
    return _cycle_type_of_table(values)
