"""Exhaustive bijection verification over F_{2^n}, with diagnostics.

The checker evaluates a map on the entire field, on one thread, then
analyzes the value table deterministically with numpy passes: one
``bincount`` over the values gives the verdict and the missing-value count,
followed by the fixed points and either the cycle type (for permutations)
or the first collision in ascending input order (for everything else).
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

import random
from dataclasses import dataclass

from .field import TABLE_DEGREE_LIMIT, FieldElement, FieldSpec

CHECK_DEGREE_LIMIT = 28
RULER_SPACING = 32   # about one point in this many starts a cycle walker


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


class InverseTable:
    """Exact preimage map of f: every attained value -> ascending preimages."""

    __slots__ = ("spec", "_map")

    def __init__(self, spec: FieldSpec, mapping: dict[int, tuple[int, ...]]):
        self.spec = spec
        self._map = mapping

    def preimages(self, a) -> tuple[FieldElement, ...]:
        bits = a.bits if isinstance(a, FieldElement) else a
        return tuple(FieldElement(self.spec, x) for x in self._map.get(bits, ()))

    def __getitem__(self, a):
        return self.preimages(a)

    def __contains__(self, a):
        bits = a.bits if isinstance(a, FieldElement) else a
        return bits in self._map

    def __len__(self):
        return len(self._map)

    @property
    def all_singletons(self) -> bool:
        return all(len(v) == 1 for v in self._map.values())

    def attained(self):
        return self._map.keys()


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


def _missing_count(values) -> int:
    """Field elements no input maps to; 0 iff the table is a bijection."""
    import numpy as np
    return int(np.count_nonzero(np.bincount(values, minlength=values.size) == 0))


def evaluate_map(f, spec: FieldSpec):
    """Evaluate a FieldElement callable over the whole field, in input order."""
    import numpy as np
    elem = spec.element
    return np.fromiter((f(elem(x)).bits for x in range(spec.order)),
                       dtype=np.uint32, count=spec.order)


def _first_collision(values) -> tuple[int, int]:
    # Called only for non-bijections, so some value repeats.  Stable
    # argsort groups equal values with their original indices ascending;
    # the canonical witness's x2 is the smallest second occurrence over all
    # groups, and the entry just before it in the sorted order is that
    # group's first occurrence.
    import numpy as np
    order = np.argsort(values, kind="stable")
    sv = values[order]
    dup = np.nonzero(sv[1:] == sv[:-1])[0]
    seconds = order[dup + 1]
    best = int(np.argmin(seconds))
    return int(order[dup[best]]), int(seconds[best])


def check(f, spec: FieldSpec, *, force: bool = False) -> PermutationReport:
    """Exhaustively decide whether f permutes F_{2^n}.

    ``f`` is a callable on FieldElement or a precomputed value table with
    entries in [0, 2^n).  Fields beyond n = 28 are refused unless ``force``
    is set.
    """
    import numpy as np
    guard_budget(spec, force, "exhaustive check")
    values = _as_values(f, spec)
    missing = _missing_count(values)
    fixed = int(np.count_nonzero(values == np.arange(values.size, dtype=np.uint32)))
    is_perm = missing == 0
    cycle_type = witness = None
    if is_perm:
        cycle_type = _cycle_type_of_table(values)
    else:
        x1, x2 = _first_collision(values)
        witness = (spec.element(x1), spec.element(x2))
    return PermutationReport(
        is_permutation=is_perm,
        domain_size=int(values.size),
        missing_count=missing,
        collision_witness=witness,
        fixed_point_count=fixed,
        cycle_type=cycle_type,
    )


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
    # Sorting the (value, x) pairs lists each value's preimages in ascending
    # order.  The groups are taken in the order of their first preimage, the
    # order a scan over ascending x meets the values, and become tuples one
    # group size at a time, from min(groups, size) lists rather than a list
    # per group.
    pairs = np.sort(values.astype(np.uint64) << 32 | np.arange(values.size, dtype=np.uint64))
    vs, xs = pairs >> 32, pairs & 0xFFFFFFFF
    starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
    sizes = np.diff(np.r_[starts, vs.size])
    by_first = np.argsort(xs[starts])
    starts, sizes = starts[by_first], sizes[by_first]
    groups = np.empty(starts.size, dtype=object)
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        members = xs[starts[at, None] + np.arange(size)]   # one row per group
        tuples = zip(*members.T.tolist()) if at.size >= size else map(tuple, members.tolist())
        groups[at] = np.fromiter(tuples, dtype=object, count=at.size)
    return InverseTable(spec, dict(zip(vs[starts].tolist(), groups.tolist())))


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
    values = _as_values(f, spec)
    if _missing_count(values):
        raise NotAPermutationError("map is not a bijection")
    return _cycle_type_of_table(values)
