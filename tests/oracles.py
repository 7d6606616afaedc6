"""Independent oracles the tests check the library against.

Everything here is deliberately written on a different representation
(coefficient lists, naive loops, exhaustive scans) so that agreement with
the package's bit-packed fast paths is meaningful.
"""

import functools


def poly_to_coeffs(bits: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(bits.bit_length())] or [0]


def coeffs_to_poly(coeffs: list[int]) -> int:
    out = 0
    for i, c in enumerate(coeffs):
        if c % 2:
            out |= 1 << i
    return out


def schoolbook_mulmod(a: int, b: int, modulus: int) -> int:
    """Schoolbook convolution of coefficient lists, then long division."""
    ca, cb = poly_to_coeffs(a), poly_to_coeffs(b)
    prod = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    prod = [c % 2 for c in prod]
    cm = poly_to_coeffs(modulus)
    deg_m = len(cm) - 1
    while len(prod) - 1 >= deg_m and any(prod):
        while prod and prod[-1] == 0:
            prod.pop()
        if len(prod) - 1 < deg_m:
            break
        shift = len(prod) - 1 - deg_m
        for i, c in enumerate(cm):
            prod[shift + i] = (prod[shift + i] + c) % 2
    return coeffs_to_poly(prod)


def naive_pow(a: int, e: int, modulus: int) -> int:
    """a^e by e-fold repeated multiplication (no exponent reduction)."""
    r = 1
    for _ in range(e):
        r = schoolbook_mulmod(r, a, modulus)
    return r


def trial_division_irreducible(poly: int) -> bool:
    """Irreducibility by dividing by every polynomial of degree <= deg/2."""
    n = poly.bit_length() - 1
    if n < 1:
        return False
    for d in range(2, 1 << (n // 2 + 1)):
        if d.bit_length() - 1 < 1:
            continue
        if _poly_rem(poly, d) == 0:
            return False
    return True


def _poly_rem(a: int, b: int) -> int:
    bb = b.bit_length()
    while a.bit_length() >= bb:
        a ^= b << (a.bit_length() - bb)
    return a


def brute_force_affine_solutions(L, b) -> set[int]:
    """All x with L(x) = b by scanning the whole field."""
    spec = L.spec
    return {x for x in range(spec.order) if L.eval_bits(x) == b.bits}


def _rref(n: int, rows: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    # In-place reduced row echelon form over the low n columns; any augment
    # bits ride along above bit n-1.  Pivots chosen at the lowest free
    # column, scanning rows top-down: fully deterministic.
    pivots = []
    rank = 0
    for col in range(n):
        bit = 1 << col
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r] & bit:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r] & bit:
                rows[r] ^= prow
        pivots.append((rank, col))
        rank += 1
    return rows, pivots


def _kernel_from_rref(n: int, rows: list[int], pivots) -> list[int]:
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = 1 << free
        for r, c in pivots:
            if (rows[r] >> free) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def rref_solve_bits(M, b: int) -> tuple[int | None, list[int]]:
    """(particular, kernel basis) of M x = b by Gaussian elimination on the
    bit-packed rows: pivots at the lowest column, the particular solution
    zero on free columns, one kernel vector per free column in order."""
    n = M.spec.n
    rows = [0] * n                 # row r bit i = entry (r, i)
    for i, col in enumerate(M.cols):
        for r in range(n):
            rows[r] |= ((col >> r) & 1) << i
    for r in range(n):
        rows[r] |= ((b >> r) & 1) << n
    rows, pivots = _rref(n, rows)
    for r in range(len(pivots), n):
        if rows[r] >> n:           # 0 = 1: inconsistent
            return None, _kernel_from_rref(n, rows, pivots)
    particular = 0
    for r, c in pivots:
        if rows[r] >> n:
            particular |= 1 << c
    return particular, _kernel_from_rref(n, rows, pivots)


def square_multiply_pow(spec, a: int, e: int) -> int:
    """a^e by square-and-multiply on ``mul_baseline``, the exponent reduced
    mod 2^n - 1 for nonzero bases (the field's former portable route)."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return 1
    if a == 0:
        return 0
    m = spec.order - 1
    e %= m
    if e == 0:
        return 1
    r = 1
    while e:
        if e & 1:
            r = spec.mul_baseline(r, a)
        e >>= 1
        if e:
            a = spec.mul_baseline(a, a)
    return r


def repeated_squaring_frobenius(spec, a: int, j: int) -> int:
    """a^(2^j) by j mod n squarings on ``mul_baseline``."""
    if j < 0:
        raise ValueError("Frobenius iterate must be nonnegative")
    for _ in range(j % spec.n):
        a = spec.mul_baseline(a, a)
    return a


def per_column_matrix_of(L) -> tuple[int, ...]:
    """Columns L(X^i), each term c * (X^i)^(2^j) one ``mul_baseline``."""
    spec = L.spec
    cols = [0] * spec.n
    for j, c in L.terms:
        basis = tuple(repeated_squaring_frobenius(spec, 1 << i, j) for i in range(spec.n))
        for i in range(spec.n):
            cols[i] ^= spec.mul_baseline(c, basis[i])
    return tuple(cols)


def oracle_trinomial(inst, x: int) -> int:
    """f(x) for a family instance, each power by ``square_multiply_pow``."""
    acc = 0
    for e in inst.exponents:
        acc ^= square_multiply_pow(inst.spec, x, e)
    return acc


def exhaustive_inverse(spec, nonzero_inv_of: int) -> int:
    """Multiplicative inverse by scanning for the partner with product 1."""
    for y in range(1, spec.order):
        if spec.mul_baseline(nonzero_inv_of, y) == 1:
            return y
    raise AssertionError("no inverse found")


def naive_cycle_type(table) -> tuple[tuple[int, int], ...]:
    """Cycle type of a permutation table by walking each cycle once."""
    table = list(table)
    seen = [False] * len(table)
    counts: dict[int, int] = {}
    for start in range(len(table)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = table[x]
            length += 1
        if length:
            counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


def naive_inverse_table(values) -> dict[int, tuple[int, ...]]:
    """Preimage map by one scan over ascending x: each value is keyed when
    its first preimage is met, and its preimages are listed in order."""
    mapping: dict[int, list[int]] = {}
    for x, v in enumerate(values):
        mapping.setdefault(int(v), []).append(x)
    return {v: tuple(xs) for v, xs in mapping.items()}


def naive_first_collision(values) -> tuple[int, int] | None:
    """The canonical collision witness by one scan over ascending x: the
    first x2 whose value was already attained, with that value's first
    preimage x1; None for a bijection."""
    first: dict[int, int] = {}
    for x, v in enumerate(values):
        x1 = first.setdefault(int(v), x)
        if x1 != x:
            return x1, x
    return None


@functools.lru_cache(maxsize=None)
def _naive_powers(spec) -> dict[int, list[int]]:
    """x^e over the whole field by FieldElement powers, for e in [1, 2^n - 2]."""
    return {e: [(spec.element(x) ** e).bits for x in range(spec.order)]
            for e in range(1, spec.order - 1)}


@functools.lru_cache(maxsize=None)
def naive_verdict(spec, e1: int, e2: int, e3: int) -> bool:
    """Whether x^e1 + x^e2 + x^e3 permutes the field: whether its 2^n values
    are pairwise distinct."""
    power = _naive_powers(spec)
    return len({a ^ b ^ c for a, b, c in zip(power[e1], power[e2], power[e3])}) == spec.order


def naive_search_csv(spec, samples: int, seed: int) -> str:
    """The ``permtri search`` CSV for ``spec``, from scalar pieces: x^e by
    FieldElement powers, a triple survives when its values on the seeded
    sample (f(0) = 0 included when 0 is drawn) are pairwise distinct, and
    ``naive_verdict`` gives the verdict."""
    from permtri.families import FamilyId, enumerate_params, instantiate
    from permtri.permcheck import sample_points

    mult = spec.order - 1
    power = _naive_powers(spec)
    tags = {}
    for family in FamilyId:
        for n, params in enumerate_params(family, spec.n):
            if n != spec.n:
                continue
            triple = tuple(sorted(instantiate(family, params, spec).reduced_exponents(),
                                  reverse=True))
            if len(set(triple)) == 3 and triple[0] < mult and triple not in tags:
                m = "" if params.m is None else params.m
                tags[triple] = f"{family.value},{params.k},{m}"
    points = sample_points(spec, samples, seed)
    lines = [f"# permtri search n={spec.n} modulus=0x{spec.modulus:x} "
             f"seed={seed} samples={samples}",
             "e1,e2,e3,is_permutation,family,k,m"]
    for e1 in range(3, mult):
        for e2 in range(2, e1):
            for e3 in range(1, e2):
                values = {power[e1][x] ^ power[e2][x] ^ power[e3][x] for x in points}
                if len(values) < len(points):
                    continue
                perm = naive_verdict(spec, e1, e2, e3)
                tag = tags.get((e1, e2, e3), ",,")
                lines.append(f"{e1},{e2},{e3},{str(perm).lower()},{tag}")
    return "\n".join(lines) + "\n"


def e1_block_search_csv(spec, samples: int, seed: int) -> str:
    """The ``permtri search`` CSV by the former e1-block screen, on one thread.

    The sampled columns of the power table are XORed pairwise over all
    e2 > e3 in ascending order, so an e1 block is a prefix of that pair
    table.  A row of the block, XORed with e1's row, survives when it has no
    repeat on the sample, and each survivor is confirmed on 128 points, then
    on the whole field.  Rows are tested by ``cli._distinct_rows``; each CSV
    row is its own f-string, with its family tag looked up by the triple in
    ``cli._family_tags``."""
    import numpy as np
    from permtri import cli
    from permtri.permcheck import sample_points

    mult = spec.order - 1
    exp_np, log_np = spec.exp_log_arrays()
    pow_ = np.zeros((mult - 1, spec.order), np.uint16 if spec.n <= 16 else np.uint32)
    pow_[:, 1:] = exp_np[np.outer(np.arange(1, mult), log_np[1:]) % mult]
    cols = pow_[:, sample_points(spec, samples, seed)]
    i2, i3 = np.tril_indices(max(mult - 2, 0), -1)
    pair = cols[i2] ^ cols[i3]
    tags = cli._family_tags(spec.n, spec)
    lines = [f"# permtri search n={spec.n} modulus=0x{spec.modulus:x} "
             f"seed={seed} samples={samples}",
             "e1,e2,e3,is_permutation,family,k,m"]
    for e1 in range(3, mult):
        size = (e1 - 1) * (e1 - 2) // 2
        rows = np.flatnonzero(cli._distinct_rows(pair[:size] ^ cols[e1 - 1]))
        perms = rows
        for table in (pow_[:, :128], pow_):
            perms = perms[cli._distinct_rows(table[i2[perms]] ^ table[i3[perms]]
                                             ^ table[e1 - 1])]
        # pair row r is (e2, e3) = (i2[r] + 1, i3[r] + 1)
        for e2, e3, perm in zip((i2[rows] + 1).tolist(), (i3[rows] + 1).tolist(),
                                np.isin(rows, perms).tolist()):
            tag = tags.get((e1, e2, e3), ",,")
            lines.append(f"{e1},{e2},{e3},{str(perm).lower()},{tag}")
    return "\n".join(lines) + "\n"


def frobenius_orbit_representatives(n: int) -> set:
    """The least ascending tuple (e3, e2, e1) of every orbit of the triples
    2^n - 1 > e1 > e2 > e3 >= 1 under doubling mod 2^n - 1, by walking each
    orbit from its first unseen member."""
    import itertools

    mult = (1 << n) - 1
    seen, reps = set(), set()
    for triple in itertools.combinations(range(1, mult), 3):
        if triple in seen:
            continue
        orbit = [triple]
        while True:
            doubled = tuple(sorted(2 * e % mult for e in orbit[-1]))
            if doubled == triple:
                break
            orbit.append(doubled)
        seen.update(orbit)
        reps.add(min(orbit))
    return reps


def runs_only_chain(e: int, n: int) -> tuple:
    """The Frobenius-chain program for x^e that ``field._frobenius_chain``
    emitted before it knew stride programs: one Itoh-Tsujii chain over the
    cyclic runs of ones of e, joined Horner-fashion; same (steps, shift)
    format."""
    z = next(i for i in range(n) if not e >> i & 1)
    s = (z + 1) % n
    rot = ((e >> s) | (e << (n - s))) & ((1 << n) - 1)
    runs = []
    while rot:
        low = (rot & -rot).bit_length() - 1
        rot >>= low
        length = (~rot & (rot + 1)).bit_length() - 1
        runs.append(((s + low) % n, length))
        rot >>= length
        s += low + length
    runs.sort(reverse=True)
    steps = []
    reg_of = {1: 0}

    def chain(length):
        if length not in reg_of:
            if length % 2:
                step = (chain(length - 1), 1, 0)
            else:
                half = chain(length // 2)
                step = (half, length // 2, half)
            steps.append(step)
            reg_of[length] = len(steps)
        return reg_of[length]

    acc = chain(runs[0][1])
    for (above, _), (offset, length) in zip(runs, runs[1:]):
        k = chain(length)
        steps.append((acc, above - offset, k))
        acc = len(steps)
    return tuple(steps), runs[-1][0]


def solve_based_f6_invert(inst, a: int):
    """``invert`` for an F6 instance by the inverter's former route: every
    solution z of c1 z^(2^k) + c0 z = A from ``solve_affine`` (z = 1
    included) goes through the t/beta/theta pipeline, and the survivor that
    re-evaluates to a under ``oracle_trinomial`` is chosen.  Returns
    (x, trace) as bits and an ``InversionTrace``, or (None, None) when no
    candidate maps to a (possible only for excluded parameters)."""
    from permtri.field import cube_root_of_unity
    from permtri.inverter import InversionTrace
    from permtri.linalg2 import LinearizedPoly, solve_affine

    spec = inst.spec
    k, m = inst.params.k, inst.params.m
    elem = spec.element
    b = spec.frobenius(a, k)
    c = spec.frobenius(b, k)
    pairs = [(0, {})]
    if a:
        w = cube_root_of_unity(spec).bits
        big_a = spec.frobenius(a, 2 * m)
        c1 = spec.mul(w, big_a) ^ a
        c0 = spec.mul(w ^ 1, big_a) ^ a
        pairs = []
        for sol in solve_affine(LinearizedPoly(spec, [(k, c1), (0, c0)]), elem(big_a)):
            z = sol.bits
            t = spec.inv(z)
            beta = t ^ w
            if square_multiply_pow(spec, beta, (1 << (2 * m)) + 1) != 1:
                continue
            theta = square_multiply_pow(spec, beta, (1 << k) - 1)
            den = 1 ^ theta ^ spec.mul(theta, beta)
            if den == 0:
                continue
            x = spec.div(a, den)
            if spec.frobenius(x, 2 * m) != spec.mul(theta, x):
                continue
            pairs.append((x, {"w": w, "z": z, "t": t, "beta": beta, "theta": theta}))
    chosen, extras = next(((x, extras) for x, extras in pairs
                           if oracle_trinomial(inst, x) == a), (None, None))
    if chosen is None:
        return None, None
    trace = InversionTrace(a=elem(a), b=elem(b), c=elem(c), epsilon=elem(a ^ b ^ c),
                           candidates=tuple(elem(x) for x, _ in pairs),
                           chosen=elem(chosen),
                           **{key: elem(v) for key, v in extras.items()})
    return chosen, trace


def bit_plane_tables(spec):
    """(exp, log) as ``FieldSpec.build_tables`` filled them before the byte
    tables: exp[s:2s] = exp[:s] * g^s by n bit-plane passes, each adding
    the image of X^i where bit i of exp[:s] is set; log[exp[i]] = i."""
    import numpy as np
    g, m = spec.generator(), spec.order - 1
    exp = np.zeros(m, dtype=np.uint32)
    exp[0] = 1
    s, g_s = 1, g
    while s < m:
        src = exp[:min(s, m - s)]
        block = exp[s:s + src.size]
        for i in range(spec.n):
            block ^= ((src >> i) & 1) * np.uint32(spec.mul_baseline(1 << i, g_s))
        s += src.size
        g_s = spec.mul_baseline(g_s, g_s)
    log = np.zeros(spec.order, dtype=np.uint32)
    log[exp] = np.arange(m, dtype=np.uint32)
    return exp, log


def remainder_value_table(inst):
    """``families.value_table`` as its log-table route was before the
    chunked kernel: x^e = exp[(e * log x) mod 2^n - 1] over the whole field
    at once, with a uint64 remainder and a fancy gather per exponent."""
    import numpy as np
    spec = inst.spec
    out = np.zeros(spec.order, dtype=np.uint32)
    exp_np, log_np = spec.exp_log_arrays()
    logs = log_np[1:].astype(np.uint64)
    idx = np.empty_like(logs)
    for e in inst.reduced_exponents():
        np.remainder(np.multiply(logs, e, out=idx), exp_np.size, out=idx)
        out[1:] ^= exp_np[idx]
    return out


def every_k_params(family, n_max: int) -> list:
    """``families.enumerate_params`` as it was before F6 stepped over odd k
    only: every k in 1..n-1 goes through the parameter predicate."""
    from permtri.families import FamilyId, FamilyParams, _params_violation, field_degree

    family = FamilyId(family)
    out = []
    for m in range(1, n_max // 4 + 1) if family.uses_m else (None,):
        for k in range(1, n_max):
            params = FamilyParams(k=k, m=m)
            n = field_degree(family, params)
            if n > n_max or k >= n:
                break
            if _params_violation(family, params) is None:
                out.append((n, params))
    return out
