"""Independent oracles the tests check the library against.

Everything here is deliberately written on a different representation
(coefficient lists, naive loops, exhaustive scans) so that agreement with
the package's bit-packed fast paths is meaningful.
"""


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
