"""Explicit preimage computation for the six trinomial families.

Each routine reverses f(x) = a by the constructive argument behind the
family's bijectivity: replace the Frobenius conjugates of x by fresh
unknowns, eliminate down to a low-degree or linearized equation in one
unknown, and read off a closed-form candidate set.  Wherever the
underlying uniqueness argument proceeds by cases, the implementation
enumerates every candidate the cases produce and selects by re-evaluating
f (candidate-and-validate); the returned value is therefore always
final-validated, and a candidate set with no valid member signals a bug or
an invalid instance, never a caller error.  Cases that no input reaches
are not coded: F6's linear coefficients never vanish, F5 needs no case
at a = 1, F2's exceptional denominator is (lambda + 1)^2, never 0, and
F3's and F5's denominators and F4's alpha never vanish at a != 0 (each
routine carries its proof).  F6's linearized equation is solved in
closed form whenever gcd(k, n) = 1, as for every valid (m, k): its roots
are 1, which never passes, and 1 + lambda, so only 1 + lambda is tried.
Excluded pairs (experiment mode) keep the general GF(2)-linear solve.

Throughout, b and c denote the conjugates a^(2^k) and a^(2^2k), and
epsilon = a + b + c (which lies in F_{2^k} when n = 3k).  The nonvanishing
proofs apply x -> x^(2^k) once, which maps (a, b, c) to (b, c, a^(2^3k)), with
a^(2^3k) = sqrt(a) for n = 3k + 1 and a^2 for n = 3k - 1; no hypothesis on k.
"""

import functools
import math
from dataclasses import dataclass, fields

from .families import FamilyId, FamilyInstance, trinomial_bits
from .field import (TABLE_DEGREE_LIMIT, FieldElement, FieldSpec, cube_root_of_unity,
                    fractional_power)
from .linalg2 import ColumnReduction, LinearizedPoly, matrix_of, solve_affine


class InversionError(Exception):
    """Base class for inversion failures."""


class NoValidCandidateError(InversionError):
    """No candidate re-evaluates to the target: bug or invalid instance."""


class InternalContradictionError(InversionError):
    """A quantity the bijectivity argument proves nonzero came out zero."""


class Zeta1ZeroError(InternalContradictionError):
    """zeta1 = ac + b^2 + c^2 vanished in F2: seen only for excluded k = 2 (mod 3)."""


@dataclass(frozen=True)
class InversionTrace:
    """Intermediate values of one inversion, for diagnostics and tests.

    Conjugates a, b, c and epsilon are always present; the remaining
    fields are populated by the families that use them (zeta/lambda by F2,
    the cubic coefficients by F4, the unity-root pipeline by F6).
    ``chosen`` is a member of ``candidates`` and satisfies f(chosen) = a.
    """
    a: FieldElement
    b: FieldElement
    c: FieldElement
    epsilon: FieldElement
    lam: FieldElement | None = None
    zeta1: FieldElement | None = None
    zeta2: FieldElement | None = None
    alpha: FieldElement | None = None
    beta_coef: FieldElement | None = None
    gamma: FieldElement | None = None
    theta_coef: FieldElement | None = None
    w: FieldElement | None = None
    z: FieldElement | None = None
    t: FieldElement | None = None
    beta: FieldElement | None = None
    theta: FieldElement | None = None
    candidates: tuple[FieldElement, ...] = ()
    chosen: FieldElement | None = None

    def to_json_dict(self) -> dict:
        """Every field in declaration order, as hex; ``lam`` is keyed "lambda"."""
        def fmt(v):
            return [str(x) for x in v] if isinstance(v, tuple) else None if v is None else str(v)
        return {"lambda" if f.name == "lam" else f.name: fmt(getattr(self, f.name))
                for f in fields(self)}


def _pick(inst: FamilyInstance, a: int, pairs) -> tuple[int, dict]:
    # F3's x = a and F4's x = a + 1 are rarely the answer: try the closed form
    # first.  Both permute for every k, so the order cannot change the choice
    for x, extras in pairs[::-1] if inst.family in (FamilyId.F3, FamilyId.F4) else pairs:
        if trinomial_bits(inst.spec, inst.exponents, x) == a:
            return x, extras
    raise NoValidCandidateError(
        f"no candidate maps to 0x{a:x} under {inst.family.value} "
        f"(k={inst.params.k}, m={inst.params.m}, n={inst.n})")


# Each _invert_fX(inst, a, b, c) takes a != 0 with its conjugates and
# returns the candidate preimages as (x, extras) pairs; extras holds the
# intermediate values that the trace records if x is chosen.

@functools.lru_cache(maxsize=64)
def _f1_reduction(n: int, modulus: int, k: int) -> ColumnReduction:
    # L1 = x^(2^(2k+1)) + x^2 + x depends only on the instance: reduce it
    # once.  Keyed by ints and holding ints, so it pins no FieldSpec.
    L1 = LinearizedPoly(FieldSpec(n, modulus), [(2 * k + 1, 1), (1, 1), (0, 1)])
    return ColumnReduction(matrix_of(L1))


def _invert_f1(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    k = inst.params.k
    eps = a ^ b ^ c
    if eps == 0:
        # the conjugate system collapses to u=b, v=c, w=a, so x^2 = ac
        return [(spec.sqrt(spec.mul(a, c)), {})]
    # scaled linearized equation v^(2^(2k+1)) + v^2 + v = a^2/eps^2; it has one
    # solution for valid k, and _pick drops any other candidate
    a2 = spec.frobenius(a, 1)
    eps2 = spec.frobenius(eps, 1)
    sols = _f1_reduction(spec.n, spec.modulus, k).solve(spec.element(spec.div(a2, eps2)))
    candidates = []
    for v_scaled in sols:
        v = spec.mul(eps, v_scaled.bits)       # undo the eps scaling
        u = spec.frobenius(v, 2 * k)
        w = eps ^ u ^ v
        candidates.append((spec.sqrt(spec.mul(v, w)), {}))
    return candidates


def _invert_f2(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    k = inst.params.k
    eps = a ^ b ^ c
    zeta1 = spec.mul(a, c) ^ spec.frobenius(b, 1) ^ spec.frobenius(c, 1)
    if zeta1 == 0:
        raise Zeta1ZeroError(
            f"zeta1 = 0 at a=0x{a:x}: reachable only for the excluded k = 2 (mod 3), here k={k}")
    zeta2 = spec.frobenius(zeta1, k)           # ab + a^2 + c^2, as a^(2^3k) = a
    lam = spec.div(zeta2, zeta1)               # a (2^2k+2^k+1)-th root of unity
    lam2 = spec.frobenius(lam, 1)
    extras = {"zeta1": zeta1, "zeta2": zeta2, "lam": lam}
    den = spec.mul(lam2, lam) ^ lam ^ 1
    if den != 0:
        z = spec.div(spec.mul(eps, lam2 ^ 1) ^ spec.mul(b, lam), den)
        extras["z"] = z
        return [(spec.frobenius(z, k), extras)]
    # lambda^3+lambda+1 = 0 forces lambda^7 = 1, reachable only for k = 1 (mod 3);
    # there lambda^5+lambda^3+1 = (lambda+1)^2, nonzero as 1 is no root of t^3+t+1
    y = spec.div(b, lam2 ^ 1)
    return [(spec.mul(spec.frobenius(lam, 2), y), extras)]


def _invert_f3(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    if a == 1:
        return [(1, {})]
    a2 = spec.frobenius(a, 1)
    b2 = spec.frobenius(b, 1)
    c2 = spec.frobenius(c, 1)
    # den = q^2 with q = a + ab + b^2 + c^2 + 1, never 0 for a != 0: if q = 0,
    # its image b + bc + c^2 + a + 1 is 0 too, and their sum b(a + b + c + 1)
    # gives c = a + b + 1; then q = a(a + b + 1) gives b = a + 1, so c = 0 = a
    den = a2 ^ spec.mul(a2, b2) ^ spec.frobenius(b, 2) ^ spec.frobenius(c, 2) ^ 1
    # from den*(x+a)^2 = a*b^2*(a^2+b^2+c^2+1)*(x+a): x = a or a + ab^2*num/den
    offset = spec.div(spec.mul(spec.mul(a, b2), a2 ^ b2 ^ c2 ^ 1), den)
    return [(a, {}), (a ^ offset, {})]


def _invert_f4(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    a2 = spec.frobenius(a, 1)
    b2 = spec.frobenius(b, 1)
    bc = spec.mul(b, c)
    alpha = a2 ^ b2 ^ bc ^ c ^ 1
    beta = spec.mul(a, bc)
    gamma = (spec.frobenius(a, 2) ^ spec.mul(a2, bc) ^ spec.mul(a2, b2)
             ^ spec.mul(a2, c) ^ b2 ^ bc ^ c ^ 1)
    theta = spec.mul(spec.mul(a2, a), bc) ^ spec.mul(a, bc)
    extras = {"alpha": alpha, "beta_coef": beta, "gamma": gamma, "theta_coef": theta}
    # alpha != 0 for a != 0: alpha plus its image c^2 + b^2 + a^2 c + a^2 + 1 is
    # c(c + b + 1 + a^2), so alpha = 0 forces c = a^2 + b + 1, and then alpha = a^2 b
    return [(a ^ 1, extras), (spec.div(beta, alpha), extras)]


def _invert_f5(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    a2 = spec.frobenius(a, 1)
    b2 = spec.frobenius(b, 1)
    # den != 0 for a != 0: den plus its image a^2 b^2 + b^2 + c^2 + a^4 + 1 is
    # a^2(c + 1 + a^2 + b^2), so den = 0 forces c = a^2 + b^2 + 1; then
    # den = b^2(a^2 + b^2 + 1) gives b = a + 1, so c = 0 = a
    den = spec.mul(a2, c) ^ a2 ^ b2 ^ spec.frobenius(c, 1) ^ 1
    num = (spec.mul(a2, a) ^ spec.mul(a, b2) ^ spec.mul(a, spec.mul(b, c))
           ^ spec.mul(a, c) ^ a)
    return [(spec.div(num, den), {})]


def _f6_from_z(spec, k: int, m: int, w: int, a: int, z: int):
    # the t/beta/theta pipeline from a root z of c1 z^(2^k) + c0 z = A, with
    # every check kept: [(x, extras)] if z passes, else []
    t = spec.inv(z)
    beta = t ^ w
    if spec.pow(beta, (1 << (2 * m)) + 1) != 1:
        return []      # beta is no (2^2m + 1)-th root of unity (z = 1 gives beta = w^2)
    theta = spec.pow(beta, (1 << k) - 1)
    den = 1 ^ theta ^ spec.mul(theta, beta)  # 1 + beta^(2^k - 1) + beta^(2^k)
    if den == 0:
        return []
    x = spec.div(a, den)
    if spec.frobenius(x, 2 * m) != spec.mul(theta, x):
        return []      # conjugacy x^(2^2m) = theta*x must hold
    return [(x, {"w": w, "z": z, "t": t, "beta": beta, "theta": theta})]


def _invert_f6(inst: FamilyInstance, a: int, b: int, c: int):
    spec = inst.spec
    k = inst.params.k
    m = inst.params.m
    w = cube_root_of_unity(spec).bits
    big_a = spec.frobenius(a, 2 * m)
    # A/a = a^(2^2m - 1) lies in the subgroup of order 2^2m + 1 (n = 4m), which 3
    # never divides, so A/a is neither w nor w^2 and neither coefficient vanishes
    c1 = spec.mul(w, big_a) ^ a                # coefficient of z^(2^k)
    c0 = spec.mul(w ^ 1, big_a) ^ a            # coefficient of z; w^2 = w + 1
    if math.gcd(k, spec.n) == 1:
        # c1 + c0 = A makes z = 1 a root, and the kernel is {0, lambda} with
        # lambda^(2^k - 1) = c0/c1, so the roots are 1, which never passes,
        # and 1 + lambda, nonzero as c0 != c1
        lam = fractional_power(spec.element(spec.div(c0, c1)), 1, (1 << k) - 1).bits
        return _f6_from_z(spec, k, m, w, a, 1 ^ lam)
    # only excluded (m, k) get here (k even or gcd(m, k) > 1): try every root
    L = LinearizedPoly(spec, [(k, c1), (0, c0)])
    return [pair for sol in solve_affine(L, spec.element(big_a))   # z != 0: L(0) = 0 != A
            for pair in _f6_from_z(spec, k, m, w, a, sol.bits)]


_DISPATCH = {
    FamilyId.F1: _invert_f1,
    FamilyId.F2: _invert_f2,
    FamilyId.F3: _invert_f3,
    FamilyId.F4: _invert_f4,
    FamilyId.F5: _invert_f5,
    FamilyId.F6: _invert_f6,
}


def invert(inst: FamilyInstance, a: FieldElement) -> tuple[FieldElement, InversionTrace]:
    """The unique x with f(x) = a, plus the full inversion trace."""
    if a.spec != inst.spec:
        raise ValueError("element bound to a different FieldSpec")
    spec = inst.spec
    if spec.n <= TABLE_DEGREE_LIMIT and not spec.tables_built:
        spec.build_tables()
    bits = a.bits
    b = spec.frobenius(bits, inst.params.k)
    c = spec.frobenius(b, inst.params.k)
    pairs = [(0, {})] if bits == 0 else _DISPATCH[inst.family](inst, bits, b, c)
    chosen, extras = _pick(inst, bits, pairs)
    elem = spec.element
    trace = InversionTrace(
        a=a, b=elem(b), c=elem(c), epsilon=elem(bits ^ b ^ c),
        candidates=tuple(elem(x) for x, _ in pairs),
        chosen=elem(chosen),
        **{key: elem(v) for key, v in extras.items()},
    )
    return elem(chosen), trace

