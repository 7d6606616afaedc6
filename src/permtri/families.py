"""The six permutation-trinomial families over F_{2^n} and their parameter rules.

Every family is f(x) = x^e1 + x^e2 + x with all coefficients 1; the three
exponents are determined by the family's parameters and are stored exactly
as the defining formulas produce them (no reduction mod 2^n - 1; reduction
is an evaluation concern inside pow).  Each family also carries the integer
gcd identities its permutation argument relies on, exposed as checkable
predicates over exact unbounded arithmetic.

    F1  x^(2^2k + 2^k - 1) + x^(2^2k)           + x   n = 3k,   k != 2 (mod 3)
    F2  x^(2^2k + 2^k - 1) + x^(2^2k - 2^k + 1) + x   n = 3k,   k != 2 (mod 3)
    F3  x^(2^(2k+1) + 2^(k+1) + 1) + x^(2^(k+1) + 1) + x   n = 3k + 1
    F4  x^(2^(3k-1) - 2^2k + 2^k) + x^(2^k - 1) + x   n = 3k - 1
    F5  x^(2^2k + 2^k + 1) + x^(2^2k + 1)       + x   n = 3k - 1
    F6  x^d + x^(2^2m) + x,  d = 1 + 2^k + ... + 2^(2mk)
                                                      n = 4m, k odd,
                                                      1 <= k <= n-1, gcd(m,k) = 1
"""

import enum
import json
import math
from dataclasses import dataclass

from .field import TABLE_DEGREE_LIMIT, FieldElement, FieldSpec, default_spec

VALUE_CHUNK = 1 << 15    # points per step of value_table's pass: its buffers stay in cache


class ConditionViolatedError(Exception):
    """Family hypothesis violated; the message names the broken condition."""


class DegreeMismatchError(Exception):
    """Supplied FieldSpec degree differs from the family's n(params)."""


class FamilyId(str, enum.Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6 = "F6"

    @property
    def formula(self) -> str:
        return _FORMULAS[self]

    @property
    def constraint(self) -> str:
        return _CONSTRAINTS[self]

    @property
    def uses_m(self) -> bool:
        return self is FamilyId.F6


_FORMULAS = {
    FamilyId.F1: "x^(2^2k+2^k-1) + x^(2^2k) + x",
    FamilyId.F2: "x^(2^2k+2^k-1) + x^(2^2k-2^k+1) + x",
    FamilyId.F3: "x^(2^(2k+1)+2^(k+1)+1) + x^(2^(k+1)+1) + x",
    FamilyId.F4: "x^(2^(3k-1)-2^2k+2^k) + x^(2^k-1) + x",
    FamilyId.F5: "x^(2^2k+2^k+1) + x^(2^2k+1) + x",
    FamilyId.F6: "x^d + x^(2^2m) + x, d = sum(2^ik, i=0..2m)",
}

_CONSTRAINTS = {
    FamilyId.F1: "n = 3k, k >= 1, k != 2 (mod 3)",
    FamilyId.F2: "n = 3k, k >= 1, k != 2 (mod 3)",
    FamilyId.F3: "n = 3k+1, k >= 1",
    FamilyId.F4: "n = 3k-1, k >= 1",
    FamilyId.F5: "n = 3k-1, k >= 1",
    FamilyId.F6: "n = 4m, k odd, 1 <= k <= n-1, gcd(m, k) = 1",
}


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one family instance: k always, m for F6 only."""
    k: int
    m: int | None = None


@dataclass(frozen=True)
class FamilyInstance:
    """One family pinned to concrete parameters and a concrete field."""
    family: FamilyId
    params: FamilyParams
    spec: FieldSpec
    exponents: tuple[int, int, int]

    @property
    def n(self) -> int:
        return self.spec.n

    def reduced_exponents(self) -> tuple[int, int, int]:
        """Exponents mapped into [1, 2^n - 1] (valid for nonzero inputs)."""
        m = self.spec.order - 1
        return tuple((e - 1) % m + 1 for e in self.exponents)

    def to_json_dict(self) -> dict:
        return {
            "id": self.family.value,
            "k": self.params.k,
            "m": self.params.m,
            "n": self.n,
            "modulus": f"0x{self.spec.modulus:x}",
            "exponents": [str(e) for e in self.exponents],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def field_degree(family: FamilyId, params: FamilyParams) -> int:
    """n as a function of the family's parameters."""
    k = params.k
    if family in (FamilyId.F1, FamilyId.F2):
        return 3 * k
    if family is FamilyId.F3:
        return 3 * k + 1
    if family in (FamilyId.F4, FamilyId.F5):
        return 3 * k - 1
    return 4 * params.m


def exponents_of(family: FamilyId, params: FamilyParams) -> tuple[int, int, int]:
    """The exact exponent triple (e1, e2, e3) of the defining trinomial."""
    k = params.k
    if family is FamilyId.F1:
        return ((1 << 2 * k) + (1 << k) - 1, 1 << 2 * k, 1)
    if family is FamilyId.F2:
        return ((1 << 2 * k) + (1 << k) - 1, (1 << 2 * k) - (1 << k) + 1, 1)
    if family is FamilyId.F3:
        return ((1 << (2 * k + 1)) + (1 << (k + 1)) + 1, (1 << (k + 1)) + 1, 1)
    if family is FamilyId.F4:
        return ((1 << (3 * k - 1)) - (1 << 2 * k) + (1 << k), (1 << k) - 1, 1)
    if family is FamilyId.F5:
        return ((1 << 2 * k) + (1 << k) + 1, (1 << 2 * k) + 1, 1)
    m = params.m
    d = sum(1 << (i * k) for i in range(2 * m + 1))
    return (d, 1 << 2 * m, 1)


def _params_violation(family: FamilyId, params: FamilyParams, *,
                      hypotheses: bool = True) -> str | None:
    """The message naming the first condition the parameters break, or None.
    The parameters the formulas need come first; without ``hypotheses``,
    as in an excluded-parameter experiment, they are all that is checked."""
    k, m = params.k, params.m
    if family is not FamilyId.F6 and m is not None:
        return f"family {family.value} takes no parameter m"
    if family is FamilyId.F6:
        if m is None:
            return "family F6 requires parameter m"
        if m < 1:
            return "m must be a positive integer"
    if k < 1:
        return "k must be a positive integer"
    if not hypotheses:
        return None
    if family in (FamilyId.F1, FamilyId.F2) and k % 3 == 2:
        return f"k = {k} violates the hypothesis k ≢ 2 (mod 3)"
    if family is FamilyId.F6:
        n = 4 * m
        if k % 2 == 0:
            return f"k = {k} violates the hypothesis that k is odd"
        if not 1 <= k <= n - 1:
            return f"k = {k} violates the hypothesis 1 <= k <= n-1 (n = {n})"
        if math.gcd(m, k) != 1:
            return f"(m, k) = ({m}, {k}) violates the hypothesis gcd(m, k) = 1"
    return None


def validate_params(family: FamilyId, params: FamilyParams) -> None:
    """Raise ConditionViolatedError unless the family's hypotheses hold."""
    if broken := _params_violation(family, params):
        raise ConditionViolatedError(broken)


def instantiate(family: FamilyId | str,
                params: FamilyParams | None = None,
                spec: FieldSpec | None = None,
                *,
                k: int | None = None,
                m: int | None = None,
                enforce_hypotheses: bool = True) -> FamilyInstance:
    """Build a FamilyInstance with exact exponents.

    Parameters may be given as a FamilyParams or as k=/m= keywords.  When
    ``spec`` is omitted the pinned default modulus for the family's n is
    used.  ``enforce_hypotheses=False`` permits excluded parameters for
    experiments (k and m must still fit the formulas; f may not permute).
    """
    family = FamilyId(family)
    if params is None:
        if k is None:
            raise ConditionViolatedError(f"family {family.value} requires parameter k")
        params = FamilyParams(k=k, m=m)
    elif k is not None or m is not None:
        raise TypeError("pass either params or k=/m= keywords, not both")
    if broken := _params_violation(family, params, hypotheses=enforce_hypotheses):
        raise ConditionViolatedError(broken)
    n = field_degree(family, params)
    if spec is None:
        spec = default_spec(n)
    elif spec.n != n:
        raise DegreeMismatchError(
            f"family {family.value} with {params} lives in degree {n}, spec has n={spec.n}")
    return FamilyInstance(family, params, spec, exponents_of(family, params))


def trinomial_bits(spec: FieldSpec, exponents, x: int) -> int:
    """x^e1 + x^e2 + x^e3 at one residue (the scalar kernel)."""
    e1, e2, e3 = exponents
    return spec.pow(x, e1) ^ spec.pow(x, e2) ^ spec.pow(x, e3)


def evaluate(inst: FamilyInstance, x: FieldElement) -> FieldElement:
    """f(x) = x^e1 + x^e2 + x^e3 at a single point."""
    if x.spec != inst.spec:
        raise ValueError("element bound to a different FieldSpec")
    return FieldElement(inst.spec, trinomial_bits(inst.spec, inst.exponents, x.bits))


def value_table(inst: FamilyInstance):
    """f over the whole field as a numpy uint32 array indexed by x.bits.

    For n <= TABLE_DEGREE_LIMIT, x^e = exp[e * log x mod m], m = 2^n - 1, for
    x != 0.  As 2^n = 1 (mod m), a = e * log x folds to (a & m) + (a >> n),
    below 2m for a reduced e <= m: it indexes the doubled antilog buffer of
    ``build_tables`` with no modulo.  One pass over x in chunks of VALUE_CHUNK
    points reuses cache-sized buffers; x^1 terms are x.  Above the limit the
    scalar kernel runs one element at a time.
    """
    import numpy as np
    spec = inst.spec
    reduced = inst.reduced_exponents()
    if spec.n > TABLE_DEGREE_LIMIT:
        out = np.zeros(spec.order, dtype=np.uint32)   # f(0) = 0: all exponents >= 1
        out[1:] = np.fromiter(
            (trinomial_bits(spec, reduced, x) for x in range(1, spec.order)),
            dtype=np.uint32, count=spec.order - 1)
        return out
    exp_np, log_np = spec.exp_log_arrays()
    exp2, m = exp_np.base, exp_np.size     # exp_np is the first half of the doubled buffer
    others = [e for e in reduced if e != 1]      # x^1 terms cancel in pairs; one left is x
    out = (np.zeros if len(others) % 2 else np.arange)(spec.order, dtype=np.uint32)
    size = min(VALUE_CHUNK, m)
    a, low, vals = np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size, np.uint32)
    for lo in range(1, spec.order, size):
        c = min(size, spec.order - lo)
        for e in others:
            np.multiply(log_np[lo:lo + c], e, out=a[:c], dtype=np.intp)
            np.bitwise_and(a[:c], m, out=low[:c])
            np.add(np.right_shift(a[:c], spec.n, out=a[:c]), low[:c], out=a[:c])
            # every index is below 2m, so "clip" never acts; "raise" would buffer out
            out[lo:lo + c] ^= np.take(exp2, a[:c], out=vals[:c], mode="clip")
    return out


def enumerate_params(family: FamilyId | str, n_max: int) -> list[tuple[int, FamilyParams]]:
    """All valid parameterizations with n <= n_max, ascending by n then k."""
    family = FamilyId(family)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    out = []
    for m in range(1, n_max // 4 + 1) if family.uses_m else (None,):   # F6 has n = 4m
        for k in range(1, n_max, 2 if family.uses_m else 1):   # F6 needs k odd
            params = FamilyParams(k=k, m=m)
            n = field_degree(family, params)
            if n > n_max or k >= n:
                break       # n grows with k, or (F6) is fixed by m; every family has k < n
            if _params_violation(family, params) is None:
                out.append((n, params))
    return out


def enumerate_instances(n_max: int, families=tuple(FamilyId)):
    """Instantiate every valid parameterization with n <= n_max (default moduli)."""
    for family in families:
        for _, params in enumerate_params(family, n_max):
            yield instantiate(family, params)


def check_gcd_identities(family: FamilyId | str,
                         params: FamilyParams) -> list[tuple[str, bool]]:
    """Evaluate the integer gcd identities used by the family's permutation
    argument, with exact unbounded arithmetic.  Returns (name, holds) pairs;
    families whose argument needs no gcd identity return an empty list.
    """
    family = FamilyId(family)
    validate_params(family, params)
    k = params.k
    out = []
    if family is FamilyId.F1:
        g = math.gcd((1 << (2 * k + 1)) - 4, (1 << (3 * k)) - 1)
        out.append(("gcd(2^(2k+1)-4, 2^(3k)-1) == 1", g == 1))
        out.append(("gcd(2^(2k+1)-4, 2^(3k)-1) == 2^gcd(2k-1,3k)-1",
                    g == (1 << math.gcd(2 * k - 1, 3 * k)) - 1))
    elif family is FamilyId.F2:
        out.append(("gcd(2^(2k)+2^k+1, 2^k+3) == 1",
                    math.gcd((1 << (2 * k)) + (1 << k) + 1, (1 << k) + 3) == 1))
        out.append(("gcd(2^k+3, 7) == 1", math.gcd((1 << k) + 3, 7) == 1))
        out.append(("gcd(2^(2k)+2^k+1, 2^(k+1)-1) == 1",
                    math.gcd((1 << (2 * k)) + (1 << k) + 1, (1 << (k + 1)) - 1) == 1))
        if k % 3 == 0:
            out.append(("gcd(7, 2^(2k)+2^k+1) == 1",
                        math.gcd(7, (1 << (2 * k)) + (1 << k) + 1) == 1))
    elif family is FamilyId.F4:
        n = 3 * k - 1
        g = math.gcd((1 << k) - 1, (1 << n) - 1)
        out.append(("gcd(2^k-1, 2^n-1) == 1", g == 1))
        out.append(("gcd(2^k-1, 2^n-1) == 2^gcd(k,3k-1)-1",
                    g == (1 << math.gcd(k, n)) - 1))
    elif family is FamilyId.F6:
        m = params.m
        n = 4 * m
        d = exponents_of(family, params)[0]
        out.append(("gcd(d, 2^n-1) == 1", math.gcd(d, (1 << n) - 1) == 1))
        out.append(("gcd(2^k-1, 2^(4m)-1) == 1",
                    math.gcd((1 << k) - 1, (1 << n) - 1) == 1))
        out.append(("d == (2^((2m+1)k)-1)/(2^k-1)",
                    d * ((1 << k) - 1) == (1 << ((2 * m + 1) * k)) - 1))
    return out
