"""Exact arithmetic in binary extension fields F_{2^n}.

Field elements are represented as Python ints whose binary digits are the
coefficients of a polynomial over GF(2): bit i is the coefficient of X^i.
Arithmetic is performed modulo an irreducible polynomial of degree n, so an
element is always a canonical residue below 2^n.  Addition is XOR; the
multiplicative group has order 2^n - 1, which is why exponents may be
reduced mod 2^n - 1 for nonzero bases (exponents themselves are plain
Python ints and may be arbitrarily large).

Two multiplication routes exist:

* ``mul_baseline`` -- portable shift-and-XOR with modular reduction,
* log/antilog tables over a multiplicative generator, built on demand for
  n <= 20 via ``build_tables``: two read-only numpy arrays filled block by
  block with GF(2)-linear doubling steps (no per-element loop).  The
  scalar route indexes memoryviews of the same two buffers, so once built,
  ``mul``/``inv``/``pow`` are O(1) lookups that yield Python ints; they
  must agree bit-exactly with the baseline.

``DEFAULT_MODULI`` pins one modulus per degree 2..32: the irreducible
polynomial with the smallest integer encoding.  Degree 8 is the familiar
0x11B (x^8 + x^4 + x^3 + x + 1).
"""

import functools
import threading

import numpy as np

MIN_DEGREE = 2
MAX_DEGREE = 32
TABLE_DEGREE_LIMIT = 20


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class FieldMismatchError(FieldError):
    """Operands belong to different FieldSpecs."""


class ZeroInverseError(FieldError):
    """Multiplicative inverse of zero requested."""


class NonDivisorError(FieldError):
    """Trace to F_{2^k} requested for k not dividing n."""


class NoCubeRootError(FieldError):
    """No primitive cube root of unity exists (n odd)."""


class ZeroBaseError(FieldError):
    """Fractional power of zero requested."""


class NonInvertibleDenominatorError(FieldError):
    """Fractional-power denominator shares a factor with 2^n - 1."""


# --------------------------------------------------------------------------
# carry-less polynomial arithmetic on plain ints (bit i = coeff of X^i)
# --------------------------------------------------------------------------

def _poly_mod(a: int, m: int) -> int:
    mb = m.bit_length()
    while a.bit_length() >= mb:
        a ^= m << (a.bit_length() - mb)
    return a


def _poly_mulmod(a: int, b: int, m: int) -> int:
    r = 0
    a = _poly_mod(a, m)
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() >= m.bit_length():
            a ^= m << (a.bit_length() - m.bit_length())
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _x_pow_2e(j: int, m: int) -> int:
    # X^(2^j) mod m by j modular squarings
    r = _poly_mod(0b10, m)
    for _ in range(j):
        r = _poly_mulmod(r, r, m)
    return r


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial given as a bit int.

    ``poly`` is irreducible of degree n iff X^(2^n) = X mod poly and, for
    every prime p dividing n, gcd(X^(2^(n/p)) - X, poly) = 1.
    """
    n = poly.bit_length() - 1
    if poly < 0 or n < 1:
        return False
    if _x_pow_2e(n, poly) != _poly_mod(0b10, poly):
        return False
    for p in _prime_factors(n):
        h = _x_pow_2e(n // p, poly) ^ 0b10
        if _poly_gcd(poly, _poly_mod(h, poly)) != 1:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """Irreducible degree-n polynomial with the smallest integer encoding."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return 0b10
    c = (1 << n) | 1  # constant term required: X never divides an irreducible of degree >= 2
    while not is_irreducible(c):
        c += 2
    return c


def irreducibles(n: int):
    """Yield the irreducible degree-n polynomials in ascending integer order."""
    for c in range(1 << n, 1 << (n + 1)):
        if is_irreducible(c):
            yield c


# Smallest irreducible per degree, generated by smallest_irreducible() and
# frozen here; a regression test regenerates and compares.
DEFAULT_MODULI: dict[int, int] = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
}


class FieldSpec:
    """A concrete realization of F_{2^n} = F_2[X]/(modulus).

    Immutable after construction and safe to share across threads; all
    arithmetic methods are pure functions of their int arguments.  The
    log/antilog tables and the Frobenius basis images are caches built at
    most once under a lock.
    """

    __slots__ = ("n", "modulus", "order", "_exp", "_log", "_exp_np",
                 "_log_np", "_generator", "_frob_basis", "_lock")

    def __init__(self, n: int, modulus: int | None = None):
        if not MIN_DEGREE <= n <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {n}")
        if modulus is None:
            modulus = DEFAULT_MODULI[n]
        if modulus < 0:
            raise ValueError(f"modulus must be nonnegative, got {modulus:#x}")
        if modulus.bit_length() - 1 != n:
            raise ValueError(f"modulus 0x{modulus:x} does not have degree {n}")
        if not modulus & 1:
            raise ValueError("modulus must have a nonzero constant term")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus 0x{modulus:x} is reducible")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self._exp = None
        self._log = None
        self._exp_np = None
        self._log_np = None
        self._generator = None
        self._frob_basis = {}
        self._lock = threading.RLock()

    def __repr__(self):
        return f"FieldSpec(n={self.n}, modulus=0x{self.modulus:x})"

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.n == other.n and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.n, self.modulus))

    # -- element construction ------------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        """Wrap canonical residue ``bits`` as an element of this field."""
        return FieldElement(self, bits)

    def from_hex(self, text: str) -> "FieldElement":
        """Parse an element from ``0x``-prefixed (or bare) hex."""
        return FieldElement(self, int(text, 16))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        """Iterate over all 2^n elements in ascending bit order."""
        for bits in range(self.order):
            yield FieldElement(self, bits)

    # -- int-level arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul_baseline(self, a: int, b: int) -> int:
        """Shift-and-XOR product with modular reduction (portable route)."""
        r = 0
        mod = self.modulus
        top = 1 << self.n
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def mul(self, a: int, b: int) -> int:
        """Product of two residues; table route when tables are built."""
        exp = self._exp
        if exp is not None:
            if a == 0 or b == 0:
                return 0
            return exp[self._log[a] + self._log[b]]
        return self.mul_baseline(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroInverseError on 0."""
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse in F_2^{self.n}")
        exp = self._exp
        if exp is not None:
            m = self.order - 1
            return exp[(m - self._log[a]) % m]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e with the exponent reduced mod 2^n - 1 for nonzero bases.

        0^0 is defined as 1; 0^e = 0 for e > 0.  ``e`` may be arbitrarily
        large (e.g. geometric-sum exponents beyond machine words).
        """
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        m = self.order - 1
        e %= m
        if e == 0:
            return 1
        exp = self._exp
        if exp is not None:
            return exp[(self._log[a] * e) % m]
        r = 1
        while e:
            if e & 1:
                r = self.mul_baseline(r, a)
            e >>= 1
            if e:
                a = self.mul_baseline(a, a)
        return r

    def frobenius(self, a: int, j: int) -> int:
        """a^(2^j) by repeated squaring; frobenius(a, n) = a."""
        if j < 0:
            raise ValueError("Frobenius iterate must be nonnegative")
        for _ in range(j % self.n):
            a = self.mul(a, a)
        return a

    def sqrt(self, a: int) -> int:
        """The unique square root, a^(2^(n-1)); squaring is a bijection."""
        return self.frobenius(a, self.n - 1)

    def trace(self, a: int, k: int = 1) -> int:
        """Trace onto the subfield F_{2^k}: sum of a^(2^(ik)) for i < n/k."""
        if k < 1 or self.n % k != 0:
            raise NonDivisorError(f"trace target degree {k} does not divide n={self.n}")
        acc = 0
        t = a
        for _ in range(self.n // k):
            acc ^= t
            t = self.frobenius(t, k)
        return acc

    # -- generator and tables --------------------------------------------

    def generator(self) -> int:
        """Smallest multiplicative generator (deterministic)."""
        if self._generator is None:
            with self._lock:
                if self._generator is None:
                    m = self.order - 1
                    factors = _prime_factors(m)
                    g = 2
                    while True:
                        if all(self.pow(g, m // p) != 1 for p in factors):
                            break
                        g += 1
                    self._generator = g
        return self._generator

    def build_tables(self) -> None:
        """Build log/antilog tables (n <= 20).  Idempotent and thread-safe.

        The antilog array is filled by doubling, exp[s:2s] = exp[:s] * g^s:
        multiplying by a constant is GF(2)-linear, so each block is the XOR
        of the constant's n basis images picked by the bits of exp[:s].  The
        log array is the scatter log[exp[i]] = i; log[0] stays unused.  exp
        is stored doubled, so a log-sum below 2(2^n - 1) indexes without a
        modulo.  Both arrays are read-only: the scalar route indexes
        memoryviews of them, whose items are Python ints, so log[a] * e
        cannot wrap in uint32.
        """
        if self._exp is not None:
            return
        if self.n > TABLE_DEGREE_LIMIT:
            raise ValueError(f"log tables limited to n <= {TABLE_DEGREE_LIMIT}, got n={self.n}")
        with self._lock:
            if self._exp is not None:
                return
            g = self.generator()
            m = self.order - 1
            exp2 = np.zeros(2 * m, dtype=np.uint32)
            exp = exp2[:m]
            exp[0] = 1
            s, g_s = 1, g
            while s < m:
                src = exp[:min(s, m - s)]
                block = exp[s:s + src.size]
                for i in range(self.n):
                    block ^= ((src >> i) & 1) * np.uint32(self.mul_baseline(1 << i, g_s))
                s += src.size
                g_s = self.mul_baseline(g_s, g_s)
            if (exp[1:] == 1).any():
                # 1 recurs before step 2^n - 1: g is not a generator
                raise FieldError(f"0x{g:x} does not generate the multiplicative "
                                 f"group of {self!r}")
            log = np.zeros(self.order, dtype=np.uint32)
            log[exp] = np.arange(m, dtype=np.uint32)
            exp2[m:] = exp
            exp2.flags.writeable = log.flags.writeable = False
            self._exp_np, self._log_np = exp2[:m], log
            self._log = memoryview(log)
            self._exp = memoryview(exp2)

    @property
    def tables_built(self) -> bool:
        return self._exp is not None

    def exp_log_arrays(self):
        """(exp, log) read-only numpy uint32 arrays from ``build_tables``;
        exp has length 2^n - 1 (index by log mod 2^n - 1)."""
        self.build_tables()
        return self._exp_np, self._log_np

    def frobenius_basis(self, j: int) -> tuple[int, ...]:
        """Images (X^i)^(2^j) of the basis monomials, cached per j."""
        j %= self.n
        basis = self._frob_basis.get(j)
        if basis is None:
            basis = tuple(self.frobenius(1 << i, j) for i in range(self.n))
            self._frob_basis[j] = basis
        return basis


class FieldElement:
    """A canonical residue bound to a FieldSpec.

    Supports ``+``, ``*``, ``/``, ``**`` plus the named maps ``inv``,
    ``sqrt``, ``frobenius`` and ``trace``.  Mixing elements of different
    FieldSpecs raises FieldMismatchError.  ``str`` is compact hex.
    """

    __slots__ = ("spec", "bits")

    def __init__(self, spec: FieldSpec, bits: int):
        if not 0 <= bits < spec.order:
            raise ValueError(f"bits 0x{bits:x} out of range for n={spec.n}")
        self.spec = spec
        self.bits = bits

    def _check(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatchError(f"{self.spec} vs {other.spec}")
        return other

    def __repr__(self):
        return f"FieldElement(0x{self.bits:x}, n={self.spec.n})"

    def __str__(self):
        return f"0x{self.bits:x}"

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.bits == other.bits and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec, self.bits))

    def __bool__(self):
        return bool(self.bits)

    def __add__(self, other):
        return FieldElement(self.spec, self.bits ^ self._check(other).bits)

    __sub__ = __add__

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.bits, self._check(other).bits))

    def __truediv__(self, other):
        return FieldElement(self.spec, self.spec.div(self.bits, self._check(other).bits))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.bits, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.bits))

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.sqrt(self.bits))

    def frobenius(self, j: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.frobenius(self.bits, j))

    def trace(self, k: int = 1) -> "FieldElement":
        return FieldElement(self.spec, self.spec.trace(self.bits, k))

    @property
    def is_zero(self) -> bool:
        return self.bits == 0


@functools.lru_cache(maxsize=None)
def default_spec(n: int) -> FieldSpec:
    """The shared FieldSpec for degree n under the pinned default modulus."""
    return FieldSpec(n)


def cube_root_of_unity(spec: FieldSpec) -> FieldElement:
    """The smaller primitive cube root of unity w (w^2 + w + 1 = 0).

    Exists iff 3 divides 2^n - 1, i.e. iff n is even.  The two roots differ
    by 1, so normalizing to the smaller bit pattern is deterministic.
    """
    if spec.n % 2:
        raise NoCubeRootError(f"n={spec.n} is odd, 3 does not divide 2^n - 1")
    m = spec.order - 1
    w = spec.pow(spec.generator(), m // 3)
    return FieldElement(spec, min(w, w ^ 1))


def fractional_power(a: FieldElement, num: int, den: int) -> FieldElement:
    """a^(num/den) in the multiplicative group: exponent num * den^-1 mod 2^n - 1.

    Well defined for nonzero a whenever gcd(den, 2^n - 1) = 1.
    """
    if a.bits == 0:
        raise ZeroBaseError("fractional power of 0 is undefined")
    m = a.spec.order - 1
    try:
        den_inv = pow(den % m, -1, m)
    except ValueError:
        raise NonInvertibleDenominatorError(
            f"gcd(den, 2^{a.spec.n} - 1) != 1 for den={den}") from None
    return FieldElement(a.spec, a.spec.pow(a.bits, (num % m) * den_inv % m))
