"""Exact arithmetic in binary extension fields F_{2^n}.

Field elements are represented as Python ints whose binary digits are the
coefficients of a polynomial over GF(2): bit i is the coefficient of X^i.
Arithmetic is performed modulo an irreducible polynomial of degree n, so an
element is always a canonical residue below 2^n.  Addition is XOR; the
multiplicative group has order 2^n - 1, which is why exponents may be
reduced mod 2^n - 1 for nonzero bases (exponents themselves are plain
Python ints and may be arbitrarily large).

Three routes give the same values bit for bit:

* log/antilog tables (n <= 20, ``build_tables``): two read-only numpy
  arrays filled by doubling through byte-sliced tables, indexed through
  memoryviews, so ``mul``/``inv``/``pow``/``frobenius`` are O(1) lookups;
* byte-sliced tables, for every spec without log tables: a GF(2)-linear
  map kept as ceil(n/8) uint32 ``array`` tables (no numpy), one per byte
  of its argument.  Frobenius powers and squarings are ceil(n/8) lookups,
  ``mul`` is a 4-bit windowed comb whose high half is reduced by such a
  table, ``pow`` is a Frobenius chain (x^e as a product of Frobenius
  images of x^(1 + 2^k + ... + 2^((L-1)k)), one per run s, s + k, ... of
  ones in e, for the stride k with the shortest program; see
  ``_frobenius_chain``) and ``inv`` is the extended Euclid algorithm on
  the polynomials;
* ``mul_baseline``, portable shift-and-XOR: the reference for both.

``DEFAULT_MODULI`` pins one modulus per degree 2..32: the irreducible
polynomial with the smallest integer encoding.  Degree 8 is the familiar
0x11B (x^8 + x^4 + x^3 + x + 1).
"""

import functools
import threading
from array import array

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
    # shift-and-XOR product of residues a, b below X^deg(m), reduced mod m
    r = 0
    top = 1 << (m.bit_length() - 1)
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= m
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


def _stride_chain(steps: list, stride: int, n: int):
    """chain(l) appends to ``steps`` what builds Q_l = x^(sum of 2^(i*stride),
    i < l) by Q_2l = Q_l^(2^(l*stride)) Q_l, Q_(l+1) = Q_l^(2^stride) x, and
    returns Q_l's register; each Q_l is built once."""
    reg_of = {1: 0}

    def chain(length):
        if length not in reg_of:
            if length % 2:
                step = (chain(length - 1), stride, 0)
            else:
                half = chain(length // 2)
                step = (half, length // 2 * stride % n, half)
            steps.append(step)
            reg_of[length] = len(steps)
        return reg_of[length]
    return chain


@functools.lru_cache(maxsize=256)
def _frobenius_chain(e: int, n: int) -> tuple:
    """A straight-line program for x^e in F_{2^n}, 0 < e < 2^n - 1.

    Bits are read cyclically, since x^(2^n) = x.  For each stride k the
    ones of e split into maximal runs s, s + k, ..., s + (L-1)k mod n, each
    starting at a one whose stride-k predecessor is zero.  Such a run is the
    s-th Frobenius image of Q_L = x^(1 + 2^k + ... + 2^((L-1)k)); each Q_L is
    built once by ``_stride_chain`` (for k = 1, the Itoh-Tsujii chain), and
    the runs are joined Horner-fashion from the highest offset down.  The
    shortest program is kept, the least k on a tie.  Returns (steps, shift):
    registers start as [x], step (i, j, k) appends regs[i]^(2^j) * regs[k],
    and x^e is the last register to the 2^shift.
    """
    t, best = e.bit_count(), None
    for k in range(1, n):
        starts = e & ~(e << k | e >> (n - k))      # ones whose stride-k predecessor is zero
        r = starts.bit_count()
        # r - 1 joins, and a chain for a run of at least ceil(t/r) ones
        if not r or best and r - 2 + (-(-t // r)).bit_length() >= len(best[0]):
            continue
        runs = []
        while starts:                   # highest offset first
            s = starts.bit_length() - 1
            starts ^= 1 << s
            length = 1
            while e >> (s + length * k) % n & 1:
                length += 1
            runs.append((s, length))
        if sum(length for _, length in runs) < t:     # a whole orbit of ones is left
            continue
        steps = []
        chain = _stride_chain(steps, k, n)
        acc = chain(runs[0][1])
        for (above, _), (offset, length) in zip(runs, runs[1:]):
            steps.append((acc, above - offset, chain(length)))
            acc = len(steps)
        if not best or len(steps) < len(best[0]):
            best = tuple(steps), runs[-1][0]
    return best


def _byte_tables(images: list[int]) -> tuple:
    """Read-only uint32 tables of the GF(2)-linear map sending X^i to images[i]:
    x maps to the XOR over p of tables[p][byte p of x] (see ``_apply``)."""
    tables = []
    for p in range(0, len(images), 8):
        t = [0]
        for image in images[p:p + 8]:
            t += [v ^ image for v in t]
        tables.append(memoryview(array("I", t)).toreadonly())
    return tuple(tables)


SPAN_CHUNK = 1 << 15    # points per step of the numpy passes over x: their buffers stay in cache


def _span_tables(spec: "FieldSpec", exponents):
    """(low, high): numpy uint32 tables of x -> the sum of x^e over
    ``exponents``, all powers of two: x maps to low[x % c] ^ high[x // c],
    c = low.size = min(2^n, SPAN_CHUNK).  The map is GF(2)-linear; each table
    is filled in place by doubling, entry y + 2^i = entry y ^ image of X^i."""
    import numpy as np
    bits = min(spec.n, SPAN_CHUNK.bit_length() - 1)
    images = [0] * spec.n
    for e in exponents:
        for i in range(spec.n):
            images[i] ^= spec.frobenius(1 << i, e.bit_length() - 1)
    tables = []
    for part in images[:bits], images[bits:]:
        table = np.zeros(1 << len(part), dtype=np.uint32)
        for i, image in enumerate(part):
            np.bitwise_xor(table[:1 << i], image, out=table[1 << i:2 << i])
        tables.append(table)
    return tuple(tables)


def _apply(tables, x: int) -> int:
    r = 0
    for t in tables:
        r ^= t[x & 255]
        x >>= 8
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
    return next(irreducibles(n))


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
    arithmetic methods are pure functions of their int arguments.  They
    use the log tables once ``build_tables`` has run (n <= 20), and the
    byte-sliced tables otherwise (built with the spec, or on first use
    under a lock); ``mul_baseline`` is the reference for both.
    """

    __slots__ = ("n", "modulus", "order", "_exp", "_log", "_generator",
                 "_cube_root", "_frob", "_red", "_lock")

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
        self._generator = None
        self._cube_root = None
        # byte-sliced tables of x -> x^(2^j) by j, and of h -> h * X^n (h < 2^(n-1))
        self._frob = {1: _byte_tables([_poly_mod(1 << 2 * i, modulus) for i in range(n)])}
        self._red = _byte_tables([_poly_mod(1 << i, modulus) for i in range(n, 2 * n - 1)])
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
        """Shift-and-XOR product with modular reduction (the reference)."""
        return _poly_mulmod(a, b, self.modulus)

    def mul(self, a: int, b: int) -> int:
        """Product of two residues: log-table lookup, else a windowed comb."""
        exp = self._exp
        if exp is not None:
            if a == 0 or b == 0:
                return 0
            return exp[self._log[a] + self._log[b]]
        # 4-bit windowed comb: win[v] is a times the nibble v, unreduced
        a2, a4, a8 = a << 1, a << 2, a << 3
        a3, a12 = a2 ^ a, a8 ^ a4
        win = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
               a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        r = s = 0
        while b:
            r ^= win[b & 15] << s
            b >>= 4
            s += 4
        return (r & (self.order - 1)) ^ _apply(self._red, r >> self.n)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroInverseError on 0."""
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse in F_2^{self.n}")
        exp = self._exp
        if exp is not None:
            m = self.order - 1
            return exp[(m - self._log[a]) % m]
        # extended Euclid, keeping u = a*g1 and v = a*g2 mod the modulus
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            d = u.bit_length() - v.bit_length()
            if d < 0:
                u, v, g1, g2, d = v, u, g2, g1, -d
            u ^= v << d
            g1 ^= g2 << d
        return g1

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
        steps, shift = _frobenius_chain(e, self.n)
        regs = [a]
        for i, j, k in steps:             # regs[i]^(2^j) * regs[k]
            regs.append(self.mul(self.frobenius(regs[i], j), regs[k]))
        return self.frobenius(regs[-1], shift)

    def frobenius(self, a: int, j: int) -> int:
        """a^(2^j); frobenius(a, n) = a."""
        if j < 0:
            raise ValueError("Frobenius iterate must be nonnegative")
        j %= self.n
        if j == 0 or a == 0:
            return a
        exp = self._exp
        if exp is not None:
            return exp[(self._log[a] << j) % (self.order - 1)]
        return _apply(self._frob.get(j) or self._frobenius_tables(j), a)

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
        multiplying by a constant is GF(2)-linear, so each block is gathered
        through the byte-sliced tables of the constant's basis images, one
        lookup per byte of exp[:s] (see ``_byte_tables``).  The log array is
        the scatter log[exp[i]] = i; log[0] stays unused.  exp is stored
        doubled, so a log-sum below 2(2^n - 1) indexes without a modulo.
        Both arrays are read-only: the scalar route indexes memoryviews of
        them, whose items are Python ints, so log[a] * e cannot wrap in uint32.
        """
        import numpy as np      # here, not at the top: the other routes never need it
        if self._exp is not None:
            return
        if self.n > TABLE_DEGREE_LIMIT:
            raise ValueError(f"log tables limited to n <= {TABLE_DEGREE_LIMIT}, got n={self.n}")
        with self._lock:
            if self._exp is not None:
                return
            g, m = self.generator(), self.order - 1
            exp2 = np.zeros(2 * m, dtype=np.uint32)
            exp = exp2[:m]
            exp[0] = 1
            s, g_s = 1, g
            while s < m:
                src = exp[:min(s, m - s)]
                block = exp[s:s + src.size]
                tables = _byte_tables([self.mul_baseline(1 << i, g_s) for i in range(self.n)])
                for p, t in enumerate(tables):
                    block ^= np.frombuffer(t, np.uint32)[(src >> 8 * p) & 255]
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
            self._log = memoryview(log)
            self._exp = memoryview(exp2)

    def _frobenius_tables(self, j: int) -> tuple:
        """Byte-sliced tables of x -> x^(2^j), 1 < j < n, built once by
        composition: x^(2^j) = (x^(2^b))^(2^a) for j = a + b, with a the
        largest power of two below j, so the image of X^i is column i of
        the b tables sent through the a tables (ceil(n/8) lookups).  Any
        of those tables not built yet is built first, the same way."""
        with self._lock:
            if j not in self._frob:
                a = 1 << (j - 1).bit_length() - 1
                outer = self._frob.get(a) or self._frobenius_tables(a)
                inner = self._frob.get(j - a) or self._frobenius_tables(j - a)
                self._frob[j] = _byte_tables([_apply(outer, inner[i >> 3][1 << (i & 7)])
                                              for i in range(self.n)])
        return self._frob[j]

    @property
    def tables_built(self) -> bool:
        return self._exp is not None

    def exp_log_arrays(self):
        """(exp, log) from ``build_tables``: read-only numpy uint32 views of
        the buffers the scalar route indexes.  exp has length 2^n - 1 (index
        by log mod 2^n - 1); its base is the doubled antilog buffer."""
        import numpy as np
        self.build_tables()
        return (np.frombuffer(self._exp, np.uint32)[:self.order - 1],
                np.frombuffer(self._log, np.uint32))


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
    by 1, so normalizing to the smaller bit pattern is deterministic, and
    no generator is needed: y^((2^n - 1)/3) is 1 or one of the two roots.
    """
    if spec.n % 2:
        raise NoCubeRootError(f"n={spec.n} is odd, 3 does not divide 2^n - 1")
    if spec._cube_root is None:       # cached: a race only recomputes it
        y = 2
        while (w := spec.pow(y, (spec.order - 1) // 3)) == 1:
            y += 1
        spec._cube_root = min(w, w ^ 1)
    return FieldElement(spec, spec._cube_root)


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
