"""GF(2)-linear algebra on a binary field viewed as an n-dimensional F2 space.

A linearized polynomial sum_j c_j x^(2^j) induces an F2-linear map on
F_{2^n}; affine equations L(x) = b therefore reduce to bit-matrix systems.
Matrices are kept bit-packed: an n x n matrix is a tuple of n column ints
(column i = image of the basis monomial X^i).  A system is solved in two
steps.  ``ColumnReduction`` makes one pass over the columns in ascending
order, reducing each against an XOR basis of the earlier ones; this is
done once per matrix.  Its ``solve`` then reduces one right-hand side
against that basis, so a caller with a fixed map and many right-hand
sides reduces the matrix once (``solve_affine`` does both steps).  The
particular solution is the one that is zero on every dependent ("free")
column, and the kernel basis has one vector per free column with no other
free bit set, in ascending order, so both are unique and reproducible.
"""

from .field import FieldElement, FieldSpec


class LinearizedPoly:
    """x -> sum of c_j * x^(2^j) with at most one term per 2-power index j.

    Terms are given as (j, coefficient) pairs; duplicate j are merged by
    XOR (characteristic 2) and zero coefficients are dropped, so the stored
    form is canonical.  Indices are reduced mod n since x^(2^n) = x.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms):
        merged: dict[int, int] = {}
        for j, c in terms:
            c_bits = c.bits if isinstance(c, FieldElement) else c
            if not 0 <= c_bits < spec.order:
                raise ValueError(f"coefficient 0x{c_bits:x} out of range for n={spec.n}")
            j %= spec.n
            merged[j] = merged.get(j, 0) ^ c_bits
        self.spec = spec
        self.terms = tuple(sorted((j, c) for j, c in merged.items() if c))

    def __repr__(self):
        body = " + ".join(f"0x{c:x}*x^(2^{j})" for j, c in self.terms) or "0"
        return f"LinearizedPoly({body}, n={self.spec.n})"

    def eval_bits(self, x: int) -> int:
        spec = self.spec
        acc = 0
        for j, c in self.terms:
            acc ^= spec.mul(c, spec.frobenius(x, j))
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.spec != self.spec:
            raise ValueError("element bound to a different FieldSpec")
        return FieldElement(self.spec, self.eval_bits(x.bits))


class BitMatrix:
    """Square bit matrix over GF(2); column i is the image of X^i."""

    __slots__ = ("spec", "cols")

    def __init__(self, spec: FieldSpec, cols):
        cols = tuple(cols)
        if len(cols) != spec.n:
            raise ValueError(f"expected {spec.n} columns, got {len(cols)}")
        for c in cols:
            if not 0 <= c < spec.order:
                raise ValueError("column out of range")
        self.spec = spec
        self.cols = cols

    def __repr__(self):
        return f"BitMatrix(n={self.spec.n}, cols={[hex(c) for c in self.cols]})"

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.spec == other.spec and self.cols == other.cols

    def apply_bits(self, x: int) -> int:
        acc = 0
        i = 0
        while x:
            if x & 1:
                acc ^= self.cols[i]
            x >>= 1
            i += 1
        return acc

    def apply(self, x: FieldElement) -> FieldElement:
        return FieldElement(self.spec, self.apply_bits(x.bits))


def matrix_of(L: LinearizedPoly) -> BitMatrix:
    """Matrix of the induced F2-linear map: column i = L(X^i).

    A term c*x^(2^j) sends X^i to (d*X^i)^(2^j) with d = c^(2^(n-j)), and
    d*X^i steps to d*X^(i+1) by a shift: no general multiplies."""
    spec = L.spec
    top, mod = spec.order, spec.modulus
    cols = [0] * spec.n
    for j, c in L.terms:
        d = spec.frobenius(c, spec.n - j)
        for i in range(spec.n):
            cols[i] ^= spec.frobenius(d, j)
            d <<= 1
            if d & top:
                d ^= mod
    return BitMatrix(spec, cols)


class AffineSolutionSet:
    """Solutions of an affine system: particular + span(kernel_basis).

    Empty when ``particular`` is None; otherwise the set has exactly
    2^len(kernel_basis) elements.  Iteration enumerates them in a fixed
    order (subset masks of the basis, ascending), so callers get
    reproducible candidate lists.
    """

    __slots__ = ("spec", "particular", "kernel_basis")

    def __init__(self, spec: FieldSpec, particular: FieldElement | None, kernel_basis):
        self.spec = spec
        self.particular = particular
        self.kernel_basis = tuple(kernel_basis)

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    def __len__(self):
        return 0 if self.particular is None else 1 << len(self.kernel_basis)

    def __iter__(self):
        if self.particular is None:
            return
        base = self.particular.bits
        basis = [v.bits for v in self.kernel_basis]
        for mask in range(1 << len(basis)):
            x = base
            m = mask
            i = 0
            while m:
                if m & 1:
                    x ^= basis[i]
                m >>= 1
                i += 1
            yield FieldElement(self.spec, x)

    def __repr__(self):
        return (f"AffineSolutionSet(particular={self.particular}, "
                f"kernel_dim={len(self.kernel_basis)})")


class ColumnReduction:
    """The column reduction of a square bit matrix, kept to solve M x = b
    for many right-hand sides b at one cheap reduction of b each.

    ``vec[t]`` is the reduced column whose top bit is t (0: none) and
    ``pre[t]`` a preimage of it.  Preimages combine only independent
    columns, so a column that reduces to zero leaves its kernel vector
    with its own free bit alone, and reducing b leaves the solution zero
    on every free column.  Only ints are kept, so a cached reduction holds
    no FieldSpec alive.
    """

    __slots__ = ("field", "vec", "pre", "kernel_bits")

    def __init__(self, M: BitMatrix):
        n = M.spec.n
        vec = [0] * n
        pre = [0] * n
        kernel_bits = []
        for i, col in enumerate(M.cols):
            x = 1 << i
            while col:
                t = col.bit_length() - 1
                if not vec[t]:
                    vec[t], pre[t] = col, x
                    break
                col ^= vec[t]
                x ^= pre[t]
            else:
                kernel_bits.append(x)
        self.field = (n, M.spec.modulus)
        self.vec, self.pre = tuple(vec), tuple(pre)
        self.kernel_bits = tuple(kernel_bits)

    def solve(self, b: FieldElement) -> AffineSolutionSet:
        """All x with M x = b: empty when b is outside the image."""
        spec = b.spec
        if (spec.n, spec.modulus) != self.field:
            raise ValueError("right-hand side bound to a different FieldSpec")
        vec, pre = self.vec, self.pre
        bits = b.bits
        x = 0
        while bits:
            t = bits.bit_length() - 1
            if not vec[t]:
                x = None
                break
            bits ^= vec[t]
            x ^= pre[t]
        return AffineSolutionSet(spec, None if x is None else FieldElement(spec, x),
                                 [FieldElement(spec, v) for v in self.kernel_bits])


def solve_affine(L: LinearizedPoly, b: FieldElement) -> AffineSolutionSet:
    """Exact solution set of L(x) = b by column reduction of matrix_of(L).

    Returns the empty set when b is not in the image; otherwise a coset of
    ker L with 2^dim(ker) elements.
    """
    return ColumnReduction(matrix_of(L)).solve(b)


def kernel(M: BitMatrix) -> list[FieldElement]:
    """Basis of the null space of M; empty iff M is invertible."""
    return [FieldElement(M.spec, v) for v in ColumnReduction(M).kernel_bits]
