"""Linearized polynomials as GF(2)-linear maps, and affine solving.

Run: python demos/05_linearized_equations.py
"""

from permtri import (
    LinearizedPoly,
    default_spec,
    kernel,
    matrix_of,
    solve_affine,
)

F256 = default_spec(8)

# A linearized polynomial has only 2-power exponents, so it acts linearly
# on the field viewed as an F_2 vector space
L = LinearizedPoly(F256, [(3, 1), (0, 1)])     # L(v) = v^8 + v
print("L(v) = v^8 + v on F_256")
a, b = F256.element(0x57), F256.element(0xA3)
print(f"  additivity: L(a+b) = {L(a + b)}, L(a)+L(b) = {L(a) + L(b)}")

# Its matrix: column i is the image of the basis monomial X^i
M = matrix_of(L)
print(f"  matrix columns: {[hex(c) for c in M.cols]}")
print(f"  matrix.apply == eval everywhere: "
      f"{all(M.apply_bits(x) == L.eval_bits(x) for x in range(256))}")

# The kernel of v^8 + v is the fixed field of Frobenius^3 inside F_256,
# which is F_2^gcd(3,8) = F_2
basis = kernel(M)
print(f"  kernel dimension: {len(basis)} (the prime subfield: gcd(3,8)=1)")

# Affine equations L(v) = rhs: the solution set is a coset of the kernel,
# computed exactly by one column reduction of the bit-packed matrix
rhs = F256.element(0x1C)
sols = solve_affine(L, rhs)
print(f"\nsolve v^8 + v = 0x1c: {len(sols)} solutions "
      f"(kernel dim {len(sols.kernel_basis)})")
for s in sols:
    assert L(s) == rhs
print("  every returned solution satisfies the equation")

# Unattainable right-hand sides give the empty set, not an error
unattained = [v for v in F256.elements() if solve_affine(L, v).is_empty]
print(f"  {len(unattained)} of 256 right-hand sides are unattainable")

# Frobenius itself is bijective: unique solutions
sq = LinearizedPoly(F256, [(1, 1)])
s = solve_affine(sq, F256.element(0x42))
print(f"\nsolve v^2 = 0x42: unique solution {next(iter(s))} "
      f"= sqrt = {F256.element(0x42).sqrt()}")
