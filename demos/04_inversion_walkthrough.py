"""Explicit preimages: the closed-form inverse of each family.

Walks the F1 computation by hand, then round-trips every family.
Run: python demos/04_inversion_walkthrough.py
"""

import json

from permtri import (
    enumerate_instances,
    evaluate,
    instantiate,
    invert,
    inverse_table,
    value_table,
)

# ---------------------------------------------------------------------------
# Worked example: invert f(x) = x^5 + x^4 + x over F_8 at a = 0x2.
#
# Write b = a^2, c = a^4 (the Frobenius conjugates for k = 1) and
# epsilon = a + b + c, which lies in the subfield F_2.
#
#   a = x          -> b = x^2, c = x^4 = x^2 + x
#   epsilon = x + x^2 + (x^2 + x) = 0
#
# With epsilon = 0 the conjugate system collapses and x = sqrt(a*c):
#
#   a*c = x * (x^2 + x) = x^3 + x^2 = (x + 1) + x^2      [x^3 = x + 1]
#   sqrt(x^2 + x + 1) = x^2 + 1                          [(x^2+1)^2 = x^4+1]
#
# So the preimage is 0x5, and f(0x5) = 0x2 confirms it.
# ---------------------------------------------------------------------------
inst = instantiate("F1", k=1)
spec = inst.spec
a = spec.element(0x2)
x, trace = invert(inst, a)
print(f"invert F1(k=1) at a=0x2: x = {x}")
print("trace:", json.dumps(trace.to_json_dict()))
print(f"check: f({x}) = {evaluate(inst, x)}\n")

# The trace records the conjugates, the branch data, and every candidate
# the case analysis produced; chosen is always re-validated.

# An epsilon != 0 example exercises the linearized-solve branch
a2 = spec.element(0x7)
x2, trace2 = invert(inst, a2)
print(f"invert F1(k=1) at a=0x7: x = {x2}, epsilon = {trace2.epsilon}")
print(f"check: f({x2}) = {evaluate(inst, x2)}\n")

# F6 runs the cube-root-of-unity pipeline: its linearized equation in z has
# exactly the roots 1 (always rejected) and 1 + lambda, so z = 1 + lambda is
# computed by one power, and x is assembled from beta and theta
inst6 = instantiate("F6", m=2, k=3)
x6, trace6 = invert(inst6, inst6.spec.element(0xA5))
print(f"invert F6(m=2,k=3) at a=0xa5: x = {x6}")
print(f"  z={trace6.z} t={trace6.t} beta={trace6.beta} theta={trace6.theta} w={trace6.w}")
print(f"  conjugacy: x^(2^4) = {x6.frobenius(4)} = theta*x = {trace6.theta * x6}\n")

# Round-trip every family against the exhaustive oracle at small sizes
print("pointwise agreement with the exhaustive inverse table (n <= 10):")
for inst in enumerate_instances(10):
    spec = inst.spec
    table = inverse_table(value_table(inst), spec)
    agree = all(
        (invert(inst, spec.element(v))[0],) == table.preimages(v)
        for v in range(spec.order))
    tag = f"{inst.family.value} k={inst.params.k}" + (
        "" if inst.params.m is None else f" m={inst.params.m}")
    print(f"  {tag:14} n={inst.n:2}  all {spec.order:4} preimages agree: {agree}")
