import random

import pytest
from hypothesis import given, settings, strategies as st

from permtri.field import TABLE_DEGREE_LIMIT, FieldSpec, default_spec
from permtri.linalg2 import (
    AffineSolutionSet,
    BitMatrix,
    ColumnReduction,
    LinearizedPoly,
    kernel,
    matrix_of,
    solve_affine,
)
from oracles import brute_force_affine_solutions, per_column_matrix_of, rref_solve_bits

F8 = default_spec(3)


def random_linpoly(spec, rng):
    terms = [(j, rng.randrange(spec.order)) for j in range(spec.n)
             if rng.random() < 0.5]
    return LinearizedPoly(spec, terms or [(0, rng.randrange(1, spec.order))])


class TestLinearizedPoly:
    def test_canonical_form_merges_and_drops(self):
        L = LinearizedPoly(F8, [(0, 1), (0, 1), (1, 5)])
        assert L.terms == ((1, 5),)
        L2 = LinearizedPoly(F8, [(3, 1), (0, 2)])   # j = n wraps to 0
        assert L2.terms == ((0, 3),)

    def test_eval_examples(self):
        ident = LinearizedPoly(F8, [(0, 1)])
        x = F8.element(0b101)
        assert ident(x) == x
        assert ident(F8.zero) == F8.zero
        artin = LinearizedPoly(F8, [(1, 1), (0, 1)])  # x^2 + x
        assert artin(F8.one) == F8.zero

    def test_additivity_exhaustive_small(self):
        rng = random.Random(7)
        for _ in range(20):
            L = random_linpoly(F8, rng)
            for a in range(8):
                for b in range(8):
                    assert L.eval_bits(a ^ b) == L.eval_bits(a) ^ L.eval_bits(b)

    @settings(max_examples=100)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 10 ** 6))
    def test_additivity_hypothesis(self, a, b, seed):
        spec = default_spec(8)
        L = random_linpoly(spec, random.Random(seed))
        assert L.eval_bits(a ^ b) == L.eval_bits(a) ^ L.eval_bits(b)


class TestMatrixOf:
    def test_identity(self):
        M = matrix_of(LinearizedPoly(F8, [(0, 1)]))
        assert M.cols == (0b001, 0b010, 0b100)

    def test_squaring_map_columns(self):
        # images of the basis 1, x, x^2 under squaring: 1, x^2, x^4 = x^2+x
        M = matrix_of(LinearizedPoly(F8, [(1, 1)]))
        assert M.cols == (0b001, 0b100, 0b110)

    def test_zero_map(self):
        M = matrix_of(LinearizedPoly(F8, [(0, 1), (0, 1)]))
        assert M.cols == (0, 0, 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_apply_equals_eval_exhaustive(self, n):
        spec = default_spec(n)
        rng = random.Random(100 + n)
        for _ in range(15):
            L = random_linpoly(spec, rng)
            M = matrix_of(L)
            for x in range(spec.order):
                assert M.apply_bits(x) == L.eval_bits(x)


    @pytest.mark.parametrize("n", range(2, 33))
    def test_identical_to_per_column_multiply(self, n):
        # byte-sliced route (a fresh spec) and, where it exists, log route
        specs = [FieldSpec(n)]
        if n <= TABLE_DEGREE_LIMIT:
            specs.append(default_spec(n))
            specs[-1].build_tables()
        rng = random.Random(300 + n)
        for spec in specs:
            polys = [LinearizedPoly(spec, [(j, rng.randrange(1, spec.order))])
                     for j in (0, 1, n - 1)]
            polys += [random_linpoly(spec, rng) for _ in range(2)]
            for L in polys:
                assert matrix_of(L).cols == per_column_matrix_of(L)


class TestSolveAffine:
    def test_frobenius_unique_solution(self):
        L = LinearizedPoly(F8, [(1, 1)])          # x^2
        for a in F8.elements():
            sols = solve_affine(L, a)
            assert len(sols) == 1
            assert next(iter(sols)) == a.sqrt()

    def test_artin_schreier_kernel(self):
        L = LinearizedPoly(F8, [(1, 1), (0, 1)])  # x^2 + x
        sols = solve_affine(L, F8.zero)
        assert {s.bits for s in sols} == {0, 1}
        assert len(sols.kernel_basis) == 1

    def test_empty_set_valid(self):
        L = LinearizedPoly(F8, [(1, 1), (0, 1)])
        # x^2 + x has image of size 4; some right-hand side is unattained
        empties = [b for b in F8.elements() if solve_affine(L, b).is_empty]
        assert len(empties) == 4
        for b in empties:
            assert brute_force_affine_solutions(L, b) == set()

    def test_right_hand_side_of_another_field_rejected(self):
        L = LinearizedPoly(F8, [(1, 1), (0, 1)])
        b = default_spec(4).element(1)
        with pytest.raises(ValueError):
            solve_affine(L, b)
        with pytest.raises(ValueError):
            ColumnReduction(matrix_of(L)).solve(b)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_brute_force_100_random(self, n):
        spec = default_spec(n)
        rng = random.Random(9000 + n)
        for _ in range(100):
            L = random_linpoly(spec, rng)
            b = spec.element(rng.randrange(spec.order))
            sols = solve_affine(L, b)
            expect = brute_force_affine_solutions(L, b)
            got = {s.bits for s in sols}
            assert got == expect
            assert len(sols) == len(expect)
            for s in sols:
                assert L(s) == b

    def test_solution_difference_in_kernel_span(self):
        spec = default_spec(8)
        rng = random.Random(77)
        for _ in range(50):
            L = random_linpoly(spec, rng)
            b = spec.element(rng.randrange(spec.order))
            sols = list(solve_affine(L, b))
            if len(sols) < 2:
                continue
            span = {0}
            for v in solve_affine(L, spec.zero):
                span.add(v.bits)
            for s1 in sols[:8]:
                for s2 in sols[:8]:
                    assert (s1.bits ^ s2.bits) in span


def random_matrix(spec, rng, rank):
    # columns are random combinations of ``rank`` independent vectors
    # (distinct top bits), so the matrix has exactly that rank
    gens = [(1 << t) | rng.randrange(1 << t) for t in rng.sample(range(spec.n), rank)]
    cols = []
    for _ in range(spec.n):
        c = 0
        for g in gens:
            if rng.random() < 0.5:
                c ^= g
        cols.append(c)
    # the rank is reached: each generator appears alone in one column
    for g, i in zip(gens, rng.sample(range(spec.n), rank)):
        cols[i] = g
    for _ in range(2 * spec.n):    # column operations keep the rank
        i, j = rng.sample(range(spec.n), 2)
        cols[i] ^= cols[j]
    return BitMatrix(spec, cols)


class TestSolverAgainstRref:
    # identical (particular, kernel) tuples, kernel order included: equal
    # solution sets alone would miss a reordered or differently spanned basis
    @pytest.mark.parametrize("n", range(2, 33))
    def test_identical_to_rref(self, n):
        spec = default_spec(n)
        rng = random.Random(31000 + n)
        inconsistent = 0
        for rank in (n, n, n - 1, n // 2, 1, 0):
            for _ in range(8):
                M = random_matrix(spec, rng, rank)
                reduction = ColumnReduction(M)   # reduced once, solved for three b
                x = rng.randrange(spec.order)
                for b in (M.apply_bits(x), rng.randrange(spec.order), 0):
                    want = rref_solve_bits(M, b)
                    sols = reduction.solve(spec.element(b))
                    particular = None if sols.is_empty else sols.particular.bits
                    assert (particular, [v.bits for v in sols.kernel_basis]) == want
                    inconsistent += want[0] is None
                assert [v.bits for v in kernel(M)] == rref_solve_bits(M, 0)[1]
        assert inconsistent > 0


class TestKernel:
    def test_identity_empty(self):
        assert kernel(matrix_of(LinearizedPoly(F8, [(0, 1)]))) == []

    def test_zero_matrix_full(self):
        basis = kernel(BitMatrix(F8, (0, 0, 0)))
        assert len(basis) == 3
        assert {v.bits for v in basis} == {1, 2, 4}

    def test_artin_schreier(self):
        basis = kernel(matrix_of(LinearizedPoly(F8, [(1, 1), (0, 1)])))
        assert [v.bits for v in basis] == [1]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_kernel_members_annihilate(self, n):
        spec = default_spec(n)
        rng = random.Random(n)
        for _ in range(30):
            L = random_linpoly(spec, rng)
            M = matrix_of(L)
            for v in kernel(M):
                assert M.apply(v).bits == 0
                assert L(v).bits == 0


class TestAffineSolutionSet:
    def test_empty(self):
        s = AffineSolutionSet(F8, None, [])
        assert s.is_empty and len(s) == 0 and list(s) == []

    def test_enumeration_order_deterministic(self):
        s = AffineSolutionSet(F8, F8.element(0b001),
                              [F8.element(0b010), F8.element(0b100)])
        assert [e.bits for e in s] == [0b001, 0b011, 0b101, 0b111]
