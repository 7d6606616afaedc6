import math
import random

import pytest

from permtri.families import (
    FamilyId,
    FamilyInstance,
    FamilyParams,
    enumerate_instances,
    evaluate,
    exponents_of,
    instantiate,
    value_table,
)
from permtri.field import cube_root_of_unity, default_spec
from permtri import inverter
from permtri.inverter import NoValidCandidateError, _f1_reduction, invert
from permtri.linalg2 import ColumnReduction, LinearizedPoly, matrix_of, solve_affine
from permtri.permcheck import inverse_table
from oracles import (oracle_trinomial, per_column_matrix_of, repeated_squaring_frobenius,
                     rref_solve_bits, solve_based_f6_invert)


class TestAnchors:
    def test_zero_maps_to_zero_every_family(self):
        for inst in enumerate_instances(12):
            x, trace = invert(inst, inst.spec.zero)
            assert x.bits == 0
            assert trace.chosen == x and x in trace.candidates

    def test_f3_f5_fix_one(self):
        for family in ("F3", "F5"):
            for k in (1, 2, 3):
                inst = instantiate(family, k=k)
                one = inst.spec.one
                assert evaluate(inst, one) == one
                x, trace = invert(inst, one)
                assert x == one and trace.candidates == (one,)   # F5: no a = 1 special case

    def test_f1_worked_example(self):
        inst = instantiate("F1", k=1)
        spec = inst.spec
        x, trace = invert(inst, spec.element(0x2))
        assert x.bits == 0x5
        assert trace.b.bits == 0x4 and trace.c.bits == 0x6
        assert trace.epsilon.bits == 0           # epsilon = a + a^2 + a^4 = 0
        assert evaluate(inst, x).bits == 0x2

    def test_f1_epsilon_zero_closed_form(self):
        # whenever epsilon = 0 the answer is sqrt(a * a^(2^2k))
        inst = instantiate("F1", k=3)
        spec = inst.spec
        for a in range(1, spec.order):
            if spec.trace(a, 3) == 0:
                x, _ = invert(inst, spec.element(a))
                expect = spec.sqrt(spec.mul(a, spec.frobenius(a, 6)))
                assert x.bits == expect

    def test_f4_k1_is_square_root(self):
        inst = instantiate("F4", k=1)
        spec = inst.spec
        for a in spec.elements():
            assert invert(inst, a)[0] == a.sqrt()

    def test_f4_omega_candidates_coincide(self):
        inst = instantiate("F4", k=3)
        spec = inst.spec
        w = cube_root_of_unity(spec)
        x, trace = invert(inst, w)
        assert x == w * w == spec.element(w.bits ^ 1)
        assert set(trace.candidates) == {x}      # both candidates collapse to a+1


def instance_id(inst):
    return (f"{inst.family.value}-k{inst.params.k}"
            f"{'' if inst.params.m is None else f'-m{inst.params.m}'}")


class TestOracleAgreement:
    @pytest.mark.parametrize("inst", list(enumerate_instances(12)), ids=instance_id)
    def test_exhaustive_up_to_n12(self, inst):
        spec = inst.spec
        table = inverse_table(value_table(inst), spec)
        assert table.all_singletons
        for a in range(spec.order):
            x, trace = invert(inst, spec.element(a))
            assert (x,) == table.preimages(a)
            assert trace.chosen == x
            assert x in trace.candidates

    @pytest.mark.parametrize("inst", [i for i in enumerate_instances(32) if i.n > 20],
                             ids=instance_id)
    def test_wide_fields_against_baseline_pow(self, inst):
        # invert validates with the field's own pow, so the round trip is
        # checked with powers built only from mul_baseline
        spec = inst.spec
        rng = random.Random(f"wide-{instance_id(inst)}")
        for a in [0, 1, 2] + [rng.randrange(spec.order) for _ in range(20)]:
            x, trace = invert(inst, spec.element(a))
            assert oracle_trinomial(inst, x.bits) == a
            assert trace.chosen == x

    def test_round_trips_random_larger_fields(self):
        cases = [("F3", dict(k=2), 100), ("F2", dict(k=3), 100),
                 ("F5", dict(k=3), 100), ("F6", dict(m=4, k=7), 50)]
        for family, kw, trials in cases:
            inst = instantiate(family, **kw)
            spec = inst.spec
            rng = random.Random(inst.n)
            for _ in range(trials):
                x0 = spec.element(rng.randrange(spec.order))
                a = evaluate(inst, x0)
                x, _ = invert(inst, a)
                assert evaluate(inst, x) == a
                assert x == x0               # permutation: preimage is unique


class TestF1Reduction:
    """``_invert_f1`` solves L1(v) = rhs, L1 = x^(2^(2k+1)) + x^2 + x, with a
    column reduction cached per (n, modulus, k) instead of one per call."""

    F1_UP_TO_30 = list(enumerate_instances(30, (FamilyId.F1,)))

    @pytest.mark.parametrize("inst", F1_UP_TO_30, ids=instance_id)
    def test_cached_reduction_matches_solve_affine(self, inst):
        spec, k = inst.spec, inst.params.k
        L1 = LinearizedPoly(spec, [(2 * k + 1, 1), (1, 1), (0, 1)])
        M = matrix_of(L1)
        assert M.cols == per_column_matrix_of(L1)
        reduction = _f1_reduction(spec.n, spec.modulus, k)
        assert reduction.field == (spec.n, spec.modulus)    # ints only: pins no spec
        rng = random.Random(f"f1-reduction-{inst.n}")
        rhs = [0, 1] + [rng.randrange(spec.order) for _ in range(10)]
        rhs += [L1.eval_bits(rng.randrange(spec.order)) for _ in range(10)]
        for b in rhs:
            want = solve_affine(L1, spec.element(b))
            got = reduction.solve(spec.element(b))
            assert got.particular == want.particular
            assert got.kernel_basis == want.kernel_basis     # same basis, same order
            particular = None if got.is_empty else got.particular.bits
            assert (particular, [v.bits for v in got.kernel_basis]) == rref_solve_bits(M, b)

    def test_one_reduction_per_instance(self, monkeypatch):
        built = []

        def counting(M):
            built.append(M)
            return ColumnReduction(M)
        monkeypatch.setattr(inverter, "ColumnReduction", counting)
        _f1_reduction.cache_clear()
        inst = instantiate("F1", k=7)
        rng = random.Random(7)
        for _ in range(50):
            invert(inst, inst.spec.element(rng.randrange(inst.spec.order)))
        info = _f1_reduction.cache_info()
        assert len(built) == 1 and (info.misses, info.currsize) == (1, 1)
        _f1_reduction(21, inst.spec.modulus, 7)     # the one cached key
        assert len(built) == 1 and _f1_reduction.cache_info().hits == info.hits + 1


class TestTraceConsistency:
    def test_conjugates_and_validation(self):
        for inst in enumerate_instances(9):
            spec = inst.spec
            k = inst.params.k
            for a in spec.elements():
                x, tr = invert(inst, a)
                assert tr.b == a.frobenius(k)
                assert tr.c == tr.b.frobenius(k)
                assert tr.epsilon == a + tr.b + tr.c
                assert evaluate(inst, tr.chosen) == a

    def test_f1_epsilon_lies_in_subfield(self):
        for k in (1, 3, 4):
            inst = instantiate("F1", k=k)
            spec = inst.spec
            if spec.n > 12:
                continue
            for a in spec.elements():
                eps = invert(inst, a)[1].epsilon
                assert eps.frobenius(k) == eps

    def test_f6_conjugacy_and_pipeline_fields(self):
        for m, k in ((1, 1), (1, 3), (2, 1), (2, 3), (2, 5), (2, 7)):
            inst = instantiate("F6", m=m, k=k)
            spec = inst.spec
            for a in range(1, spec.order):
                x, tr = invert(inst, spec.element(a))
                assert tr.w is not None and tr.theta is not None
                assert x.frobenius(2 * m) == tr.theta * x
                assert tr.beta == tr.t + tr.w
                assert tr.t == tr.z.inv()
                assert tr.beta ** ((1 << (2 * m)) + 1) == spec.one

    def test_f2_lambda_fields_populated(self):
        inst = instantiate("F2", k=1)
        spec = inst.spec
        for a in range(1, spec.order):
            tr = invert(inst, spec.element(a))[1]
            assert tr.zeta1 is not None and tr.lam is not None
            assert tr.zeta2 == tr.lam * tr.zeta1   # lambda = zeta2/zeta1


class TestF2BranchCoverage:
    # from each trace, on shift-and-XOR arithmetic: zeta2 = zeta1^(2^k) =
    # lambda zeta1, and on the lambda^3+lambda+1 = 0 branch the paper's
    # denominator lambda^5+lambda^3+1 is (lambda+1)^2, never 0
    @staticmethod
    def _branch_hits(inst, a_values):
        spec = inst.spec
        mul = spec.mul_baseline
        hits = []
        for a in a_values:
            tr = invert(inst, spec.element(a))[1]
            zeta1, zeta2, lam = tr.zeta1.bits, tr.zeta2.bits, tr.lam.bits
            assert zeta2 == repeated_squaring_frobenius(spec, zeta1, inst.params.k)
            assert zeta2 == mul(lam, zeta1)
            lam2 = mul(lam, lam)
            lam3 = mul(lam2, lam)
            if lam3 ^ lam ^ 1 == 0:
                assert mul(lam3, lam2) ^ lam3 ^ 1 == mul(lam ^ 1, lam ^ 1) != 0
                hits.append(a)
        return hits

    def test_k1_branch_reachable_and_recorded(self):
        # k = 1 (mod 3): lambda^3+lambda+1 = 0 occurs, on every a of n = 3 and 12
        inst = instantiate("F2", k=1)
        assert self._branch_hits(inst, range(1, inst.spec.order)) == [0x3, 0x5, 0x7]
        inst = instantiate("F2", k=4)
        assert len(self._branch_hits(inst, range(1, inst.spec.order))) == 45

    def test_k0_mod3_branch_never_fires(self):
        inst = instantiate("F2", k=3)
        assert self._branch_hits(inst, range(1, inst.spec.order)) == []

    @pytest.mark.parametrize("k", [7, 9, 10])
    def test_identities_on_wide_samples(self, k):
        inst = instantiate("F2", k=k)
        rng = random.Random(f"f2-identities-{k}")
        a_values = [rng.randrange(1, inst.spec.order) for _ in range(2000)]
        # about 3 in 2^2k of the a reach lambda^3+lambda+1 = 0 when k = 1 (mod 3)
        assert self._branch_hits(inst, a_values) == []


class TestF6Degeneracy:
    def test_linear_coefficients_never_vanish(self):
        # wA+a = 0 or w^2A+a = 0 would put A/a = a^(2^2m - 1), whose order
        # divides 2^2m + 1, at order 3; exhaustive on every F6 instance with n <= 12
        for inst in enumerate_instances(12, families=(FamilyId.F6,)):
            spec = inst.spec
            m = inst.params.m
            w = cube_root_of_unity(spec).bits
            for a in range(1, spec.order):
                big_a = spec.frobenius(a, 2 * m)
                assert spec.mul(w, big_a) ^ a != 0
                assert spec.mul(w ^ 1, big_a) ^ a != 0


class TestBranchCensus:
    def test_f4_alpha_zero_branch_never_fires(self):
        # the alpha = 0 branch guards a division; no a reaches it up to n = 14
        # here (nor up to n = 17 in a one-off whole-field run)
        for inst in enumerate_instances(14, families=(FamilyId.F4,)):
            spec = inst.spec
            for a in range(1, spec.order):
                tr = invert(inst, spec.element(a))[1]
                assert tr.alpha.bits != 0 and len(tr.candidates) == 2

    def test_f1_l1_bijective_exactly_for_valid_k(self):
        # L1 = x^(2^(2k+1)) + x^2 + x has a trivial kernel for valid k, so F1
        # has more than one candidate only under excluded parameters
        for k in range(1, 11):
            spec = instantiate("F1", k=k, enforce_hypotheses=False).spec
            dim = len(_f1_reduction(spec.n, spec.modulus, k).kernel_bits)
            assert dim == (2 if k % 3 == 2 else 0), k

    def test_quartic_filter_rejects_l1_solutions(self):
        # on F1 k = 2 itself (n = 6, any of its nine moduli) no a reaches the
        # rejection: L1's solutions all pass the quartic or there are none.
        # F1's k = 2 algebra on F_2^9 (n != 3k, a doctored instance) reaches
        # it: L1 has a 2-dimensional kernel, and at a = 0xc all four of its
        # solutions fail the quartic v^4 + v^2 + v = (a^4+b^4+a^2 eps^2)/eps^4,
        # so none of the four candidates maps to a and invert raises
        spec, k, a = default_spec(9), 2, 0xC
        params = FamilyParams(k=k)
        bad = FamilyInstance(FamilyId.F1, params, spec, exponents_of(FamilyId.F1, params))
        reduction = _f1_reduction(spec.n, spec.modulus, k)
        assert len(reduction.kernel_bits) == 2
        b = spec.frobenius(a, k)
        c = spec.frobenius(b, k)
        eps = a ^ b ^ c
        rhs = spec.div(spec.frobenius(a, 1), spec.frobenius(eps, 1))
        assert len(reduction.solve(spec.element(rhs))) == 4
        assert len(inverter._invert_f1(bad, a, b, c)) == 4
        with pytest.raises(NoValidCandidateError):
            invert(bad, spec.element(a))


class TestF6SpuriousRoot:
    def test_z_equals_one_always_solves_but_is_never_chosen(self):
        # z = 1 solves the linearized equation for every target (the two
        # coefficients sum to the constant) yet yields beta = w^2 with
        # beta^(2^2m + 1) = w != 1, so the pipeline must discard it
        inst = instantiate("F6", m=2, k=3)
        spec = inst.spec
        w = cube_root_of_unity(spec).bits
        for a in range(1, spec.order):
            big_a = spec.frobenius(a, 4)
            c1 = spec.mul(w, big_a) ^ a
            c0 = spec.mul(w ^ 1, big_a) ^ a
            assert c1 ^ c0 == big_a            # z = 1 is always a solution
            tr = invert(inst, spec.element(a))[1]
            assert tr.z.bits != 1
            beta_spurious = spec.inv(1) ^ w    # beta for z = 1 is 1 + w = w^2
            assert spec.pow(beta_spurious, (1 << 4) + 1) != 1


class TestF6ClosedForm:
    """For gcd(k, n) = 1, which every valid (m, k) has, ``_invert_f6`` takes
    the one root z = 1 + lambda instead of solving for {1, 1 + lambda}; it
    must agree with the solve-based route in ``oracles``, trace included."""

    @staticmethod
    def assert_matches_oracle(inst, a):
        want_x, want_trace = solve_based_f6_invert(inst, a)
        if want_x is None:
            with pytest.raises(NoValidCandidateError):
                invert(inst, inst.spec.element(a))
            return None
        x, trace = invert(inst, inst.spec.element(a))
        assert x.bits == want_x
        assert trace.to_json_dict() == want_trace.to_json_dict()
        return trace

    @pytest.mark.parametrize("inst", list(enumerate_instances(12, (FamilyId.F6,))),
                             ids=instance_id)
    def test_whole_field_up_to_n12(self, inst):
        assert self.assert_matches_oracle(inst, 0).candidates == (inst.spec.zero,)
        for a in range(1, inst.spec.order):
            trace = self.assert_matches_oracle(inst, a)
            assert trace.z.bits != 1 and len(trace.candidates) == 1

    def test_seeded_values_n16_to_32(self):
        instances = [i for i in enumerate_instances(32, (FamilyId.F6,)) if i.n >= 16]
        rng = random.Random("f6-closed-form")
        for _ in range(2000):
            inst = rng.choice(instances)
            trace = self.assert_matches_oracle(inst, rng.randrange(1, inst.spec.order))
            assert trace.z.bits != 1 and len(trace.candidates) == 1

    def test_excluded_pairs_keep_the_solve(self):
        # every excluded (m, k) has gcd(k, n) > 1: k even or gcd(m, k) > 1
        for m in (1, 2):
            for k in range(1, 4 * m):
                if k % 2 and math.gcd(m, k) == 1:
                    continue
                inst = instantiate("F6", m=m, k=k, enforce_hypotheses=False)
                assert math.gcd(k, inst.n) > 1
                for a in range(inst.spec.order):
                    self.assert_matches_oracle(inst, a)


class TestErrorPaths:
    def test_no_valid_candidate_on_doctored_instance(self):
        # x^6 + x^4 + x on F8 misses 0x3: the F1 algebra cannot produce it
        spec = default_spec(3)
        bad = FamilyInstance(FamilyId.F1, FamilyParams(k=1), spec, (6, 4, 1))
        with pytest.raises(NoValidCandidateError):
            invert(bad, spec.element(0x3))

    def test_mismatched_spec_rejected(self):
        inst = instantiate("F1", k=1)
        with pytest.raises(ValueError):
            invert(inst, default_spec(4).element(1))

    def test_internal_error_taxonomy(self):
        from permtri.inverter import (
            InternalContradictionError,
            InversionError,
            Zeta1ZeroError,
            ZeroDenominatorError,
        )
        assert issubclass(Zeta1ZeroError, InternalContradictionError)
        assert issubclass(ZeroDenominatorError, InternalContradictionError)
        assert issubclass(InternalContradictionError, InversionError)
        assert issubclass(NoValidCandidateError, InversionError)
