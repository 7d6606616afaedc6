import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from permtri.families import (
    VALUE_CHUNK,
    ConditionViolatedError,
    DegreeMismatchError,
    FamilyId,
    FamilyInstance,
    FamilyParams,
    check_gcd_identities,
    enumerate_instances,
    enumerate_params,
    evaluate,
    exponents_of,
    instantiate,
    trinomial_bits,
    validate_params,
    value_table,
)
from permtri import families
from permtri.field import FieldSpec, default_spec, irreducibles
from oracles import every_k_params, naive_pow, remainder_value_table


class TestInstantiate:
    def test_f1_k1(self):
        inst = instantiate("F1", k=1)
        assert inst.n == 3
        assert inst.exponents == (5, 4, 1)

    def test_f1_k2_rejected_with_hypothesis_message(self):
        with pytest.raises(ConditionViolatedError, match=r"mod 3"):
            instantiate("F1", k=2)

    def test_f6_example(self):
        inst = instantiate("F6", m=2, k=3)
        assert inst.n == 8
        assert inst.exponents == (4681, 16, 1)
        assert inst.exponents[0] == 1 + 8 + 64 + 512 + 4096

    def test_f6_hypotheses(self):
        with pytest.raises(ConditionViolatedError, match="odd"):
            instantiate("F6", m=2, k=2)
        with pytest.raises(ConditionViolatedError, match="n-1"):
            instantiate("F6", m=1, k=5)
        with pytest.raises(ConditionViolatedError, match="gcd"):
            instantiate("F6", m=3, k=3)
        with pytest.raises(ConditionViolatedError, match="m"):
            instantiate("F6", k=1)

    def test_m_rejected_outside_f6(self):
        with pytest.raises(ConditionViolatedError, match="no parameter m"):
            instantiate("F1", k=1, m=1)

    def test_m_rejected_outside_f6_under_excluded_parameters(self):
        # experiment mode lifts the hypotheses, not the shape of the parameters
        for family in FamilyId:
            if not family.uses_m:
                with pytest.raises(ConditionViolatedError, match="takes no parameter m"):
                    instantiate(family, k=2, m=3, enforce_hypotheses=False)
        with pytest.raises(ConditionViolatedError, match="requires parameter m"):
            instantiate("F6", k=2, enforce_hypotheses=False)
        for k in (0, -1):
            with pytest.raises(ConditionViolatedError, match="k must be a positive"):
                instantiate("F1", k=k, enforce_hypotheses=False)
        with pytest.raises(ConditionViolatedError, match="m must be a positive"):
            instantiate("F6", k=1, m=0, enforce_hypotheses=False)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            instantiate("F1", k=1, spec=default_spec(4))

    def test_custom_spec_and_force(self):
        inst = instantiate("F4", k=3, spec=FieldSpec(8, 0x11D))
        assert inst.spec.modulus == 0x11D
        excluded = instantiate("F1", k=2, enforce_hypotheses=False)
        assert excluded.n == 6

    def test_parameter_forms(self):
        with pytest.raises(ConditionViolatedError, match="requires parameter k"):
            instantiate("F1")
        with pytest.raises(TypeError, match="not both"):
            instantiate("F1", FamilyParams(k=1), k=1)
        with pytest.raises(TypeError, match="not both"):
            instantiate("F6", FamilyParams(k=1, m=1), m=1)

    def test_exponent_formulas_all_families(self):
        assert exponents_of(FamilyId.F2, FamilyParams(k=3)) == (71, 57, 1)
        assert exponents_of(FamilyId.F3, FamilyParams(k=1)) == (13, 5, 1)
        assert exponents_of(FamilyId.F4, FamilyParams(k=3)) == (200, 7, 1)
        assert exponents_of(FamilyId.F5, FamilyParams(k=3)) == (73, 65, 1)
        # F4 k=1 collapses to the Frobenius square: exponents (2, 1, 1)
        assert exponents_of(FamilyId.F4, FamilyParams(k=1)) == (2, 1, 1)

    def test_json_shape(self):
        inst = instantiate("F6", m=2, k=3)
        d = json.loads(inst.to_json())
        assert list(d) == ["id", "k", "m", "n", "modulus", "exponents"]
        assert d == {"id": "F6", "k": 3, "m": 2, "n": 8, "modulus": "0x11b",
                     "exponents": ["4681", "16", "1"]}


class TestEvaluate:
    def test_element_of_another_spec_rejected(self):
        inst = instantiate("F1", k=1)
        with pytest.raises(ValueError, match="different FieldSpec"):
            evaluate(inst, default_spec(4).element(1))

    def test_zero_anchor_everywhere(self):
        for inst in enumerate_instances(20):
            assert evaluate(inst, inst.spec.zero).bits == 0

    def test_one_anchor(self):
        # trinomials with all coefficients 1 send 1 to 1; the F3/F5
        # arguments rely on f(1) = 1 explicitly
        for inst in enumerate_instances(20):
            assert evaluate(inst, inst.spec.one).bits == 1

    def test_f1_worked_example(self):
        inst = instantiate("F1", k=1)
        assert evaluate(inst, inst.spec.element(0b101)).bits == 0b010

    def test_reduction_soundness_exhaustive(self):
        for inst in enumerate_instances(12):
            spec = inst.spec
            spec.build_tables()
            m = spec.order - 1
            e1 = inst.exponents[0]
            for x in range(1, spec.order):
                assert spec.pow(x, e1) == spec.pow(x, e1 % m)

    def test_reduction_matches_naive_oracle(self):
        inst = instantiate("F6", m=1, k=3)       # d = 73 reduces mod 15
        spec = inst.spec
        m = spec.order - 1
        for x in range(1, spec.order):
            assert spec.pow(x, 73) == naive_pow(x, 73 % m, spec.modulus)

    def test_reduced_exponents(self):
        inst = instantiate("F6", m=2, k=3)
        assert inst.reduced_exponents() == (4681 % 255, 16, 1) == (91, 16, 1)

    def test_value_table_matches_scalar_kernel(self):
        # the array kernel (reduced exponents, log gathers) against the
        # scalar kernel (exact exponents, pow) under the default modulus,
        # which is the smallest irreducible, and the next one (none at n = 2)
        for inst in enumerate_instances(12):
            for modulus in itertools.islice(irreducibles(inst.n), 2):
                alt = instantiate(inst.family, inst.params, FieldSpec(inst.n, modulus))
                table = value_table(alt).tolist()
                assert table == [trinomial_bits(alt.spec, alt.exponents, x)
                                 for x in range(alt.spec.order)], (alt, hex(modulus))


    def test_value_table_scalar_route_matches_table_route(self, monkeypatch):
        # verify takes the scalar route for 21 <= n <= 28; with the limit
        # lowered it runs on small fields, on specs without log tables
        for inst in enumerate_instances(10):
            for modulus in itertools.islice(irreducibles(inst.n), 2):
                tables = value_table(instantiate(inst.family, inst.params,
                                                 FieldSpec(inst.n, modulus)))
                with monkeypatch.context() as patch:
                    patch.setattr(families, "TABLE_DEGREE_LIMIT", 1)
                    alt = instantiate(inst.family, inst.params, FieldSpec(inst.n, modulus))
                    scalar = value_table(alt)
                assert not alt.spec.tables_built
                assert scalar.dtype == tables.dtype
                assert scalar.tolist() == tables.tolist(), (alt, hex(modulus))


class TestValueTableKernel:
    """The chunked, modulo-free log-table kernel of ``value_table``."""

    def test_equals_remainder_kernel_on_every_instance(self):
        # every instance with n <= 20, under the default modulus and the
        # second irreducible one (none at n = 2): same dtype, same bytes.
        # x runs over [1, 2^n) in steps of VALUE_CHUNK, so n = 20 crosses
        # chunk seams and ends on a short chunk
        assert ((1 << 20) - 1) // VALUE_CHUNK > 1 and ((1 << 20) - 1) % VALUE_CHUNK
        for inst in enumerate_instances(20):
            for modulus in itertools.islice(irreducibles(inst.n), 2):
                alt = instantiate(inst.family, inst.params, FieldSpec(inst.n, modulus))
                table = value_table(alt)
                expected = remainder_value_table(alt)
                assert table.dtype == expected.dtype
                assert table.tobytes() == expected.tobytes(), (alt, hex(modulus))

    @pytest.mark.parametrize("n", [3, 16, 17, 20])
    def test_edge_triples_match_scalar_kernel(self, n):
        # repeated x^1 terms, e = 2^n - 1 (x^e = 1 for x != 0, the largest
        # log-sum) and an exponent that reduces from a multiple of 2^n - 1
        spec = default_spec(n)
        m = spec.order - 1
        for triple in [(1, 1, 1), (2, 1, 1), (m, 1, 1), (2 * m, 3, 5)]:
            inst = FamilyInstance(FamilyId.F1, FamilyParams(k=1), spec, triple)
            table = value_table(inst)
            assert table[0] == 0
            assert table.tolist() == [trinomial_bits(spec, triple, x)
                                      for x in range(spec.order)], (n, triple)

    @pytest.mark.parametrize("triple", ["family", (5, 3, 2)])
    def test_n20_allocates_no_field_sized_temporaries(self, triple):
        # with the tables built, the traced peak of one call is the 4 MiB
        # output plus the chunk buffers, which stay below 1 MiB
        inst = next(inst for inst in enumerate_instances(20) if inst.n == 20)
        if triple != "family":
            inst = FamilyInstance(inst.family, inst.params, inst.spec, triple)
        inst.spec.build_tables()
        tracemalloc.start()
        try:
            table = value_table(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.nbytes == 4 << 20
        assert peak < (4 << 20) + (1 << 20), peak


class TestEnumerateParams:
    def test_equals_every_k_loop(self):
        # F6 steps over odd k only; the lists are those of the loop that
        # sent every k through the parameter predicate
        for n_max in range(2, 65):
            for family in FamilyId:
                assert enumerate_params(family, n_max) == every_k_params(family, n_max), \
                    (family, n_max)

    def test_f1_example(self):
        assert [(n, p.k) for n, p in enumerate_params("F1", 12)] == \
            [(3, 1), (9, 3), (12, 4)]

    def test_f6_example(self):
        assert [(n, p.m, p.k) for n, p in enumerate_params("F6", 8)] == \
            [(4, 1, 1), (4, 1, 3), (8, 2, 1), (8, 2, 3), (8, 2, 5), (8, 2, 7)]

    def test_f4_example(self):
        assert [(n, p.k) for n, p in enumerate_params("F4", 8)] == \
            [(2, 1), (5, 2), (8, 3)]

    def test_instantiate_never_raises(self):
        for family in FamilyId:
            for n, params in enumerate_params(family, 32):
                inst = instantiate(family, params)
                assert inst.n == n
        assert enumerate_params("F1", 2) == []
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            enumerate_params("F1", 1)

    def test_no_family_admits_n6(self):
        for family in FamilyId:
            assert all(n != 6 for n, _ in enumerate_params(family, 6))


class TestGcdIdentities:
    def test_f1_k1_value(self):
        rows = check_gcd_identities("F1", FamilyParams(k=1))
        assert all(holds for _, holds in rows)
        assert math.gcd(2 ** 3 - 4, 2 ** 3 - 1) == math.gcd(4, 7) == 1

    def test_f6_m2_k3_value(self):
        rows = check_gcd_identities("F6", FamilyParams(k=3, m=2))
        assert all(holds for _, holds in rows)
        assert math.gcd(4681, 255) == 1

    def test_f2_k3_value(self):
        rows = check_gcd_identities("F2", FamilyParams(k=3))
        assert all(holds for _, holds in rows)
        assert math.gcd(2 ** 6 + 2 ** 3 + 1, 2 ** 3 + 3) == math.gcd(73, 11) == 1
        # k = 0 (mod 3) adds the gcd(7, .) identity
        assert any("gcd(7" in name for name, _ in rows)

    def test_f3_f5_have_no_identities(self):
        assert check_gcd_identities("F3", FamilyParams(k=2)) == []
        assert check_gcd_identities("F5", FamilyParams(k=2)) == []

    def test_all_hold_to_n32(self):
        for family in FamilyId:
            for _, params in enumerate_params(family, 32):
                for name, holds in check_gcd_identities(family, params):
                    assert holds, (family, params, name)

    def test_excluded_k_would_fail(self):
        # k = 2 (mod 3) genuinely breaks the F2 identities; the hypothesis
        # is not decorative
        assert math.gcd(2 ** 2 + 3, 7) == 7


class TestFamilyIdentities:
    """Two identities between the families, by exponent arithmetic:
    F5(x) = F4(x^C) with C = 2^2k + 2^k + 1, since the exponents of F4 times
    C reduce mod 2^(3k-1) - 1 to those of F5; and F6(n - k, m)(x) =
    F6(k, m)(x)^(2^2m), since the exponents of F6(k, m) times 2^2m reduce
    mod 2^n - 1 to those of F6(n - k, m).  C is a unit, so both pairs
    permute together."""

    def test_c_inverts_to_2k_minus_1(self):
        # C (2^k - 1) = 2^3k - 1 = 2 * 2^(3k-1) - 1 = 1 (mod 2^(3k-1) - 1)
        for k in range(1, 22):      # every n = 3k - 1 <= 64
            c = 2 ** (2 * k) + 2 ** k + 1
            assert c * (2 ** k - 1) % (2 ** (3 * k - 1) - 1) == 1, k

    def test_value_tables_agree(self):
        pairs = 0
        for inst in enumerate_instances(20):
            if inst.family not in (FamilyId.F5, FamilyId.F6):
                continue
            n, k, m = inst.n, inst.params.k, inst.params.m
            for modulus in itertools.islice(irreducibles(n), 2):
                spec = FieldSpec(n, modulus)
                exp_np, log_np = spec.exp_log_arrays()
                order = exp_np.size
                table = value_table(instantiate(inst.family, inst.params, spec))
                if inst.family is FamilyId.F5:
                    # F5[x] == F4[x^C]
                    c = 2 ** (2 * k) + 2 ** k + 1
                    power = np.zeros(spec.order, dtype=np.intp)
                    power[1:] = exp_np[c * log_np[1:].astype(np.int64) % order]
                    other = value_table(instantiate("F4", k=k, spec=spec))[power]
                else:
                    # F6(n - k, m)[x] == F6(k, m)[x]^(2^2m)
                    other = np.zeros_like(table)
                    nonzero = table != 0
                    shifted = log_np[table[nonzero]].astype(np.int64) << (2 * m)
                    other[nonzero] = exp_np[shifted % order]
                    table = value_table(instantiate("F6", k=n - k, m=m, spec=spec))
                assert np.array_equal(table, other), (inst, modulus)
                pairs += 1
        assert pairs == 13 + 52    # 7 F5 and 26 F6 instances; n = 2 has one modulus


class TestValidateParams:
    def test_positive_k_required(self):
        for family in FamilyId:
            with pytest.raises(ConditionViolatedError):
                validate_params(family, FamilyParams(k=0, m=1 if family.uses_m else None))
