import itertools
import json
import math

import pytest

from permtri.families import (
    ConditionViolatedError,
    DegreeMismatchError,
    FamilyId,
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
from oracles import naive_pow


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

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            instantiate("F1", k=1, spec=default_spec(4))

    def test_custom_spec_and_force(self):
        inst = instantiate("F4", k=3, spec=FieldSpec(8, 0x11D))
        assert inst.spec.modulus == 0x11D
        excluded = instantiate("F1", k=2, enforce_hypotheses=False)
        assert excluded.n == 6

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


class TestEnumerateParams:
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


class TestValidateParams:
    def test_positive_k_required(self):
        for family in FamilyId:
            with pytest.raises(ConditionViolatedError):
                validate_params(family, FamilyParams(k=0, m=1 if family.uses_m else None))
