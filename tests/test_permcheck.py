import random

import numpy as np
import pytest

from permtri import permcheck
from permtri.families import enumerate_instances, instantiate, value_table
from permtri.field import FieldSpec, default_spec, irreducibles
from permtri.inverter import invert
from permtri.permcheck import (
    BudgetExceededError,
    NotAPermutationError,
    check,
    cycle_structure,
    inverse_table,
    quick_reject,
)
from oracles import naive_cycle_type, naive_inverse_table

F8 = default_spec(3)


def artin_schreier(e):
    return e * e + e


class TestCheck:
    def test_identity(self):
        rep = check(lambda e: e, F8)
        assert rep.is_permutation
        assert rep.domain_size == 8
        assert rep.missing_count == 0
        assert rep.collision_witness is None
        assert rep.fixed_point_count == 8
        assert rep.cycle_type == ((1, 8),)

    def test_artin_schreier_two_to_one(self):
        rep = check(artin_schreier, F8)
        assert not rep.is_permutation
        assert rep.missing_count == 4
        x1, x2 = rep.collision_witness
        assert (x1.bits, x2.bits) == (0, 1)
        assert artin_schreier(x1) == artin_schreier(x2)
        assert rep.cycle_type is None

    def test_family_f1_k1_permutes(self):
        inst = instantiate("F1", k=1)
        rep = check(value_table(inst), inst.spec)
        assert rep.is_permutation

    def test_canonical_witness_multiple_groups(self):
        spec = default_spec(2)
        # values: 3 first seen at 0; 2 first seen at 1, repeated at 2
        rep = check([3, 2, 2, 3], spec)
        assert rep.collision_witness is not None
        assert tuple(x.bits for x in rep.collision_witness) == (1, 2)
        rep2 = check([3, 2, 3, 2], spec)
        assert tuple(x.bits for x in rep2.collision_witness) == (0, 2)

    def test_budget_guard(self):
        big = FieldSpec(29)
        with pytest.raises(BudgetExceededError):
            check(lambda e: e, big)

    def test_json_schema(self):
        rep = check(artin_schreier, F8)
        d = rep.to_json_dict()
        assert list(d) == ["is_permutation", "missing_count", "fixed_points",
                           "witness", "cycle_type"]
        assert d["witness"] == ["0x0", "0x1"]
        assert d["cycle_type"] is None

    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            check([0, 1, 2], F8)
        spec = default_spec(2)
        for table in ([0, 1, 2, 7], [0, 1, 7, 7], [0, 1, 2, -1], [0, 1, 2, 2 ** 70]):
            with pytest.raises(ValueError):
                check(table, spec)
        with pytest.raises(ValueError):
            inverse_table([0, 1, 2, 7], spec)
        with pytest.raises(ValueError):
            cycle_structure(np.array([0, 1, 2, 7]), spec)


class TestInverseTable:
    def test_identity(self):
        table = inverse_table(lambda e: e, F8)
        for a in F8.elements():
            assert table.preimages(a) == (a,)

    def test_squaring(self):
        table = inverse_table(lambda e: e * e, F8)
        for a in F8.elements():
            assert table.preimages(a) == (a.sqrt(),)

    def test_preimage_sets_partition_domain(self):
        table = inverse_table(artin_schreier, F8)
        seen = []
        for v in table.attained():
            seen.extend(x.bits for x in table.preimages(v))
        assert sorted(seen) == list(range(8))
        assert not table.all_singletons

    def test_f1_matches_inverter_pointwise(self):
        inst = instantiate("F1", k=1)
        table = inverse_table(value_table(inst), inst.spec)
        assert table.all_singletons
        for a in inst.spec.elements():
            assert table.preimages(a) == (invert(inst, a)[0],)

    def test_singletons_iff_permutation(self):
        for inst in enumerate_instances(12):
            vt = value_table(inst)
            assert check(vt, inst.spec).is_permutation == \
                inverse_table(vt, inst.spec).all_singletons
        rng = random.Random(11)
        spec = default_spec(6)
        for _ in range(50):
            table = [rng.randrange(64) for _ in range(64)]
            arr = np.array(table, dtype=np.uint32)
            assert check(arr, spec).is_permutation == \
                inverse_table(arr, spec).all_singletons

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            inverse_table(lambda e: e, FieldSpec(21))

    @staticmethod
    def assert_matches_naive_scan(values, spec):
        table = inverse_table(np.array(values, dtype=np.uint32), spec)
        ref = naive_inverse_table(values)
        # the mapping itself: same keys in the same (first-preimage) order,
        # Python ints throughout, ascending preimage tuples
        assert table._map == ref
        assert list(table.attained()) == list(ref)
        assert all(type(v) is int for v in table.attained())
        assert all(type(x) is int for xs in table._map.values() for x in xs)
        assert table.all_singletons == all(len(xs) == 1 for xs in ref.values())
        assert len(table) == len(ref)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_extreme_shapes_match_naive_scan(self, n):
        spec = default_spec(n)
        self.assert_matches_naive_scan(list(range(spec.order)), spec)   # identity
        self.assert_matches_naive_scan([3 % spec.order] * spec.order, spec)   # constant
        square_plus_x = [artin_schreier(spec.element(x)).bits for x in range(spec.order)]
        self.assert_matches_naive_scan(square_plus_x, spec)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_tables_match_naive_scan(self, n):
        spec = default_spec(n)
        rng = random.Random(n)
        for span in (2, spec.order // 2 + 1, spec.order):
            # values drawn from [0, span): collisions of every multiplicity
            values = [rng.randrange(span) for _ in range(spec.order)]
            self.assert_matches_naive_scan(values, spec)


class TestQuickReject:
    def test_finds_collision_in_two_to_one_map(self):
        witness = quick_reject(artin_schreier, F8, 8, seed=123)
        assert witness is not None
        x1, x2 = witness
        assert x1 != x2 and artin_schreier(x1) == artin_schreier(x2)

    def test_identity_never_rejected(self):
        for seed in range(20):
            assert quick_reject(lambda e: e, F8, 8, seed=seed) is None

    def test_deterministic(self):
        for seed in (0, 1, 99):
            a = quick_reject(artin_schreier, F8, 6, seed=seed)
            b = quick_reject(artin_schreier, F8, 6, seed=seed)
            assert a == b

    def test_no_false_witnesses(self):
        rng = random.Random(13)
        spec = default_spec(6)
        for trial in range(20):
            table = [rng.randrange(64) for _ in range(64)]
            w = quick_reject(lambda e, t=table: spec.element(t[e.bits]),
                             spec, 32, seed=trial)
            if w is not None:
                arr = np.array(table, dtype=np.uint32)
                assert not check(arr, spec).is_permutation

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            quick_reject(lambda e: e, F8, 0, seed=1)


class TestCycleStructure:
    def test_identity(self):
        assert cycle_structure(lambda e: e, F8) == ((1, 8),)

    def test_frobenius_on_f4(self):
        spec = default_spec(2)
        assert cycle_structure(lambda e: e * e, spec) == ((1, 2), (2, 1))

    def test_matches_report_and_reruns_identical(self):
        inst = instantiate("F1", k=1)
        vt = value_table(inst)
        rep = check(vt, inst.spec)
        ct = cycle_structure(vt, inst.spec)
        assert ct == rep.cycle_type == cycle_structure(vt, inst.spec)
        assert sum(length * count for length, count in ct) == 8

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAPermutationError):
            cycle_structure(artin_schreier, F8)

    def test_cycle_lengths_sum_to_domain(self):
        for inst in enumerate_instances(10):
            ct = cycle_structure(value_table(inst), inst.spec)
            assert sum(length * count for length, count in ct) == inst.spec.order

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_extreme_shapes_match_naive_walk(self, n):
        spec = default_spec(n)
        size = spec.order
        xs = np.arange(size, dtype=np.uint32)
        shapes = {
            "identity": (xs, ((1, size),)),
            "single cycle": ((xs + 1) % size, ((size, 1),)),
            "involution": (xs ^ 1, ((2, size // 2),)),
        }
        for name, (table, expected) in shapes.items():
            assert naive_cycle_type(table.tolist()) == expected, name
            assert cycle_structure(table, spec) == expected, name

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_permutations_match_naive_walk(self, n):
        spec = default_spec(n)
        rng = np.random.default_rng(3000 + n)
        for _ in range(5):
            table = rng.permutation(spec.order).astype(np.uint32)
            assert cycle_structure(table, spec) == naive_cycle_type(table.tolist())

    def test_every_instance_to_n16_matches_naive_walk(self):
        for inst in enumerate_instances(16):
            vt = value_table(inst)
            expected = naive_cycle_type(vt.tolist())
            assert cycle_structure(vt, inst.spec) == expected, inst
            assert check(vt, inst.spec).cycle_type == expected, inst

    # From n = 17 on (4 * RULER_SPACING**3 points) the cycle type comes from
    # the ruler walk, its weighted contraction and the leftover pass.

    @pytest.mark.parametrize("n", [14, 16, 18, 20])
    def test_seeded_random_permutation_matches_naive_walk(self, n):
        table = np.random.default_rng(4000 + n).permutation(1 << n).astype(np.uint32)
        assert cycle_structure(table, default_spec(n)) == naive_cycle_type(table.tolist())

    def test_long_cycle_among_short_ones_matches_naive_walk(self):
        # Tens of thousands of 2- and 3-cycles, so that some hold a ruler
        # and most hold none, beside one cycle through half the field.
        table = long_and_short_cycles(18)
        expected = naive_cycle_type(table.tolist())
        assert [length for length, _ in expected] == [2, 3, 1 << 17]
        assert cycle_structure(table, default_spec(18)) == expected

    def test_every_instance_n17_to_n20_matches_naive_walk(self):
        for inst in enumerate_instances(20):
            if inst.n < 17:
                continue
            vt = value_table(inst)
            expected = naive_cycle_type(vt.tolist())
            assert check(vt, inst.spec).cycle_type == expected, inst

    @pytest.mark.parametrize("spacing", [1, 2, "none"])
    def test_cycle_type_independent_of_rulers(self, monkeypatch, spacing):
        # Spacing 1 makes every point a ruler, spacing 2 about half of them,
        # and a spacing beyond the field leaves every cycle to the leftover
        # pass.
        tables = [long_and_short_cycles(12), long_and_short_cycles(17),
                  np.random.default_rng(12).permutation(1 << 12).astype(np.uint32)]
        tables += [value_table(inst) for inst in enumerate_instances(16) if inst.n >= 12]
        expected = [cycle_structure(t, default_spec(t.size.bit_length() - 1)) for t in tables]
        monkeypatch.setattr(permcheck, "RULER_SPACING",
                            (1 << 17) + 1 if spacing == "none" else spacing)
        for table, before in zip(tables, expected):
            spec = default_spec(table.size.bit_length() - 1)
            assert cycle_structure(table, spec) == before
            assert check(table, spec).cycle_type == before


def long_and_short_cycles(n):
    """A seeded permutation of 2^n points: one cycle through half of them,
    the rest in 2- and 3-cycles, all on shuffled points."""
    size = 1 << n
    points = np.random.default_rng(5000 + n).permutation(size)
    long, rest = points[:size // 2], points[size // 2:]
    three = 6 * (rest.size // 12)   # leaves an even count for the 2-cycles
    table = np.empty(size, dtype=np.uint32)
    table[long] = np.roll(long, -1)
    for short in rest[:three].reshape(-1, 3), rest[three:].reshape(-1, 2):
        table[short] = np.roll(short, -1, axis=1)
    return table


class TestModulusIndependence:
    def test_verdicts_agree_across_moduli(self):
        for inst in enumerate_instances(10):
            n = inst.n
            if n == 2:
                continue   # x^2+x+1 is the only irreducible quadratic
            first_two = []
            for modulus in irreducibles(n):
                first_two.append(modulus)
                if len(first_two) == 2:
                    break
            verdicts = []
            for modulus in first_two:
                alt = instantiate(inst.family, inst.params, FieldSpec(n, modulus))
                verdicts.append(check(value_table(alt), alt.spec).is_permutation)
            assert verdicts[0] == verdicts[1] is True
