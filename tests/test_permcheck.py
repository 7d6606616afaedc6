import hashlib
import itertools
import json
import math
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
from oracles import naive_cycle_type, naive_first_collision, naive_inverse_table

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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_first_collision_matches_naive_scan(self, n):
        size = 1 << n
        rng = np.random.default_rng(7000 + n)
        for span in (1, 2, size // 2 + 1, size, size, size):
            values = rng.integers(0, span, size, dtype=np.uint32)
            expected = naive_first_collision(values.tolist())
            if expected is not None:
                counts = np.bincount(values, minlength=size)
                assert permcheck._first_collision(values, counts) == expected
            witness = check(values, default_spec(n)).collision_witness
            assert (witness and tuple(x.bits for x in witness)) == expected

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
        attained = table.attained()
        assert attained == list(ref)
        assert all(type(v) is int for v in attained)
        got = {v: table.preimages(v) for v in attained}
        assert {v: tuple(x.bits for x in xs) for v, xs in got.items()} == ref
        assert all(type(x.bits) is int for xs in got.values() for x in xs)
        assert all(v in table for v in attained)
        unattained = set(range(spec.order)).difference(ref)
        assert all(table.preimages(v) == () and v not in table for v in unattained)
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

    @pytest.mark.parametrize("n", [17, 20])
    def test_wide_tables_match_naive_scan(self, n):
        # The whole attained order, and the preimages of a seeded sample of
        # keys: a pass over every key would take seconds per table here.
        spec = default_spec(n)
        size = spec.order
        exp_np, log_np = spec.exp_log_arrays()   # x^2 = exp[2 log x], 0^2 = 0
        square = np.zeros(size, dtype=np.uint32)
        square[1:] = exp_np[2 * log_np[1:].astype(np.int64) % exp_np.size]
        rng = np.random.default_rng(6000 + n)
        late = rng.permutation(size).astype(np.uint32)
        late[size - 5] = late[size // 3]      # one repeat, far into the scan
        tables = {
            "identity": np.arange(size, dtype=np.uint32),
            "constant": np.full(size, 3, dtype=np.uint32),
            "x^2 + x": square ^ np.arange(size, dtype=np.uint32),
            "random": rng.integers(0, size, size, dtype=np.uint32),
            "late repeat": late,
        }
        keys = [0, 1, 2, size - 2, size - 1] + rng.integers(0, size, 2000).tolist()
        for name, values in tables.items():
            ref = naive_inverse_table(values.tolist())
            table = inverse_table(values, spec)
            assert table.attained() == list(ref), name
            assert len(table) == len(ref), name
            assert table.all_singletons == (len(ref) == size), name
            for v in keys:
                assert tuple(x.bits for x in table.preimages(v)) == ref.get(v, ()), name
                assert (v in table) == (v in ref), name
            report = check(values, spec)
            witness = report.collision_witness
            assert (witness and tuple(x.bits for x in witness)) == \
                naive_first_collision(values.tolist()), name

    def test_keys_outside_the_field_have_no_preimages(self):
        table = inverse_table(lambda e: e, F8)
        for key in (-1, -8, -9, 8, 9, 16, 2 ** 40, -(2 ** 40)):
            assert table.preimages(key) == () and table[key] == ()
            assert key not in table
        assert table.preimages(7) == (F8.element(7),) and 7 in table

    def test_elements_of_another_field_are_refused(self):
        # the F1 k=3 table's field is FieldSpec(9, 0x203): an element of another
        # degree-9 field, or of F_1024, is not one of its keys
        inst = instantiate("F1", k=3)
        table = inverse_table(value_table(inst), inst.spec)
        for a in (FieldSpec(9, 0x211).element(5), default_spec(10).element(5)):
            assert a.spec != inst.spec
            for ask in (table.preimages, table.__getitem__, table.__contains__):
                with pytest.raises(ValueError, match="different FieldSpec"):
                    ask(a)
        assert table.preimages(inst.spec.element(5)) == table.preimages(5)


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

    # Every table off the orbit route, of any size, takes the ruler walk,
    # its weighted contraction and the leftover pass; the larger seeded
    # tables below leave both passes real work.

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
        # check takes the orbit route on these tables; the ruler walk is
        # called directly so that it keeps its own coverage on them
        for inst in enumerate_instances(20):
            if inst.n < 17:
                continue
            vt = value_table(inst)
            expected = naive_cycle_type(vt.tolist())
            assert check(vt, inst.spec).cycle_type == expected, inst
            assert permcheck._cycle_type_of_table(vt) == expected, inst

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


class TestOrbitRoute:
    """Tables of maps that commute with squaring take the Frobenius-orbit
    route; every other table takes the exhaustive one."""

    def test_every_instance_agrees_with_the_ruler_walk(self):
        for inst in enumerate_instances(20):
            for modulus in itertools.islice(irreducibles(inst.n), 2):
                alt = instantiate(inst.family, inst.params, FieldSpec(inst.n, modulus))
                vt = value_table(alt)
                expected = permcheck._cycle_type_of_table(vt)
                assert permcheck._orbit_cycle_type(vt, alt.spec) == expected, alt
                report = check(vt, alt.spec)
                assert report.is_permutation and report.missing_count == 0, alt
                assert report.cycle_type == expected, alt
                assert report.fixed_point_count == \
                    np.count_nonzero(vt == np.arange(vt.size)), alt

    def test_excluded_parameters_report_as_before(self):
        # F1/F2 with k = 2, 5 and the excluded F6 pairs at n = 12 and 16:
        # maps that commute with squaring but do not permute, so they fall
        # back.  The digest pins their reports as the exhaustive route
        # gives them.
        cases = [(family, k, None) for family in ("F1", "F2") for k in (2, 5)]
        cases += [("F6", k, m) for m in (3, 4) for k in range(1, 4 * m)
                  if k % 2 == 0 or math.gcd(m, k) != 1]
        lines = []
        for family, k, m in cases:
            inst = instantiate(family, k=k, m=m, enforce_hypotheses=False)
            vt = value_table(inst)
            assert permcheck._commutes_with_squaring(vt, inst.spec), inst
            report = check(vt, inst.spec)
            assert_exhaustive_report(report, vt)
            lines.append(json.dumps(report.to_json_dict()))
        assert len(lines) == 18
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "d13dbc70f05874d1b71f9a1291804ec252ec02583e2573ced49d843d3fa77e80"

    @pytest.mark.parametrize("n, swap", [
        pytest.param(9, [1, 2], id="9"),
        pytest.param(17, [1, 2], id="17"),
        # the last two points, in the fourth SPAN_CHUNK
        pytest.param(17, [-2, -1], id="17-last"),
    ])
    def test_swapped_family_table_falls_back(self, n, swap):
        # Still a permutation, but no longer commuting with squaring.
        inst = next(inst for inst in enumerate_instances(n) if inst.n == n)
        vt = value_table(inst).copy()
        vt[swap] = vt[swap[::-1]]
        assert not permcheck._commutes_with_squaring(vt, inst.spec)
        assert permcheck._orbit_cycle_type(vt, inst.spec) is None
        expected = naive_cycle_type(vt.tolist())
        assert check(vt, inst.spec).cycle_type == expected
        assert cycle_structure(vt, inst.spec) == expected

    @pytest.mark.parametrize("n", [2, 6, 11, 12, 17])
    def test_monomials(self, n):
        # x^d commutes with squaring; it permutes exactly when
        # gcd(d, 2^n - 1) = 1, and x^3 with n even is 3-to-1 off 0.
        spec = default_spec(n)
        exp_np, log_np = spec.exp_log_arrays()
        m = exp_np.size
        units = [d for d in range(2, m) if math.gcd(d, m) == 1]
        for d in [1, 3, m - 1] + units[:: max(1, len(units) // 4)]:
            vt = np.zeros(spec.order, dtype=np.uint32)
            vt[1:] = exp_np[d * log_np[1:].astype(np.int64) % m]
            assert permcheck._commutes_with_squaring(vt, spec), d
            report = check(vt, spec)
            if math.gcd(d, m) == 1:
                expected = naive_cycle_type(vt.tolist())
                assert permcheck._orbit_cycle_type(vt, spec) == expected, d
                assert report.cycle_type == expected, d
                assert cycle_structure(vt, spec) == expected, d
                assert report.fixed_point_count == dict(expected)[1], d
            else:
                assert permcheck._orbit_cycle_type(vt, spec) is None, d
                assert_exhaustive_report(report, vt)
                with pytest.raises(NotAPermutationError):
                    cycle_structure(vt, spec)

    def test_maps_off_the_route(self):
        spec = default_spec(8)
        xs = np.arange(spec.order, dtype=np.uint32)
        square = np.array([spec.frobenius(x, 1) for x in range(spec.order)], dtype=np.uint32)
        zero_to_one, one_to_zero = xs.copy(), xs.copy()
        zero_to_one[0], one_to_zero[1] = 1, 0       # both commute, neither permutes
        tables = {
            "x + 1": xs ^ 1,                  # commutes and permutes, but moves 0
            "random": np.random.default_rng(8).permutation(spec.order).astype(np.uint32),
            "x^2 + x": square ^ xs,           # commutes, but sends 1 to 0
            "x, but 0 -> 1": zero_to_one,
            "x, but 1 -> 0": one_to_zero,
        }
        for name, vt in tables.items():
            assert permcheck._orbit_cycle_type(vt, spec) is None, name
            report = check(vt, spec)
            if report.is_permutation:
                assert report.cycle_type == naive_cycle_type(vt.tolist()), name
            else:
                assert_exhaustive_report(report, vt)
        assert check(tables["x + 1"], spec).is_permutation

    @pytest.mark.parametrize("n", range(1, 21))
    def test_orbit_leaders(self, n):
        # the necklaces of n bits other than all ones, by Moreau's formula
        leaders, sizes = permcheck._orbit_leaders(n)
        count = sum(2 ** math.gcd(n, i) for i in range(n)) // n - 1
        assert leaders.size == count and not leaders.flags.writeable
        assert int(sizes.astype(np.int64).sum()) == (1 << n) - 1
        if n <= 12:
            m = (1 << n) - 1
            orbits = {}
            for x in range(m):
                orbit = {(x << t | x >> (n - t)) & m for t in range(n)}
                orbits[min(orbit)] = len(orbit)
            assert leaders.tolist() == sorted(orbits)
            assert sizes.tolist() == [orbits[x] for x in sorted(orbits)]


def assert_exhaustive_report(report, vt):
    # a non-permutation's report against one scan over ascending x
    values = vt.tolist()
    assert not report.is_permutation and report.cycle_type is None
    assert report.missing_count == len(values) - len(set(values))
    assert report.fixed_point_count == sum(v == x for x, v in enumerate(values))
    assert tuple(x.bits for x in report.collision_witness) == naive_first_collision(values)


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
