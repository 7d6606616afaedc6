import ast
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from permtri.field import (
    DEFAULT_MODULI,
    FieldError,
    FieldMismatchError,
    FieldSpec,
    NoCubeRootError,
    NonDivisorError,
    NonInvertibleDenominatorError,
    TABLE_DEGREE_LIMIT,
    ZeroBaseError,
    ZeroInverseError,
    cube_root_of_unity,
    default_spec,
    fractional_power,
    irreducibles,
    is_irreducible,
    smallest_irreducible,
)
from oracles import (
    exhaustive_inverse,
    naive_pow,
    repeated_squaring_frobenius,
    schoolbook_mulmod,
    square_multiply_pow,
    trial_division_irreducible,
)

F8 = default_spec(3)
F4 = default_spec(2)


class TestAdd:
    def test_example(self):
        assert (F8.element(0b011) + F8.element(0b101)).bits == 0b110

    def test_identity_and_involution(self):
        zero = F8.zero
        for a in F8.elements():
            assert a + zero == a
            assert (a + a).bits == 0

    def test_mismatched_specs_rejected(self):
        with pytest.raises(FieldMismatchError):
            F8.element(1) + F4.element(1)
        with pytest.raises(FieldMismatchError):
            F8.element(1) * F4.element(1)


class TestMul:
    def test_example_against_schoolbook(self):
        assert schoolbook_mulmod(0b010, 0b110, F8.modulus) == 0b111
        assert (F8.element(0b010) * F8.element(0b110)).bits == 0b111

    def test_identity_annihilation(self):
        for a in F8.elements():
            assert a * F8.one == a
            assert (a * F8.zero).bits == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_schoolbook_exhaustive(self, n):
        spec = default_spec(n)
        for a in range(spec.order):
            for b in range(spec.order):
                assert spec.mul_baseline(a, b) == schoolbook_mulmod(a, b, spec.modulus)

    @pytest.mark.parametrize("n", [8, 13, 16])
    def test_matches_schoolbook_random(self, n):
        spec = default_spec(n)
        rng = random.Random(1000 + n)
        for _ in range(300):
            a, b = rng.randrange(spec.order), rng.randrange(spec.order)
            assert spec.mul_baseline(a, b) == schoolbook_mulmod(a, b, spec.modulus)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_table_route_bit_exact_exhaustive(self, n):
        spec = FieldSpec(n)  # private spec so table build is exercised here
        spec.build_tables()
        for a in range(spec.order):
            for b in range(spec.order):
                assert spec.mul(a, b) == spec.mul_baseline(a, b)

    @pytest.mark.parametrize("n,modulus", [
        pytest.param(12, None, id="12"),
        pytest.param(16, None, id="16"),
        pytest.param(20, None, id="20"),
        pytest.param(20, 0x100021, id="20-0x100021"),
    ])
    def test_table_route_bit_exact_random(self, n, modulus):
        spec = default_spec(n) if modulus is None else FieldSpec(n, modulus)
        spec.build_tables()
        plain = FieldSpec(n, modulus)  # never builds tables: byte-sliced route
        rng = random.Random(2000 + n)
        for _ in range(2000):
            a, b = rng.randrange(spec.order), rng.randrange(spec.order)
            assert spec.mul(a, b) == spec.mul_baseline(a, b)
            # at n = 20, log[a] * (e mod 2^n - 1) reaches 2^40, which would
            # wrap if the table route multiplied uint32 items
            e = rng.randrange(1 << 64)
            assert spec.pow(a, e) == plain.pow(a, e)
            if a:
                assert spec.inv(a) == plain.inv(a)
        assert not plain.tables_built


class TestByteSlicedRoute:
    """The route of every spec without log tables, bit for bit against the
    ``mul_baseline`` oracles; n = 20 also against the log-table route."""

    @pytest.mark.parametrize("n,which", [
        pytest.param(n, which, id=f"{n}-{which}")
        for n in [20] + list(range(21, 33)) for which in ("default", "second")])
    def test_against_baseline_oracles(self, n, which):
        modulus = next(itertools.islice(irreducibles(n), 0 if which == "default" else 1, None))
        spec = FieldSpec(n, modulus)
        rng = random.Random(f"byte-sliced-{n}-{modulus}")
        top = spec.order - 1
        samples = [0, 1, 2, top] + [rng.randrange(spec.order) for _ in range(60)]
        for a in samples:
            for b in samples[:4] + [rng.randrange(spec.order) for _ in range(8)]:
                assert spec.mul(a, b) == spec.mul_baseline(a, b)
            for e in (0, 1, 2, top, top + 1, rng.randrange(1 << 64)):
                assert spec.pow(a, e) == square_multiply_pow(spec, a, e)
            if a:
                assert spec.inv(a) == square_multiply_pow(spec, a, spec.order - 2)
            x = a                          # x = a^(2^j), one squaring per j
            for j in range(n + 1):
                assert spec.frobenius(a, j) == x == repeated_squaring_frobenius(spec, a, j)
                x = spec.mul_baseline(x, x)
            root = spec.sqrt(a)
            assert root == repeated_squaring_frobenius(spec, a, n - 1)
            assert spec.mul_baseline(root, root) == a
        assert not spec.tables_built
        if n <= TABLE_DEGREE_LIMIT:
            logs = FieldSpec(n, modulus)
            logs.build_tables()
            for a in samples:
                b = rng.randrange(spec.order)
                assert spec.mul(a, b) == logs.mul(a, b)
                e = rng.randrange(1 << 64)
                assert spec.pow(a, e) == logs.pow(a, e)
                if a:
                    assert spec.inv(a) == logs.inv(a)
                assert all(spec.frobenius(a, j) == logs.frobenius(a, j) for j in range(n + 1))
                assert spec.sqrt(a) == logs.sqrt(a)

    def test_scalar_route_does_not_load_numpy(self):
        # numpy is imported only by the array functions, so the package and
        # a wide-field inversion leave it unloaded
        code = ("import sys\n"
                "import permtri\n"
                "inst = permtri.instantiate('F6', k=5, m=7)\n"
                "x, _ = permtri.invert(inst, inst.spec.element(0x1234567))\n"
                "print('numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("n,which", [
        pytest.param(n, which, id=f"{n}-{which}")
        for n in range(21, 33) for which in ("default", "second")])
    def test_pow_on_structured_exponents(self, n, which):
        # pow splits the reduced exponent into runs of ones, read cyclically:
        # every run at every offset (those with offset + length > n wrap past
        # bit n-1 once reduced), wrapped runs next to another run, the edge
        # exponents, and every family instance's exponents at this n
        from permtri.families import enumerate_instances, instantiate

        modulus = next(itertools.islice(irreducibles(n), 0 if which == "default" else 1, None))
        spec = FieldSpec(n, modulus)
        rng = random.Random(f"pow-runs-{n}-{modulus}")
        top = spec.order - 1
        exponents = [((1 << length) - 1) << offset
                     for length in range(1, n + 1) for offset in range(n)]
        exponents += [((1 << length) - 1) << (n - 2) | 1 << (n // 2)
                      for length in range(3, n // 2)]
        exponents += [0, 1, top - 1, top, 2 * top, 7 * top]
        for inst in enumerate_instances(n):
            if inst.n == n:
                inst = instantiate(inst.family, inst.params, spec)
                exponents += [*inst.exponents, *inst.reduced_exponents()]
        for e in exponents:
            for a in (rng.randrange(2, spec.order), 1, 0):
                assert spec.pow(a, e) == square_multiply_pow(spec, a, e), (a, e)
        assert not spec.tables_built

    @pytest.mark.parametrize("n", range(21, 33))
    def test_frobenius_tables_composed_in_descending_order(self, n):
        # on a fresh spec each table j = n-1, n-2, ... is first built from
        # the power-of-two tables below it, which it builds on the way
        spec = FieldSpec(n)
        rng = random.Random(f"frobenius-descending-{n}")
        for j in range(n - 1, 0, -1):
            for a in [1, 2, 1 << (n - 1)] + [rng.randrange(spec.order) for _ in range(4)]:
                assert spec.frobenius(a, j) == repeated_squaring_frobenius(spec, a, j)
        assert sorted(spec._frob) == list(range(1, n))

    def test_tables_built_once_and_read_only(self):
        spec = FieldSpec(24)
        assert spec.frobenius(3, 5) == repeated_squaring_frobenius(spec, 3, 5)
        tables = spec._frob[5]
        assert spec.frobenius(7, 5 + 24) == repeated_squaring_frobenius(spec, 7, 5)
        assert spec._frob[5] is tables and len(tables) == 3
        with pytest.raises(TypeError):
            tables[0][1] = 0


class TestInv:
    def test_examples(self):
        inv = F8.element(0b010).inv()
        assert inv.bits == 0b101
        assert (F8.element(0b010) * inv) == F8.one
        assert F8.one.inv() == F8.one
        assert F4.element(0b10).inv().bits == exhaustive_inverse(F4, 0b10) == 0b11

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverseError):
            F8.zero.inv()

    @pytest.mark.parametrize("n", [2, 3, 7, 10])
    def test_inverse_property_exhaustive(self, n):
        spec = default_spec(n)
        for a in range(1, spec.order):
            assert spec.mul(a, spec.inv(a)) == 1


class TestPow:
    def test_lagrange(self):
        for n in (2, 3, 8, 10):
            spec = default_spec(n)
            for a in range(1, spec.order):
                assert spec.pow(a, spec.order - 1) == 1

    def test_zero_base_and_zero_exponent(self):
        assert F8.pow(0, 5) == 0
        assert F8.pow(0, 0) == 1          # 0^0 := 1
        assert F8.pow(5, 0) == 1

    def test_big_exponent_reduces(self):
        # 4681 = 5 (mod 7); cross-checked by naive repeated multiplication
        assert F8.pow(0b010, 4681) == naive_pow(0b010, 5, F8.modulus)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_naive_chain(self, n):
        # pow(a, e) equals e-fold repeated multiplication for e <= 2^12,
        # tracked incrementally so the oracle stays linear in e
        spec = default_spec(n)
        spec.build_tables()
        for a in range(spec.order):
            acc = 1
            for e in range(1 << 12):
                assert spec.pow(a, e) == acc
                acc = spec.mul_baseline(acc, a)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            F8.pow(1, -1)


class TestFrobenius:
    def test_examples(self):
        a = F8.element(0b110)
        assert a.frobenius(0) == a
        assert a.frobenius(3) == a        # j = n fixes everything
        assert F8.element(0b010).frobenius(2).bits == 0b110  # x^4 = x^2 + x

    @pytest.mark.parametrize("n", range(2, 11))
    def test_additive_exhaustive(self, n):
        spec = default_spec(n)
        spec.build_tables()
        for j in (1, 2, n - 1):
            img = [spec.frobenius(x, j) for x in range(spec.order)]
            for a in range(spec.order):
                ia = img[a]
                for b in range(spec.order):
                    assert img[a ^ b] == ia ^ img[b]


class TestSqrt:
    def test_examples(self):
        assert F8.zero.sqrt() == F8.zero
        assert F8.one.sqrt() == F8.one
        assert F8.element(0b111).sqrt().bits == 0b101

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_inverts_squaring_exhaustive(self, n):
        spec = default_spec(n)
        spec.build_tables()
        for a in range(spec.order):
            assert spec.sqrt(spec.mul(a, a)) == a
            sq = spec.sqrt(a)
            assert spec.mul(sq, sq) == a


class TestTrace:
    def test_examples(self):
        assert F8.element(0b010).trace().bits == 0
        assert F8.zero.trace(1).bits == 0
        # n = 3k: the trace of 1 onto F_{2^k} is 1
        for n, k in ((3, 1), (9, 3), (12, 4)):
            assert default_spec(n).trace(1, k) == 1

    def test_non_divisor_rejected(self):
        with pytest.raises(NonDivisorError):
            F8.element(1).trace(2)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 10, 12])
    def test_subfield_valued_and_surjective(self, n):
        spec = default_spec(n)
        spec.build_tables()
        for k in range(1, n + 1):
            if n % k:
                continue
            attained = set()
            for a in range(spec.order):
                t = spec.trace(a, k)
                assert spec.frobenius(t, k) == t    # fixed by Frobenius^k
                attained.add(t)
            # image is the whole subfield F_{2^k}
            subfield = {x for x in range(spec.order) if spec.frobenius(x, k) == x}
            assert attained == subfield
            assert len(subfield) == 1 << k


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(0b1011)          # x^3+x+1
        assert not is_irreducible(0b1111)      # x^3+x^2+x+1 = (x+1)(x^2+x+1)
        assert is_irreducible(0x11B)
        assert trial_division_irreducible(0x11B)

    def test_agrees_with_trial_division(self):
        for poly in range(2, 1 << 11):
            assert is_irreducible(poly) == trial_division_irreducible(poly), hex(poly)

    @given(st.integers(min_value=2, max_value=(1 << 13) - 1))
    def test_agrees_with_trial_division_hypothesis(self, poly):
        assert is_irreducible(poly) == trial_division_irreducible(poly)

    def test_default_moduli_regenerate(self):
        assert set(DEFAULT_MODULI) == set(range(2, 33))
        for n, modulus in DEFAULT_MODULI.items():
            assert modulus == smallest_irreducible(n)
            assert is_irreducible(modulus)
            assert modulus.bit_length() - 1 == n
            assert modulus & 1

    def test_irreducibles_ascending(self):
        gen = irreducibles(8)
        assert next(gen) == 0x11B
        assert 0x11D in list(irreducibles(8))


class TestCubeRootOfUnity:
    def test_examples(self):
        assert cube_root_of_unity(F4).bits == 0b10
        with pytest.raises(NoCubeRootError):
            cube_root_of_unity(F8)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_defining_property(self, n):
        spec = default_spec(n)
        w = cube_root_of_unity(spec)
        assert w.bits != 1
        assert (w ** 3) == spec.one
        assert (w * w + w + spec.one).bits == 0
        # deterministic smallest-bits choice between the two roots w, w+1
        assert w.bits == min(w.bits, w.bits ^ 1)


class TestFractionalPower:
    def test_trivial_cases(self):
        a = F8.element(0b110)
        assert fractional_power(a, 1, 1) == a
        assert fractional_power(a, 2, 1) == a * a
        spec = default_spec(4)
        b = spec.element(0x9)
        assert fractional_power(b, 1, (1 << 1) - 1) == b   # denominator one

    def test_errors(self):
        with pytest.raises(ZeroBaseError):
            fractional_power(F8.zero, 1, 1)
        with pytest.raises(NonInvertibleDenominatorError):
            fractional_power(default_spec(4).element(2), 1, 3)   # gcd(3, 15) = 3

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_den_th_power_recovers_num_th(self, n):
        spec = default_spec(n)
        rng = random.Random(n)
        m = spec.order - 1
        for _ in range(200):
            a = spec.element(rng.randrange(1, spec.order))
            num = rng.randrange(0, 4 * m)
            den = rng.randrange(1, 4 * m)
            if __import__("math").gcd(den, m) != 1:
                continue
            r = fractional_power(a, num, den)
            assert r ** den == a ** num


class TestFieldAxioms:
    @pytest.mark.parametrize("n,samples", [(5, 10_000), (16, 10_000)])
    def test_axioms_random_triples(self, n, samples):
        spec = default_spec(n)
        spec.build_tables()
        rng = random.Random(42)
        for _ in range(samples):
            a, b, c = (rng.randrange(spec.order) for _ in range(3))
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert spec.mul(a, b ^ c) == spec.mul(a, b) ^ spec.mul(a, c)
            if a:
                inv = spec.inv(a)
                assert spec.mul(a, inv) == 1
                assert spec.inv(inv) == a


class TestSpecAndElements:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(1)
        with pytest.raises(ValueError):
            FieldSpec(33)
        with pytest.raises(ValueError):
            FieldSpec(3, 0b1111)       # reducible
        with pytest.raises(ValueError):
            FieldSpec(3, 0b10110)      # wrong degree
        with pytest.raises(ValueError):
            FieldSpec(3, 0b1010)       # no constant term

    def test_element_bounds_and_hex(self):
        with pytest.raises(ValueError):
            F8.element(8)
        with pytest.raises(ValueError):
            F8.element(-1)
        e = F8.from_hex("0x5")
        assert str(e) == "0x5" and e.bits == 5
        assert F8.from_hex("7").bits == 7

    def test_equality_and_hash(self):
        assert FieldSpec(3) == default_spec(3)
        assert F8.element(3) == FieldSpec(3).element(3)
        assert len({F8.element(1), FieldSpec(3).element(1)}) == 1
        assert F8.element(1) != default_spec(4).element(1)

    def test_generator_order(self):
        for n in (2, 3, 4, 8, 11):
            spec = default_spec(n)
            g = spec.generator()
            m = spec.order - 1
            seen = set()
            x = 1
            for _ in range(m):
                seen.add(x)
                x = spec.mul(x, g)
            assert x == 1 and len(seen) == m

    def test_negative_modulus_rejected_without_hanging(self):
        # bit_length() ignores the sign, so -0x11b once passed the degree
        # and constant-term checks and then looped forever in _poly_mod
        code = ("from permtri.field import FieldSpec, is_irreducible\n"
                "assert not is_irreducible(-0x11b)\n"
                "try:\n"
                "    FieldSpec(8, -0x11b)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "nonnegative" in proc.stdout

    @pytest.mark.parametrize("n", range(2, 13))
    def test_tables_match_generator_powers(self, n):
        for modulus in itertools.islice(irreducibles(n), 2):
            spec = FieldSpec(n, modulus)
            exp_np, log_np = spec.exp_log_arrays()
            m = spec.order - 1
            g = spec.generator()
            powers = [1]
            for _ in range(m - 1):
                powers.append(spec.mul_baseline(powers[-1], g))
            assert exp_np.tolist() == powers
            assert spec._exp.tolist() == powers + powers
            assert log_np[1:].tolist() == spec._log[1:].tolist()
            assert [spec._log[v] for v in powers] == list(range(m))

    def test_tables_read_only(self):
        # the scalar route indexes the same buffers the arrays expose
        spec = FieldSpec(6)
        exp_np, log_np = spec.exp_log_arrays()
        for arr in (exp_np, log_np):
            with pytest.raises(ValueError):
                arr[1] = 0
            with pytest.raises(ValueError):
                arr ^= 1
        assert all(spec.mul(a, 3) == spec.mul_baseline(a, 3) for a in range(spec.order))

    def test_table_build_rejects_non_generator(self):
        spec = FieldSpec(4)
        spec._generator = 8          # order 5 in the group of order 15
        with pytest.raises(FieldError, match="does not generate"):
            spec.build_tables()
        assert not spec.tables_built
        assert spec._exp_np is None and spec._log_np is None


def test_no_assert_statements_in_library():
    # invariants must raise: python -O strips assert statements
    src = Path(__file__).resolve().parents[1] / "src" / "permtri"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
