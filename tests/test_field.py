import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecelgamal.errors import FormatError, InvalidModulus
from ecelgamal.field import (
    FieldElement,
    PrimeModulus,
    from_hex,
    invmod,
    is_probable_prime,
    is_quadratic_residue,
    parse_fields,
    powmod,
    sqrt_mod,
    to_hex,
)

from .reference import exhaustive_inverse, exhaustive_square_table, naive_pow

P23 = PrimeModulus(23)
P64 = PrimeModulus(2**64 - 59)
P256 = PrimeModulus(2**256 - 2**32 - 977)


def fe(v, mod=P23):
    return FieldElement(v, mod)


class TestModulus:
    def test_accepts_supported_primes(self):
        for p in (5, 7, 23, 2**64 - 59, 2**256 - 2**32 - 977):
            assert PrimeModulus(p).value == p

    @pytest.mark.parametrize("bad", [0, 1, 2, 3, 4, 9, 15, 21, 2**16, 2**64, 561, 41041])
    def test_rejects_non_primes_and_small(self, bad):
        # 561 and 41041 are Carmichael numbers
        with pytest.raises(InvalidModulus):
            PrimeModulus(bad)

    def test_rejects_oversized(self):
        with pytest.raises(InvalidModulus):
            PrimeModulus(2**521 + 9)  # > 521 bits even if prime-looking

    def test_miller_rabin_agrees_with_sieve(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_probable_prime(n) == sieve[n], n


class TestConstruction:
    def test_negative_reduces(self):
        assert fe(-3).value == 20

    def test_zero(self):
        assert fe(0).value == 0

    def test_above_modulus_reduces(self):
        assert fe(24).value == 1


class TestInverse:
    def test_known_inverses_match_exhaustive_search(self):
        # frozen from exhaustive_inverse: 6*4 = 24 = 1, 20*15 = 300 = 1 (mod 23)
        assert exhaustive_inverse(6, 23) == 4
        assert exhaustive_inverse(20, 23) == 15
        assert invmod(6, 23) == 4
        assert invmod(20, 23) == 15

    def test_identity_self_inverse(self):
        assert invmod(1, 23) == 1

    def test_all_nonzero_residues(self):
        for v in range(1, 23):
            assert invmod(v, 23) == exhaustive_inverse(v, 23)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            invmod(0, 23)
        with pytest.raises(ZeroDivisionError):
            invmod(23, 23)

    def test_division(self):
        # a / b = a * b^-1 undoes multiplication by b, exhaustively on p = 23
        for a in range(23):
            for b in range(1, 23):
                assert a * invmod(b, 23) * b % 23 == a

    def test_large_field(self):
        rng = random.Random(7)
        p = P256.value
        for _ in range(200):
            a = rng.randrange(1, p)
            assert a * invmod(a, p) % p == 1


class TestPow:
    def test_zero_exponent(self):
        assert powmod(0, 0, 23) == 1
        assert powmod(7, 0, 23) == 1

    def test_fermat(self):
        for v in range(1, 23):
            assert powmod(v, 22, 23) == 1

    def test_known_value(self):
        # 2^10 = 1024 = 44*23 + 12
        assert powmod(2, 10, 23) == 12

    def test_agrees_with_naive_repeated_multiplication(self):
        rng = random.Random(11)
        for p in (P23, P64):
            for _ in range(50):
                a = rng.randrange(0, p.value)
                e = rng.randrange(0, 65)
                assert powmod(a, e, p.value) == naive_pow(a, e, p.value)


class TestQuadraticResidues:
    # frozen from exhaustive_square_table(23): the residues with roots
    SQUARES_23 = {0, 1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}

    def test_table_matches_oracle(self):
        assert set(exhaustive_square_table(23)) == self.SQUARES_23

    def test_euler_criterion_matches_exhaustive(self):
        for v in range(23):
            assert is_quadratic_residue(v, 23) == (v in self.SQUARES_23)

    def test_zero_and_one(self):
        assert is_quadratic_residue(0, 23)
        assert is_quadratic_residue(1, 23)

    def test_five_is_not_a_residue(self):
        assert not is_quadratic_residue(5, 23)

    def test_residue_count_small_prime(self):
        # (p-1)/2 nonzero residues plus zero: 12 for p = 23
        count = sum(1 for v in range(23) if is_quadratic_residue(v, 23))
        assert count == (23 - 1) // 2 + 1


class TestSqrt:
    def test_zero(self):
        assert sqrt_mod(0, 23) == 0

    def test_known_roots(self):
        r = sqrt_mod(4, 23)
        assert (r, 23 - r) == (2, 21)

    def test_non_residue_absent(self):
        assert sqrt_mod(5, 23) is None

    @pytest.mark.parametrize("p", [23, 13, 29, 17])
    def test_roots_square_back_exhaustive(self, p):
        # 23 = 3 (mod 4) exercises the shortcut; 13, 29, 17 exercise Tonelli-Shanks
        table = exhaustive_square_table(p)
        for v in range(p):
            r = sqrt_mod(v, p)
            if v in table:
                assert r is not None
                other = (p - r) % p
                assert r <= other
                assert r * r % p == v
                assert other * other % p == v
                assert sorted({r, other}) == table[v]
            else:
                assert r is None

    def test_large_field_roundtrip(self):
        rng = random.Random(13)
        p = P256.value
        for _ in range(50):
            r = rng.randrange(0, p)
            root = sqrt_mod(r * r, p)
            assert root is not None
            assert r in (root, p - root)


class TestParseFields:
    ALLOWED = ("name", "p")

    def test_values_stripped_and_blank_lines_skipped(self):
        lines = ["", "  name =  tiny ", "p=17", ""]
        assert parse_fields(lines, 1, self.ALLOWED, self.ALLOWED) == {
            "name": "tiny", "p": "17"}

    @pytest.mark.parametrize("lines,message", [
        (["name tiny", "p = 17"], "line 10: expected 'key = value'"),
        (["name = x", "q = 17"], "line 11: unknown field 'q'"),
        (["name = x", "name = y", "p = 17"], "line 11: duplicate field 'name'"),
        (["name = x"], "missing fields: p"),
    ], ids=["no-equals", "unknown", "duplicate", "missing"])
    def test_rejections(self, lines, message):
        with pytest.raises(FormatError, match=message):
            parse_fields(lines, 10, self.ALLOWED, self.ALLOWED)


class TestHexFormat:
    @pytest.mark.parametrize(
        "value,text",
        [(0, "0"), (1, "1"), (10, "a"), (255, "ff"), (2**64, "10000000000000000")],
    )
    def test_known_renderings(self, value, text):
        assert to_hex(value) == text
        assert from_hex(text) == value

    def test_no_uppercase_no_prefix(self):
        assert to_hex(0xDEADBEEF) == "deadbeef"

    def test_rejects_junk(self):
        for bad in ("", "0x12", "12 34", "g1", "-5", "1_2"):
            with pytest.raises(FormatError):
                from_hex(bad)

    @given(st.integers(min_value=0, max_value=2**521))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, v):
        assert from_hex(to_hex(v)) == v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_hex(-1)
