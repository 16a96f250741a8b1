import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecelgamal.codec import (
    EncodingParams,
    decode_block,
    encode_block,
    join_message,
    split_message,
)
from ecelgamal.curve import IDENTITY, is_on_curve, point_neg
from ecelgamal.errors import (
    DecodeRangeError,
    EncodingFailure,
    IdentityPointError,
    ParamsTooLarge,
)

from .reference import exhaustive_square_table

TINY_PARAMS = EncodingParams(kappa=2, block_bits=3)


class TestEncodingParams:
    def test_defaults(self):
        p = EncodingParams()
        assert p.kappa == 32 and p.block_bits == 8

    def test_kappa_too_small(self):
        with pytest.raises(ValueError):
            EncodingParams(kappa=1)

    def test_block_bits_positive(self):
        with pytest.raises(ValueError):
            EncodingParams(block_bits=0)

    def test_window_must_fit(self, tiny, c256):
        with pytest.raises(ParamsTooLarge):
            EncodingParams(kappa=32, block_bits=8).check_fits(tiny)
        EncodingParams(kappa=32, block_bits=8).check_fits(c256)
        TINY_PARAMS.check_fits(tiny)  # 2^3 * 2 = 16 <= 23


class TestEncodeBlock:
    def test_known_embedding(self, tiny):
        # window for m=3 is x in {6, 7}; 6^3+6+1 = 223 = 16 (mod 23), a square,
        # and the smaller root of 16 is 4 -> (6, 4)
        table = exhaustive_square_table(23)
        assert min(table[16]) == 4
        pt = encode_block(tiny, TINY_PARAMS, 3)
        assert pt.coords() == (6, 4)
        assert pt.x // TINY_PARAMS.kappa == 3
        assert is_on_curve(tiny, pt)

    def test_deterministic(self, tiny, c256):
        params = EncodingParams(kappa=32, block_bits=8)
        for m in (0, 1, 200, 255):
            assert encode_block(c256, params, m) == encode_block(c256, params, m)
        assert encode_block(tiny, TINY_PARAMS, 3) == encode_block(tiny, TINY_PARAMS, 3)

    def test_all_outputs_on_curve(self, c256):
        params = EncodingParams(kappa=32, block_bits=8)
        for m in range(256):
            assert is_on_curve(c256, encode_block(c256, params, m))

    def test_window_exhaustion_reported(self, tiny):
        # m=7 probes x in {14, 15}; 14^3+14+1 = 22 and 15^3+15+1 = 10 (mod 23),
        # neither a square in F_23
        table = exhaustive_square_table(23)
        assert 22 not in table and 10 not in table
        with pytest.raises(EncodingFailure):
            encode_block(tiny, TINY_PARAMS, 7)

    def test_value_out_of_range(self, tiny):
        with pytest.raises(ValueError):
            encode_block(tiny, TINY_PARAMS, 8)
        with pytest.raises(ValueError):
            encode_block(tiny, TINY_PARAMS, -1)

    def test_oversized_params_rejected(self, tiny):
        with pytest.raises(ParamsTooLarge):
            encode_block(tiny, EncodingParams(kappa=32, block_bits=8), 0)


class TestDecodeBlock:
    def test_integer_division(self, tiny):
        # (7, 12) is on the curve; floor(7/2) = 3
        assert decode_block(TINY_PARAMS, tiny.point(7, 12)) == 3

    def test_identity_rejected(self):
        with pytest.raises(IdentityPointError):
            decode_block(TINY_PARAMS, IDENTITY)

    def test_out_of_range_rejected(self, tiny):
        # (17, 3) is on the curve but 17 // 2 = 8 needs more than 3 bits
        with pytest.raises(DecodeRangeError):
            decode_block(TINY_PARAMS, tiny.point(17, 3))

    def test_y_independent(self, tiny, c256):
        params = EncodingParams(kappa=32, block_bits=8)
        rng = random.Random(3)
        for _ in range(30):
            m = rng.randrange(256)
            pt = encode_block(c256, params, m)
            assert decode_block(params, pt) == decode_block(params, point_neg(c256, pt))


class TestRoundtrip:
    def test_exhaustive_8_bit(self, c256):
        params = EncodingParams(kappa=32, block_bits=8)
        for m in range(256):
            assert decode_block(params, encode_block(c256, params, m)) == m

    @pytest.mark.parametrize("block_bits", [16, 32])
    def test_randomized_wide_blocks(self, c256, block_bits):
        params = EncodingParams(kappa=32, block_bits=block_bits)
        rng = random.Random(block_bits)
        for _ in range(500):
            m = rng.randrange(1 << block_bits)
            assert decode_block(params, encode_block(c256, params, m)) == m

    def test_tiny_curve_full_domain(self, tiny):
        for m in range(7):  # m=7 has no embedding on this curve
            assert decode_block(TINY_PARAMS, encode_block(tiny, TINY_PARAMS, m)) == m


class TestSplitJoin:
    def test_single_byte(self):
        assert split_message(b"\xab", 8) == [171]

    def test_big_endian_packing(self):
        assert split_message(b"\x12\x34", 16) == [0x1234]

    def test_tail_padding(self):
        assert split_message(b"\x12\x34\x56", 16) == [0x1234, 0x5600]
        assert split_message(b"\x01", 32) == [0x01000000]

    def test_empty(self):
        assert split_message(b"", 8) == []
        assert join_message([], 8, 0) == b""

    @pytest.mark.parametrize("block_bits", [8, 16, 32])
    def test_join_inverts_split(self, block_bits):
        rng = random.Random(block_bits)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(0, 200))
            blocks = split_message(data, block_bits)
            assert join_message(blocks, block_bits, len(data)) == data

    @given(st.binary(max_size=400), st.sampled_from([8, 16, 32]))
    @settings(max_examples=200, deadline=None)
    def test_join_inverts_split_hypothesis(self, data, block_bits):
        blocks = split_message(data, block_bits)
        assert join_message(blocks, block_bits, len(data)) == data

    def test_unsupported_width(self):
        for bad in (0, 4, 12, 64):
            with pytest.raises(ValueError):
                split_message(b"xy", bad)
            with pytest.raises(ValueError):
                join_message([1], bad, 1)

    def test_length_beyond_payload(self):
        with pytest.raises(ValueError):
            join_message([0x1234], 16, 3)
