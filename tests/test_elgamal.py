import random

import pytest

from ecelgamal import curve as curve_mod
from ecelgamal.codec import EncodingParams, decode_block
from ecelgamal.curve import IDENTITY, enumerate_points, point_order, scalar_mul
from ecelgamal.elgamal import (
    Ciphertext,
    KeyPair,
    decrypt,
    decrypt_block,
    encrypt,
    encrypt_block,
    keygen,
    parse_ciphertext,
    parse_keypair,
    parse_public_key,
    random_nonces,
    render_ciphertext,
    render_keypair,
)
from ecelgamal.errors import (
    EcError,
    EncodingFailure,
    FormatError,
    KeyConsistencyError,
    MixedCurve,
    OffCurveInput,
    UnknownCurve,
)
from ecelgamal.field import from_hex, to_hex
from ecelgamal.pipeline import CiphertextBlock, ExecMode

from .reference import repeated_add

PARAMS8 = EncodingParams(kappa=32, block_bits=8)


class TestKeygen:
    def test_deterministic_for_seed(self, c256):
        a = keygen(c256, random.Random(1234))
        b = keygen(c256, random.Random(1234))
        assert a == b

    def test_different_seeds_differ(self, c256):
        assert keygen(c256, random.Random(1)) != keygen(c256, random.Random(2))

    def test_secret_one_gives_generator(self, tiny):
        assert KeyPair(tiny, 1).public == tiny.g

    def test_secret_three_matches_triple_addition(self, tiny):
        want = repeated_add(3, (3, 10), 23, 1)
        assert KeyPair(tiny, 3).public.coords() == want

    def test_secret_range_enforced(self, tiny):
        with pytest.raises(ValueError):
            KeyPair(tiny, 0)
        with pytest.raises(ValueError):
            KeyPair(tiny, tiny.n)

    def test_inconsistent_public_rejected(self, tiny):
        with pytest.raises(KeyConsistencyError):
            KeyPair(tiny, 3, tiny.g)

    def test_secrets_stay_in_range(self, tiny):
        rng = random.Random(9)
        for _ in range(300):
            kp = keygen(tiny, rng)
            assert 1 <= kp.secret <= tiny.n - 1


class TestBlockCipher:
    def test_known_first_component(self, tiny):
        # k = 2 so c1 = 2G = (7, 12)
        p_b = KeyPair(tiny, 3).public
        block = encrypt_block(tiny, tiny.point(3, 10), p_b, 2)
        assert block.c1 == tiny.point(7, 12)

    def test_deterministic(self, tiny):
        p_b = KeyPair(tiny, 3).public
        one = encrypt_block(tiny, tiny.g, p_b, 2)
        two = encrypt_block(tiny, tiny.g, p_b, 2)
        assert one == two

    def test_decrypt_inverts_encrypt_random_large(self, c256):
        rng = random.Random(77)
        for _ in range(20):
            kp = keygen(c256, rng)
            p_m = scalar_mul(c256, rng.randrange(1, c256.n), c256.g)
            k = rng.randrange(1, c256.n)
            block = encrypt_block(c256, p_m, kp.public, k)
            assert decrypt_block(c256, block, kp.secret) == p_m

    def test_decrypt_inverts_encrypt_sampled_tiny(self, tiny):
        order = point_order(tiny, tiny.g)
        for p_m in enumerate_points(tiny):
            for n_b, k in ((1, 1), (3, 2), (5, 9), (order - 1, order - 1)):
                p_b = scalar_mul(tiny, n_b, tiny.g)
                block = encrypt_block(tiny, p_m, p_b, k)
                assert decrypt_block(tiny, block, n_b) == p_m

    def test_wrong_secret_garbles(self, tiny):
        # the recovery error term is k*(n_b - wrong)*G: the result is wrong
        # exactly when the generator order does not divide k*(n_b - wrong)
        order = point_order(tiny, tiny.g)
        p_m = tiny.point(3, 10)
        rng = random.Random(21)
        for _ in range(100):
            n_b = rng.randrange(1, order)
            wrong = rng.randrange(1, order)
            k = rng.randrange(1, order)
            p_b = scalar_mul(tiny, n_b, tiny.g)
            block = encrypt_block(tiny, p_m, p_b, k)
            recovered = decrypt_block(tiny, block, wrong)
            if (k * (n_b - wrong)) % order == 0:
                assert recovered == p_m
            else:
                assert recovered != p_m

    def test_identity_first_component_passthrough(self, tiny):
        block = CiphertextBlock(IDENTITY, tiny.point(9, 7))
        assert decrypt_block(tiny, block, 3) == tiny.point(9, 7)

    def test_nonce_range_enforced(self, tiny):
        with pytest.raises(ValueError):
            encrypt_block(tiny, tiny.g, tiny.g, 0)
        with pytest.raises(ValueError):
            encrypt_block(tiny, tiny.g, tiny.g, tiny.n)

    def test_off_curve_rejected(self, tiny):
        from ecelgamal.curve import Point
        bogus = Point(3, 11)
        with pytest.raises(OffCurveInput):
            encrypt_block(tiny, bogus, tiny.g, 2)
        with pytest.raises(OffCurveInput):
            decrypt_block(tiny, CiphertextBlock(bogus, tiny.g), 2)


class TestStreamCipher:
    def test_roundtrip_various_sizes(self, c256):
        rng = random.Random(31)
        kp = keygen(c256, rng)
        for size in (0, 1, 2, 3, 17, 64, 300):
            msg = rng.randbytes(size)
            ct = encrypt(c256, msg, kp.public, PARAMS8,
                         random_nonces(c256, random.Random(size)))
            assert decrypt(ct, kp.secret) == msg

    def test_roundtrip_wide_blocks(self, c256):
        rng = random.Random(32)
        kp = keygen(c256, rng)
        for block_bits in (16, 32):
            params = EncodingParams(kappa=32, block_bits=block_bits)
            msg = rng.randbytes(101)  # not a multiple of the block size
            ct = encrypt(c256, msg, kp.public, params,
                         random_nonces(c256, rng))
            assert decrypt(ct, kp.secret) == msg

    def test_empty_message(self, c256):
        kp = keygen(c256, random.Random(5))
        ct = encrypt(c256, b"", kp.public, PARAMS8, [])
        assert ct.blocks == ()
        assert ct.original_length == 0
        assert decrypt(ct, kp.secret) == b""

    def test_modes_agree_bit_for_bit(self, c256):
        kp = keygen(c256, random.Random(8))
        msg = random.Random(9).randbytes(120)
        single = encrypt(c256, msg, kp.public, PARAMS8,
                         random_nonces(c256, random.Random(10)), ExecMode.SINGLE)
        dual = encrypt(c256, msg, kp.public, PARAMS8,
                       random_nonces(c256, random.Random(10)), ExecMode.DUAL)
        assert single == dual

    def test_explicit_nonce_sequence(self, tiny):
        from ecelgamal.codec import encode_block
        from ecelgamal.pipeline import run_encrypt_pipeline

        kp = KeyPair(tiny, 3)
        params = EncodingParams(kappa=2, block_bits=3)
        points = [encode_block(tiny, params, 1), encode_block(tiny, params, 4)]
        blocks, _ = run_encrypt_pipeline(tiny, points, kp.public, [2, 5])
        assert blocks[0].c1 == scalar_mul(tiny, 2, tiny.g)
        assert blocks[1].c1 == scalar_mul(tiny, 5, tiny.g)

    def test_nonces_unique_at_scale(self, c256):
        seen = set()
        source = random_nonces(c256, random.Random(1))
        for _ in range(1000):
            k = next(source)
            assert k not in seen
            seen.add(k)

    def test_encoding_failure_carries_block_index(self, toy1009):
        # byte 0x01 has no embedding in the kappa=2 window on this curve;
        # it sits at block index 1 of the message
        kp = keygen(toy1009, random.Random(1))
        params = EncodingParams(kappa=2, block_bits=8)
        with pytest.raises(EncodingFailure, match="block 1"):
            encrypt(toy1009, b"\x00\x01", kp.public, params,
                    random_nonces(toy1009, random.Random(2)))


class TestKeyFiles:
    def test_roundtrip(self, c256):
        kp = keygen(c256, random.Random(55))
        assert parse_keypair(render_keypair(kp)) == kp

    def test_file_shape(self, tiny):
        text = render_keypair(KeyPair(tiny, 3))
        lines = text.strip().splitlines()
        assert lines[0] == "curve = tiny23"
        assert lines[1] == "secret = 3"
        assert lines[2].startswith("pub.x = ")
        assert lines[3].startswith("pub.y = ")

    def test_public_only_file(self, tiny):
        kp = KeyPair(tiny, 3)
        text = render_keypair(kp, include_secret=False)
        c, pub = parse_public_key(text)
        assert c == tiny and pub == kp.public
        with pytest.raises(FormatError):
            parse_keypair(text)

    def test_corrupted_public_rejected(self, tiny):
        text = render_keypair(KeyPair(tiny, 3))
        bad = text.replace("pub.x = ", "pub.x = 1")  # prepend a hex digit
        with pytest.raises((KeyConsistencyError, OffCurveInput)):
            parse_keypair(bad)

    def test_unknown_curve_rejected(self, tiny):
        text = render_keypair(KeyPair(tiny, 3)).replace("tiny23", "tiny99")
        with pytest.raises(UnknownCurve):
            parse_keypair(text)

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            parse_keypair("curve = tiny23\nsecret = 3\n")

    def test_junk_field_rejected(self):
        with pytest.raises(FormatError):
            parse_keypair("curve = tiny23\nwat = 1\n")

    @pytest.mark.parametrize("field", ["secret", "pub.x", "pub.y"])
    def test_non_hex_value_rejected(self, tiny, field):
        text = render_keypair(KeyPair(tiny, 3))
        lines = [f"{field} = zz" if line.startswith(f"{field} =") else line
                 for line in text.splitlines()]
        with pytest.raises(FormatError, match="not a hex integer"):
            parse_keypair("\n".join(lines))
        if field != "secret":
            public_only = [line for line in lines if not line.startswith("secret")]
            with pytest.raises(FormatError, match="not a hex integer"):
                parse_public_key("\n".join(public_only))

    def test_non_canonical_public_rejected(self, c256):
        kp = keygen(c256, random.Random(55))
        x = kp.public.coords()[0]
        text = render_keypair(kp, include_secret=False).replace(
            f"pub.x = {to_hex(x)}", f"pub.x = {to_hex(x + c256.p)}")
        with pytest.raises(MixedCurve):
            parse_public_key(text)


class TestCiphertextFiles:
    def _sample(self, c256):
        kp = keygen(c256, random.Random(2))
        msg = random.Random(3).randbytes(40)
        ct = encrypt(c256, msg, kp.public, PARAMS8,
                     random_nonces(c256, random.Random(4)))
        return kp, msg, ct

    def test_roundtrip(self, c256):
        _, _, ct = self._sample(c256)
        assert parse_ciphertext(render_ciphertext(ct)) == ct

    def test_header_shape(self, c256):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        assert lines[0] == "curve = secp256k1"
        assert lines[1] == "block_bits = 8"
        assert lines[2] == "kappa = 32"
        assert lines[3] == "length = 40"
        assert len(lines[4].split()) == 4

    def test_identity_components_roundtrip(self, tiny):
        blocks = (
            CiphertextBlock(IDENTITY, tiny.point(9, 7)),
            CiphertextBlock(tiny.point(3, 10), IDENTITY),
            CiphertextBlock(IDENTITY, IDENTITY),
        )
        ct = Ciphertext("tiny23", 8, 2, 3, blocks)
        text = render_ciphertext(ct)
        body = text.splitlines()[4:7]
        assert body[0].startswith("O ")
        assert body[1].endswith(" O")
        assert body[2] == "O O"
        assert parse_ciphertext(text) == ct

    def test_unknown_curve(self, c256):
        _, _, ct = self._sample(c256)
        text = render_ciphertext(ct).replace("secp256k1", "mystery")
        with pytest.raises(UnknownCurve):
            parse_ciphertext(text)

    def test_missing_header_field(self, c256):
        _, _, ct = self._sample(c256)
        text = "\n".join(
            line for line in render_ciphertext(ct).splitlines()
            if not line.startswith("kappa")
        )
        with pytest.raises(FormatError):
            parse_ciphertext(text)

    def test_duplicate_header_field(self, c256):
        _, _, ct = self._sample(c256)
        text = render_ciphertext(ct).replace("kappa = 32\n", "kappa = 32\nkappa = 16\n")
        with pytest.raises(FormatError, match="duplicate field 'kappa'"):
            parse_ciphertext(text)

    @pytest.mark.parametrize("line,edit", [
        ("kappa = 32", "kappa = 0"),
        ("kappa = 32", "kappa = 1"),
        ("block_bits = 8", "block_bits = 12"),
        ("length = 40", "length = -1"),
    ])
    def test_out_of_range_header_value(self, c256, line, edit):
        kp, _, ct = self._sample(c256)
        text = render_ciphertext(ct).replace(line + "\n", edit + "\n")
        with pytest.raises(FormatError):
            decrypt(parse_ciphertext(text), kp.secret)

    def test_non_canonical_coordinate_rejected(self, c256):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        parts = lines[4].split()
        parts[0] = to_hex(from_hex(parts[0]) + c256.p)
        lines[4] = " ".join(parts)
        with pytest.raises(MixedCurve):
            parse_ciphertext("\n".join(lines))

    @pytest.mark.parametrize("token", [0, 1, 2, 3])
    def test_non_hex_block_token(self, c256, token):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        parts = lines[4].split()
        parts[token] = "1x"
        lines[4] = " ".join(parts)
        with pytest.raises(FormatError, match="not a hex integer"):
            parse_ciphertext("\n".join(lines))

    def test_block_count_mismatch(self, c256):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        with pytest.raises(FormatError):
            parse_ciphertext("\n".join(lines[:-2]))  # drop one block line

    def test_truncated_point(self, c256):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        lines[4] = " ".join(lines[4].split()[:3])
        with pytest.raises(FormatError):
            parse_ciphertext("\n".join(lines))

    def test_off_curve_point_rejected(self, c256):
        _, _, ct = self._sample(c256)
        lines = render_ciphertext(ct).splitlines()
        parts = lines[4].split()
        parts[1] = "1" if parts[1] != "1" else "2"
        lines[4] = " ".join(parts)
        with pytest.raises(OffCurveInput):
            parse_ciphertext("\n".join(lines))

    @pytest.mark.parametrize("backend", ["native", "python"])
    def test_decrypt_matches_decrypt_block(self, tiny, c256, backend):
        # decrypt recovers every block in one multiply-add call; it must
        # give what decrypt_block gives one block at a time, O tokens included
        try:
            curve_mod.set_backend(backend)
        except RuntimeError:
            pytest.skip("no native kernel")
        for c in (tiny, c256):
            rng = random.Random(f"block-for-block:{c.name}")
            secret = rng.randrange(1, c.n)
            members = [scalar_mul(c, rng.randrange(1, c.n), c.g) for _ in range(8)]
            blocks = [CiphertextBlock(IDENTITY, members[0]),
                      CiphertextBlock(members[1], IDENTITY)]
            while len(blocks) < 24:
                block = CiphertextBlock(rng.choice(members), rng.choice(members))
                if decrypt_block(c, block, secret) != IDENTITY:
                    blocks.append(block)
            # kappa above p / 256, so every recovered x decodes to 8 bits
            text = render_ciphertext(Ciphertext(c.name, 8, c.p // 256 + 2,
                                                len(blocks), tuple(blocks)))
            ct = parse_ciphertext(text)
            assert ct.blocks[0].c1 == IDENTITY and ct.blocks[1].c2 == IDENTITY
            params = EncodingParams(kappa=ct.kappa, block_bits=8)
            expected = bytes(decode_block(params, decrypt_block(c, block, secret))
                             for block in ct.blocks)
            assert decrypt(ct, secret) == expected

    def test_wrong_key_returns_garbage_not_error(self, c256):
        kp, msg, ct = self._sample(c256)
        other = keygen(c256, random.Random(1000))
        assert other.secret != kp.secret
        garbled = None
        try:
            garbled = decrypt(ct, other.secret)
        except EcError:
            pass  # a failed decode is also acceptable
        if garbled is not None:
            assert garbled != msg

    def test_tampered_component_never_crashes(self, tiny):
        # replace c2 with every other curve point; expect wrong plaintext or
        # a package error, never an unhandled crash
        kp = KeyPair(tiny, 3)
        params = EncodingParams(kappa=2, block_bits=3)
        from ecelgamal.codec import encode_block
        from ecelgamal.pipeline import run_encrypt_pipeline
        points = [encode_block(tiny, params, 4)]
        blocks, _ = run_encrypt_pipeline(tiny, points, kp.public, [2])
        original = blocks[0]
        for substitute in enumerate_points(tiny):
            ct = Ciphertext("tiny23", 8, 2, 1,
                            (CiphertextBlock(original.c1, substitute),))
            try:
                decrypt(ct, kp.secret)
            except EcError:
                pass
