"""The kernel's field arithmetic, variable-base and fixed-base multiplies,
affine finish and x-window search against pure Python.

The field multiply and inverse must agree with Python ints for every odd
prime the kernel takes.  Every multiply leaves its results Jacobian, and
eck_affine alone adds any addend and makes them affine.  eck_mul (through
decrypt, scalar_mul and short encryption calls), the cached k*G table, the
encryption pipeline's per-call table for k*P_B, eck_affine and the search
must give exactly the points the pure-Python path gives: k*P is unique,
and so is the smallest-x embedding of a block.
"""

import ctypes
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecelgamal import _native, codec
from ecelgamal import curve as curve_mod
from ecelgamal.codec import EncodingParams, decode_block, encode_block
from ecelgamal.curve import IDENTITY, CurveParams, Point, enumerate_points, scalar_mul
from ecelgamal.elgamal import Ciphertext, decrypt, decrypt_block
from ecelgamal.errors import BadOrder, EncodingFailure, IdentityPointError, WorkerFailure
from ecelgamal.field import is_probable_prime
from ecelgamal.pipeline import CiphertextBlock, ExecMode, run_encrypt_pipeline

from .conftest import SECP256R1

pytestmark = pytest.mark.skipif(
    curve_mod.active_backend() != "native", reason="no native kernel to compare against"
)

FIVE_CURVES = ("tiny", "c192", "c256", "c256r", "c521")


@pytest.fixture(params=FIVE_CURVES)
def curve(request):
    return request.getfixturevalue(request.param)


def pure(fn, *args):
    """fn(*args) with the pure-Python backend pinned."""
    previous = curve_mod.set_backend("python")
    try:
        return fn(*args)
    finally:
        curve_mod.set_backend(previous)


def fixed_base_scalars(c: CurveParams, rng: random.Random) -> list[int]:
    """Edges around n, all-ones and single-digit 4-bit windows, random values."""
    n = c.n
    rows = (n.bit_length() + 3) // 4
    step = max(1, rows // 12)  # a dozen window positions per curve
    windows = sorted(set(range(1, rows + 1, step)) | {rows})
    scalars = [0, 1, n - 1, n, n + 1, 2 * n - 1]
    scalars += [(1 << (4 * m)) - 1 for m in windows if (1 << (4 * m)) - 1 < n]
    scalars += [15 << (4 * i) for i in windows if i < rows] + [15 << (4 * (rows - 1))]
    scalars += [rng.randrange(0, n) for _ in range(8)]
    return scalars


def window_params(c: CurveParams) -> EncodingParams:
    if c.p < 1 << 8:
        return EncodingParams(kappa=2, block_bits=3)
    return EncodingParams(kappa=32, block_bits=32)


def next_prime(n: int) -> int:
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


EDGE_PRIMES = {
    "23": 23,
    "2^64-59": 2**64 - 59,                   # one limb, nearly all ones
    "first above 2^64": next_prime(2**64),   # two limbs, top limb 1
    "secp192k1": 2**192 - 2**32 - 4553,      # top limbs all ones
    "secp256k1": 2**256 - 2**32 - 977,
    "P-256": SECP256R1["p"],                 # p[0] = 2^64 - 1, so -p^-1 = 1 mod 2^64
    "2^521-1": 2**521 - 1,                   # nine limbs
}


@pytest.fixture(scope="module")
def field_check():
    """(x*y mod p, x^(p-2) mod p) from the kernel's eck_field_check."""
    fn = ctypes.CDLL(str(_native.load_kernel().path)).eck_field_check
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.POINTER(ctypes.c_uint64), ctypes.c_int] + [
        ctypes.POINTER(ctypes.c_uint64)] * 4
    limbs = _native.Kernel._limbs

    def run(p: int, x: int, y: int) -> tuple[int, int]:
        nl = (p.bit_length() + 63) // 64
        xy, xinv = (ctypes.c_uint64 * nl)(), (ctypes.c_uint64 * nl)()
        assert fn(limbs(p, nl), nl, limbs(x, nl), limbs(y, nl), xy, xinv) == 0
        return int.from_bytes(bytes(xy), "little"), int.from_bytes(bytes(xinv), "little")

    return run


def check_field(field_check, p: int, x: int, y: int) -> None:
    xy, xinv = field_check(p, x, y)
    assert xy == x * y % p, (p, x, y)
    assert xinv == pow(x, p - 2, p), (p, x)  # the inverse, and 0 for x = 0


class TestFieldArithmetic:
    @pytest.mark.parametrize("p", EDGE_PRIMES.values(), ids=EDGE_PRIMES.keys())
    def test_edge_primes(self, field_check, p):
        assert is_probable_prime(p)
        rng = random.Random(p)
        operands = [0, 1, 2, p - 2, p - 1] + [rng.randrange(p) for _ in range(6)]
        for x in operands:
            for y in operands:
                check_field(field_check, p, x, y)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_primes(self, field_check, data):
        bits = data.draw(st.integers(min_value=5, max_value=521), label="bits")
        p = next_prime(data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)))
        operand = st.one_of(st.sampled_from([0, 1, p - 2, p - 1]), st.integers(0, p - 1))
        check_field(field_check, p, data.draw(operand), data.draw(operand))


def any_block_ciphertext(c: CurveParams, blocks) -> Ciphertext:
    """A ciphertext whose header decodes every affine point: 8-bit blocks,
    kappa above p / 256, so x // kappa always fits."""
    return Ciphertext(c.name, 8, max(2, c.p // 256 + 1), len(blocks), tuple(blocks))


def random_blocks(c: CurveParams, secret: int, count: int, rng: random.Random):
    """count blocks of random members, none recovering to the identity; from
    two blocks on one has c1 = O, and from three blocks on one has c2 = O."""
    blocks = []
    while len(blocks) < count:
        c1 = scalar_mul(c, rng.randrange(1, c.n), c.g)
        c2 = scalar_mul(c, rng.randrange(1, c.n), c.g)
        if len(blocks) == 1:
            c1 = IDENTITY
        elif len(blocks) == count - 1 and count > 2:
            c2 = IDENTITY
        # on tiny23 about one block in 28 recovers to O, which decrypt rejects;
        # on the large curves that has no measurable chance
        block = CiphertextBlock(c1, c2)
        if c.n > 1 << 16 or pure(decrypt_block, c, block, secret) != IDENTITY:
            blocks.append(block)
    return blocks


class TestMulAdd:
    """curve._mul_add: k*P_i + Q_i for a batch of bases, one eck_mul and one
    eck_affine call per chunk of 64 bases."""

    @pytest.mark.parametrize("count", [1, 2, 16, 40, 130])
    def test_decrypt_agrees_with_python(self, curve, count):
        # 130 blocks span three of _mul_add's 64-base chunks
        if curve.name == "test-p521" and count == 130:
            count = 70
        rng = random.Random(f"mul-add:{curve.name}:{count}")
        secret = rng.randrange(1, curve.n)
        ct = any_block_ciphertext(curve, random_blocks(curve, secret, count, rng))
        expected = [pure(decrypt_block, curve, b, secret) for b in ct.blocks]
        assert [decrypt_block(curve, b, secret) for b in ct.blocks] == expected
        params = EncodingParams(kappa=ct.kappa, block_bits=ct.block_bits)
        assert decrypt(ct, secret, curve) == bytes(decode_block(params, pt) for pt in expected)

    def test_identity_components(self, curve):
        rng = random.Random(f"identity:{curve.name}")
        secret = rng.randrange(1, curve.n)
        c1 = scalar_mul(curve, rng.randrange(1, curve.n), curve.g)
        c2 = scalar_mul(curve, rng.randrange(1, curve.n), curve.g)
        shared = scalar_mul(curve, secret, c1)
        cases = [
            (CiphertextBlock(IDENTITY, c2), c2),
            (CiphertextBlock(c1, IDENTITY), curve_mod._neg(curve, shared)),
            (CiphertextBlock(IDENTITY, IDENTITY), IDENTITY),
            (CiphertextBlock(c1, shared), IDENTITY),  # c2 = s*c1
        ]
        for block, expected in cases:
            assert decrypt_block(curve, block, secret) == expected
            assert pure(decrypt_block, curve, block, secret) == expected
        for run in (lambda f, *a: f(*a), pure):
            ct = any_block_ciphertext(curve, [cases[0][0], cases[3][0]])
            with pytest.raises(IdentityPointError):
                run(decrypt, ct, secret, curve)

    def test_small_order_bases(self, tiny):
        # tiny23 has points of order 2, 4, 7, 14 and 28; (23, 1, 1, 2G, 14)
        # makes G a base of order 28 outside its generator's group of order 14
        half = CurveParams(23, 1, 1, *scalar_mul(tiny, 2, tiny.g).coords(), 14)
        for c in (tiny, half):
            members = enumerate_points(c)
            for P in members:
                for k in range(3 * c.n):
                    assert scalar_mul(c, k, P) == pure(scalar_mul, c, k, P), (c.n, P, k)
            rng = random.Random(c.n)
            for secret in (1, 2, c.n - 1):
                blocks = [CiphertextBlock(rng.choice(members), rng.choice(members))
                          for _ in range(40)]
                assert [decrypt_block(c, b, secret) for b in blocks] == [
                    pure(decrypt_block, c, b, secret) for b in blocks]

    def test_order_and_wider_scalars(self, curve):
        base = scalar_mul(curve, 7, curve.g)
        n = curve.n
        assert scalar_mul(curve, n, base) == IDENTITY
        # CurveParams' own n*G check takes this path with k = n
        assert curve_mod._mul_add(curve, n, [curve.g])[0] == IDENTITY
        with pytest.raises(BadOrder):
            CurveParams(curve.p, curve.a.value, curve.b.value, *curve.g.coords(), n + 1)
        for k in (n + 1, 2 * n - 1, 16 * n + 3, (n << 70) + 5, (1 << (n.bit_length() + 9)) - 1):
            assert scalar_mul(curve, k, base) == pure(scalar_mul, curve, k, base), k

    def test_invalid_arguments(self, tiny):
        kernel = _native.load_kernel()
        ctx = kernel.field_context(tiny.p, tiny.a.value, tiny.b.value)
        for points in ([], [tiny.g.coords()] * (_native.BATCH + 1)):  # count 0, 65
            with pytest.raises(RuntimeError, match=r"multiplication \(rc=-1\)"):
                kernel.mul(ctx, 3, 5, points)
        nl, p_arr, a_arr, b_arr = ctx
        wide = (10, (ctypes.c_uint64 * 10)(*p_arr, *[0] * 9), a_arr, b_arr)
        with pytest.raises(RuntimeError, match=r"multiplication \(rc=-1\)"):
            kernel.mul(wide, 3, 5, [tiny.g.coords()])  # nl > 9
        with pytest.raises(ValueError, match="too wide"):
            kernel.mul(ctx, 1 << (64 * 64), 5, [tiny.g.coords()])


class TestFixedBase:
    def test_agrees_with_python(self, curve):
        rng = random.Random(f"fixed-base:{curve.name}")
        for k in fixed_base_scalars(curve, rng):
            assert scalar_mul(curve, k, curve.g) == pure(scalar_mul, curve, k, curve.g), k

    def test_every_scalar_of_tiny_groups(self, tiny):
        # tiny23's table holds identity entries (7 * 16 * G = O), and n = 56
        # is a multiple of the order rather than the order itself
        doubled = CurveParams(23, 1, 1, 3, 10, 56)
        for c in (tiny, doubled):
            for k in range(3 * c.n):
                assert scalar_mul(c, k, c.g) == pure(scalar_mul, c, k, c.g), (c.n, k)

    def test_first_use_from_two_threads(self, c256):
        fresh = CurveParams(c256.p, c256.a.value, c256.b.value, *c256.g.coords(), c256.n)
        scalars = [random.Random(7).randrange(1, fresh.n) for _ in range(6)]
        barrier = threading.Barrier(2)
        results: dict[int, list[Point]] = {}

        def worker(slot: int):
            barrier.wait()
            results[slot] = [scalar_mul(fresh, k, fresh.g) for k in scalars]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = [pure(scalar_mul, c256, k, c256.g) for k in scalars]
        assert results[0] == results[1] == expected

    def test_wrong_order_still_rejected(self, tiny, c256):
        # the n*G check must not reduce n mod n on the table path
        for c in (tiny, c256):
            for n in (c.n - 1, c.n + 1, c.n + 2):
                with pytest.raises(BadOrder):
                    CurveParams(c.p, c.a.value, c.b.value, *c.g.coords(), n)

    def test_affine_count_one_and_bounds(self, curve):
        kernel, ctx = curve_mod._native_context(curve)
        table = curve_mod._g_table(curve, kernel, ctx)
        rng = random.Random(f"affine:{curve.name}")
        k = rng.randrange(1, curve.n)
        kg = pure(scalar_mul, curve, k, curve.g)
        q = pure(scalar_mul, curve, rng.randrange(1, curve.n), curve.g)
        jac = kernel.base_mul(ctx, table, k)
        assert kernel.affine(ctx, [jac]) == [kg.coords()]
        sum_kq = curve_mod._add(curve, kg, q)
        assert kernel.affine(ctx, [jac], [q.coords()]) == [sum_kq.coords()]
        assert kernel.affine(ctx, [kernel.base_mul(ctx, table, 0)], [None]) == [None]
        for jacs in ([], [jac] * 65):  # count 0, and one above the cap
            with pytest.raises(RuntimeError, match=r"affine conversion \(rc=-1\)"):
                kernel.affine(ctx, jacs)
        with pytest.raises(ValueError, match="1 addends for 2 points"):
            kernel.affine(ctx, [jac] * 2, [None])


class TestWindowSearch:
    def test_agrees_with_python(self, curve):
        params = window_params(curve)
        rng = random.Random(f"window:{curve.name}")
        blocks = range(1 << params.block_bits) if params.block_bits <= 3 else [
            rng.randrange(1 << params.block_bits) for _ in range(24)]
        for m in blocks:
            try:
                expected = pure(encode_block, curve, params, m)
            except EncodingFailure:
                with pytest.raises(EncodingFailure):
                    encode_block(curve, params, m)
                continue
            assert encode_block(curve, params, m) == expected, m

    def test_zero_ordinate(self, tiny):
        # block 2 at kappa 2 probes x = 4 first: 4^3 + 4 + 1 = 69 = 0 (mod 23)
        params = EncodingParams(kappa=2, block_bits=3)
        assert encode_block(tiny, params, 2) == Point(4, 0)
        assert pure(encode_block, tiny, params, 2) == Point(4, 0)

    def test_window_without_residue(self, tiny):
        # block 7 probes x in {14, 15}, neither giving a square (test_codec)
        params = EncodingParams(kappa=2, block_bits=3)
        for run in (lambda f, *a: f(*a), pure):
            with pytest.raises(EncodingFailure, match=r"\[14, 16\)"):
                run(encode_block, tiny, params, 7)

    def test_p_1_mod_4_takes_sqrt_mod(self, toy1009, c256, monkeypatch):
        calls = []

        def counting_sqrt(a, p):
            calls.append(p)
            return codec_sqrt(a, p)

        codec_sqrt = codec.sqrt_mod
        monkeypatch.setattr(codec, "sqrt_mod", counting_sqrt)
        params = EncodingParams(kappa=2, block_bits=8)
        assert toy1009.p % 4 == 1
        for m in range(0, 256, 17):
            try:
                encode_block(toy1009, params, m)
            except EncodingFailure:
                pass
        assert calls and set(calls) == {toy1009.p}
        calls.clear()
        wide = EncodingParams(kappa=32, block_bits=8)
        encode_block(c256, wide, 5)
        assert calls == []
        pure(encode_block, c256, wide, 5)
        assert calls and set(calls) == {c256.p}

    def test_window_wider_than_a_word(self, c521):
        # 2^64 candidates do not fit the kernel's count; they must not wrap to 0
        params = EncodingParams(kappa=1 << 64, block_bits=8)
        for m in (0, 1, 255):
            assert encode_block(c521, params, m) == pure(encode_block, c521, params, m)

    def test_kernel_refuses_p_1_mod_4(self, toy1009):
        kernel = _native.load_kernel()
        ctx = kernel.field_context(toy1009.p, toy1009.a.value, toy1009.b.value)
        with pytest.raises(RuntimeError, match="encode search"):
            kernel.encode_search(ctx, 0, 2)


class TestPerCallTable:
    """run_encrypt_pipeline's fixed-base table for k*P_B against pure Python."""

    @staticmethod
    def inputs(c: CurveParams, count: int):
        rng = random.Random(f"per-call:{c.name}:{count}")
        public = scalar_mul(c, rng.randrange(1, c.n), c.g)
        points = [scalar_mul(c, rng.randrange(1, c.n), c.g) for _ in range(count)]
        return points, public, [rng.randrange(1, c.n) for _ in range(count)]

    @staticmethod
    def count_tables(c: CurveParams, monkeypatch) -> list:
        """Record every table the kernel builds from here on, G's excluded."""
        scalar_mul(c, 1, c.g)  # G's table, cached on the curve
        built = []
        real = _native.Kernel.base_table

        def counting(self, ctx, base, n):
            built.append(base)
            return real(self, ctx, base, n)

        monkeypatch.setattr(_native.Kernel, "base_table", counting)
        return built

    def test_agrees_with_python(self, curve, monkeypatch):
        points, public, ks = self.inputs(curve, 40)
        expected, _ = pure(run_encrypt_pipeline, curve, points, public, ks)
        built = self.count_tables(curve, monkeypatch)
        for count in (15, 16, 40):
            for mode in ExecMode:
                built.clear()
                blocks, _ = run_encrypt_pipeline(curve, points[:count], public,
                                                 ks[:count], mode)
                assert blocks == expected[:count], (count, mode)
                assert built == ([public.coords()] if count >= 16 else []), (count, mode)

    def test_identity_public_builds_no_table(self, tiny, monkeypatch):
        points, _, ks = self.inputs(tiny, 20)
        expected, _ = pure(run_encrypt_pipeline, tiny, points, IDENTITY, ks)
        built = self.count_tables(tiny, monkeypatch)
        for mode in ExecMode:
            assert run_encrypt_pipeline(tiny, points, IDENTITY, ks, mode)[0] == expected
        assert built == []

    def test_public_outside_the_generator_subgroup(self, tiny, monkeypatch):
        # G' = 2G has order 14 on the 28-point tiny23; its G is a member of
        # order 28, outside <G'>, so no k*P_B may be reduced mod n = 14
        c = CurveParams(23, 1, 1, *scalar_mul(tiny, 2, tiny.g).coords(), 14)
        rng = random.Random(14)
        members = enumerate_points(tiny)
        points = [rng.choice(members) for _ in range(20)]
        ks = [rng.randrange(1, c.n) for _ in range(20)]
        expected, _ = pure(run_encrypt_pipeline, c, points, tiny.g, ks)
        built = self.count_tables(c, monkeypatch)
        for mode in ExecMode:
            assert run_encrypt_pipeline(c, points, tiny.g, ks, mode)[0] == expected
        assert built == [tiny.g.coords()] * 2

    def test_table_failure_in_dual_mode(self, tiny, monkeypatch):
        points, public, ks = self.inputs(tiny, 20)
        scalar_mul(tiny, 1, tiny.g)  # G's table, cached on the curve
        real = _native.Kernel.base_mul
        calls = {"n": 0}

        def flaky(self, ctx, table, k):
            # worker 2 reads the table of P_B; fail it on the third block
            if table is not tiny._base_table:
                calls["n"] += 1
                if calls["n"] == 3:
                    raise RuntimeError("injected fault")
            return real(self, ctx, table, k)

        monkeypatch.setattr(_native.Kernel, "base_mul", flaky)
        with pytest.raises(WorkerFailure) as excinfo:
            run_encrypt_pipeline(tiny, points, public, ks, ExecMode.DUAL)
        assert excinfo.value.worker == 2
        assert "injected fault" in str(excinfo.value)

    @pytest.mark.parametrize("mode", list(ExecMode), ids=lambda m: m.value)
    def test_add_stage_edge_cases(self, curve, mode):
        # P_M = k*P_B takes jp_add_affine's doubling branch, P_M = -k*P_B
        # gives c2 = O, and P_M = O adds nothing; 4 blocks take mul for
        # k*P_B, 24 a per-call table
        for count in (4, 24):
            points, public, ks = self.inputs(curve, count)
            for i, k in enumerate(ks[:18]):
                kpb = pure(scalar_mul, curve, k, public)
                points[i] = (kpb, curve_mod._neg(curve, kpb), IDENTITY)[i % 3]
            expected, _ = pure(run_encrypt_pipeline, curve, points, public, ks, mode)
            c2s = [b.c2 for b in expected[1:18:3]]
            assert c2s and all(c2 == IDENTITY for c2 in c2s)
            assert run_encrypt_pipeline(curve, points, public, ks, mode)[0] == expected, count

    @pytest.mark.parametrize("mode", list(ExecMode), ids=lambda m: m.value)
    def test_public_of_small_order(self, tiny, mode):
        # on (23, 1, 1, 2G, 14), P_B = O, or P_B of order 2 or 7, gives
        # k*P_B = O for every k, every even k, or k = 7
        c = CurveParams(23, 1, 1, *scalar_mul(tiny, 2, tiny.g).coords(), 14)
        members = enumerate_points(tiny)
        for count in (4, 24):
            ks = [1 + (i + 5) % (c.n - 1) for i in range(count)]  # 6, 7, 8, ...
            for public in (IDENTITY, Point(4, 0), scalar_mul(tiny, 4, tiny.g)):
                rng = random.Random(f"small-order:{public}:{count}")
                points = [rng.choice(members) for _ in ks]
                expected, _ = pure(run_encrypt_pipeline, c, points, public, ks, mode)
                assert any(b.c2 == pm for b, pm in zip(expected, points))
                assert run_encrypt_pipeline(c, points, public, ks, mode)[0] == expected, count
