"""The textbook reference against published vectors and brute force."""

import itertools

import pytest

import checks
import ecelgamal
import reference as ref
from conftest import BENCH
from ecelgamal.errors import BadOrder, EncodingFailure, GeneratorOffCurve

K1 = ref.CURVES["secp256k1"]
R1 = ref.CURVES["secp256r1"]
TINY = ref.CURVES["tiny23"]

# published multiples of the generator
VECTORS = [
    (K1, 2, 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
     0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A),
    (K1, 3, 0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
     0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672),
    (R1, 2, 0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
     0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1),
]


@pytest.mark.parametrize("C,k,x,y", VECTORS)
def test_known_multiples(C, k, x, y):
    assert ref.mul(C, k, C.g) == (x, y)


@pytest.mark.parametrize("C", [K1, R1, TINY], ids=lambda C: C.name)
def test_generator_order(C):
    assert ref.on_curve(C, C.g)
    assert ref.mul(C, C.n, C.g) is None
    assert ref.mul(C, C.n - 1, C.g) == ref.neg(C, C.g)


def tiny_points():
    pts = [None] + [(x, y) for x in range(TINY.p) for y in range(TINY.p)
                    if ref.on_curve(TINY, (x, y))]
    assert len(pts) == TINY.n
    return pts


def test_tiny23_group_law_exhaustive():
    pts = tiny_points()
    assert sorted(pts, key=str) == sorted((ref.mul(TINY, k, TINY.g) for k in range(TINY.n)), key=str)
    for P, Q in itertools.product(pts, repeat=2):
        assert ref.add(TINY, P, Q) == ref.add(TINY, Q, P)
        assert ref.on_curve(TINY, ref.add(TINY, P, Q))
    for P in pts:
        assert ref.add(TINY, P, ref.neg(TINY, P)) is None
        assert ref.add(TINY, P, None) == P
    for P, Q, R in itertools.product(pts, repeat=3):
        assert ref.add(TINY, ref.add(TINY, P, Q), R) == ref.add(TINY, P, ref.add(TINY, Q, R))


def test_tiny23_agrees_with_program():
    c = ecelgamal.get_curve("tiny23")
    as_point = {None: ecelgamal.IDENTITY}
    as_point.update({P: c.point(*P) for P in tiny_points() if P})
    for P, Q in itertools.product(as_point, repeat=2):
        assert ecelgamal.point_add(c, as_point[P], as_point[Q]) == as_point[ref.add(TINY, P, Q)]
    for k in range(2 * TINY.n):
        assert ecelgamal.scalar_mul(c, k, c.g) == as_point[ref.mul(TINY, k, TINY.g)]


def test_tiny23_encoding_agrees_with_program():
    c = ecelgamal.get_curve("tiny23")
    params = ecelgamal.EncodingParams(kappa=2, block_bits=3)
    outcomes = set()
    for m in range(8):
        try:
            expected = ref.encode(TINY, m, 2)
        except ValueError:
            with pytest.raises(EncodingFailure):
                ecelgamal.encode_block(c, params, m)
            outcomes.add("no point")
            continue
        assert ecelgamal.encode_block(c, params, m).coords() == expected
        outcomes.add("point")
    assert outcomes == {"point", "no point"}


def curve_text(**overrides):
    text = (BENCH / "secp256r1.txt").read_text()
    for key, value in overrides.items():
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in text.splitlines())
    return text


def test_curve_file_matches_sec2(tmp_path):
    fields = dict(line.split(" = ") for line in curve_text().splitlines())
    assert fields["name"] == "secp256r1"
    assert [int(fields[k], 16) for k in ("p", "a", "b", "Gx", "Gy", "n")] == \
        [R1.p, R1.a, R1.b, R1.gx, R1.gy, R1.n]
    assert R1.a == R1.p - 3
    path = tmp_path / "r1.txt"
    path.write_text(curve_text())
    c = ecelgamal.load_curve_file(path)[0]
    checks.check_curve(R1, (c.p, c.a.value, c.b.value, c.g.coords(), c.n))


def test_mistyped_curve_file_is_rejected(tmp_path):
    path = tmp_path / "r1.txt"
    path.write_text(curve_text(name="r1-bad-gy", Gy=f"{R1.gy ^ 4:x}"))
    with pytest.raises(GeneratorOffCurve):
        ecelgamal.load_curve_file(path)
    path.write_text(curve_text(name="r1-bad-n", n=f"{R1.n + 2:x}"))
    with pytest.raises(BadOrder):
        ecelgamal.load_curve_file(path)


def test_reference_rejects_wrong_order():
    wrong = R1._replace(n=R1.n + 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_curve(wrong, (R1.p, R1.a, R1.b, R1.g, wrong.n))
