import pytest

from ecelgamal import curve as curve_mod
from ecelgamal.curve import get_curve


@pytest.fixture(scope="session")
def tiny():
    return get_curve("tiny23")


@pytest.fixture(scope="session")
def c256():
    return get_curve("secp256k1")


@pytest.fixture(scope="session")
def c192():
    return get_curve("secp192k1")


@pytest.fixture(scope="session")
def toy1009():
    """Toy curve big enough for 8-bit blocks at kappa=2.

    Generator and order were found by brute force: (1, 149) generates the
    whole group of 1034 points.
    """
    return curve_mod.CurveParams(1009, 1, 1, 1, 149, 1034, name="toy1009")


# standard curves with a = -3, for the kernel's nonzero-a formulas; their
# primes fill nine limbs (2^521 - 1) and have a low limb of all ones (P-256)
SECP521R1 = dict(
    p=2**521 - 1,
    a=-3,
    b=0x0051953EB9618E1C9A1F929A21A0B68540EEA2DA725B99B315F3B8B489918EF109E156193951EC7E937B1652C0BD3BB1BF073573DF883D2C34F1EF451FD46B503F00,
    gx=0x00C6858E06B70404E9CD9E3ECB662395B4429C648139053FB521F828AF606B4D3DBAA14B5E77EFE75928FE1DC127A2FFA8DE3348B3C1856A429BF97E7E31C2E5BD66,
    gy=0x011839296A789A3BC0045C8A5FB42C7D1BD998F54449579B446817AFBD17273E662C97EE72995EF42640C550B9013FAD0761353C7086A272C24088BE94769FD16650,
    n=0x01FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFA51868783BF2F966B7FCC0148F709A5D03BB5C9B8899C47AEBB6FB71E91386409,
)

SECP256R1 = dict(
    p=2**256 - 2**224 + 2**192 + 2**96 - 1,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)


@pytest.fixture(scope="session")
def c521():
    s = SECP521R1
    return curve_mod.CurveParams(s["p"], s["a"], s["b"], s["gx"], s["gy"], s["n"],
                                 name="test-p521")


@pytest.fixture(scope="session")
def c256r():
    s = SECP256R1
    return curve_mod.CurveParams(s["p"], s["a"], s["b"], s["gx"], s["gy"], s["n"],
                                 name="test-p256r")


@pytest.fixture
def python_backend():
    """Force the pure-Python scalar-multiplication path for one test."""
    previous = curve_mod.set_backend("python")
    try:
        yield
    finally:
        curve_mod.set_backend(previous)


@pytest.fixture(autouse=True)
def _backend_isolation():
    """No test may leak a backend override into the rest of the session."""
    yield
    curve_mod.set_backend("auto")
