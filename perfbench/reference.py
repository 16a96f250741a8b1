"""Textbook elliptic-curve arithmetic on Python ints, for checking outputs.

This module shares no code with ``ecelgamal``.  Points are affine ``(x, y)``
tuples with ``None`` as the identity; the group law is the chord-tangent
construction, and scalar multiplication walks the scalar's bits from the
least significant end (the program walks them from the most significant
end).  Message encoding takes the first x of the block's window whose
right-hand side passes Euler's criterion, then the smaller square root.
It is slow and meant only for sampled checks.
"""

from __future__ import annotations

from typing import NamedTuple


class Curve(NamedTuple):
    """y^2 = x^3 + a*x + b over F_p, generator (gx, gy) of order n."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def g(self):
        return (self.gx, self.gy)


# Constants as published in SEC 2 (v2.0); tiny23 is the 28-point toy curve.
CURVES = {
    "secp256k1": Curve(
        "secp256k1",
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
        a=0,
        b=7,
        gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
        n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    ),
    "secp256r1": Curve(
        "secp256r1",
        p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
        a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
        b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
        gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
        gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
        n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    ),
    "tiny23": Curve("tiny23", p=23, a=1, b=1, gx=3, gy=10, n=28),
}


def on_curve(C: Curve, P) -> bool:
    if P is None:
        return True
    x, y = P
    return 0 <= x < C.p and 0 <= y < C.p and (y * y - x ** 3 - C.a * x - C.b) % C.p == 0


def neg(C: Curve, P):
    return None if P is None else (P[0], -P[1] % C.p)


def add(C: Curve, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    p = C.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        slope = (3 * x1 * x1 + C.a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def mul(C: Curve, k: int, P):
    result, addend = None, P
    while k:
        if k & 1:
            result = add(C, result, addend)
        addend = add(C, addend, addend)
        k >>= 1
    return result


def sqrt(C: Curve, v: int) -> int:
    """Smaller square root of a residue v."""
    p = C.p
    if p % 4 == 3:
        r = pow(v, (p + 1) // 4, p)
    else:
        r = next(r for r in range(p) if r * r % p == v)
    if r * r % p != v:
        raise ValueError(f"{v} is not a square mod {p}")
    return min(r, p - r)


def encode(C: Curve, m: int, kappa: int):
    """First x in [m*kappa, (m+1)*kappa) with a square right-hand side."""
    p = C.p
    for x in range(m * kappa, (m + 1) * kappa):
        v = (x ** 3 + C.a * x + C.b) % p
        if v == 0 or pow(v, (p - 1) // 2, p) == 1:
            return (x, sqrt(C, v))
    raise ValueError(f"no point in the window of block {m}")


def encrypt_block(C: Curve, p_m, p_b, k: int):
    """(k*G, P_M + k*P_B)."""
    return mul(C, k, C.g), add(C, p_m, mul(C, k, p_b))
