"""Reversible embedding of message blocks into curve points.

A block m is mapped to the first x in the window [m*kappa, (m+1)*kappa)
for which x^3 + ax + b is a quadratic residue; the point's y is the smaller
of the two roots so the embedding is deterministic.  Decoding is integer
division of x by kappa and ignores y entirely.

With the compiled kernel active and p = 3 (mod 4), as on every shipped
curve, one kernel call searches the whole window by r = rhs^((p+1)/4);
otherwise each candidate goes through :func:`field.sqrt_mod`.  Both find
the same point.

Each candidate x misses with probability about 1/2, so a window of kappa
candidates fails with probability about 2^-kappa; failures are reported,
never papered over, because callers rely on the embedding being a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import CurveParams, Point, _native_context
from .errors import (
    DecodeRangeError,
    EncodingFailure,
    IdentityPointError,
    ParamsTooLarge,
)
from .field import sqrt_mod

BLOCK_BITS_CHOICES = (8, 16, 32)


@dataclass(frozen=True)
class EncodingParams:
    """kappa: candidates per block; block_bits: plaintext bits per block."""

    kappa: int = 32
    block_bits: int = 8

    def __post_init__(self):
        if self.kappa < 2:
            raise ValueError(f"kappa must be at least 2, got {self.kappa}")
        if self.block_bits < 1:
            raise ValueError(f"block_bits must be positive, got {self.block_bits}")

    def check_fits(self, c: CurveParams) -> None:
        """Every block's window must sit below the modulus."""
        if (1 << self.block_bits) * self.kappa > c.p:
            raise ParamsTooLarge(
                f"2^{self.block_bits} * {self.kappa} exceeds p = {c.p}"
            )


def encode_block(c: CurveParams, params: EncodingParams, m: int) -> Point:
    params.check_fits(c)
    if not 0 <= m < (1 << params.block_bits):
        raise ValueError(f"block value {m} outside [0, 2^{params.block_bits})")

    a, b, p = c.a.value, c.b.value, c.p
    base = m * params.kappa
    # the kernel's candidate count is one 64-bit word
    native = _native_context(c) if p % 4 == 3 and params.kappa < 1 << 64 else None
    if native is not None:
        kernel, ctx = native
        xy = kernel.encode_search(ctx, base, params.kappa)
        if xy is not None:
            return c.point(*xy)
    else:
        for x in range(base, base + params.kappa):
            root = sqrt_mod((x * x * x + a * x + b) % p, p)
            if root is not None:
                return c.point(x, root)
    raise EncodingFailure(
        f"no curve point in window [{base}, {base + params.kappa}) for block {m}"
    )


def decode_block(params: EncodingParams, pt: Point) -> int:
    if pt.is_identity:
        raise IdentityPointError("identity carries no message block")
    m = pt.x // params.kappa
    if m >= (1 << params.block_bits):
        raise DecodeRangeError(
            f"decoded value {m} does not fit in {params.block_bits} bits"
        )
    return m


def split_message(data: bytes, block_bits: int) -> list[int]:
    """Big-endian packing into block-sized integers; the tail is zero-padded."""
    if block_bits not in BLOCK_BITS_CHOICES:
        raise ValueError(f"block_bits must be one of {BLOCK_BITS_CHOICES}")
    step = block_bits // 8
    return [
        int.from_bytes(data[i:i + step].ljust(step, b"\x00"), "big")
        for i in range(0, len(data), step)
    ]


def join_message(blocks, block_bits: int, original_length: int) -> bytes:
    if block_bits not in BLOCK_BITS_CHOICES:
        raise ValueError(f"block_bits must be one of {BLOCK_BITS_CHOICES}")
    step = block_bits // 8
    raw = b"".join(m.to_bytes(step, "big") for m in blocks)
    if original_length > len(raw):
        raise ValueError(
            f"original_length {original_length} exceeds decoded payload {len(raw)}"
        )
    return raw[:original_length]
