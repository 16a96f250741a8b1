"""EC-ElGamal: key generation, encryption, decryption, and the text formats.

Encryption of a message point P_M under public key P_B with nonce k is the
pair (k*G, P_M + k*P_B); the holder of the secret n_B recovers P_M by
subtracting n_B times the first component from the second.  Byte-string
messages are chunked, embedded into points, and processed block by block
through the execution pipeline in either mode.  Decryption forms
c2 + n_B * (-c1) for every block of a ciphertext through curve._mul_add,
which the kernel serves in chunks of 64 blocks: one multiply that leaves
them Jacobian, and one call that adds c2 and makes them affine.

The scheme is unauthenticated by design: decrypting with a wrong key gives
garbage, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .codec import (
    BLOCK_BITS_CHOICES,
    EncodingParams,
    decode_block,
    encode_block,
    join_message,
    split_message,
)
from .curve import (
    IDENTITY,
    CurveParams,
    Point,
    _mul_add,
    _neg,
    _require_member,
    get_curve,
    scalar_mul,
)
from .errors import EncodingFailure, FormatError, KeyConsistencyError
from .field import from_hex, parse_fields, to_hex
from .pipeline import CiphertextBlock, ExecMode, run_encrypt_pipeline


@dataclass(frozen=True)
class KeyPair:
    curve: CurveParams
    secret: int
    public: Point | None = None  # derived from the secret when omitted

    def __post_init__(self):
        if not 1 <= self.secret <= self.curve.n - 1:
            raise ValueError(
                f"secret must lie in [1, {self.curve.n - 1}], got {self.secret}"
            )
        expected = scalar_mul(self.curve, self.secret, self.curve.g)
        if self.public is None:
            object.__setattr__(self, "public", expected)
        elif self.public != expected:
            raise KeyConsistencyError("public point is not secret * G")


def keygen(c: CurveParams, rng) -> KeyPair:
    """Fresh key pair; rng needs a randrange method (random.Random works)."""
    secret = rng.randrange(1, c.n)
    return KeyPair(c, secret)


def random_nonces(c: CurveParams, rng) -> Iterator[int]:
    """Endless per-block nonces drawn uniformly from [1, n-1]."""
    while True:
        yield rng.randrange(1, c.n)


def encrypt_block(c: CurveParams, p_m: Point, p_b: Point, k: int) -> CiphertextBlock:
    """One block of the core scheme: (k*G, P_M + k*P_B)."""
    return run_encrypt_pipeline(c, [p_m], p_b, [k])[0][0]


def _recover_points(c: CurveParams, blocks, secret: int) -> list[Point]:
    """c2 - secret * c1 for every block, as secret * (-c1) + c2 by _mul_add."""
    for block in blocks:
        _require_member(c, block.c1, "first component")
        _require_member(c, block.c2, "second component")
    if not 1 <= secret <= c.n - 1:
        raise ValueError(f"secret must lie in [1, {c.n - 1}], got {secret}")
    return _mul_add(c, secret, [_neg(c, block.c1) for block in blocks],
                    [block.c2 for block in blocks])


def decrypt_block(c: CurveParams, block: CiphertextBlock, secret: int) -> Point:
    """Recover P_M as c2 - secret * c1."""
    return _recover_points(c, [block], secret)[0]


@dataclass(frozen=True)
class Ciphertext:
    """Multi-block ciphertext plus the header needed to invert it."""

    curve_name: str | None
    block_bits: int
    kappa: int
    original_length: int
    blocks: tuple[CiphertextBlock, ...]

    def __post_init__(self):
        if self.original_length < 0:
            raise ValueError("original_length cannot be negative")
        if self.original_length > 0 and not self.blocks:
            raise ValueError("non-empty message requires at least one block")


def encrypt(
    c: CurveParams,
    plaintext: bytes,
    public: Point,
    params: EncodingParams,
    nonces: Iterable[int],
    mode: ExecMode = ExecMode.SINGLE,
) -> Ciphertext:
    """split -> embed -> per-block (k*G, P_M + k*P_B) in the chosen mode."""
    params.check_fits(c)
    values = split_message(plaintext, params.block_bits)

    points = []
    for i, m in enumerate(values):
        try:
            points.append(encode_block(c, params, m))
        except EncodingFailure as exc:
            raise EncodingFailure(f"block {i}: {exc}") from exc

    blocks, _trace = run_encrypt_pipeline(c, points, public, nonces, mode)
    return Ciphertext(
        curve_name=c.name,
        block_bits=params.block_bits,
        kappa=params.kappa,
        original_length=len(plaintext),
        blocks=tuple(blocks),
    )


def decrypt(ct: Ciphertext, secret: int, c: CurveParams | None = None) -> bytes:
    """Invert encrypt; the curve is resolved from the header when not given.

    Every block's P_M comes from one multiply-add over the whole
    ciphertext, then each is decoded.
    """
    if c is None:
        c = get_curve(ct.curve_name)
    params = EncodingParams(kappa=ct.kappa, block_bits=ct.block_bits)
    values = [decode_block(params, pt) for pt in _recover_points(c, ct.blocks, secret)]
    return join_message(values, ct.block_bits, ct.original_length)


# -- key file format --
#
#   curve = <name>
#   secret = <hex>
#   pub.x = <hex>
#   pub.y = <hex>
#
# The secret line is omitted in public-only files.

def render_keypair(kp: KeyPair, include_secret: bool = True) -> str:
    x, y = kp.public.coords()
    lines = [f"curve = {kp.curve.name}"]
    if include_secret:
        lines.append(f"secret = {to_hex(kp.secret)}")
    lines += [f"pub.x = {to_hex(x)}", f"pub.y = {to_hex(y)}", ""]
    return "\n".join(lines)


_KEY_FIELDS = ("curve", "secret", "pub.x", "pub.y")


def _parse_key_file(text: str, required: tuple[str, ...]):
    fields = parse_fields(text.splitlines(), 1, _KEY_FIELDS, required)
    c = get_curve(fields["curve"])
    public = c.point(from_hex(fields["pub.x"]), from_hex(fields["pub.y"]))
    return c, public, fields.get("secret")


def parse_public_key(text: str) -> tuple[CurveParams, Point]:
    """Curve and public point from a key file, full or public-only."""
    c, public, secret = _parse_key_file(text, ("curve", "pub.x", "pub.y"))
    if secret is not None:
        # full key file: reject silently corrupted ones here too
        KeyPair(c, from_hex(secret), public)
    return c, public


def parse_keypair(text: str) -> KeyPair:
    """Full key pair; re-derives and checks the public half."""
    c, public, secret = _parse_key_file(text, _KEY_FIELDS)
    return KeyPair(c, from_hex(secret), public)


# -- ciphertext file format --
#
#   curve = <name>
#   block_bits = <dec>
#   kappa = <dec>
#   length = <dec>
#   <c1.x> <c1.y> <c2.x> <c2.y>     (one line per block, hex)
#
# An identity component is the single token "O" in place of its pair.

def _render_pair(pt: Point) -> str:
    if pt.is_identity:
        return "O"
    x, y = pt.coords()
    return f"{to_hex(x)} {to_hex(y)}"


def render_ciphertext(ct: Ciphertext) -> str:
    if ct.curve_name is None:
        raise ValueError("only ciphertexts on named curves can be serialized")
    lines = [
        f"curve = {ct.curve_name}",
        f"block_bits = {ct.block_bits}",
        f"kappa = {ct.kappa}",
        f"length = {ct.original_length}",
    ]
    for block in ct.blocks:
        lines.append(f"{_render_pair(block.c1)} {_render_pair(block.c2)}")
    lines.append("")
    return "\n".join(lines)


def _parse_point_tokens(c: CurveParams, tokens: list[str], lineno: int) -> Point:
    if tokens and tokens[0] == "O":
        tokens.pop(0)
        return IDENTITY
    if len(tokens) < 2:
        raise FormatError(f"line {lineno}: truncated point")
    x, y = from_hex(tokens.pop(0)), from_hex(tokens.pop(0))
    return c.point(x, y)


_HEADER_FIELDS = ("curve", "block_bits", "kappa", "length")


def parse_ciphertext(text: str) -> Ciphertext:
    lines = text.splitlines()
    # the header runs up to the first non-blank line without '='
    body_start = next(
        (i for i, line in enumerate(lines) if line.strip() and "=" not in line),
        len(lines),
    )
    header = parse_fields(lines[:body_start], 1, _HEADER_FIELDS, _HEADER_FIELDS)

    c = get_curve(header["curve"])
    try:
        block_bits, kappa, length = (int(header[key]) for key in _HEADER_FIELDS[1:])
    except ValueError as exc:
        raise FormatError(f"ciphertext header not numeric: {exc}") from None
    if block_bits not in BLOCK_BITS_CHOICES:
        raise FormatError(
            f"block_bits must be one of {BLOCK_BITS_CHOICES}, got {block_bits}"
        )
    if kappa < 2:
        raise FormatError(f"kappa must be at least 2, got {kappa}")
    if length < 0:
        raise FormatError(f"length cannot be negative, got {length}")

    blocks = []
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        c1 = _parse_point_tokens(c, tokens, lineno)
        c2 = _parse_point_tokens(c, tokens, lineno)
        if tokens:
            raise FormatError(f"line {lineno}: trailing tokens {tokens}")
        blocks.append(CiphertextBlock(c1, c2))

    step = block_bits // 8
    expected = (length + step - 1) // step
    if expected != len(blocks):
        raise FormatError(
            f"length {length} implies {expected} blocks, file has {len(blocks)}"
        )

    return Ciphertext(header["curve"], block_bits, kappa, length, tuple(blocks))
