"""Prime-field arithmetic and the shared text-format helpers.

Residues are plain Python integers kept in canonical form [0, p); the
int-level helpers here are what the curve code uses.  :class:`FieldElement`
only records a reduced curve coefficient together with its modulus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import FormatError, InvalidModulus


def powmod(base: int, exp: int, mod: int) -> int:
    return pow(base, exp, mod)


def invmod(a: int, mod: int) -> int:
    """Multiplicative inverse of a mod `mod`."""
    if a % mod == 0:
        raise ZeroDivisionError("inverse of zero residue")
    return pow(a, -1, mod)


MAX_MODULUS_BITS = 521

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@lru_cache(maxsize=None)
def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with `rounds` pseudo-random witnesses.

    Witnesses are drawn from an RNG seeded with n, so repeated checks of
    the same candidate are reproducible.
    """
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False

    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    rng = random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A validated odd prime p with 5 <= p < 2^521."""

    value: int

    def __post_init__(self):
        p = self.value
        if not isinstance(p, int):
            raise InvalidModulus(f"modulus must be an integer, got {type(p).__name__}")
        if p <= 3:
            raise InvalidModulus(f"modulus {p} too small; need p > 3")
        if p.bit_length() > MAX_MODULUS_BITS:
            raise InvalidModulus(f"modulus has {p.bit_length()} bits; limit is {MAX_MODULUS_BITS}")
        if p % 2 == 0:
            raise InvalidModulus(f"modulus {p} is even")
        if not is_probable_prime(p):
            raise InvalidModulus(f"modulus {p} failed primality test")

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"PrimeModulus({self.value})"


@dataclass(frozen=True)
class FieldElement:
    """A residue in canonical form [0, p), kept as a record with its modulus.

    Construction reduces any integer, so negative values and values at or
    above p are accepted and normalized.  Arithmetic is done on plain ints.
    """

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.value)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.modulus.value})"


def is_quadratic_residue(a: int, p: int) -> bool:
    a %= p
    if a == 0:
        return True
    return powmod(a, (p - 1) // 2, p) == 1


def sqrt_mod(a: int, p: int):
    """Smaller square root of a mod p, or None for a non-residue.

    Uses the a^((p+1)/4) shortcut when p = 3 (mod 4) and Tonelli-Shanks
    otherwise.  The non-residue needed by Tonelli-Shanks is found by
    scanning upward from 2, so results are reproducible.
    """
    a %= p
    if a == 0:
        return 0

    if p % 4 == 3:
        # the shortcut also decides residuosity: r^2 != a means no root
        r = powmod(a, (p + 1) // 4, p)
        if (r * r) % p != a:
            return None
        return min(r, p - r)

    if not is_quadratic_residue(a, p):
        return None

    # Tonelli-Shanks for p = 1 (mod 4)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1

    z = 2
    while is_quadratic_residue(z, p):
        z += 1

    c = powmod(z, q, p)
    r = powmod(a, (q + 1) // 2, p)
    t = powmod(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = powmod(c, 1 << (m - i - 1), p)
        r = (r * b) % p
        c = (b * b) % p
        t = (t * c) % p
        m = i
    return min(r, p - r)


# -- hex wire format: lowercase, no prefix, no leading zeros, "0" for zero --

def to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers have no wire form")
    return format(value, "x")


def from_hex(text: str) -> int:
    """The value of a hex field of a key, curve or ciphertext file.

    FormatError when `text` is not a bare hex integer.
    """
    t = text.strip()
    if not t or any(ch not in "0123456789abcdefABCDEF" for ch in t):
        raise FormatError(f"not a hex integer: {text!r}")
    return int(t, 16)


# -- the 'key = value' records of curve, key and ciphertext files --

def parse_fields(lines, first_lineno: int, allowed, required) -> dict[str, str]:
    """'key = value' lines into a dict; blank lines are skipped.

    Raises FormatError on a line without '=', an unknown or duplicated key,
    or a missing required key.  Line numbers in messages start at
    `first_lineno`.
    """
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines, first_lineno):
        stripped = line.strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in allowed:
            raise FormatError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise FormatError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value.strip()
    missing = [key for key in required if key not in fields]
    if missing:
        raise FormatError(f"missing fields: {', '.join(missing)}")
    return fields
