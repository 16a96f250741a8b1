"""The elliptic-curve group over a prime field.

Points are affine pairs of canonical ints in [0, p) with an explicit
identity element; the group law is the chord-tangent construction.

Scalar multiplication dispatches to the compiled kernel when it is
available and to a pure-Python double-and-add loop otherwise.  Every
kernel multiply leaves its results Jacobian, and one more kernel call,
affine, adds any addend and makes them affine through one inversion.  G,
and the public key of an encryption call long enough to repay the build
(:func:`encrypt_stages`), use fixed-base tables of 4-bit windows; every
other base the variable-base mul, which :func:`_mul_add` runs in chunks
of 64 bases, as decryption's c2 - s*c1 does.  All of them produce
identical points, as any correct method must, since k*P is unique.  Use
:func:`set_backend` to pin a backend explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import _native
from .errors import (
    BadOrder,
    CurveTooLarge,
    GeneratorOffCurve,
    MixedCurve,
    OffCurveInput,
    SingularCurve,
    UnknownCurve,
)
from .field import (
    FieldElement,
    PrimeModulus,
    from_hex,
    invmod,
    parse_fields,
    sqrt_mod,
    to_hex,
)

ENUMERATION_BOUND = 1 << 20  # largest p for which brute-force walks are allowed


@dataclass(frozen=True, slots=True)
class Point:
    """Affine curve point as two ints, or the identity when both are None."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("point needs both coordinates or neither")

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def coords(self) -> tuple[int, int]:
        if self.x is None:
            raise ValueError("identity has no coordinates")
        return (self.x, self.y)

    def __repr__(self) -> str:
        if self.is_identity:
            return "Point(identity)"
        return f"Point({self.x}, {self.y})"


IDENTITY = Point(None, None)


class CurveParams:
    """Public parameters (p, a, b, G, n) of a curve with generator order n.

    Construction validates non-singularity, that G lies on the curve, and
    that n annihilates G.  `a` and `b` are reduced FieldElement records.
    """

    def __init__(self, p, a: int, b: int, gx: int, gy: int, n: int,
                 name: str | None = None):
        self.modulus = p if isinstance(p, PrimeModulus) else PrimeModulus(p)
        self.p = self.modulus.value
        self.a = FieldElement(a, self.modulus)
        self.b = FieldElement(b, self.modulus)
        self.n = int(n)
        self.name = name
        self._native_ctx = None
        self._base_table = None  # the kernel's table for k*G, built on first use

        av, bv, pv = self.a.value, self.b.value, self.p
        if (4 * av * av * av + 27 * bv * bv) % pv == 0:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 mod {pv}")

        self.g = Point(gx % pv, gy % pv)
        if not is_on_curve(self, self.g):
            raise GeneratorOffCurve(f"({gx}, {gy}) not on E_{pv}({av}, {bv})")

        if self.n <= 1:
            raise BadOrder(f"generator order must exceed 1, got {n}")
        # not scalar_mul: its table path reduces k mod n, so n*G would be 0*G
        if not _mul_add(self, self.n, [self.g])[0].is_identity:
            raise BadOrder(f"n*G is not the identity for n = {n}")

    def point(self, x: int, y: int) -> Point:
        """Validated affine point; see _require_member for what is rejected."""
        pt = Point(x, y)
        _require_member(self, pt)
        return pt

    def _key(self):
        return (self.p, self.a.value, self.b.value, self.g.coords(), self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveParams) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"CurveParams({label}: p={self.p}, a={self.a.value}, b={self.b.value})"


def _require_member(c: CurveParams, pt: Point, what: str = "point") -> None:
    """The one membership check behind every entry point.

    MixedCurve for a coordinate outside [0, p), as a point of a larger
    curve has; OffCurveInput when the curve equation does not hold.
    """
    if not isinstance(pt, Point):
        raise TypeError(f"{what} must be a Point, got {type(pt).__name__}")
    x, y = pt.x, pt.y
    if x is None:
        return
    p = c.p
    if not (0 <= x < p and 0 <= y < p):
        raise MixedCurve(f"{what} ({x}, {y}) has a coordinate outside [0, {p})")
    if (y * y - (x * x * x + c.a.value * x + c.b.value)) % p:
        raise OffCurveInput(f"{what} ({x}, {y}) not on {c!r}")


def is_on_curve(c: CurveParams, pt: Point) -> bool:
    """True for the identity and for canonical solutions of the curve equation."""
    try:
        _require_member(c, pt)
    except OffCurveInput:  # MixedCurve included
        return False
    return True


def point_neg(c: CurveParams, pt: Point) -> Point:
    _require_member(c, pt)
    return _neg(c, pt)


# -- group law on members, without the membership check --

def _neg(c: CurveParams, P: Point) -> Point:
    if P.x is None:
        return P
    return Point(P.x, -P.y % c.p)


def _add(c: CurveParams, P: Point, Q: Point) -> Point:
    if P.x is None:
        return Q
    if Q.x is None:
        return P
    p = c.p
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return IDENTITY
        return _double(c, P)
    lam = (y2 - y1) * invmod(x2 - x1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return Point(x3, (lam * (x1 - x3) - y1) % p)


def _double(c: CurveParams, P: Point) -> Point:
    p = c.p
    x1, y1 = P.x, P.y
    if x1 is None or y1 == 0:
        return IDENTITY
    lam = (3 * x1 * x1 + c.a.value) * invmod(2 * y1, p) % p
    x3 = (lam * lam - 2 * x1) % p
    return Point(x3, (lam * (x1 - x3) - y1) % p)


def point_add(c: CurveParams, P: Point, Q: Point) -> Point:
    """Chord-tangent sum of two curve members."""
    _require_member(c, P, "left operand")
    _require_member(c, Q, "right operand")
    return _add(c, P, Q)


# -- scalar multiplication with backend dispatch --

_BACKEND = "auto"


def set_backend(name: str) -> str:
    """Select 'native', 'python', or 'auto'; returns the previous setting."""
    global _BACKEND
    if name not in ("auto", "native", "python"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "native" and _native.load_kernel() is None:
        raise RuntimeError("native backend requested but the kernel is unavailable")
    previous = _BACKEND
    _BACKEND = name
    return previous


def active_backend() -> str:
    """The backend scalar_mul would use right now: 'native' or 'python'."""
    if _BACKEND == "python":
        return "python"
    if _BACKEND == "native":
        return "native"
    return "native" if _native.load_kernel() is not None else "python"


def _native_context(c: CurveParams):
    """(kernel, the curve's cached field context), or None on the Python backend."""
    if active_backend() != "native":
        return None
    kernel = _native.load_kernel()
    if c._native_ctx is None:
        c._native_ctx = kernel.field_context(c.p, c.a.value, c.b.value)
    return kernel, c._native_ctx


def _point_or_identity(xy) -> Point:
    return IDENTITY if xy is None else Point(*xy)


def _pair_or_none(P: Point):
    return None if P.x is None else (P.x, P.y)


def _scalar_mul_python(c: CurveParams, k: int, P: Point) -> Point:
    acc = IDENTITY
    for bit in range(k.bit_length() - 1, -1, -1):
        acc = _double(c, acc)
        if (k >> bit) & 1:
            acc = _add(c, acc, P)
    return acc


def _mul_add(c: CurveParams, k: int, points, addends=None) -> list[Point]:
    """[k*P + Q for P, Q in zip(points, addends)], members all.

    On the kernel the bases go in chunks of _native.BATCH, each one mul
    call (fixed 4-bit windows, as many as the wider of n and k has) and one
    affine call that adds the Q and makes the chunk affine.  The Python
    backend multiplies by double-and-add and adds in a loop.  addends=None
    adds nothing.
    """
    native = _native_context(c)
    if native is not None and k.bit_length() <= 64 * _native.MAX_SCALAR_LIMBS:
        kernel, ctx = native
        width, step = c.n.bit_length(), _native.BATCH
        pairs = [_pair_or_none(P) for P in points]
        qs = [None] * len(pairs) if addends is None else [_pair_or_none(Q) for Q in addends]
        results = []
        for i in range(0, len(pairs), step):
            jacs = kernel.mul(ctx, k, width, pairs[i:i + step])
            results += kernel.affine(ctx, jacs, qs[i:i + step])
        return [_point_or_identity(xy) for xy in results]
    if addends is None:
        return [_scalar_mul_python(c, k, P) for P in points]
    return [_add(c, _scalar_mul_python(c, k, P), Q) for P, Q in zip(points, addends)]


# A table of a public key repays its build after 7 to 8 blocks of an
# encryption call on secp256k1 (build 1.4-1.6 ms; 105-127 us per pipeline
# block on the tables, add stage included, against 285-349 us by
# scalar_mul and the add in Python) and about 7 on secp256r1 (1.4-1.5 ms;
# 104-122 against 300-338 us), in single-mode calls of 64 blocks pinned to
# one CPU of a 2-vCPU Xeon, medians of four sets of nine runs.  16 leaves
# a margin, and calls of a few blocks take the windowed variable-base mul.
FIXED_BASE_MIN_USES = 16


def _g_table(c: CurveParams, kernel, ctx):
    """G's fixed-base table, built on first use and cached on the curve.

    A concurrent first caller sees either no table, and builds its own, the
    same, or a complete one.
    """
    table = c._base_table
    if table is None:
        table = c._base_table = kernel.base_table(ctx, c.g.coords(), c.n)
    return table


def encrypt_stages(c: CurveParams, public: Point, uses: int):
    """(mul_g, mul_pb, finish): the three stages of `uses` encryption blocks.

    For a nonce k in [1, n) and a message point P_M, mul_g(k) and mul_pb(k)
    give partial results for k*G and k*public, and finish(g_part, pb_part,
    P_M) gives the block's Points (k*G, P_M + k*public).  public is a member.

    On the kernel both products stay Jacobian, and finish is one affine
    call that adds P_M and makes both points affine through the block's
    one inversion.  k*G comes from G's cached table.  k*public comes from
    a table of public built here, which the stages keep alive, when `uses`
    reaches FIXED_BASE_MIN_USES and public is not the identity, and from
    mul otherwise.  The scalar is not reduced mod n: public need not lie in
    the subgroup of G, and both give the exact k*public for every k < n.
    On the Python backend mul_g and mul_pb are scalar_mul, and finish adds
    in Python.  Any table is complete before this returns, so threads may
    share the stages.
    """
    native = _native_context(c)
    if native is None:
        return (lambda k: scalar_mul(c, k, c.g),
                lambda k: scalar_mul(c, k, public),
                lambda c1, kpb, pm: (c1, _add(c, pm, kpb)))
    kernel, ctx = native
    g_table = _g_table(c, kernel, ctx)
    if public.is_identity or uses < FIXED_BASE_MIN_USES:
        base, width = [_pair_or_none(public)], c.n.bit_length()
        mul_pb = lambda k: kernel.mul(ctx, k, width, base)[0]
    else:
        pb_table = kernel.base_table(ctx, public.coords(), c.n)
        mul_pb = lambda k: kernel.base_mul(ctx, pb_table, k)

    def finish(g_part, pb_part, pm: Point):
        c1, c2 = kernel.affine(ctx, [g_part, pb_part], [None, _pair_or_none(pm)])
        return _point_or_identity(c1), _point_or_identity(c2)

    return lambda k: kernel.base_mul(ctx, g_table, k), mul_pb, finish


def scalar_mul(c: CurveParams, k: int, P: Point) -> Point:
    """k * P; 0 * P is the identity.

    On the kernel, P = G takes the cached fixed-base table with k reduced
    mod n, which construction proved sound by checking n*G = O.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"scalar must be a non-negative integer, got {k!r}")
    _require_member(c, P)
    if P.is_identity or k == 0:
        return IDENTITY
    native = _native_context(c) if P == c.g else None
    if native is None:
        return _mul_add(c, k, [P])[0]
    kernel, ctx = native
    jac = kernel.base_mul(ctx, _g_table(c, kernel, ctx), k % c.n)
    return _point_or_identity(kernel.affine(ctx, [jac])[0])


# -- brute-force helpers, only for curves small enough to walk --

def enumerate_points(c: CurveParams) -> list[Point]:
    """Every curve member: the identity first, then affine points by (x, y)."""
    if c.p >= ENUMERATION_BOUND:
        raise CurveTooLarge(f"p = {c.p} exceeds the enumeration bound")
    points = [IDENTITY]
    for x in range(c.p):
        rhs = (x * x * x + c.a.value * x + c.b.value) % c.p
        root = sqrt_mod(rhs, c.p)
        if root is None:
            continue
        if root == 0:
            points.append(c.point(x, 0))
        else:
            points.append(c.point(x, root))
            points.append(c.point(x, c.p - root))
    points.sort(key=lambda pt: (-1, -1) if pt.is_identity else pt.coords())
    return points


def point_order(c: CurveParams, P: Point) -> int:
    """Smallest m >= 1 with m*P equal to the identity, by repeated addition."""
    if c.p >= ENUMERATION_BOUND:
        raise CurveTooLarge(f"p = {c.p} exceeds the enumeration bound")
    _require_member(c, P)
    acc = P
    order = 1
    while not acc.is_identity:
        acc = _add(c, acc, P)
        order += 1
    return order


# -- named-curve registry and the fixture file format --

_CURVE_FIELDS = ("name", "p", "a", "b", "Gx", "Gy", "n")


def parse_curve_records(text: str) -> list[CurveParams]:
    """Parse 'key = value' records separated by blank lines."""
    lines = text.splitlines()
    curves = []
    start = 0
    for end, line in enumerate(lines + [""]):
        if line.strip():
            continue
        if end > start:
            record = parse_fields(lines[start:end], start + 1,
                                  _CURVE_FIELDS, _CURVE_FIELDS)
            curves.append(CurveParams(
                *(from_hex(record[key]) for key in _CURVE_FIELDS[1:]),
                name=record["name"],
            ))
        start = end + 1
    return curves


def render_curve_records(curves) -> str:
    lines = []
    for c in curves:
        gx, gy = c.g.coords()
        lines.append(f"name = {c.name}")
        for key, value in (("p", c.p), ("a", c.a.value), ("b", c.b.value),
                           ("Gx", gx), ("Gy", gy), ("n", c.n)):
            lines.append(f"{key} = {to_hex(value)}")
        lines.append("")
    return "\n".join(lines)


_registry: dict[str, CurveParams] | None = None


def _load_builtin() -> dict[str, CurveParams]:
    global _registry
    if _registry is None:
        text = resources.files(__package__).joinpath("curves.txt").read_text()
        _registry = {c.name: c for c in parse_curve_records(text)}
    return _registry


def get_curve(name: str) -> CurveParams:
    registry = _load_builtin()
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise UnknownCurve(f"{name!r}; known curves: {known}")
    return registry[name]


def register_curve(c: CurveParams) -> None:
    if c.name is None:
        raise ValueError("only named curves can be registered")
    _load_builtin()[c.name] = c


def load_curve_file(path) -> list[CurveParams]:
    """Parse and register every record in a curve file."""
    curves = parse_curve_records(Path(path).read_text())
    for c in curves:
        register_curve(c)
    return curves


def curve_names() -> list[str]:
    return sorted(_load_builtin())
