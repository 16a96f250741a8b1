import random

import pytest

from ecelgamal import curve as curve_mod
from ecelgamal.curve import (
    IDENTITY,
    CurveParams,
    Point,
    _double,
    enumerate_points,
    get_curve,
    is_on_curve,
    load_curve_file,
    parse_curve_records,
    point_add,
    point_neg,
    point_order,
    register_curve,
    render_curve_records,
    scalar_mul,
)
from ecelgamal.errors import (
    BadOrder,
    CurveTooLarge,
    FormatError,
    GeneratorOffCurve,
    InvalidModulus,
    MixedCurve,
    OffCurveInput,
    SingularCurve,
    UnknownCurve,
)

from .reference import (
    chord_tangent_add,
    enumerate_affine,
    order_by_repeated_add,
    repeated_add,
)

# frozen from order_by_repeated_add((3, 10), 23, 1)
TINY_GENERATOR_ORDER = 28


class TestCurveConstruction:
    def test_tiny_fixture_is_valid(self, tiny):
        assert tiny.p == 23
        assert tiny.a.value == 1 and tiny.b.value == 1
        assert tiny.g.coords() == (3, 10)
        assert tiny.n == TINY_GENERATOR_ORDER
        assert order_by_repeated_add((3, 10), 23, 1) == TINY_GENERATOR_ORDER

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            CurveParams(23, 0, 0, 3, 10, 28)

    def test_generator_off_curve_rejected(self):
        # 11^2 = 6 but 3^3 + 3 + 1 = 8 (mod 23)
        with pytest.raises(GeneratorOffCurve):
            CurveParams(23, 1, 1, 3, 11, 28)

    def test_wrong_order_rejected(self):
        with pytest.raises(BadOrder):
            CurveParams(23, 1, 1, 3, 10, 27)
        with pytest.raises(BadOrder):
            CurveParams(23, 1, 1, 3, 10, 1)

    def test_bad_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            CurveParams(21, 1, 1, 3, 10, 28)

    def test_multiple_of_order_accepted(self):
        # n need not be minimal, only annihilating
        c = CurveParams(23, 1, 1, 3, 10, 56)
        assert scalar_mul(c, 56, c.g).is_identity

    def test_large_fixtures_annihilate_generator(self, c256, c192):
        for c in (c256, c192):
            assert scalar_mul(c, c.n, c.g).is_identity


class TestPointType:
    def test_identity_singleton_semantics(self):
        assert IDENTITY.is_identity

    def test_half_specified_rejected(self):
        with pytest.raises(ValueError):
            Point(3, None)

    def test_identity_has_no_coords(self):
        with pytest.raises(ValueError):
            IDENTITY.coords()

    def test_points_hashable(self, tiny):
        assert len({tiny.g, tiny.g, IDENTITY}) == 2


class TestOnCurve:
    def test_identity(self, tiny):
        assert is_on_curve(tiny, IDENTITY)

    def test_known_member(self, tiny):
        assert is_on_curve(tiny, tiny.point(3, 10))

    def test_known_non_member(self, tiny):
        assert not is_on_curve(tiny, Point(3, 11))

    def test_foreign_modulus_is_not_member(self, tiny):
        # a coordinate from a larger field, here 26 in F_29, lies outside
        # [0, 23) even though (26, 10) satisfies the equation mod 23
        assert not is_on_curve(tiny, Point(3 + 23, 10))
        assert not is_on_curve(tiny, Point(3, 10 - 23))

    def test_non_canonical_point_rejected(self, tiny):
        with pytest.raises(MixedCurve):
            tiny.point(3 + 23, 10)
        with pytest.raises(MixedCurve):
            scalar_mul(tiny, 2, Point(3, 10 + 23))


class TestNegation:
    def test_identity(self, tiny):
        assert point_neg(tiny, IDENTITY) == IDENTITY

    def test_known_value(self, tiny):
        assert point_neg(tiny, tiny.point(3, 10)) == tiny.point(3, 13)

    def test_involution_exhaustive(self, tiny):
        for pt in enumerate_points(tiny):
            assert point_neg(tiny, point_neg(tiny, pt)) == pt

    def test_off_curve_rejected(self, tiny):
        with pytest.raises(OffCurveInput):
            point_neg(tiny, Point(3, 11))

    def test_negated_zero_ordinate_stays_canonical(self, tiny):
        assert point_neg(tiny, tiny.point(4, 0)) == tiny.point(4, 0)


class TestAddition:
    def test_known_chord(self, tiny):
        assert point_add(tiny, tiny.point(3, 10), tiny.point(9, 7)) == tiny.point(17, 20)

    def test_identity_element(self, tiny):
        for pt in enumerate_points(tiny):
            assert point_add(tiny, pt, IDENTITY) == pt
            assert point_add(tiny, IDENTITY, pt) == pt

    def test_inverse_pair(self, tiny):
        assert point_add(tiny, tiny.point(3, 10), tiny.point(3, 13)).is_identity

    def test_matches_oracle_exhaustively(self, tiny):
        pts = enumerate_points(tiny)
        for P in pts:
            for Q in pts:
                want = chord_tangent_add(
                    None if P.is_identity else P.coords(),
                    None if Q.is_identity else Q.coords(),
                    23, 1,
                )
                got = point_add(tiny, P, Q)
                assert (None if got.is_identity else got.coords()) == want

    def test_closure_and_commutativity_exhaustive(self, tiny):
        pts = enumerate_points(tiny)
        for P in pts:
            for Q in pts:
                s = point_add(tiny, P, Q)
                assert is_on_curve(tiny, s)
                assert s == point_add(tiny, Q, P)

    def test_associativity_and_commutativity_random_large_curve(self, c256):
        rng = random.Random(42)
        pts = [scalar_mul(c256, rng.randrange(1, c256.n), c256.g) for _ in range(30)]
        for _ in range(1000):
            P, Q, R = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            PQ = point_add(c256, P, Q)
            assert PQ == point_add(c256, Q, P)
            left = point_add(c256, PQ, R)
            right = point_add(c256, P, point_add(c256, Q, R))
            assert left == right

    def test_mixed_curve_rejected(self, tiny, c256):
        with pytest.raises(MixedCurve):
            point_add(tiny, tiny.g, c256.g)

    def test_off_curve_rejected(self, tiny):
        with pytest.raises(OffCurveInput):
            point_add(tiny, tiny.g, Point(3, 11))


class TestDoubling:
    def test_known_value(self, tiny):
        P = tiny.point(3, 10)
        assert point_add(tiny, P, P) == _double(tiny, P) == tiny.point(7, 12)

    def test_identity(self, tiny):
        assert point_add(tiny, IDENTITY, IDENTITY) == _double(tiny, IDENTITY) == IDENTITY

    def test_two_torsion(self, tiny):
        # (4, 0) is the curve's only point with y = 0
        P = tiny.point(4, 0)
        assert point_add(tiny, P, P).is_identity
        assert _double(tiny, P).is_identity

    def test_double_equals_self_add_exhaustive(self, tiny):
        for pt in enumerate_points(tiny):
            assert _double(tiny, pt) == point_add(tiny, pt, pt)


class TestScalarMul:
    def test_zero_scalar(self, tiny):
        assert scalar_mul(tiny, 0, tiny.g).is_identity

    def test_one_scalar(self, tiny):
        assert scalar_mul(tiny, 1, tiny.g) == tiny.g

    def test_two_equals_double(self, tiny):
        assert scalar_mul(tiny, 2, tiny.point(3, 10)) == tiny.point(7, 12)

    def test_matches_repeated_addition(self, tiny):
        for k in range(0, TINY_GENERATOR_ORDER + 1):
            want = repeated_add(k, (3, 10), 23, 1)
            got = scalar_mul(tiny, k, tiny.g)
            assert (None if got.is_identity else got.coords()) == want

    def test_annihilation_all_fixtures(self, tiny, c192, c256):
        for c in (tiny, c192, c256):
            assert scalar_mul(c, c.n, c.g).is_identity

    def test_scalar_reduction_mod_order(self, tiny):
        order = point_order(tiny, tiny.g)
        rng = random.Random(5)
        for _ in range(200):
            k = rng.randrange(0, 10 * order)
            assert scalar_mul(tiny, k, tiny.g) == scalar_mul(tiny, k % order, tiny.g)

    def test_identity_input(self, tiny):
        assert scalar_mul(tiny, 5, IDENTITY).is_identity

    def test_negative_rejected(self, tiny):
        with pytest.raises(ValueError):
            scalar_mul(tiny, -1, tiny.g)

    def test_results_stay_on_curve(self, c256):
        rng = random.Random(99)
        for _ in range(50):
            pt = scalar_mul(c256, rng.randrange(1, c256.n), c256.g)
            assert is_on_curve(c256, pt)


class TestEnumeration:
    def test_tiny_point_set(self, tiny):
        pts = enumerate_points(tiny)
        affine = {pt.coords() for pt in pts if not pt.is_identity}
        assert affine == set(enumerate_affine(23, 1, 1))
        assert pts[0].is_identity
        for expect in ((3, 10), (3, 13), (9, 7), (17, 20)):
            assert expect in affine

    def test_count_within_hasse_bound(self, tiny):
        count = len(enumerate_points(tiny))
        assert count == 28
        bound = 2 * 23 ** 0.5
        assert 23 + 1 - bound <= count <= 23 + 1 + bound

    def test_all_enumerated_on_curve(self, tiny):
        for pt in enumerate_points(tiny):
            assert is_on_curve(tiny, pt)

    def test_sorted_by_coordinates(self, tiny):
        pts = enumerate_points(tiny)
        coords = [pt.coords() for pt in pts[1:]]
        assert coords == sorted(coords)

    def test_large_curve_rejected(self, c256):
        with pytest.raises(CurveTooLarge):
            enumerate_points(c256)


class TestPointOrder:
    def test_identity_order(self, tiny):
        assert point_order(tiny, IDENTITY) == 1

    def test_generator_order(self, tiny):
        assert point_order(tiny, tiny.g) == TINY_GENERATOR_ORDER

    def test_lagrange_exhaustive(self, tiny):
        size = len(enumerate_points(tiny))
        for pt in enumerate_points(tiny):
            assert size % point_order(tiny, pt) == 0

    def test_matches_oracle(self, tiny):
        for pt in enumerate_points(tiny)[1:]:
            assert point_order(tiny, pt) == order_by_repeated_add(pt.coords(), 23, 1)

    def test_large_curve_rejected(self, c256):
        with pytest.raises(CurveTooLarge):
            point_order(c256, c256.g)


class TestBackendEquivalence:
    """The compiled kernel and the Python loop must agree bit for bit."""

    def test_kernel_available_or_explicitly_disabled(self):
        import os
        if os.environ.get("ECELGAMAL_NATIVE", "").lower() in ("0", "off", "no", "false"):
            pytest.skip("native kernel disabled by environment")
        assert curve_mod.active_backend() == "native"

    def test_agreement_across_curves(self, tiny, c192, c256, c256r, c521):
        if curve_mod.active_backend() != "native":
            pytest.skip("no native kernel to compare against")
        rng = random.Random(2024)
        for c in (tiny, c192, c256, c256r, c521):
            scalars = [0, 1, 2, c.n - 1, c.n, c.n + 1]
            scalars += [rng.randrange(0, 2 * c.n) for _ in range(25)]
            for k in scalars:
                native = scalar_mul(c, k, c.g)
                previous = curve_mod.set_backend("python")
                try:
                    pure = scalar_mul(c, k, c.g)
                finally:
                    curve_mod.set_backend(previous)
                assert native == pure, (c.name, k)

    def test_agreement_off_the_generator(self, tiny, c192, c256, c256r, c521):
        # k*G takes the fixed-base table, so a base of 7*G keeps the kernel's
        # variable-base eck_mul under test, with scalars up to n + 1 and
        # wider than n
        if curve_mod.active_backend() != "native":
            pytest.skip("no native kernel to compare against")
        rng = random.Random(2025)
        for c in (tiny, c192, c256, c256r, c521):
            base = scalar_mul(c, 7, c.g)
            scalars = [0, 1, 2, 15, 16, c.n - 1, c.n, c.n + 1, (c.n << 5) + 3]
            scalars += [rng.randrange(0, 2 * c.n) for _ in range(10)]
            for k in scalars:
                native = scalar_mul(c, k, base)
                previous = curve_mod.set_backend("python")
                try:
                    pure = scalar_mul(c, k, base)
                finally:
                    curve_mod.set_backend(previous)
                assert native == pure, (c.name, k)

    def test_python_backend_forced(self, tiny, python_backend):
        assert curve_mod.active_backend() == "python"
        assert scalar_mul(tiny, 2, tiny.g) == tiny.point(7, 12)


class TestCurveFileFormat:
    def test_builtin_names(self):
        assert set(curve_mod.curve_names()) >= {"tiny23", "secp192k1", "secp256k1"}

    def test_unknown_curve(self):
        with pytest.raises(UnknownCurve):
            get_curve("nope")

    def test_render_parse_roundtrip(self, tiny, c256):
        text = render_curve_records([tiny, c256])
        parsed = parse_curve_records(text)
        assert parsed == [tiny, c256]

    def test_parse_rejects_missing_field(self):
        with pytest.raises(FormatError):
            parse_curve_records("name = x\np = 17\n")

    def test_parse_rejects_unknown_field(self):
        with pytest.raises(FormatError):
            parse_curve_records("name = x\nq = 17\n")

    def test_parse_rejects_bad_line(self):
        with pytest.raises(FormatError):
            parse_curve_records("name tiny\n")

    def test_parse_rejects_non_hex_value(self, tiny):
        text = render_curve_records([tiny]).replace("n = 1c", "n = 1x")
        with pytest.raises(FormatError, match="not a hex integer"):
            parse_curve_records(text)

    def test_parse_rejects_duplicate_field(self):
        with pytest.raises(FormatError):
            parse_curve_records("name = x\nname = y\n")

    def test_register_and_load_file(self, tmp_path, tiny):
        clone = CurveParams(23, 1, 1, 3, 10, 28, name="tiny23-clone")
        path = tmp_path / "extra.txt"
        path.write_text(render_curve_records([clone]))
        loaded = load_curve_file(path)
        assert loaded == [clone]
        assert get_curve("tiny23-clone") == clone

    def test_register_requires_name(self):
        anon = CurveParams(23, 1, 1, 3, 10, 28)
        with pytest.raises(ValueError):
            register_curve(anon)
