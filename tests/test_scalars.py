"""Field arithmetic in Q(i, sqrt(d1), sqrt(d2))."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest

from leafhom.errors import ValidationError
from leafhom.scalars import NumberField, Scalar, ceil_sqrt, is_square_free, square_class

try:  # test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None


@pytest.fixture(scope="module")
def field() -> NumberField:
    return NumberField((2, 3))


def random_scalar(field: NumberField, rng: random.Random):
    comps = {}
    for mask in range(field.dim):
        if rng.random() < 0.6:
            comps[mask] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return field.from_components(comps)


def test_square_free_validation():
    assert is_square_free(2) and is_square_free(6) and is_square_free(30)
    assert not is_square_free(4) and not is_square_free(12) and not is_square_free(1)
    with pytest.raises(ValidationError):
        NumberField((4,))
    with pytest.raises(ValidationError):
        NumberField((2, 3, 5))


def test_generator_squares(field):
    i = field.parse("i")
    s2 = field.sqrt(2)
    s3 = field.sqrt(3)
    assert i * i == field.scalar(-1)
    assert s2 * s2 == field.scalar(2)
    assert s3 * s3 == field.scalar(3)
    assert (s2 * s3) * (s2 * s3) == field.scalar(6)


def test_field_axioms_on_random_triples(field):
    rng = random.Random(20240811)
    for _ in range(60):
        a = random_scalar(field, rng)
        b = random_scalar(field, rng)
        c = random_scalar(field, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == field.one


def test_inverse_of_nonzero(field):
    x = field.parse("1+sqrt2") * field.parse("2-1/3*i*sqrt3")
    assert x * x.inverse() == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_inverse_memo_one_entry_per_value():
    field = NumberField((2, 3))
    built = [
        field.parse("1/2+sqrt2"),
        field.sqrt(2) + field.scalar(Fraction(1, 2)),
        field.parse("1+2*sqrt2") * field.parse("1+2*sqrt2")
        - field.parse("8+4*sqrt2")
        + field.parse("-1/2+sqrt2"),
    ]
    assert all(x == built[0] for x in built)
    first = built[0].inverse()
    entries = len(field._inverses)  # the value and the norms its inversion passes through
    assert all(x.inverse() is first for x in built)
    assert len(field._inverses) == entries
    assert built[0] * first == field.one
    # the same numerators over another denominator are another value
    half, one = field.scalar(Fraction(1, 2)), field.one
    assert half.nums == one.nums and half.inverse() == field.scalar(2)
    assert one.inverse() == one and half.inverse() == field.scalar(2)


def test_inverse_memo_is_per_field():
    # 1 + sqrt d has the same coordinates in Q(i, sqrt2) and Q(i, sqrt3)
    q2, q3, q2_again = NumberField((2,)), NumberField((3,)), NumberField((2,))
    x2, x3 = q2.parse("1+sqrt2"), q3.parse("1+sqrt3")
    assert (x2.nums, x2.den) == (x3.nums, x3.den)
    inv2, inv3 = x2.inverse(), x3.inverse()
    assert inv2 == q2.parse("-1+sqrt2") and inv3 == q3.parse("-1/2+1/2*sqrt3")
    assert inv2.field is q2 and inv3.field is q3
    assert x2 * inv2 == q2.one and x3 * inv3 == q3.one
    # an equal field built apart keeps its own memo, and its inverses live in it
    assert not q2_again._inverses
    assert q2_again.parse("1+sqrt2").inverse().field is q2_again


def test_inverse_memo_is_bounded(monkeypatch):
    from leafhom import scalars

    monkeypatch.setattr(scalars, "INVERSE_MEMO_SIZE", 3)
    field = NumberField((2,))
    values = [field.parse(f"{k}+sqrt2") for k in range(1, 7)]
    for x in values:
        assert x * x.inverse() == field.one
    assert len(field._inverses) == 3


def test_parse_and_render_round_trip(field):
    samples = [
        "0",
        "3/2",
        "-5",
        "1+2/3*sqrt2",
        "-1/2*i",
        "i*sqrt2",
        "1+sqrt2-sqrt3",
        "2/7*i*sqrt2*sqrt3",
    ]
    for text in samples:
        x = field.parse(text)
        assert field.parse(str(x)) == x


def test_parse_rejects_foreign_radical(field):
    with pytest.raises(ValidationError):
        field.parse("sqrt5")
    with pytest.raises(ValidationError):
        field.parse("1+bogus")


def test_parse_reads_every_radical_the_field_holds(field):
    # sqrt N = k / P * prod sqrt r over the radicals r whose product P makes N P a square k^2
    read = lambda text: field.parse(text)
    assert read("sqrt6") == read("sqrt2*sqrt3") and read("sqrt8") == read("2*sqrt2")
    assert read("sqrt12") == read("2*sqrt3") and read("sqrt24") == read("2*sqrt2*sqrt3")
    assert read("sqrt4") == field.scalar(2) and read("sqrt1") == field.one
    assert read("sqrt6") * read("sqrt6") == field.scalar(6)
    for foreign in ("sqrt5", "sqrt10", "sqrt30"):
        with pytest.raises(ValidationError, match="is not in"):
            read(foreign)
    assert [square_class(d) for d in (1, 4, 8, 12, 18, 50, 72, 30)] == [1, 1, 2, 3, 2, 2, 2, 30]


def test_mixed_field_operations_rejected():
    f1 = NumberField((2,))
    f2 = NumberField((3,))
    with pytest.raises(ValidationError):
        f1.sqrt(2) + f2.sqrt(3)


def test_exact_zero_detection(field):
    s2 = field.sqrt(2)
    x = (field.one + s2) * (field.one - s2) + field.one  # (1-2)+1 = 0
    assert not x
    assert x + field.one


def test_galois_image_and_real_parts(field):
    x = field.parse("1+sqrt2+sqrt3")
    assert x.conjugate(1) == field.parse("1-sqrt2+sqrt3")
    assert x.conjugate(2).conjugate(1) == field.parse("1-sqrt2-sqrt3")
    assert x.is_real()
    assert not (x + field.parse("i")).is_real()


def test_abs_upper_bound_dominates(field):
    # |1 + sqrt2| <= 1 + ceil(sqrt2) = 3 and the bound is rational/exact
    x = field.parse("1+sqrt2")
    assert x.abs_upper_bound() == Fraction(3)
    assert ceil_sqrt(2) == 2 and ceil_sqrt(4) == 2 and ceil_sqrt(5) == 3


def test_denominator_lcm(field):
    x = field.parse("1/6+1/4*sqrt2")
    assert x.den == 12


def test_rational_scalars_hash_like_equal_numbers():
    for field in (NumberField(()), NumberField((2,)), NumberField((2, 3))):
        assert field.one == 1 and hash(field.one) == hash(1)
        assert {1: "x"}.get(field.one) == "x"
        assert hash(field.zero) == hash(0) == hash(Fraction(0))
        for value in (Fraction(-3, 4), Fraction(7, 2), Fraction(-5)):
            x = field.scalar(value)
            assert x == value and hash(x) == hash(value)
            assert x in {value}
        third = field.scalar(3).inverse()
        assert hash(third) == hash(Fraction(1, 3))


def test_integral_fractions_share_the_cached_scalars():
    for field in (NumberField(()), NumberField((2,)), NumberField((2, 3))):
        assert field.scalar(Fraction(-1)) is field.minus_one
        assert field.scalar(Fraction(1)) is field.one
        assert field.scalar(Fraction(0)) is field.zero
        assert field.scalar(Fraction(4, 2)) is field.scalar(2)
        assert field.scalar(Fraction(1, 2)).coeffs[0] == Fraction(1, 2)


def assert_normal(x: Scalar) -> None:
    """den > 0, no common factor of den and all numerators, zero is (0, ..., 0)/1."""
    assert isinstance(x.den, int) and x.den > 0
    assert all(isinstance(n, int) for n in x.nums) and len(x.nums) == x.field.dim
    assert gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def test_normal_form_examples(field):
    half = field.parse("1/2")
    assert_normal(half + half)
    assert (half + half).den == 1
    x = field.parse("2/3+1/6*sqrt2")
    assert (x.nums[0], x.nums[2], x.den) == (4, 1, 6)
    assert_normal(x - x)
    assert (x - x).nums == field.zero.nums and (x - x).den == 1
    assert x.coeffs[0] == Fraction(2, 3) and x.coeffs[2] == Fraction(1, 6)
    assert Scalar(field, x.coeffs) == x


# -- the Fraction-per-coordinate arithmetic, kept as a test-only oracle ----------


@cache
def ref_table(field):
    squares = (-1,) + field.radicals
    table = {}
    for a, b in itertools.product(range(field.dim), repeat=2):
        factor = 1
        for g, square in enumerate(squares):
            if a & b & (1 << g):
                factor *= square
        table[a, b] = (a ^ b, factor)
    return table


def ref_mul(field, a, b):
    table = ref_table(field)
    out = [Fraction(0)] * field.dim
    for (ai, bi), (mask, factor) in table.items():
        out[mask] += a[ai] * b[bi] * factor
    return tuple(out)


def ref_conjugate(a, g):
    return tuple(-c if mask >> g & 1 else c for mask, c in enumerate(a))


def ref_inverse(field, a):
    for g in range(len(field.radicals), -1, -1):
        if any(c for mask, c in enumerate(a) if mask >> g & 1):
            conj = ref_conjugate(a, g)
            return ref_mul(field, conj, ref_inverse(field, ref_mul(field, a, conj)))
    return (1 / a[0],) + (Fraction(0),) * (field.dim - 1)


def ref_str(field, a):
    def frac(c):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    parts = []
    for mask, c in enumerate(a):
        if c:
            label = field.mask_label(mask)
            if not label:
                parts.append(frac(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + label)
            else:
                parts.append(f"{frac(c)}*{label}")
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


if st is not None:

    FIELDS = (NumberField(()), NumberField((2,)), NumberField((2, 3)))
    COORDS = st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3).map(Fraction),
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
    )

    @st.composite
    def field_elements(draw, count):
        """A field and `count` coordinate tuples in it (Fractions, often sparse)."""
        field = draw(st.sampled_from(FIELDS))
        coords = st.tuples(*[COORDS] * field.dim)
        return field, [draw(coords) for _ in range(count)]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(field_elements(2))
    def test_arithmetic_matches_fraction_oracle(drawn):
        field, (a, b) = drawn
        x, y = Scalar(field, a), Scalar(field, b)
        assert x.coeffs == a and y.coeffs == b
        results = [
            (x + y, tuple(p + q for p, q in zip(a, b))),
            (x - y, tuple(p - q for p, q in zip(a, b))),
            (-x, tuple(-p for p in a)),
            (x * y, ref_mul(field, a, b)),
        ]
        for g in range(1 + len(field.radicals)):
            results.append((x.conjugate(g), ref_conjugate(a, g)))
        for signs in itertools.product((1, -1), repeat=len(field.radicals)):
            got, expected = x, a
            for j, sign in enumerate(signs):
                if sign == -1:
                    got, expected = got.conjugate(1 + j), ref_conjugate(expected, 1 + j)
            results.append((got, expected))
        if any(a):
            results.append((x.inverse(), ref_inverse(field, a)))
        for got, expected in results:
            assert got.coeffs == expected
            assert got == Scalar(field, expected)
            assert_normal(got)
        assert (x == y) == (a == b)
        assert str(x) == ref_str(field, a)
        assert x.den == lcm(*(c.denominator for c in a))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(field_elements(3))
    def test_field_axioms_property(drawn):
        field, coords = drawn
        x, y, z = (Scalar(field, c) for c in coords)
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x and x + y == y + x
        assert x + field.zero == x and x * field.one == x
        assert not (x - x) and x * field.zero == field.zero
        if x:
            assert x * x.inverse() == field.one
            assert (y * x.inverse()) * x == y
        if x == y:
            assert hash(x) == hash(y)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(field_elements(1))
    def test_unit_factors_return_normal_forms(drawn):
        field, (a,) = drawn
        x = Scalar(field, a)
        minus_x = Scalar(field, tuple(-c for c in a))
        one, minus_one = field.one, field.scalar(-1)
        for got, expected in (
            (x * 1, x), (x * one, x), (1 * x, x), (one * x, x),
            (x * -1, minus_x), (x * minus_one, minus_x), (-1 * x, minus_x), (minus_one * x, minus_x),
        ):
            assert got == expected and got.coeffs == expected.coeffs
            assert_normal(got)
        other = FIELDS[(FIELDS.index(field) + 1) % len(FIELDS)]
        for a_, b_ in ((x, other.one), (other.one, x), (x, other.scalar(-1)), (other.scalar(-1), x)):
            with pytest.raises(ValidationError):
                a_ * b_

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(field_elements(1))
    def test_cached_signs_are_shared_objects(drawn):
        field, (a,) = drawn
        x = Scalar(field, a)
        one, minus_one = field.one, field.minus_one
        assert field.scalar(1) is one and field.scalar(-1) is minus_one
        assert -one is minus_one and -minus_one is one
        assert x * one is x and one * x is x
        # equal units built apart are other objects: the general product
        fresh = {one: field.from_components({0: 1}), minus_one: field.from_components({0: -1})}
        for unit, built in fresh.items():
            assert built is not unit and built == unit
            for got, general in ((x * unit, x * built), (unit * x, built * x), (-unit, -built)):
                assert got == general and got.coeffs == general.coeffs
                assert_normal(got)
            assert (x * unit).coeffs == ref_mul(field, a, unit.coeffs)
        assert (x * minus_one).coeffs == tuple(-c for c in a)

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_arithmetic_matches_fraction_oracle():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_unit_factors_return_normal_forms():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_field_axioms_property():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_cached_signs_are_shared_objects():
        pass
