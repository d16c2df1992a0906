"""Exact arithmetic in Q(i, sqrt(d1)[, sqrt(d2)]).

The coefficient field for the whole package.  An element is stored on the
Q-basis indexed by bitmasks over the generators (i, sqrt(d1), sqrt(d2)):
bit 0 is the imaginary unit, bit 1 the first radical, bit 2 the second.
The coordinates are int numerators over one denominator (FLINT's fmpq_poly
layout) in normal form: den > 0, gcd(den, *nums) == 1, zero is (0, ..., 0)/1.
The form is unique, so zero testing and equality are exact int comparisons.
`Scalar.coeffs` reads the coordinates as Fractions.

Each field keeps one `one` and one `minus_one` object, and `field.scalar(1)`,
`field.scalar(-1)` (of an int or an integral Fraction) and the negation of
either return them.  Multiplication checks for them by identity (`is`, never
by value: `__eq__` costs more than the product it would save) and returns the
other factor or its negation, so the signs term maps attach cost no
arithmetic.  Any other unit, such as a sum that comes out as -1, takes the
general path, which is exact as well.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import add, neg, sub

from .errors import ValidationError

INVERSE_MEMO_SIZE = 4096  # values memoized per field; bounds the memo's memory


def square_class(d: int) -> int:
    """The square-free m with d = k^2 m, for d >= 1: sqrt(d) = k sqrt(m)."""
    out, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
        if d % p == 0:
            d //= p
            out *= p
        p += 1
    return out * d


def is_square_free(d: int) -> bool:
    return d >= 2 and square_class(d) == d


def sqrt_in(d: int, radicals: tuple[int, ...] | list[int]) -> tuple[int, Fraction] | None:
    """(S, q) with sqrt(d) = q * prod(sqrt(r) for r in S), S a bitmask over ``radicals``.

    sqrt(d) = sqrt(d P) / P * prod sqrt(r) with P = prod S, so S is the subset
    with d P a perfect square k^2, and q = k / P; None when there is none.
    """
    for sub in range(1 << len(radicals)):
        p = prod(r for j, r in enumerate(radicals) if sub >> j & 1)
        k = isqrt(d * p)
        if k * k == d * p:
            return sub, Fraction(k, p)
    return None


def ceil_sqrt(v: int) -> int:
    """Smallest integer >= sqrt(v), exactly."""
    if v <= 0:
        return 0
    r = isqrt(v)
    return r if r * r == v else r + 1


class NumberField:
    """Q(i) extended by up to two distinct real quadratic radicals.

    Instances are immutable and safe to share; each keeps the memo of its
    scalars' inverses.  Scalars belong to exactly one field; mixing fields
    raises ValidationError.
    """

    __slots__ = (
        "radicals",
        "dim",
        "_mul_table",
        "_zeros",
        "zero",
        "one",
        "minus_one",
        "_cache",
        "_inverses",
    )

    def __init__(self, radicals: tuple[int, ...] | list[int] = ()):
        rads = tuple(sorted({int(d) for d in radicals}))
        if len(rads) > 2:
            raise ValidationError("at most two quadratic radicals are supported")
        for d in rads:
            if d > 10**12:  # bounds the trial division of is_square_free
                raise ValidationError(f"radicand {d} exceeds 10^12")
            if not is_square_free(d):
                raise ValidationError(f"radicand {d} is not a square-free integer >= 2")
        self.radicals = rads
        self.dim = 2 ** (1 + len(rads))
        # generator squares: i^2 = -1, sqrt(d)^2 = d
        squares = (-1,) + rads
        # basis[a] * basis[b] = factor * basis[a ^ b]
        self._mul_table = tuple(
            tuple(
                (a ^ b, prod(sq for g, sq in enumerate(squares) if (a & b) >> g & 1))
                for b in range(self.dim)
            )
            for a in range(self.dim)
        )
        self._zeros = (0,) * (self.dim - 1)
        self.zero = Scalar(self, (0,) + self._zeros, 1)
        self.one = Scalar(self, (1,) + self._zeros, 1)
        self.minus_one = Scalar(self, (-1,) + self._zeros, 1)
        self._cache: dict[int, Scalar] = {0: self.zero, 1: self.one, -1: self.minus_one}
        # Scalar.inverse's memo, keyed by (nums, den): a value inverted again
        # (the same multiplier in every block) costs one lookup
        self._inverses: dict[tuple[tuple[int, ...], int], Scalar] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberField) and self.radicals == other.radicals

    def __hash__(self) -> int:
        return hash(("NumberField", self.radicals))

    def __repr__(self) -> str:
        gens = ["i"] + [f"sqrt{d}" for d in self.radicals]
        return f"NumberField(Q({', '.join(gens)}))"

    # -- constructors -------------------------------------------------

    def scalar(self, value: int | Fraction | str | Scalar) -> Scalar:
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValidationError("scalar belongs to a different field")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator  # an integral Fraction shares the int path's cache
        if isinstance(value, int):
            cached = self._cache.get(value)
            if cached is not None:
                return cached
            s = Scalar(self, (value,) + self._zeros, 1)
            if -16 <= value <= 16:
                self._cache[value] = s
            return s
        if isinstance(value, Fraction):
            return Scalar(self, (value.numerator,) + self._zeros, value.denominator)
        raise ValidationError(f"cannot build a scalar from {value!r}")

    def sqrt(self, d: int) -> Scalar:
        if d not in self.radicals:
            raise ValidationError(f"sqrt{d} is not a generator of {self!r}")
        return self.from_components({1 << (1 + self.radicals.index(d)): 1})

    def from_components(self, components: dict[int, Fraction]) -> Scalar:
        coeffs = [0] * self.dim
        for mask, c in components.items():
            if not 0 <= mask < self.dim:
                raise ValidationError(f"basis mask {mask} outside field of dim {self.dim}")
            coeffs[mask] = Fraction(c)
        return Scalar(self, tuple(coeffs))

    # -- parsing -------------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar string such as '1+2/3*sqrt2' or '-1/2*i*sqrt3'.

        A radical is any the field holds (`sqrt_in`): sqrt8 is 2*sqrt2.
        """
        s = text.replace(" ", "")
        if not s:
            raise ValidationError("empty scalar string")
        # split into signed terms at top level
        terms: list[str] = []
        start = 0
        for k, ch in enumerate(s):
            if ch in "+-" and k > start and s[k - 1] not in "*/+-":
                terms.append(s[start:k])
                start = k
        terms.append(s[start:])
        total = self.zero
        for term in terms:
            total = total + self._parse_term(term)
        return total

    def _parse_term(self, term: str) -> Scalar:
        sign = 1
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValidationError(f"malformed scalar term {term!r}")
        coeff = Fraction(sign)
        mask = 0
        for factor in body.split("*"):
            if factor == "i":
                new_mask, extra = self._mul_table[mask][1]
                coeff *= extra
                mask = new_mask
            elif factor.startswith("sqrt"):
                try:
                    d = int(factor[4:])
                except ValueError as exc:
                    raise ValidationError(f"malformed radical {factor!r}") from exc
                root = sqrt_in(d, self.radicals)
                if root is None:
                    raise ValidationError(f"sqrt{d} is not in {self!r}")
                new_mask, extra = self._mul_table[mask][root[0] << 1]
                coeff *= extra * root[1]
                mask = new_mask
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValidationError(f"malformed rational factor {factor!r}") from exc
        return self.from_components({mask: coeff})

    # -- rendering helpers --------------------------------------------

    def mask_label(self, mask: int) -> str:
        parts = []
        if mask & 1:
            parts.append("i")
        for j, d in enumerate(self.radicals):
            if mask & (1 << (1 + j)):
                parts.append(f"sqrt{d}")
        return "*".join(parts)


class Scalar:
    """An element of a NumberField.  Immutable; all arithmetic exact.

    Built from one Fraction per basis mask, or from int numerators and a
    denominator already in normal form.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coeffs: tuple, den: int | None = None):
        if den is None:
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.field = field
        self.nums = coeffs
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_real(self) -> bool:
        return not any(self.nums[1::2])  # the odd masks carry the factor i

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: int | Fraction | Scalar) -> Scalar:
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValidationError("scalars from different fields")
            return other
        return self.field.scalar(other)

    def __add__(self, other: int | Fraction | Scalar) -> Scalar:
        return self._combine(self._coerce(other), add)

    __radd__ = __add__

    def __sub__(self, other: int | Fraction | Scalar) -> Scalar:
        return self._combine(self._coerce(other), sub)

    def _combine(self, o: Scalar, op) -> Scalar:
        da, db = self.den, o.den
        if da == db:
            return _normal(self.field, tuple(map(op, self.nums, o.nums)), da)
        return _normal(
            self.field, tuple(op(x * db, y * da) for x, y in zip(self.nums, o.nums)), da * db
        )

    def __neg__(self) -> Scalar:
        field = self.field
        if self is field.one:
            return field.minus_one
        if self is field.minus_one:
            return field.one
        return Scalar(field, tuple(map(neg, self.nums)), self.den)

    def __mul__(self, other: int | Fraction | Scalar) -> Scalar:
        field = self.field
        # the field's cached signs, by identity: the product is the other factor up to sign
        if other is field.one:
            return self
        if other is field.minus_one:
            return -self
        o = self._coerce(other)
        if self is field.one:
            return o
        if self is field.minus_one:
            return -o
        a, b = self.nums, o.nums
        den = self.den * o.den
        # fast path: one factor rational
        if not any(a[1:]):
            return _normal(field, tuple(map(a[0].__mul__, b)), den) if a[0] else field.zero
        if not any(b[1:]):
            return _normal(field, tuple(map(b[0].__mul__, a)), den) if b[0] else field.zero
        out = [0] * field.dim
        table = field._mul_table
        b_terms = [(bi, bv) for bi, bv in enumerate(b) if bv]
        for ai, av in enumerate(a):
            if av:
                row = table[ai]
                for bi, bv in b_terms:
                    mask, factor = row[bi]
                    out[mask] += av * bv * factor
        return _normal(field, tuple(out), den)

    __rmul__ = __mul__

    def conjugate(self, generator_bit: int) -> Scalar:
        """Field automorphism flipping the sign of one generator."""
        bit = 1 << generator_bit
        return Scalar(
            self.field,
            tuple(-n if mask & bit else n for mask, n in enumerate(self.nums)),
            self.den,
        )

    def inverse(self) -> Scalar:
        """The multiplicative inverse, memoized per field (up to `INVERSE_MEMO_SIZE` values)."""
        memo = self.field._inverses
        key = (self.nums, self.den)
        inv = memo.get(key)
        if inv is None:
            inv = self._invert()
            if len(memo) < INVERSE_MEMO_SIZE:
                memo[key] = inv
        return inv

    def _invert(self) -> Scalar:
        nums = self.nums
        if not any(nums):
            raise ZeroDivisionError("scalar inverse of zero")
        # peel generators off one conjugation at a time, the highest first
        support = 0
        for mask, n in enumerate(nums):
            if n:
                support |= mask
        if support:
            conj = self.conjugate(support.bit_length() - 1)
            reduced = self * conj
            return conj * reduced.inverse()
        x = nums[0]
        if x < 0:
            return Scalar(self.field, (-self.den,) + nums[1:], -x)
        return Scalar(self.field, (self.den,) + nums[1:], x)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.field == other.field

    def __hash__(self) -> int:
        # a rational scalar equals an int / Fraction, so it hashes like one
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field.radicals, self.nums, self.den))

    # -- bounds (for Diophantine certificates) --------------------------

    def abs_upper_bound(self) -> Fraction:
        """Rational upper bound for |sigma(x)| over all real embeddings.

        Only valid for real scalars; uses ceil(sqrt(d)) per radical product.
        """
        if not self.is_real():
            raise ValidationError("absolute bound defined for real scalars only")
        total = 0
        for mask, n in enumerate(self.nums):
            if n == 0:
                continue
            rad = 1
            for j, d in enumerate(self.field.radicals):
                if mask & (1 << (1 + j)):
                    rad *= d
            total += abs(n) * ceil_sqrt(rad)
        return Fraction(total, self.den)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for mask, c in enumerate(self.coeffs):
            if c == 0:
                continue
            label = self.field.mask_label(mask)
            if label == "":
                parts.append(_frac_str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + label)
            else:
                parts.append(f"{_frac_str(c)}*{label}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _normal(field: NumberField, nums: tuple[int, ...], den: int) -> Scalar:
    """The scalar nums/den (den > 0) in normal form."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return Scalar(field, nums, den)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
