"""Exact arithmetic in Q(i, sqrt(d1)[, sqrt(d2)]).

The coefficient field for the whole package.  An element is stored on the
Q-basis indexed by bitmasks over the generators (i, sqrt(d1), sqrt(d2)):
bit 0 is the imaginary unit, bit 1 the first radical, bit 2 the second.
Every coefficient is a `fractions.Fraction`, so zero testing is a structural
comparison of normalized rationals and is always exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import ValidationError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_square_free(d: int) -> bool:
    if d < 2:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def ceil_sqrt(v: int) -> int:
    """Smallest integer >= sqrt(v), exactly."""
    if v <= 0:
        return 0
    r = isqrt(v)
    return r if r * r == v else r + 1


class NumberField:
    """Q(i) extended by up to two distinct real quadratic radicals.

    Instances are immutable and safe to share.  Scalars belong to exactly
    one field; mixing fields raises ValidationError.
    """

    __slots__ = (
        "radicals",
        "dim",
        "_squares",
        "_mul_table",
        "_zero_coeffs",
        "zero",
        "one",
        "_cache",
    )

    def __init__(self, radicals: tuple[int, ...] | list[int] = ()):
        rads = tuple(sorted({int(d) for d in radicals}))
        if len(rads) > 2:
            raise ValidationError("at most two quadratic radicals are supported")
        for d in rads:
            if not is_square_free(d):
                raise ValidationError(f"radicand {d} is not a square-free integer >= 2")
        self.radicals = rads
        self.dim = 2 ** (1 + len(rads))
        # generator squares: i^2 = -1, sqrt(d)^2 = d
        self._squares = (-1,) + rads
        table: list[tuple[tuple[int, int], ...]] = []
        for a in range(self.dim):
            row = []
            for b in range(self.dim):
                common = a & b
                factor = 1
                g = 0
                while common:
                    if common & 1:
                        factor *= self._squares[g]
                    common >>= 1
                    g += 1
                row.append((a ^ b, factor))
            table.append(tuple(row))
        self._mul_table = tuple(table)
        self._zero_coeffs = (_ZERO,) * self.dim
        self.zero = Scalar(self, self._zero_coeffs)
        one = list(self._zero_coeffs)
        one[0] = _ONE
        self.one = Scalar(self, tuple(one))
        self._cache: dict[int, Scalar] = {0: self.zero, 1: self.one}

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
        if isinstance(value, int):
            cached = self._cache.get(value)
            if cached is not None:
                return cached
            coeffs = list(self._zero_coeffs)
            coeffs[0] = Fraction(value)
            s = Scalar(self, tuple(coeffs))
            if -16 <= value <= 16:
                self._cache[value] = s
            return s
        if isinstance(value, Fraction):
            coeffs = list(self._zero_coeffs)
            coeffs[0] = value
            return Scalar(self, tuple(coeffs))
        raise ValidationError(f"cannot build a scalar from {value!r}")

    def imag_unit(self) -> Scalar:
        coeffs = list(self._zero_coeffs)
        coeffs[1] = _ONE
        return Scalar(self, tuple(coeffs))

    def sqrt(self, d: int) -> Scalar:
        if d not in self.radicals:
            raise ValidationError(f"sqrt{d} is not a generator of {self!r}")
        bit = 1 << (1 + self.radicals.index(d))
        coeffs = list(self._zero_coeffs)
        coeffs[bit] = _ONE
        return Scalar(self, tuple(coeffs))

    def from_components(self, components: dict[int, Fraction]) -> Scalar:
        coeffs = list(self._zero_coeffs)
        for mask, c in components.items():
            if not 0 <= mask < self.dim:
                raise ValidationError(f"basis mask {mask} outside field of dim {self.dim}")
            coeffs[mask] = Fraction(c)
        return Scalar(self, tuple(coeffs))

    # -- parsing -------------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar string such as '1+2/3*sqrt2' or '-1/2*i*sqrt3'."""
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
                if d not in self.radicals:
                    raise ValidationError(f"sqrt{d} is not a generator of {self!r}")
                bit = 1 << (1 + self.radicals.index(d))
                new_mask, extra = self._mul_table[mask][bit]
                coeff *= extra
                mask = new_mask
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValidationError(f"malformed rational factor {factor!r}") from exc
        components = list(self._zero_coeffs)
        components[mask] = coeff
        return Scalar(self, tuple(components))

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
    """An element of a NumberField.  Immutable; all arithmetic exact."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs
        self._hash: int | None = None

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_real(self) -> bool:
        return all(c == 0 for mask, c in enumerate(self.coeffs) if mask & 1)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: int | Fraction | Scalar) -> Scalar:
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValidationError("scalars from different fields")
            return other
        return self.field.scalar(other)

    def __add__(self, other: int | Fraction | Scalar) -> Scalar:
        o = self._coerce(other)
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other: int | Fraction | Scalar) -> Scalar:
        o = self._coerce(other)
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other: int | Fraction | Scalar) -> Scalar:
        return self._coerce(other) - self

    def __neg__(self) -> Scalar:
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other: int | Fraction | Scalar) -> Scalar:
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        # fast path: both rational
        if self.is_rational():
            if a[0] == 0:
                return self.field.zero
            return Scalar(self.field, tuple(a[0] * y for y in b))
        if o.is_rational():
            if b[0] == 0:
                return self.field.zero
            return Scalar(self.field, tuple(x * b[0] for x in a))
        out = [_ZERO] * self.field.dim
        table = self.field._mul_table
        for ai, av in enumerate(a):
            if av == 0:
                continue
            row = table[ai]
            for bi, bv in enumerate(b):
                if bv == 0:
                    continue
                mask, factor = row[bi]
                out[mask] += av * bv * factor
        return Scalar(self.field, tuple(out))

    __rmul__ = __mul__

    def conjugate(self, generator_bit: int) -> Scalar:
        """Field automorphism flipping the sign of one generator."""
        bit = 1 << generator_bit
        return Scalar(
            self.field,
            tuple(-c if mask & bit else c for mask, c in enumerate(self.coeffs)),
        )

    def galois_image(self, signs: tuple[int, ...]) -> Scalar:
        """Apply the automorphism sqrt(d_j) -> signs[j]*sqrt(d_j) (i fixed)."""
        out = self
        for j, s in enumerate(signs):
            if s == -1:
                out = out.conjugate(1 + j)
        return out

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        # peel generators off one conjugation at a time
        for g in range(len(self.field._squares) - 1, -1, -1):
            bit = 1 << g
            if any(c != 0 for mask, c in enumerate(self.coeffs) if mask & bit):
                conj = self.conjugate(g)
                reduced = self * conj
                return conj * reduced.inverse()
        return self.field.scalar(1 / self.coeffs[0])

    def __truediv__(self, other: int | Fraction | Scalar) -> Scalar:
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: int | Fraction | Scalar) -> Scalar:
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field.radicals, self.coeffs))
        return self._hash

    # -- bounds (for Diophantine certificates) --------------------------

    def abs_upper_bound(self) -> Fraction:
        """Rational upper bound for |sigma(x)| over all real embeddings.

        Only valid for real scalars; uses ceil(sqrt(d)) per radical product.
        """
        if not self.is_real():
            raise ValidationError("absolute bound defined for real scalars only")
        total = _ZERO
        for mask, c in enumerate(self.coeffs):
            if c == 0:
                continue
            rad = 1
            for j, d in enumerate(self.field.radicals):
                if mask & (1 << (1 + j)):
                    rad *= d
            total += abs(c) * ceil_sqrt(rad)
        return total

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coeffs))

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


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
