"""One side of a symbol expansion: coefficient arithmetic and product terms.

A side of a truncated symbol maps each order j to the trigonometric
polynomial (mode -> exact scalar) multiplying |xi|^j there.  This module
holds the shape rule of a product (per-side top orders and watermark) and
`Expansion`, which sums the terms (1/k!) (d/dxi)^k a_u . D^k b_v of one
side's product: in full down to a given order, each term added into its
order's coefficient in place (`linalg.add_into`, the package's one sparse
accumulation), or only at the residue (the zero mode at order -1).

The shape rule rests on one lemma: the trigonometric polynomials are
Laurent polynomials over a field, which have no zero divisors.  On one side,
order top(a)+top(b) of a product is reached only by the k = 0 term of the
two top coefficients, and that term is their product, hence nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add

from .linalg import add_into
from .models import KroneckerTorus, Mode
from .scalars import Scalar

TrigPoly = dict[Mode, Scalar]
SIDES = (1, -1)


def side_tops(sides: dict[int, dict[int, TrigPoly]]) -> dict[int, int | None]:
    """Top order on each side (None where the side is empty)."""
    return {s: max(sides[s]) if sides[s] else None for s in SIDES}


def product_shape(
    a_tops: dict[int, int | None],
    a_floor: int | None,
    b_tops: dict[int, int | None],
    b_floor: int | None,
    depth: int,
) -> tuple[dict[int, int | None], int | None]:
    """Per-side top orders and watermark of a o b, from the factors' shapes.

    The watermark is max(order(a)+order(b)-depth, floor(a)+order(b),
    floor(b)+order(a)), with order() the top over both sides; a zero factor
    makes the product exactly zero, with no watermark.  On one side the top
    order is top(a)+top(b) by the no-zero-divisor lemma above, unless it lies
    below the watermark, where the whole side is dropped.
    """
    if all(t is None for t in a_tops.values()) or all(t is None for t in b_tops.values()):
        return {s: None for s in SIDES}, None
    hi_a = max(t for t in a_tops.values() if t is not None)
    hi_b = max(t for t in b_tops.values() if t is not None)
    candidates = [hi_a + hi_b - depth]
    if a_floor is not None:
        candidates.append(a_floor + hi_b)
    if b_floor is not None:
        candidates.append(b_floor + hi_a)
    floor = max(candidates)
    tops: dict[int, int | None] = {}
    for s in SIDES:
        ta, tb = a_tops[s], b_tops[s]
        tops[s] = None if ta is None or tb is None or ta + tb < floor else ta + tb
    return tops, floor


def _falling(u: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= u - i
    return out


class Expansion:
    """The terms (1/k!) (d/dxi)^k a_u . D^k b_v of one side's product.

    Caches live as long as the instance: the powers (m.alpha)^k per mode,
    so D^k is one multiply per coefficient instead of k iterated
    derivatives, and the rational factor falling(u, k) s^k / k! per
    (u, k, side).
    """

    def __init__(self, torus: KroneckerTorus):
        self.torus = torus
        self._powers: dict[Mode, list[Scalar]] = {}
        self._factors: dict[tuple[int, int, int], Scalar] = {}

    def _power(self, m: Mode, k: int) -> Scalar:
        seq = self._powers.get(m)
        if seq is None:
            seq = self._powers[m] = [self.torus.field.one, self.torus.pairing(m)]
        while len(seq) <= k:
            seq.append(seq[-1] * seq[1])
        return seq[k]

    def _factor(self, u: int, k: int, side: int) -> Scalar:
        key = (u, k, side)
        c = self._factors.get(key)
        if c is None:
            # (d/dxi)^k |xi|^u = s^k falling(u, k) |xi|^(u-k) on the side s xi > 0
            sign = 1 if (side > 0 or k % 2 == 0) else -1
            c = self._factors[key] = self.torus.field.scalar(
                Fraction(_falling(u, k) * sign, factorial(k))
            )
        return c

    def derived(self, poly: TrigPoly, k: int) -> TrigPoly:
        """D^k poly, one multiply per coefficient."""
        if k == 0:
            return poly
        out = {}
        for m, c in poly.items():
            lam_k = self._power(m, k)
            if lam_k:
                out[m] = c * lam_k
        return out

    def product(
        self, a_side: dict[int, TrigPoly], b_side: dict[int, TrigPoly], side: int, lo: int
    ) -> dict[int, TrigPoly]:
        """Orders >= lo of the side's product; lo must be at or above its watermark.

        At or above the watermark u + v - lo <= depth, so every k the
        truncated expansion keeps is summed.
        """
        acc: dict[int, TrigPoly] = {}
        for v, pb in b_side.items():
            derived: dict[int, TrigPoly] = {}
            for u, pa in a_side.items():
                for k in range(0, u + v - lo + 1):
                    factor = self._factor(u, k, side)
                    if not factor:
                        break  # falling(u, k) = 0 for every k > u >= 0
                    pb_k = derived.get(k)
                    if pb_k is None:
                        pb_k = derived[k] = self.derived(pb, k)
                    out = acc.setdefault(u - k + v, {})
                    for m1, c1 in pa.items():
                        shifted = ((tuple(map(add, m1, m2)), c2) for m2, c2 in pb_k.items())
                        add_into(out, shifted, c1 * factor)
        return {j: p for j, p in acc.items() if p}

    def residue(
        self, a_side: dict[int, TrigPoly], b_side: dict[int, TrigPoly], side: int
    ) -> Scalar:
        """Zero-mode coefficient at order -1 of the side's product.

        Only the triples u - k + v = -1 and the mode pairs m + m' = 0 are
        summed; the caller has checked that order -1 is at or above the
        product's watermark.
        """
        total = self.torus.field.zero
        for u, pa in a_side.items():
            for v, pb in b_side.items():
                k = u + v + 1
                if k < 0:
                    continue
                factor = self._factor(u, k, side)
                if not factor:
                    continue
                paired = self.torus.field.zero
                for m, c in pa.items():
                    neg = tuple(-x for x in m)
                    cb = pb.get(neg)
                    if cb is not None:
                        paired = paired + c * cb * self._power(neg, k)
                if paired:
                    total = total + paired * factor
        return total
