"""Truncated algebra of leafwise complete symbols on a Kronecker torus.

A symbol is a pair of one-sided expansions sum_j a_j(x) |xi|^j, one per sign
of the radial coordinate, with trigonometric-polynomial coefficients over
the exact field.  Composition is the standard one-dimensional expansion
  a o b = sum_k (1/k!) (d/dxi)^k a . D^k b,
with D the reduced leafwise derivative (e_m -> (m.alpha) e_m); on the
negative side d/dxi acts on |xi| powers with a sign.  Every operation
carries a validity watermark ("floor"): the lowest order at which its output
is exact.  Assertions in the verification suite are evaluated strictly at or
above watermarks, so truncation can never fabricate a pass or a failure.

The two sides never interact: composition, derivations and traces all
preserve the canonical splitting of the algebra.

A cocycle value is one coefficient, the zero mode at order -1 on one side of
((a_0 o D_1 a_1) o D_2 a_2) o ..., so `cocycle_evaluate` computes only that;
with no derivation (l = 0) it is the residue trace itself.
The coefficients are Laurent polynomials over a field, which have no zero
divisors, so the top order of a product on one side is the sum of its
factors' top orders (the k = 0 term, the product of the two top
coefficients), unless that lies below the product's watermark.  The
watermark and per-side top orders of every product in the chain therefore
follow from the factors' shapes with no coefficient computed, and the chain
raises InsufficientTruncationError exactly where the full chain's residue
would.  The chain itself is then composed on the evaluated side alone,
keeping of each product only the orders that can still reach order -1, and
its last product sums only the terms that land on the zero mode at order -1.

`verify_traces_and_collapse` returns the symbols report document, verdict
included.  It repeats no work the values do not need: a trace pair
trace(a o b) - trace(b o a) is read off two targeted residues after the same
watermark check (`commutator_trace`), with neither product built, and the
cocycles of one level of one stage share a memo of derivation images keyed
by value (`_derivation_memo`), dropped when the level ends.  Every product,
derivation, cocycle and trace pair of a torus reads one `Expansion`, kept on
the torus (`_expansion`), so its caches of powers and factors fill once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple, Sequence

from .errors import InsufficientTruncationError, ValidationError
from .expansion import SIDES, Expansion, TrigPoly, product_shape, side_tops
from .linalg import Echelon, add_into
from .models import KroneckerTorus, Mode
from .scalars import Scalar

MAX_LEVEL = 2  # the highest cocycle degree l the verification suite checks


def _expansion(torus: KroneckerTorus) -> Expansion:
    """The torus's one `Expansion`, built on first use and kept on the torus."""
    expansion = vars(torus).get("_expansion")
    if expansion is None:
        expansion = vars(torus)["_expansion"] = Expansion(torus)
    return expansion


class TruncatedSymbol:
    """One-sided homogeneous expansions with a validity watermark.

    ``sides[s][j]`` is the trig-poly coefficient of |xi|^j on the side where
    s*xi > 0.  ``floor`` is the lowest exactly-known order (None: the symbol
    is exact at every order, i.e. a finite sum with no hidden tail).
    """

    __slots__ = ("torus", "sides", "floor")

    def __init__(
        self,
        torus: KroneckerTorus,
        sides: dict[int, dict[int, TrigPoly]],
        floor: int | None = None,
    ):
        self.torus = torus
        clean: dict[int, dict[int, TrigPoly]] = {1: {}, -1: {}}
        for s in SIDES:
            for j, poly in sides.get(s, {}).items():
                kept = {m: c for m, c in poly.items() if c}
                if kept and (floor is None or j >= floor):
                    clean[s][j] = kept
        self.sides = clean
        self.floor = floor

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, torus: KroneckerTorus) -> TruncatedSymbol:
        return cls(torus, {})

    @classmethod
    def mode(cls, torus: KroneckerTorus, m: Mode, order: int = 0, side: int | None = None) -> TruncatedSymbol:
        """e_m |xi|^order on both sides (or one side)."""
        poly = {tuple(m): torus.field.one}
        sides = {s: {order: dict(poly)} for s in (SIDES if side is None else (side,))}
        return cls(torus, sides)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.sides[1] and not self.sides[-1]

    def order(self) -> int | None:
        orders = [j for s in SIDES for j in self.sides[s]]
        return max(orders) if orders else None

    def _check(self, other: TruncatedSymbol) -> None:
        if self.torus is not other.torus:
            raise ValidationError("symbols live on different tori")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSymbol)
            and self.torus is other.torus
            and self.sides == other.sides
            and self.floor == other.floor
        )

    def __repr__(self) -> str:
        bits = []
        for s in SIDES:
            for j in sorted(self.sides[s], reverse=True):
                poly = self.sides[s][j]
                terms = ", ".join(
                    f"{c}*e{list(m)}" for m, c in sorted(poly.items())
                )
                bits.append(f"[{'+' if s > 0 else '-'}|xi|^{j}: {terms}]")
        floor = "" if self.floor is None else f" (exact above {self.floor})"
        return "Symbol(" + " ".join(bits or ["0"]) + ")" + floor


def _floor_max(fa: int | None, fb: int | None) -> int | None:
    if fa is None:
        return fb
    if fb is None:
        return fa
    return max(fa, fb)


def compose(a: TruncatedSymbol, b: TruncatedSymbol, depth: int) -> TruncatedSymbol:
    """Symbol product to the given expansion depth, watermark tracked.

    The output is exact at every order >= max(order(a)+order(b)-depth,
    floor(a)+order(b), floor(b)+order(a)); lower-order terms are dropped and
    recorded through the watermark, never silently kept half-computed.
    """
    a._check(b)
    if depth < 0:
        raise ValidationError("expansion depth must be nonnegative")
    torus = a.torus
    tops, floor = product_shape(side_tops(a.sides), a.floor, side_tops(b.sides), b.floor, depth)
    if floor is None:
        return TruncatedSymbol.zero(torus)
    expansion = _expansion(torus)
    sides = {
        s: expansion.product(a.sides[s], b.sides[s], s, floor)
        for s in SIDES
        if tops[s] is not None
    }
    return TruncatedSymbol(torus, sides, floor)


# -- derivations -----------------------------------------------------------------


class Derivation(NamedTuple):
    """transverse_i (frame direction), leafwise, or radial (log-commutator)."""

    tag: str  # "transverse" | "leafwise" | "radial"
    index: int = 0


def derivation_set(torus: KroneckerTorus) -> list[Derivation]:
    """The n+1 commuting derivations: n-1 transverse, leafwise, radial."""
    out = [Derivation("transverse", i) for i in range(1, torus.n)]
    out.append(Derivation("leafwise"))
    out.append(Derivation("radial"))
    return out


def apply_derivation(
    d: Derivation, a: TruncatedSymbol, depth: int = 6
) -> TruncatedSymbol:
    """Apply a derivation; radial uses the log-derivative expansion.

    radial(a) = sum_{k>=1} ((-1)^(k-1)/k) xi^(-k) D^k a, with xi^(-k) split
    into |xi| powers per side; the output watermark is order(a) - depth.
    """
    torus = a.torus
    if d.tag == "transverse":
        if not 1 <= d.index <= torus.n - 1:
            raise ValidationError(f"transverse index {d.index} out of range")
        sides = {
            s: {
                j: {
                    m: c * m[d.index]
                    for m, c in poly.items()
                    if m[d.index]
                }
                for j, poly in a.sides[s].items()
            }
            for s in SIDES
        }
        return TruncatedSymbol(torus, sides, a.floor)
    if d.tag == "leafwise":
        expansion = _expansion(torus)
        sides = {
            s: {j: expansion.derived(poly, 1) for j, poly in a.sides[s].items()}
            for s in SIDES
        }
        return TruncatedSymbol(torus, sides, a.floor)
    if d.tag == "radial":
        if a.is_zero():
            return a
        if depth < 1:
            raise InsufficientTruncationError("radial derivation needs depth >= 1")
        hi = a.order()
        assert hi is not None
        candidates = [hi - depth]
        if a.floor is not None:
            candidates.append(a.floor - 1)
        floor = max(candidates)
        expansion = _expansion(torus)
        sides: dict[int, dict[int, TrigPoly]] = {1: {}, -1: {}}
        for s in SIDES:
            acc = sides[s]
            for u, p in a.sides[s].items():
                # u - k >= floor >= order(a) - depth keeps k <= depth
                for k in range(1, u - floor + 1):
                    # (-1)^(k-1)/k xi^(-k) = ((-1)^(k-1)/k) s^k |xi|^(-k)
                    sign = 1 if k % 2 == 1 else -1
                    if s < 0 and k % 2 == 1:
                        sign = -sign
                    c = torus.field.scalar(Fraction(sign, k))
                    add_into(acc.setdefault(u - k, {}), expansion.derived(p, k).items(), c)
        return TruncatedSymbol(torus, sides, floor)
    raise ValidationError(f"unknown derivation tag {d.tag!r}")


_Derive = Callable[[Derivation, TruncatedSymbol, int], TruncatedSymbol]


def _derivation_memo() -> _Derive:
    """`apply_derivation` memoized by value: (derivation, depth, floor, sides).

    TruncatedSymbol defines __eq__ without __hash__, so the key is built from
    the floor and, per side, the set of (order, mode, numerators, denominator)
    of its coefficients.  It holds no torus or field: a memo serves one torus,
    and the suite makes one per level of each stage and then drops it.
    """
    memo: dict[tuple, TruncatedSymbol] = {}

    def derive(d: Derivation, a: TruncatedSymbol, depth: int) -> TruncatedSymbol:
        sides = (
            frozenset((j, m, c.nums, c.den) for j, p in a.sides[s].items() for m, c in p.items())
            for s in SIDES
        )
        key = (d, depth, a.floor, *sides)
        image = memo.get(key)
        if image is None:
            image = memo[key] = apply_derivation(d, a, depth)
        return image

    return derive


# -- cocycles ----------------------------------------------------------------------


def cocycle_evaluate(
    dirs: Sequence[Derivation],
    side: int,
    args: Sequence[TruncatedSymbol],
    depth: int,
    derive: _Derive,
) -> Scalar:
    """Evaluate (i_{D_1} ... i_{D_l} trace_side)(a_0, ..., a_l).

    The value is the residue trace on `side` of ((a_0 o D_1 a_1) o D_2 a_2)
    o ... o D_l a_l with every product at the given depth and each image
    D_j a_j read from ``derive`` (`apply_derivation`, or a memo of it), and
    it raises InsufficientTruncationError where order -1 lies below that
    chain's watermark; repeated derivation slots are rejected (the basis uses
    distinct derivations).  Only what the trace reads is computed (see the
    module docstring): product i keeps the orders >= -1 - sum_{j>i}
    top_side(D_j a_j) on `side` alone, and the last product only the terms
    u - k + v = -1 with opposite modes.
    """
    if depth < 0:
        raise ValidationError("expansion depth must be nonnegative")
    if side not in SIDES:
        raise ValidationError("side must be +1 or -1")
    if len(set(dirs)) != len(dirs):
        raise ValidationError("cocycle derivations must be pairwise distinct")
    if len(args) != len(dirs) + 1:
        raise ValidationError(
            f"an l={len(dirs)} cocycle takes {len(dirs) + 1} arguments"
        )
    first = args[0]
    tops, floor = side_tops(first.sides), first.floor
    images: list[TruncatedSymbol] = []
    floors: list[int | None] = []
    for d, arg in zip(dirs, args[1:]):
        image = derive(d, arg, depth)
        first._check(image)
        tops, floor = product_shape(tops, floor, side_tops(image.sides), image.floor, depth)
        images.append(image)
        floors.append(floor)
    if floor is not None and floor > -1:
        raise InsufficientTruncationError(f"order -1 lies below the validity watermark {floor}")
    zero = first.torus.field.zero
    # needs[i]: the lowest order of product i that can still reach order -1
    needs = [-1]
    for image in reversed(images):
        if not image.sides[side]:
            return zero
        needs.append(needs[-1] - max(image.sides[side]))
    needs.reverse()
    chain = {u: p for u, p in first.sides[side].items() if u >= needs[0]}
    if not images:
        return chain.get(-1, {}).get((0,) * first.torus.n, zero)
    expansion = _expansion(first.torus)
    for image, need, product_floor in zip(images[:-1], needs[1:], floors):
        if not chain:
            return zero
        lo = _floor_max(product_floor, need)
        chain = expansion.product(chain, image.sides[side], side, lo)
    return expansion.residue(chain, images[-1].sides[side], side)


def commutator_trace(a: TruncatedSymbol, b: TruncatedSymbol, side: int, depth: int) -> Scalar:
    """The residue trace of a o b - b o a on one side, with neither product built.

    The watermark of `product_shape` is symmetric in the factors, so a o b,
    b o a and their difference share it, and the check raises exactly where
    the commutator's trace would; the two traces are then read off
    `Expansion.residue`.
    """
    a._check(b)
    _tops, floor = product_shape(side_tops(a.sides), a.floor, side_tops(b.sides), b.floor, depth)
    if floor is None:
        return a.torus.field.zero
    if floor > -1:
        raise InsufficientTruncationError(f"order -1 lies below the validity watermark {floor}")
    expansion = _expansion(a.torus)
    forward = expansion.residue(a.sides[side], b.sides[side], side)
    return forward - expansion.residue(b.sides[side], a.sides[side], side)


def _coboundary_terms(
    args: list[TruncatedSymbol], depth: int
) -> list[tuple[int, list[TruncatedSymbol]]]:
    """The signed tuples of the Hochschild coboundary, each product built once.

    For (a_0, ..., a_{l+1}): the tuples with a_i o a_{i+1} merged, sign
    (-1)^i, and the wrapped tuple (a_{l+1} o a_0, a_1, ..., a_l), sign
    (-1)^(l+1).  They serve both sides.
    """
    l = len(args) - 2
    terms = [
        (1 if i % 2 == 0 else -1, args[:i] + [compose(args[i], args[i + 1], depth)] + args[i + 2 :])
        for i in range(0, l + 1)
    ]
    wrap = [compose(args[-1], args[0], depth)] + args[1:-1]
    terms.append((1 if (l + 1) % 2 == 0 else -1, wrap))
    return terms


def _signed_sum(
    dirs: list[Derivation],
    side: int,
    terms: list[tuple[int, list[TruncatedSymbol]]],
    depth: int,
    derive: _Derive,
) -> Scalar:
    total = terms[0][1][0].torus.field.zero
    for sign, merged in terms:
        value = cocycle_evaluate(dirs, side, merged, depth, derive)
        total = total + (value if sign > 0 else -value)
    return total


# -- the verification suite ----------------------------------------------------------


def random_symbol(
    torus: KroneckerTorus,
    rng: random.Random,
    orders: tuple[int, int] = (-3, 2),
) -> TruncatedSymbol:
    """Seeded random symbol: modes in {-1, 0, 1}^n, orders in a fixed range, int coeffs."""
    sides: dict[int, dict[int, TrigPoly]] = {1: {}, -1: {}}
    for s in SIDES:
        for j in range(orders[0], orders[1] + 1):
            if rng.random() < 0.4:
                poly: TrigPoly = {}
                for _ in range(rng.randint(1, 2)):
                    m = tuple(rng.randint(-1, 1) for _ in range(torus.n))
                    c = rng.randint(-2, 2)
                    if c:
                        poly[m] = torus.field.scalar(c)
                if poly:
                    sides[s][j] = poly
    return TruncatedSymbol(torus, sides)


def _crafted_tuples(
    torus: KroneckerTorus, l: int, side: int
) -> list[list[TruncatedSymbol]]:
    """Argument tuples aimed at separating the degree-l cocycles on one side.

    One tuple per unordered l-subset of a fixed mode palette and per order
    -1 or 0 of a_0, whose mode cancels the others'.  Fewer tuples can only
    lower the rank, so they can withhold the certificate but never grant it.
    """
    n = torus.n
    palette: list[Mode] = [
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    palette.append(tuple(1 for _ in range(n)))
    palette.append(tuple(1 if j <= 1 else 0 for j in range(n)))
    tuples: list[list[TruncatedSymbol]] = []
    for a0_order in (-1, 0):
        for modes in combinations(palette, l):
            m0 = tuple(-sum(m[j] for m in modes) for j in range(n))
            args = [TruncatedSymbol.mode(torus, m0, order=a0_order, side=side)]
            args.extend(TruncatedSymbol.mode(torus, m) for m in modes)
            tuples.append(args)
    return tuples


def verify_traces_and_collapse(
    torus: KroneckerTorus,
    predicted: Sequence[int],
    trials: int = 100,
    depth: int = 6,
    seed: int = 0,
) -> dict:
    """Trace property, cocycle coboundaries, and the independence count.

    (a) the residue trace kills `trials` seeded random commutators on both
    sides, evaluated above the watermark and read off targeted residues;
    (b) the iterated-contraction cocycles have vanishing Hochschild
    coboundary on random tuples for l <= MAX_LEVEL; (c) their evaluation
    matrix has full rank 2*C(n+1, l).  (b) and (c) derive each distinct
    argument once per level.  The collapse certificate is set when those
    counts match ``predicted``,
    the closed-form dimensions `hochschild.hh_dims_assuming_collapse` reads
    off the cosphere-circle table.  The report passes when (a), (b) and (c)
    hold.
    """
    if trials < 0:
        raise ValidationError("trial count must be nonnegative")
    if depth < 0:
        raise ValidationError("expansion depth must be nonnegative")
    if torus.resonant:
        raise ValidationError("the trace suite needs a nonresonant frequency vector")
    rng = random.Random(seed)
    field = torus.field
    derivations = derivation_set(torus)
    # (a) trace property
    trace_ok = True
    pairs = 0
    while pairs < trials:
        a = random_symbol(torus, rng)
        b = random_symbol(torus, rng)
        if a.is_zero() or b.is_zero():
            continue
        need = (a.order() or 0) + (b.order() or 0) + 1
        pairs += 1
        for s in SIDES:
            if commutator_trace(a, b, s, max(depth, need)):
                trace_ok = False
    # (b) coboundaries
    coboundary_levels: dict[int, bool] = {}
    for l in range(0, MAX_LEVEL + 1):
        ok, derive = True, _derivation_memo()
        subsets = list(combinations(derivations, l))
        for _ in range(4):
            dirs = subsets[rng.randrange(len(subsets))]
            args = []
            while len(args) < l + 2:
                cand = random_symbol(torus, rng, orders=(-2, 1))
                if not cand.is_zero():
                    args.append(cand)
            terms = _coboundary_terms(args, max(depth, 12))
            for s in SIDES:
                if _signed_sum(list(dirs), s, terms, max(depth, 12), derive):
                    ok = False
        coboundary_levels[l] = ok
    # (c) independence
    independence: dict[int, tuple[int, int]] = {}
    for l in range(0, MAX_LEVEL + 1):
        subsets = list(combinations(derivations, l))
        expected = 2 * comb(torus.n + 1, l)
        assert len(subsets) * 2 == expected
        tuples: list[tuple[int, list[TruncatedSymbol]]] = []
        for s in SIDES:
            for args in _crafted_tuples(torus, l, s):
                tuples.append((s, args))
        for _ in range(4):
            s = rng.choice(SIDES)
            args = [random_symbol(torus, rng, orders=(-2, 1))]
            while len(args) < l + 1:
                cand = random_symbol(torus, rng, orders=(-1, 1))
                if not cand.is_zero():
                    args.append(cand)
            tuples.append((s, args))
        ech, derive = Echelon(field), _derivation_memo()
        for s in SIDES:
            for dirs in subsets:
                vec = {}
                for col, (_ts, args) in enumerate(tuples):
                    if not args[0].sides[s]:
                        continue  # the chain stays supported where a_0 lives
                    value = cocycle_evaluate(dirs, s, args, max(depth, 10), derive)
                    if value:
                        vec[col] = value
                if vec:
                    ech.add(vec)
        independence[l] = (expected, ech.dim)
    passed = (
        trace_ok
        and all(coboundary_levels.values())
        and all(e == r for e, r in independence.values())
    )
    certified = passed and all(
        independence[l][0] == predicted[l] for l in independence if l < len(predicted)
    )
    return {
        "model": repr(torus),
        "seed": seed,
        "depth": depth,
        "watermark_policy": (
            "every product records the lowest exactly-known order;"
            " all assertions are evaluated at or above that watermark"
        ),
        "trials": trials,
        "trace_pairs_checked": pairs,
        "trace_property_holds": trace_ok,
        "coboundary_vanishes": {str(l): ok for l, ok in coboundary_levels.items()},
        "independence": {
            str(l): {"expected": e, "rank": r} for l, (e, r) in independence.items()
        },
        "collapse_certified": certified,
        "predicted_dims": list(predicted),
        "passed": passed,
    }
