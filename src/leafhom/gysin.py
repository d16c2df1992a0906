"""Pullback and fiber integration for the product circle bundle over the torus.

The bundle is the product with one circle (`CircleProductModel`): leaves pick
up the circle direction, the pulled-back splitting is used upstairs, and fiber
integration is normalized to unit circle volume with the dphi factor removed
from the rightmost position (the sign convention that makes integration
intertwine the leafwise differentials on the nose; the intertwining is a
standing test, not an assumption).  Both maps are term maps; the chain-map
checks and the splitting pi_*(pi^*c ^ dphi) = c do not depend on the
transverse degree h and run once, as identities on every windowed monomial.
The isomorphism checks are rank counts, with no kernel vectors: one
`derham.rank_pass` per model, from the source the caller gives (a run's memo
shares them with the basic table), checks d_F^2 = 0 and ranks every d_F
matrix once for every h, and one mapping-cone matrix per check gives the
rank of the induced map.  The splitting table reads the leafwise tables of
the base and of the total space that it is given, and returns one report
document per transverse degree, verdict included.
"""

from __future__ import annotations

from .derham import (
    BigradedDims,
    PassSource,
    RankPass,
    check_identities,
    component_terms,
    operator_matrix,
    rank_pass,
)
from .linalg import rank
from .models import CircleProductModel, FormMonomial, ModeWindow, TermMap, merge_ext, pullback_terms
from .scalars import Scalar


def fiber_integration_terms(total: CircleProductModel) -> TermMap:
    """Term map of fiber integration: unit volume, bidegree drop (1, 0).

    Kills monomials without the fiber coframe dphi or with a nonzero circle
    mode; the dphi factor is removed from the rightmost position, and the
    other generators go back to their base slots through the bundle's slot map.
    """
    n, field = total.base.mode_len, total.field
    base_gen = {slot: g for g, slot in total._slot.items()}

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        if mono.mode[n] != 0 or 1 not in mono.ext:
            return []
        # dphi is moved to the rightmost slot, past the generators after it
        tail = len(mono.ext) - mono.ext.index(1) - 1
        ext = tuple(base_gen[g] for g in mono.ext if g != 1)
        return [(FormMonomial(mono.mode[:n], 0, 0, ext), field.scalar((-1) ** tail))]

    return terms


# -- the splitting table ----------------------------------------------------------


def product_splitting_dims(
    total: CircleProductModel,
    base_dims: BigradedDims,
    total_dims: BigradedDims,
    passes: PassSource = rank_pass,
) -> list[dict]:
    """Direct vs predicted dimensions for the product circle bundle, one report per h.

    ``base_dims`` and ``total_dims`` are the leafwise tables of the base torus
    and of ``total``; the checks run on their window.  Prediction:
    dim H^{k,h}(total) = dim H^{k,h}(base) + dim H^{k-1,h}(base).  The direct
    column is read off ``total_dims``, the short-exact splitting is exhibited
    by the fiber-class wedge, and the pullback / integration isomorphism
    ranges are verified by rank counts on the d_F passes ``passes`` gives for
    the base and ``total`` on that window.  A report passes when every row's
    direct dim equals its prediction and every check passes.
    """
    base, window = total.base, total_dims.window
    identities, isos = _identity_checks(total, window), _iso_checks(total, window, passes)
    reports = []
    for h in range(base.codim + 1):
        rows = []
        for k in range(0, base.leaf_dim + 2):
            base_term = base_dims.get(k, h)
            shifted = base_dims.get(k - 1, h) if k >= 1 else 0
            direct, predicted = total_dims.get(k, h), base_term + shifted
            rows.append(
                {
                    "k": k,
                    "direct": direct,
                    "predicted": predicted,
                    "base_term": base_term,
                    "shifted_term": shifted,
                    "consistent": direct == predicted,
                }
            )
        checks = identities + isos[h]
        reports.append(
            {
                "base": repr(base),
                "fiber_dim": 1,
                "transverse_degree": h,
                "sign_convention": "fiber factor removed from the rightmost slot, unit volume",
                "passed": all(r["consistent"] for r in rows) and all(c["passed"] for c in checks),
                "rows": rows,
                "checks": checks,
            }
        )
    return reports


def _identity_checks(total: CircleProductModel, window: ModeWindow) -> list[dict]:
    """The chain-map identities and the splitting: one base walk, one total walk."""
    base = total.base
    pull, push, wedge = pullback_terms(total), fiber_integration_terms(total), _dphi_terms(total)
    d_b, d_t = component_terms(base, "d_F"), component_terms(total, "d_F")
    splitting = [(1, push, wedge, pull), (-1,), (1, d_t, wedge, pull), (-1, wedge, d_t, pull)]
    pulled, kills, split = check_identities(
        base,
        window,
        [
            ("pullback intertwines d_F", [(1, d_t, pull), (-1, pull, d_b)]),
            # pi_* pi^* = 0 (degree bookkeeping: no fiber factor after pullback)
            ("fiber integration kills pullbacks", [(1, push, pull)]),
            # pi_*(pi^*c ^ dphi) = c on the base, and on the total space
            # d_F(pi^*c ^ dphi) - d_F(pi^*c) ^ dphi = +-pi^*c ^ d_F dphi = 0
            ("fiber-class wedge splits the sequence", splitting),
        ],
    )
    pushed = check_identities(
        total, window, [("fiber integration intertwines d_F", [(1, d_b, push), (-1, push, d_t)])]
    )
    return [pulled, *pushed, kills, split]


def _dphi_terms(total: CircleProductModel) -> TermMap:
    """Term map of c -> c ^ dphi."""

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        merged = merge_ext(mono.ext, (1,))
        if merged is None:
            return []
        sign, ext = merged
        return [(FormMonomial(mono.mode, mono.xi, mono.comp, ext), total.field.scalar(sign))]

    return terms


def _iso_checks(
    total: CircleProductModel, window: ModeWindow, passes: PassSource
) -> list[list[dict]]:
    """Per h: pullback (0, h) -> (0, h) and integration (p+1, h) -> (p, h), one pass per model."""
    base, p = total.base, total.base.leaf_dim
    down, up = passes(base, window), passes(total, window)
    pull, push = pullback_terms(total), fiber_integration_terms(total)
    return [
        [
            {
                "name": "pullback iso in fiber-low degrees (k = 0)",
                "passed": _induces_iso(pull, down, up, (0, 0), h),
                "detail": "",
            },
            {
                "name": "fiber integration iso above the leaf degree (k = p+1)",
                "passed": _induces_iso(push, up, down, (p + 1, p), h),
                "detail": "",
            },
        ]
        for h in range(base.codim + 1)
    ]


def _induces_iso(f: TermMap, a: RankPass, b: RankPass, degrees: tuple[int, int], h: int) -> bool:
    """Whether the chain map f: A^{k,h} -> B^{j,h} induces an isomorphism on d_F cohomology.

    dim H^k(A) and dim H^j(B) are read off each side's pass, and the
    induced map has rank rank M - rank D_A^k - rank D_B^(j-1), where
    M(x, y) = (D_A x, f x + D_B y) on A^k + B^(j-1) is the mapping cone's
    differential.  Base and total monomials differ in mode length, so one
    index holds both sides.
    """
    k, j = degrees
    cell = lambda side, r: side.cells.get((r, h), [])
    rk = lambda side, r: side.ranks.get((r, h), 0)
    on_a = set(cell(a, k))
    cone = lambda mono: a.d_f(mono) + f(mono) if mono in on_a else b.d_f(mono)
    m = operator_matrix(a.model, cone, cell(a, k) + cell(b, j - 1), cell(a, k + 1) + cell(b, j))
    return rank(m) - rk(a, k) - rk(b, j - 1) == a.dims.get((k, h), 0) == b.dims.get((j, h), 0)
