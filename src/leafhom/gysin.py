"""Pullback and fiber integration for the product circle bundle over the torus.

The bundle is the product with one circle (`CircleProductModel`): leaves pick
up the circle direction, the pulled-back splitting is used upstairs, and fiber
integration is normalized to unit circle volume with the dphi factor removed
from the rightmost position (the sign convention that makes integration
intertwine the leafwise differentials on the nose; the intertwining is a
standing test, not an assumption).  Both maps are term maps; the chain-map
checks and the splitting pi_*(pi^*c ^ dphi) = c do not depend on the
transverse degree h and run once, as identities on every windowed monomial.
The isomorphism checks count ranks on closed and exact block vectors, with no
representatives.  The splitting table reads the leafwise tables of the base
and of the total space that it is given, and returns one report document per
transverse degree, verdict included.
"""

from __future__ import annotations

from .derham import BigradedDims, check_identities, closed_and_exact, component_terms
from .linalg import Echelon, span_dim
from .models import (
    CircleProductModel,
    FormMonomial,
    ModeWindow,
    TermMap,
    linear_extension,
    merge_ext,
    pullback_terms,
)
from .scalars import Scalar


def fiber_integration_terms(total: CircleProductModel) -> TermMap:
    """Term map of fiber integration: unit volume, bidegree drop (1, 0).

    Kills monomials without the fiber coframe dphi or with a nonzero circle
    mode; the dphi factor is removed from the rightmost position.
    """
    n, field = total.base.n, total.field

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        if mono.mode[n] != 0 or 1 not in mono.ext:
            return []
        # dphi is moved to the rightmost slot, past the generators after it
        tail = len(mono.ext) - mono.ext.index(1) - 1
        ext = tuple(g if g == 0 else g - 1 for g in mono.ext if g != 1)
        return [(FormMonomial(mono.mode[:n], 0, 0, ext), field.scalar((-1) ** tail))]

    return terms


# -- the splitting table ----------------------------------------------------------


def product_splitting_dims(
    total: CircleProductModel,
    base_dims: BigradedDims,
    total_dims: BigradedDims,
) -> list[dict]:
    """Direct vs predicted dimensions for the product circle bundle, one report per h.

    ``base_dims`` and ``total_dims`` are the leafwise tables of the base torus
    and of ``total``; the checks run on their window.  Prediction:
    dim H^{k,h}(total) = dim H^{k,h}(base) + dim H^{k-1,h}(base).  The direct
    column is read off ``total_dims``, the short-exact splitting is exhibited
    by the fiber-class wedge, and the pullback / integration isomorphism
    ranges are verified by rank counts.  A report passes when every row's
    direct dim equals its prediction and every check passes.
    """
    base, window = total.base, total_dims.window
    identities = _identity_checks(total, window)
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
        checks = identities + _iso_checks(total, h, window)
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


def _iso_checks(total: CircleProductModel, h: int, window: ModeWindow) -> list[dict]:
    """Pullback at (0, h), with no boundaries; integration at (p+1, h), all closed."""
    base, p = total.base, total.base.leaf_dim
    pull, push = pullback_terms(total), fiber_integration_terms(total)
    return [
        {
            "name": "pullback iso in fiber-low degrees (k = 0)",
            "passed": _induces_iso(pull, (base, (0, h)), (total, (0, h)), window),
            "detail": "",
        },
        {
            "name": "fiber integration iso above the leaf degree (k = p+1)",
            "passed": _induces_iso(push, (total, (p + 1, h)), (base, (p, h)), window),
            "detail": "",
        },
    ]


def _induces_iso(f: TermMap, src: tuple, tgt: tuple, window: ModeWindow) -> bool:
    """Whether the chain map f induces an isomorphism between two (model, bidegree) cells.

    Rank counts on the `closed_and_exact` vectors Z, B of every block: each
    side's cohomology has dim |Z| - dim span(B), and the induced map has rank
    dim span(f(Z_src) + B_tgt) - dim span(B_tgt).  Each side's walk builds
    its d_F term map once.
    """
    index: dict[FormMonomial, int] = {}
    coords = lambda vecs: [{index.setdefault(m, len(index)): c for m, c in v.items()} for v in vecs]

    def cells(model, bidegree):
        d_f = component_terms(model, "d_F")
        return (closed_and_exact(model, d_f, bidegree, key) for key in model.block_keys(window))

    field = tgt[0].field
    span = Echelon(field)
    tgt_dim = sum(len(z) - span.extend(coords(b)) for z, b in cells(*tgt))
    src_dim = rank = 0
    for z, b in cells(*src):
        src_dim += len(z) - span_dim(field, coords(b))
        rank += span.extend(coords(linear_extension(f, v.items()) for v in z))
    return rank == src_dim == tgt_dim
