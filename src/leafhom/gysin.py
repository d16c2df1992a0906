"""Pullback and fiber integration for the product circle bundle over the torus.

The bundle is the product with one circle (`CircleProductModel`): leaves pick
up the circle direction, the pulled-back splitting is used upstairs, and fiber
integration is normalized to unit circle volume with the dphi factor removed
from the rightmost position (the sign convention that makes integration
intertwine the leafwise differentials on the nose; the intertwining is a
standing test, not an assumption).  Both maps are term maps; the chain-map
checks do not depend on the transverse degree h and run once.  The splitting
table reads the leafwise tables of the base and of the total space that it is
given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derham import (
    BigradedDims,
    CheckResult,
    check_identities,
    cohomology_representatives,
    component_terms,
    differential,
)
from .errors import ValidationError
from .linalg import Echelon
from .models import (
    CircleProductModel,
    Form,
    FormMonomial,
    ModeWindow,
    TermMap,
    pullback_from_base,
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


def fiber_integrate(total: CircleProductModel, form: Form) -> Form:
    """Integrate over the circle fiber."""
    if form.model is not total:
        raise ValidationError("form does not live on this bundle's total space")
    return form.map(fiber_integration_terms(total), total.base)


# -- induced maps on windowed cohomology ----------------------------------------


def _cohomology_map_is_iso(src, tgt, mapping, target_model) -> bool:
    """Check that a chain map induces an isomorphism on windowed cohomology.

    ``src`` and ``tgt`` are harvested (representatives, coboundaries); the
    induced matrix is evaluated against the target representatives modulo
    target coboundaries.
    """
    (src_reps, _), (tgt_reps, tgt_boundaries) = src, tgt
    index: dict[FormMonomial, int] = {}

    def coords(form: Form) -> dict[int, Scalar]:
        vec = {}
        for m, c in form.terms.items():
            if m not in index:
                index[m] = len(index)
            vec[index[m]] = c
        return vec

    boundary_span = Echelon(target_model.field)
    boundary_span.extend([coords(b) for b in tgt_boundaries])
    # the span of mapped classes modulo boundaries
    mapped_span = Echelon(target_model.field)
    for rep in src_reps:
        mapped_span.add(boundary_span.reduce(coords(mapping(rep))))
    return mapped_span.dim == len(src_reps) == len(tgt_reps)


# -- the splitting table ----------------------------------------------------------


@dataclass(frozen=True)
class SplittingRow:
    k: int
    direct: int
    predicted: int
    base_term: int
    shifted_term: int

    @property
    def consistent(self) -> bool:
        return self.direct == self.predicted

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "direct": self.direct,
            "predicted": self.predicted,
            "base_term": self.base_term,
            "shifted_term": self.shifted_term,
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class SplittingReport:
    base: str
    h: int
    rows: tuple[SplittingRow, ...]
    checks: tuple[CheckResult, ...]
    sign_convention: str = "fiber factor removed from the rightmost slot, unit volume"

    @property
    def passed(self) -> bool:
        return all(r.consistent for r in self.rows) and all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "fiber_dim": 1,
            "transverse_degree": self.h,
            "sign_convention": self.sign_convention,
            "passed": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "checks": [c.to_json() for c in self.checks],
        }


def product_splitting_dims(
    total: CircleProductModel,
    base_dims: BigradedDims,
    total_dims: BigradedDims,
) -> list[SplittingReport]:
    """Direct vs predicted dimensions for the product circle bundle, one report per h.

    ``base_dims`` and ``total_dims`` are the leafwise tables of the base torus
    and of ``total``; the checks run on their window.  Prediction:
    dim H^{k,h}(total) = dim H^{k,h}(base) + dim H^{k-1,h}(base).  The direct
    column is read off ``total_dims``, the short-exact splitting is exhibited
    by the fiber-class wedge, and the pullback / integration isomorphism
    ranges are verified on representatives.
    """
    base, window = total.base, total_dims.window
    chain_checks = _chain_map_checks(total, window)
    reports = []
    for h in range(base.codim + 1):
        rows = []
        for k in range(0, base.leaf_dim + 2):
            base_term = base_dims.get(k, h)
            shifted = base_dims.get(k - 1, h) if k >= 1 else 0
            rows.append(
                SplittingRow(k, total_dims.get(k, h), base_term + shifted, base_term, shifted)
            )
        checks = chain_checks + _representative_checks(total, h, window)
        reports.append(SplittingReport(repr(base), h, tuple(rows), checks))
    return reports


def _chain_map_checks(total: CircleProductModel, window: ModeWindow) -> tuple[CheckResult, ...]:
    """Pullback and fiber integration intertwine d_F; integration kills pullbacks."""
    base = total.base
    pull, push = pullback_terms(total), fiber_integration_terms(total)
    d_b, d_t = component_terms(base, "d_F"), component_terms(total, "d_F")
    walks = [
        (base, window, "pullback intertwines d_F", [(1, d_t, pull), (-1, pull, d_b)]),
        (total, window, "fiber integration intertwines d_F", [(1, d_b, push), (-1, push, d_t)]),
        # pi_* pi^* = 0 (degree bookkeeping: no fiber factor after pullback)
        (base, window, "fiber integration kills pullbacks", [(1, push, pull)]),
    ]
    return sum((check_identities(m, w, [(name, terms)]) for m, w, name, terms in walks), ())


def _harvest(model, bidegree, window, boundaries=True) -> tuple[list[Form], list[Form]]:
    """(representatives, coboundaries) at ``bidegree``, over every block."""
    reps, bounds = [], []
    for key in model.block_keys(window):
        r, b = cohomology_representatives(model, bidegree, key, window)
        reps.extend(r)
        bounds.extend(b if boundaries else ())
    return reps, bounds


def _representative_checks(total, h, window) -> tuple[CheckResult, ...]:
    base = total.base
    p = base.leaf_dim
    # (0, h) and (p, h) serve the iso checks too
    base_sets = [_harvest(base, (k, h), window) for k in range(0, p + 2)]
    pullback = lambda f: pullback_from_base(total, f)
    # composite pi_* (pi^*(c) ^ [dphi]) = c on cohomology representatives:
    # the fiber-class wedge splits the short exact sequence
    fiber_class = total.gen_form("dphi")
    ok_split = differential(total, "d_F", fiber_class).is_zero()
    for reps, _ in base_sets:
        for rep in reps:
            if fiber_integrate(total, pullback(rep).wedge(fiber_class)) != rep:
                ok_split = False
    # isomorphism ranges: pullback for k <= r-1 = 0, integration for k >= p+1
    iso_pull = _cohomology_map_is_iso(
        base_sets[0], _harvest(total, (0, h), window), pullback, total
    )
    iso_push = _cohomology_map_is_iso(
        _harvest(total, (p + 1, h), window, boundaries=False),
        base_sets[p],
        lambda f: fiber_integrate(total, f),
        base,
    )
    return (
        CheckResult("fiber-class wedge splits the sequence", ok_split),
        CheckResult("pullback iso in fiber-low degrees (k = 0)", iso_pull),
        CheckResult("fiber integration iso above the leaf degree (k = p+1)", iso_push),
    )
