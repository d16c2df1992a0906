"""Pullback and fiber integration for the product circle bundle over the torus.

The bundle is the product with one circle (`CircleProductModel`): leaves pick
up the circle direction, the pulled-back splitting is used upstairs, and fiber
integration is normalized to unit circle volume with the dphi factor removed
from the rightmost position (the sign convention that makes integration
intertwine the leafwise differentials on the nose; the intertwining is a
standing test, not an assumption).  The splitting table reads the leafwise
tables of the base and of the total space that it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derham import (
    BigradedDims,
    CheckResult,
    cohomology_representatives,
    differential,
)
from .errors import ValidationError
from .linalg import Echelon
from .models import (
    CircleProductModel,
    Form,
    FormMonomial,
    ModeWindow,
    pullback_from_base,
)
from .scalars import Scalar


def fiber_integrate(total: CircleProductModel, form: Form) -> Form:
    """Integrate over the circle fiber: unit volume, bidegree drop (1, 0).

    Kills monomials without the fiber coframe dphi or with a nonzero circle
    mode; the dphi factor is removed from the rightmost position.
    """
    if form.model is not total:
        raise ValidationError("form does not live on this bundle's total space")
    n, field = total.base.n, total.field

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        if mono.mode[n] != 0 or 1 not in mono.ext:
            return []
        # dphi is moved to the rightmost slot, past the generators after it
        tail = len(mono.ext) - mono.ext.index(1) - 1
        ext = tuple(g if g == 0 else g - 1 for g in mono.ext if g != 1)
        return [(FormMonomial(mono.mode[:n], 0, 0, ext), field.scalar((-1) ** tail))]

    return form.map(terms, total.base)


# -- induced maps on windowed cohomology ----------------------------------------


def _cohomology_map_is_iso(
    source_model,
    target_model,
    source_bidegree: tuple[int, int],
    target_bidegree: tuple[int, int],
    mapping,
    window: ModeWindow,
) -> bool:
    """Check that a chain map induces an isomorphism on windowed cohomology.

    Representatives are harvested per block; the induced matrix is evaluated
    against the target representatives modulo target coboundaries.
    """
    src_reps: list[Form] = []
    for key in source_model.block_keys(window):
        reps, _ = cohomology_representatives(source_model, source_bidegree, key, window)
        src_reps.extend(reps)
    tgt_reps: list[Form] = []
    tgt_boundaries: list[Form] = []
    for key in target_model.block_keys(window):
        reps, bounds = cohomology_representatives(target_model, target_bidegree, key, window)
        tgt_reps.extend(reps)
        tgt_boundaries.extend(bounds)
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
    h: int,
    base_dims: BigradedDims,
    total_dims: BigradedDims,
) -> SplittingReport:
    """Direct vs predicted dimensions for the product circle bundle.

    ``base_dims`` and ``total_dims`` are the leafwise tables of the base torus
    and of ``total``; the checks run on their window.  Prediction:
    dim H^{k,h}(total) = dim H^{k,h}(base) + dim H^{k-1,h}(base).  The direct
    column is read off ``total_dims``, the short-exact splitting is exhibited
    by the fiber-class wedge, and the pullback / integration isomorphism
    ranges are verified on representatives.
    """
    base = total.base
    rows = []
    for k in range(0, base.leaf_dim + 2):
        base_term = base_dims.get(k, h)
        shifted = base_dims.get(k - 1, h) if k >= 1 else 0
        rows.append(SplittingRow(k, total_dims.get(k, h), base_term + shifted, base_term, shifted))
    checks = _realized_checks(total, h, total_dims.window)
    return SplittingReport(repr(base), h, tuple(rows), tuple(checks))


def _realized_checks(total, h, window) -> list[CheckResult]:
    base = total.base
    p = base.leaf_dim
    pullback = lambda f: pullback_from_base(total, f)
    checks = []
    # intertwining on the windowed generator basis, both directions
    ok_pull, ok_push = True, True
    for mono in base.basis_monomials(window):
        form = base.form({mono: base.field.one})
        if differential(total, "d_F", pullback(form)) != pullback(
            differential(base, "d_F", form)
        ):
            ok_pull = False
            break
    for mono in total.basis_monomials(window):
        form = total.form({mono: total.field.one})
        if differential(base, "d_F", fiber_integrate(total, form)) != fiber_integrate(
            total, differential(total, "d_F", form)
        ):
            ok_push = False
            break
    checks.append(CheckResult("pullback intertwines d_F", ok_pull))
    checks.append(CheckResult("fiber integration intertwines d_F", ok_push))
    # pi_* pi^* = 0 (degree bookkeeping: no fiber factor after pullback)
    ok_zero = True
    for mono in base.basis_monomials(ModeWindow(bound=1)):
        form = base.form({mono: base.field.one})
        if fiber_integrate(total, pullback(form)):
            ok_zero = False
            break
    checks.append(CheckResult("fiber integration kills pullbacks", ok_zero))
    # composite pi_* (pi^*(c) ^ [dphi]) = c on cohomology representatives:
    # the fiber-class wedge splits the short exact sequence
    fiber_class = total.gen_form("dphi")
    ok_split = differential(total, "d_F", fiber_class).is_zero()
    for key in base.block_keys(window):
        for k in range(0, p + 2):
            reps, _ = cohomology_representatives(base, (k, h), key, window)
            for rep in reps:
                back = fiber_integrate(total, pullback(rep).wedge(fiber_class))
                if back != rep:
                    ok_split = False
    checks.append(CheckResult("fiber-class wedge splits the sequence", ok_split))
    # isomorphism ranges: pullback for k <= r-1 = 0, integration for k >= p+1
    iso_pull = _cohomology_map_is_iso(base, total, (0, h), (0, h), pullback, window)
    checks.append(CheckResult("pullback iso in fiber-low degrees (k = 0)", iso_pull))
    iso_push = _cohomology_map_is_iso(
        total,
        base,
        (p + 1, h),
        (p, h),
        lambda f: fiber_integrate(total, f),
        window,
    )
    checks.append(
        CheckResult("fiber integration iso above the leaf degree (k = p+1)", iso_push)
    )
    return checks
