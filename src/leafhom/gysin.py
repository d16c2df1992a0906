"""Pullback and fiber integration for product circle bundles over the torus.

The realized case is the product with one circle: leaves pick up the circle
direction, the pulled-back splitting is used upstairs, and fiber integration
is normalized to unit circle volume with the dphi factor removed from the
rightmost position (the sign convention that makes integration intertwine
the leafwise differentials on the nose; the intertwining is a standing test,
not an assumption).  For higher fiber dimensions only the dimension-formula
prediction is produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derham import (
    CheckResult,
    cohomology_dims,
    cohomology_representatives,
    differential,
)
from .errors import UnsupportedModelError, ValidationError
from .linalg import Echelon
from .models import (
    CircleProductModel,
    Form,
    FormMonomial,
    KroneckerTorus,
    ModeWindow,
    pullback_from_base,
)
from .scalars import Scalar


class ProductBundle:
    """M x S^r over a Kronecker torus; r = 1 carries a full form-level model."""

    __slots__ = ("base", "fiber_dim", "_total")

    def __init__(self, base: KroneckerTorus, fiber_dim: int):
        if not isinstance(base, KroneckerTorus):
            raise ValidationError("product bundles need a Kronecker torus base")
        if fiber_dim < 1:
            raise ValidationError("fiber dimension must be positive")
        self.base = base
        self.fiber_dim = fiber_dim
        self._total = CircleProductModel(base) if fiber_dim == 1 else None

    @property
    def realized(self) -> bool:
        return self.fiber_dim == 1

    def total_model(self) -> CircleProductModel:
        if self._total is None:
            raise UnsupportedModelError(
                f"only the circle fiber is realized at form level (r={self.fiber_dim})"
            )
        return self._total

    def __repr__(self) -> str:
        return f"ProductBundle({self.base!r}, fiber_dim={self.fiber_dim})"


def pullback(bundle: ProductBundle, form: Form) -> Form:
    """Pull a base form up to the total space (injective on monomials)."""
    model = bundle.total_model()
    return pullback_from_base(model, form)


def fiber_integrate(bundle: ProductBundle, form: Form) -> Form:
    """Integrate over the circle fiber: unit volume, bidegree drop (1, 0).

    Kills monomials without the fiber coframe dphi or with a nonzero circle
    mode; the dphi factor is removed from the rightmost position.
    """
    model = bundle.total_model()
    if form.model is not model:
        raise ValidationError("form does not live on this bundle's total space")
    n, field = bundle.base.n, model.field

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        if mono.mode[n] != 0 or 1 not in mono.ext:
            return []
        # dphi is moved to the rightmost slot, past the generators after it
        tail = len(mono.ext) - mono.ext.index(1) - 1
        ext = tuple(g if g == 0 else g - 1 for g in mono.ext if g != 1)
        return [(FormMonomial(mono.mode[:n], 0, 0, ext), field.scalar((-1) ** tail))]

    return form.map(terms, bundle.base)


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
    tgt_keys = list(target_model.block_keys(window))
    for key in tgt_keys:
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
    for b in tgt_boundaries:
        boundary_span.add(coords(b))
    # dimension of the span of mapped classes modulo boundaries
    mapped_span = Echelon(target_model.field)
    mapped_dim = 0
    for rep in src_reps:
        image = mapping(rep)
        residual = boundary_span.reduce(coords(image))
        if mapped_span.add(residual):
            mapped_dim += 1
    return mapped_dim == len(src_reps) == len(tgt_reps)


# -- the splitting table ----------------------------------------------------------


@dataclass(frozen=True)
class SplittingRow:
    k: int
    direct: int | None
    predicted: int
    base_term: int
    shifted_term: int

    @property
    def consistent(self) -> bool:
        return self.direct is None or self.direct == self.predicted

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
    fiber_dim: int
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
            "fiber_dim": self.fiber_dim,
            "transverse_degree": self.h,
            "sign_convention": self.sign_convention,
            "passed": self.passed,
            "rows": [r.to_json() for r in self.rows],
            "checks": [c.to_json() for c in self.checks],
        }


def product_splitting_dims(
    base: KroneckerTorus,
    fiber_dim: int,
    h: int,
    window: ModeWindow | None = None,
) -> SplittingReport:
    """Direct vs predicted dimensions for the product sphere bundle.

    Prediction: dim H^{k,h}(total) = dim H^{k,h}(base) + dim H^{k-r,h}(base).
    For r = 1 the direct column is computed on the realized model, the
    short-exact splitting is exhibited by the fiber-class wedge, and the
    pullback / integration isomorphism ranges are verified on representatives.
    """
    window = window or ModeWindow()
    if not isinstance(base, KroneckerTorus):
        raise ValidationError("product splitting needs a Kronecker torus base")
    bundle = ProductBundle(base, fiber_dim)
    base_dims = cohomology_dims(base, window)
    p = base.leaf_dim
    rows = []
    direct_dims = None
    total = None
    if bundle.realized:
        total = bundle.total_model()
        direct_dims = cohomology_dims(total, window)
    for k in range(0, p + fiber_dim + 1):
        base_term = base_dims.get(k, h)
        shifted = base_dims.get(k - fiber_dim, h) if k >= fiber_dim else 0
        direct = direct_dims.get(k, h) if direct_dims is not None else None
        rows.append(SplittingRow(k, direct, base_term + shifted, base_term, shifted))
    checks: list[CheckResult] = []
    if bundle.realized:
        assert total is not None
        checks.extend(_realized_checks(bundle, total, h, window, rows))
    return SplittingReport(repr(base), fiber_dim, h, tuple(rows), tuple(checks))


def _realized_checks(bundle, total, h, window, rows) -> list[CheckResult]:
    base = bundle.base
    p = base.leaf_dim
    checks = []
    # intertwining on the windowed generator basis, both directions
    ok_pull, ok_push = True, True
    for mono in base.basis_monomials(window):
        form = base.form({mono: base.field.one})
        if differential(total, "d_F", pullback(bundle, form)) != pullback(
            bundle, differential(base, "d_F", form)
        ):
            ok_pull = False
            break
    for mono in total.basis_monomials(window):
        form = total.form({mono: total.field.one})
        if differential(base, "d_F", fiber_integrate(bundle, form)) != fiber_integrate(
            bundle, differential(total, "d_F", form)
        ):
            ok_push = False
            break
    checks.append(CheckResult("pullback intertwines d_F", ok_pull))
    checks.append(CheckResult("fiber integration intertwines d_F", ok_push))
    # pi_* pi^* = 0 (degree bookkeeping: no fiber factor after pullback)
    ok_zero = True
    for mono in base.basis_monomials(ModeWindow(bound=1)):
        form = base.form({mono: base.field.one})
        if fiber_integrate(bundle, pullback(bundle, form)):
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
                back = fiber_integrate(bundle, pullback(bundle, rep).wedge(fiber_class))
                if back != rep:
                    ok_split = False
    checks.append(CheckResult("fiber-class wedge splits the sequence", ok_split))
    # isomorphism ranges: pullback for k <= r-1 = 0, integration for k >= p+1
    iso_pull = _cohomology_map_is_iso(
        base, total, (0, h), (0, h), lambda f: pullback(bundle, f), window
    )
    checks.append(CheckResult("pullback iso in fiber-low degrees (k = 0)", iso_pull))
    iso_push = _cohomology_map_is_iso(
        total,
        base,
        (p + 1, h),
        (p, h),
        lambda f: fiber_integrate(bundle, f),
        window,
    )
    checks.append(
        CheckResult("fiber integration iso above the leaf degree (k = p+1)", iso_push)
    )
    return checks
