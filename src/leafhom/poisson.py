"""Leafwise Poisson calculus on the punctured dual cone.

The leafwise bivector pairs the leaf direction with the radial direction;
its dual leafwise symplectic form is theta ^ dxi, homogeneous of degree one
under the radial scaling.  The boundary operator delta = [i_G, d] splits
into a leafwise piece of shift (-1, 0) and a transverse piece of shift
(-2, 1).  Each is a term map composed from two others: the contraction's and
that of the matching differential component (`delta_terms`), which every
homology, filtration and identity check on the cone reads.  The
star-conjugated leafwise differential, a term map composed with the star's,
gives an independent second route that the identity suite compares against.
The tensor, the identity suite and the correspondence table return their
report documents, the JSON the poisson report holds, verdicts included.

Sign conventions: the contraction i_G is fixed so that the induced bracket
on scalars is {f, g} = f_xi g_x - f_x g_xi in leaf coordinates (x, xi), which
also pins i_G(theta ^ dxi) = -1; every other sign is then forced by the
operator identities.
"""

from __future__ import annotations

from typing import Iterable

from .derham import (
    BigradedDims,
    block_homology,
    check_identities,
    component_terms,
    differential,
)
from .errors import UnsupportedModelError, ValidationError
from .models import (
    ConicDualModel,
    FoliatedModel,
    Form,
    FormMonomial,
    ModeWindow,
    TermMap,
    linear_extension,
)
from .scalars import Scalar

DELTA_VARIANTS = ("delta", "delta_F", "delta_perp")

# leaf-factor star table: exterior subset of (theta, dxi) -> (image subset, sign)
_STAR_TABLE = {
    (): ((0, 1), 1),
    (0,): ((0,), -1),
    (1,): ((1,), -1),
    (0, 1): ((), 1),
}


def _require_conic(model: FoliatedModel) -> ConicDualModel:
    if not isinstance(model, ConicDualModel):
        raise UnsupportedModelError("this operation needs the conic dual model")
    return model


def poisson_tensor(model: FoliatedModel) -> dict:
    """The leafwise bivector (leaf direction ^ radial direction) and its dual.

    The dual is omega = theta ^ dxi on every component, 1-homogeneous.
    """
    conic = _require_conic(model)
    omega = conic.monomial_form(1, ext=(0, 1))  # leaf covector ^ dxi
    parts = omega.homogeneity_decompose()
    assert list(parts) == [1], "leafwise symplectic form must be 1-homogeneous"
    return {
        "bivector": "T ^ d/dxi (leaf direction wedge radial direction)",
        "omega": repr(omega),
        "omega_homogeneity": sorted(parts),
    }


def _contraction_terms(conic: ConicDualModel) -> TermMap:
    """Term map of the interior product with the bivector: shift (-2, 0)."""
    minus_one = conic.field.scalar(-1)

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        # ext is increasing, so theta ^ dxi leads it: removing dxi (slot 1),
        # then theta (slot 0), gives the sign -1
        if mono.ext[:2] != (0, 1):
            return []
        return [(FormMonomial(mono.mode, mono.xi, mono.comp, mono.ext[2:]), minus_one)]

    return terms


def contract_bivector(model: FoliatedModel, form: Form) -> Form:
    """Interior product with the leafwise bivector: bidegree shift (-2, 0)."""
    return form.map(_contraction_terms(_require_conic(model)), model)


def bracket(f: Form, g: Form) -> Form:
    """Poisson bracket of two scalar forms: i_G(df ^ dg)."""
    model = f.model
    _require_conic(model)
    for form in (f, g):
        if any(m.ext for m in form.terms):
            raise ValidationError("poisson bracket takes scalar (bidegree (0,0)) forms")
    df = differential(model, "d", f)
    dg = differential(model, "d", g)
    return contract_bivector(model, df.wedge(dg))


def delta_terms(model: FoliatedModel, variant: str = "delta") -> TermMap:
    """Term map of the boundary operator i_G d - d i_G, or of a bigraded piece.

    The image of a monomial is composed from the term maps of the
    contraction and of the differential component.
    """
    conic = _require_conic(model)
    if variant not in DELTA_VARIANTS:
        raise ValidationError(f"unknown delta variant {variant!r}")
    d = component_terms(conic, {"delta": "d", "delta_F": "d_F", "delta_perp": "d_perp"}[variant])
    i_g = _contraction_terms(conic)

    def terms(mono: FormMonomial) -> Iterable[tuple[FormMonomial, Scalar]]:
        out = linear_extension(i_g, d(mono))
        return linear_extension(d, ((m, -c) for m, c in i_g(mono)), out).items()

    return terms


def delta(form: Form, variant: str = "delta") -> Form:
    """The boundary operator [i_G, d] or one of its bigraded pieces."""
    return form.map(delta_terms(form.model, variant))


def _star_terms(conic: ConicDualModel) -> TermMap:
    """Term map of the leafwise symplectic star: `_STAR_TABLE` on the leaf factor."""

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        image, sign = _STAR_TABLE[tuple(g for g in mono.ext if g in (0, 1))]
        ext = image + tuple(g for g in mono.ext if g not in (0, 1))
        return [(FormMonomial(mono.mode, mono.xi, mono.comp, ext), conic.field.scalar(sign))]

    return terms


def _star_conjugated_terms(conic: ConicDualModel) -> TermMap:
    """Term map of (-1)^(r+1) * d_F * on a monomial of bidegree (r, s)."""
    star, d_f = _star_terms(conic), component_terms(conic, "d_F")

    def terms(mono: FormMonomial) -> Iterable[tuple[FormMonomial, Scalar]]:
        image = linear_extension(star, linear_extension(d_f, star(mono)).items())
        if conic.bidegree(mono.ext)[0] % 2 == 0:
            return [(m, -c) for m, c in image.items()]
        return image.items()

    return terms


# -- identity suite -------------------------------------------------------------


def verify_star_delta_identity(
    model: FoliatedModel, window: ModeWindow | None = None
) -> dict:
    """Exact operator identities on every windowed basis monomial.

    Checks the star-conjugation identity for the leafwise boundary, the
    squares and anticommutator of the two boundary pieces, the splitting of
    the full boundary, star involutivity and the homogeneity bookkeeping.
    The report passes when every check does.
    """
    conic = _require_conic(model)
    p = conic.leaf_dim // 2
    star, star_d_f = _star_terms(conic), _star_conjugated_terms(conic)
    dl, dF, dP = (delta_terms(conic, v) for v in DELTA_VARIANTS)
    l_of, r_of = conic.homogeneity, lambda m: conic.bidegree(m.ext)[0]
    checks = check_identities(
        conic,
        window or ModeWindow(),
        [
            ("star_conjugated d_F equals leafwise delta", [(1, star_d_f), (-1, dF)]),
            ("delta_F^2 = 0", [(1, dF, dF)]),
            ("delta_perp^2 = 0", [(1, dP, dP)]),
            ("delta_F delta_perp + delta_perp delta_F = 0", [(1, dF, dP), (1, dP, dF)]),
            ("delta = delta_F + delta_perp", [(1, dl), (-1, dF), (-1, dP)]),
            ("star involution", [(1, star, star), (-1,)]),
            (
                "delta lowers homogeneity by one",
                (dl,),
                lambda a, img: all(l_of(m) == l_of(a) - 1 for m in img),
            ),
            (
                "star maps degree l to l + p - r",
                (star,),
                lambda a, img: all(l_of(m) == l_of(a) + p - r_of(a) for m in img),
            ),
        ],
        detail="{}",
    )
    return {"model": repr(conic), "passed": all(c["passed"] for c in checks), "checks": checks}


# -- homogeneous Poisson homology --------------------------------------------------


def _line_dims(
    conic: ConicDualModel, operator: str, c: int, window: ModeWindow
) -> dict[str, dict[int, int]]:
    """Homology of a boundary operator along the line k - l = c, per component.

    The operator lowers degree and homogeneity by one, so on each
    (component, mode) block the cells (k, k - c), k = 0 .. top, form one
    complex in degrees t = -l.  Each block complex gets its own term map, so
    the multipliers the term map caches are those of one block's keys.
    """
    top = conic.leaf_dim + conic.codim
    out = {name: dict.fromkeys(range(top + 1), 0) for name in conic.components}
    for comp, name in enumerate(conic.components):
        for mode in window.modes(conic.mode_len):
            cells = {k: conic.block_monomials((comp, mode, k - c)) for k in range(top + 1)}
            graded = {c - k: [m for m in b if len(m.ext) == k] for k, b in cells.items()}
            op = delta_terms(conic, operator)
            dims = block_homology(conic, op, graded, f"{(comp, mode)}, {operator} line k - l = {c}")
            for k in range(top + 1):
                out[name][k] += dims[c - k]
    return out


class BoundaryDims:
    """Homology dims of a boundary operator on the cone, read cell by cell.

    The first read of a cell (k, l) computes its whole line k - l = c, each
    block complex once; only the integer dims are kept.
    """

    def __init__(self, model: FoliatedModel, window: ModeWindow | None = None, operator="delta"):
        if operator not in ("delta", "delta_F"):
            raise ValidationError(f"unsupported homology operator {operator!r}")
        self.conic = _require_conic(model)
        self.window = window or ModeWindow()
        self.operator = operator
        self._lines: dict[int, dict[str, dict[int, int]]] = {}

    def get(self, k: int, l: int, per_component: bool = False):
        """dim of the degree-k homology on l-homogeneous forms; zero out of range."""
        if 0 <= k <= self.conic.leaf_dim + self.conic.codim:
            if k - l not in self._lines:
                self._lines[k - l] = _line_dims(self.conic, self.operator, k - l, self.window)
            per_comp = {name: dims[k] for name, dims in self._lines[k - l].items()}
        else:
            per_comp = dict.fromkeys(self.conic.components, 0)
        return per_comp if per_component else sum(per_comp.values())


# -- the three-pipeline correspondence ----------------------------------------------


def verify_homology_correspondence(
    delta_dims: BoundaryDims, delta_f_dims: BoundaryDims, circle_dims: BigradedDims
) -> dict:
    """Three independent pipelines for the same numbers, tabulated.

    (a) ``delta_dims``, full-boundary homology of the cone, (b)
    ``delta_f_dims``, leafwise-boundary homology, (c) ``circle_dims``, the
    leafwise cohomology of the cosphere-circle bundle of the cone's base, read
    at the shifted indices (p - l, k - l - p); rows outside |l| <= p must
    vanish.  The three tables share one cone and one window.  A row is
    consistent when its three dims agree; the report passes when every row is.
    """
    conic = delta_dims.conic
    if conic.torus is None:
        raise UnsupportedModelError("the correspondence table needs a torus base")
    window = circle_dims.window
    same = delta_f_dims.conic is conic and delta_dims.window == delta_f_dims.window == window
    if not same or (delta_dims.operator, delta_f_dims.operator) != ("delta", "delta_F"):
        raise ValidationError("the correspondence reads delta and delta_F on one cone and window")
    p = conic.leaf_dim // 2
    top = conic.leaf_dim + conic.codim
    rows = []
    for k in range(0, top + 1):
        for l in range(-p - 1, p + 2):
            r_idx, s_idx = p - l, k - l - p
            c = circle_dims.get(r_idx, s_idx) if s_idx >= 0 and r_idx >= 0 else 0
            a, b = delta_dims.get(k, l), delta_f_dims.get(k, l)
            rows.append(
                {
                    "k": k,
                    "l": l,
                    "delta": a,
                    "delta_F": b,
                    "circle_bundle": c,
                    "consistent": a == b == c,
                }
            )
    return {
        "model": repr(conic),
        "passed": all(r["consistent"] for r in rows),
        "formal": circle_dims.formal,
        "rows": rows,
    }
