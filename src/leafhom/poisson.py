"""Leafwise Poisson calculus on the punctured dual cone.

The leafwise bivector pairs the leaf direction with the radial direction;
its dual leafwise symplectic form is theta ^ dxi, homogeneous of degree one
under the radial scaling.  The boundary operator delta = [i_G, d] splits
into a leafwise piece of shift (-1, 0) and a transverse piece of shift
(-2, 1).  Each is a term map written from the block's multipliers
(`delta_terms`): by the Cartan identity only the theta and dxi terms of d
fail to commute with i_G, so delta is two contractions, plus the composite
of i_G with the frame terms on a frame cone.  Every homology, filtration
and identity check on the cone reads it, and the identity suite checks it
against [i_G, d] composed from the two term maps.  The suite also composes
a second route to delta_F that never reads delta: star d_F star, signed by
(-1)^(r+1) on bidegree (r, s).
The boundary homology (`BoundaryDims`) ranks a block of a torus cone only
when its theta multiplier c is zero: for c != 0, -c^-1 eps_dxi contracts delta
and delta_F (`derham.contracted`, flagged on theta), so the block adds
nothing to any line.  The table settles each (comp, mode) block once, and
every line of both operators walks the blocks left open.  Frame cones, and
the specseq filtration on every cone, rank every block.
The tensor, the identity suite and the correspondence table return their
report documents, the JSON the poisson report holds, verdicts included; the
tensor writes omega from its monomials.  The bracket and delta on forms, which
the tests state the paper's identities with, extend these maps (tests/forms.py).

Sign conventions: the contraction i_G is fixed so that the induced bracket
on scalars is {f, g} = f_xi g_x - f_x g_xi in leaf coordinates (x, xi), which
also pins i_G(theta ^ dxi) = -1; every other sign is then forced by the
operator identities.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .derham import (
    BigradedDims,
    _component_filter,
    block_homology,
    check_identities,
    component_terms,
    contracted,
)
from .errors import UnsupportedModelError, ValidationError
from .models import (
    ConicDualModel,
    FoliatedModel,
    FormMonomial,
    ModeWindow,
    TermMap,
    _frame_d,
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

    The dual is omega = theta ^ dxi at the zero mode on every component,
    written as (c)*label terms in component order; it must be 1-homogeneous.
    """
    conic = _require_conic(model)
    zero = (0,) * conic.mode_len
    # the leaf covector keeps slot 0 and dxi slot 1, so theta ^ dxi is ext (0, 1)
    omega = [FormMonomial(zero, 0, comp, (0, 1)) for comp in range(conic.components_count)]
    degrees = sorted({conic.homogeneity(m) for m in omega})
    if degrees != [1]:
        raise ValidationError(f"leafwise symplectic form must be 1-homogeneous, not {degrees}")
    one = conic.field.one
    return {
        "bivector": "T ^ d/dxi (leaf direction wedge radial direction)",
        "omega": " + ".join(f"({one})*{conic.monomial_label(m)}" for m in omega),
        "omega_homogeneity": degrees,
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


def delta_terms(model: FoliatedModel, variant: str = "delta") -> TermMap:
    """Term map of the boundary operator i_G d - d i_G, or of a bigraded piece.

    i_G = iota_theta iota_dxi, so by the Cartan identity it commutes with
    eps_g for every generator g but theta and dxi.  The multiplier part of
    [i_G, d] is therefore two contractions, written from the block's
    multipliers: on xi^a e_S it is a iota_theta(e_S) xi^(a-1) - c iota_dxi(e_S)
    xi^a, with c the block's theta multiplier (m . alpha on a torus cone),
    each term kept when its generator's term passes the shift filter of the
    matching component (`derham._component_filter`).  The coefficient is
    the xi power a, not dxi's multiplier l: the two sides of the commutator
    read blocks l and l - 1, whose theta multipliers agree.  The frame terms
    d e^k of a frame cone keep the composite of the contraction's term map
    with theirs.  The star-delta suite checks delta against the composite
    [i_G, d] on every windowed monomial.
    """
    conic = _require_conic(model)
    if variant not in DELTA_VARIANTS:
        raise ValidationError(f"unknown delta variant {variant!r}")
    kept, frame = _component_filter(
        conic, {"delta": "d", "delta_F": "d_F", "delta_perp": "d_perp"}[variant]
    )
    theta, xi_gen = 0, conic.XI_GEN  # the base's leaf generator keeps slot 0
    i_g, scalar = _contraction_terms(conic), conic.field.scalar
    has_frame = any(frame)

    def frame_d(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        return _frame_d(frame, mono)

    def terms(mono: FormMonomial) -> Iterable[tuple[FormMonomial, Scalar]]:
        mode, xi, comp, ext = mono
        leads = ext[:1] == (theta,)
        out = []
        if leads and xi and kept[xi_gen]:
            out.append((FormMonomial(mode, xi - 1, comp, ext[1:]), scalar(xi)))
        if xi_gen in ext[:2] and kept[theta]:
            mults = conic.block_multipliers(conic.block_key(mono))
            if mults and mults[0][0] == theta:  # sorted by generator: theta's, if nonzero
                _theta, c, neg = mults[0]
                # iota_dxi(e_S) = -e_(S - dxi) when theta leads S, +e_(S - dxi) otherwise
                rest = ext[:1] + ext[2:] if leads else ext[1:]
                out.append((FormMonomial(mode, xi, comp, rest), c if leads else neg))
        if not has_frame:
            return out
        image = linear_extension(i_g, frame_d(mono), dict(out))
        return linear_extension(frame_d, ((m, -c) for m, c in i_g(mono)), image).items()

    return terms


def _star_terms(conic: ConicDualModel) -> TermMap:
    """Term map of the leafwise symplectic star: `_STAR_TABLE` on the leaf factor."""
    signs = {1: conic.field.one, -1: conic.field.scalar(-1)}

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        image, sign = _STAR_TABLE[tuple(g for g in mono.ext if g in (0, 1))]
        ext = image + tuple(g for g in mono.ext if g not in (0, 1))
        return [(FormMonomial(mono.mode, mono.xi, mono.comp, ext), signs[sign])]

    return terms


# -- identity suite -------------------------------------------------------------


def verify_star_delta_identity(
    model: FoliatedModel, window: ModeWindow | None = None
) -> dict:
    """Exact operator identities on every windowed basis monomial.

    Checks the boundary against its definition [i_G, d] composed from the
    term maps, the star-conjugation identity for the leafwise boundary, the
    squares and anticommutator of the two boundary pieces, the splitting of
    the full boundary, star involutivity and the homogeneity bookkeeping.
    The report passes when every check does.
    """
    conic = _require_conic(model)
    p = conic.leaf_dim // 2
    star, d_f = _star_terms(conic), component_terms(conic, "d_F")
    dl, dF, dP = (delta_terms(conic, v) for v in DELTA_VARIANTS)
    i_g, d = _contraction_terms(conic), component_terms(conic, "d")
    l_of, r_of = conic.homogeneity, lambda m: conic.bidegree(m.ext)[0]
    signs = (conic.field.scalar(-1), conic.field.one)
    parity = lambda m: ((m, signs[r_of(m) % 2]),)  # (-1)^(r+1) on bidegree (r, s)
    checks = check_identities(
        conic,
        window or ModeWindow(),
        [
            ("delta = [i_G, d]", [(1, dl), (-1, i_g, d), (1, d, i_g)]),
            ("star_conjugated d_F equals leafwise delta", [(1, star, d_f, star, parity), (-1, dF)]),
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


def line_blocks(
    conic: ConicDualModel, c: int, window: ModeWindow
) -> Iterator[tuple[tuple, dict[int, list[FormMonomial]]]]:
    """The block complexes of the line k - l = c: ((comp, mode), {t: cell}).

    A boundary operator lowers degree and homogeneity by one, so on each
    (component, mode) block the cells of degree k = c + l at homogeneity l,
    k = 0 .. top, form one complex in degrees t = -l (`_line_cells`).  The
    blocks are the window's `block_keys` at l = 0, as in `BoundaryDims`.
    """
    for comp, mode, _l in conic.block_keys(ModeWindow(window.bound, 0, 0)):
        yield (comp, mode), _line_cells(conic, c, (comp, mode))


def _line_cells(conic: ConicDualModel, c: int, block: tuple) -> dict[int, list[FormMonomial]]:
    """One block's cells on the line k - l = c: one pass over the exterior basis
    builds each monomial once, and a cell keeps basis order."""
    (comp, mode), xi_gen = block, conic.XI_GEN
    top = conic.leaf_dim + conic.codim
    cells: dict[int, list[FormMonomial]] = {c - k: [] for k in range(top + 1)}
    for ext in conic.exterior.subsets:
        l = len(ext) - c
        cells[-l].append(FormMonomial(mode, l - (xi_gen in ext), comp, ext))
    return cells


class BoundaryDims:
    """Homology dims of delta and delta_F on the cone, read cell by cell.

    One table serves both operators.  It finds its open (comp, mode) blocks
    once, when it is built, from the window's `block_keys` at l = 0: on a
    torus cone the blocks with a nonzero theta multiplier are settled as
    acyclic by the homotopy of `derham.contracted`, whose Cartan identity the
    cone's exterior tables, read first, have checked; frame cones leave every
    block open.  The first read of a cell (k, l) under an operator computes
    that operator's whole line k - l = c over the open blocks, each block
    complex once; only the integer dims are kept.
    """

    def __init__(self, model: FoliatedModel, window: ModeWindow | None = None):
        conic = self.conic = _require_conic(model)
        self.window = window or ModeWindow()
        # reading the exterior tables (one insertion table per generator) checks them first
        theta = [g == 0 for g in range(len(conic.exterior.insert))]
        keys = conic.block_keys(ModeWindow(self.window.bound, 0, 0))
        self._open = [key[:2] for key in keys if not contracted(conic, key, theta)]
        self._lines: dict[tuple[str, int], dict[str, dict[int, int]]] = {}

    def get(self, operator: str, k: int, l: int, per_component: bool = False):
        """dim of the degree-k ``operator`` homology on l-homogeneous forms; zero out of range."""
        if operator not in ("delta", "delta_F"):
            raise ValidationError(f"unsupported homology operator {operator!r}")
        if 0 <= k <= self.conic.leaf_dim + self.conic.codim:
            line = (operator, k - l)
            if line not in self._lines:
                self._lines[line] = self._line_dims(operator, k - l)
            per_comp = {name: dims[k] for name, dims in self._lines[line].items()}
        else:
            per_comp = dict.fromkeys(self.conic.components, 0)
        return per_comp if per_component else sum(per_comp.values())

    def _line_dims(self, operator: str, c: int) -> dict[str, dict[int, int]]:
        """Homology of ``operator`` along the line k - l = c, per component: each
        open block is ranked, and a settled block adds nothing to any line."""
        conic, top = self.conic, self.conic.leaf_dim + self.conic.codim
        out = {name: dict.fromkeys(range(top + 1), 0) for name in conic.components}
        op = delta_terms(conic, operator)
        for block in self._open:
            cells = _line_cells(conic, c, block)
            dims = block_homology(conic, op, cells, f"{block}, {operator} line k - l = {c}")
            for t, h in dims.items():
                out[conic.components[block[0]]][c - t] += h
        return out


# -- the three-pipeline correspondence ----------------------------------------------


def verify_homology_correspondence(boundary: BoundaryDims, circle_dims: BigradedDims) -> dict:
    """Three independent pipelines for the same numbers, tabulated.

    (a) full-boundary and (b) leafwise-boundary homology of the cone, both
    read off ``boundary``, (c) ``circle_dims``, the leafwise cohomology of the
    cosphere-circle bundle of the cone's base, read at the shifted indices
    (p - l, k - l - p); rows outside |l| <= p must vanish.  The two tables
    share one window.  A row is consistent when its three dims agree; the
    report passes when every row is.
    """
    conic = boundary.conic
    if conic.torus is None:
        raise UnsupportedModelError("the correspondence table needs a torus base")
    if boundary.window != circle_dims.window:
        raise ValidationError("the correspondence reads its two tables on one window")
    p = conic.leaf_dim // 2
    top = conic.leaf_dim + conic.codim
    rows = []
    for k in range(0, top + 1):
        for l in range(-p - 1, p + 2):
            r_idx, s_idx = p - l, k - l - p
            c = circle_dims.get(r_idx, s_idx) if s_idx >= 0 and r_idx >= 0 else 0
            a, b = boundary.get("delta", k, l), boundary.get("delta_F", k, l)
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
