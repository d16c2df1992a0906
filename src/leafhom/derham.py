"""Bigraded leafwise de Rham calculus and exact cohomology dimensions.

The full differential splits into bi-homogeneous components of shifts
(1,0), (0,1) and (-1,2) (leafwise, transverse, curvature contraction); each
is built from the model's data of its shift, so the identity suite verifies
that d is their sum rather than assuming it.  `check_identities` checks
identities written as data on every windowed basis monomial, which by
linearity covers every form.  The identity suite and the basic table return
their report documents, the JSON the derham report holds, verdicts included.

Cohomology dimensions are computed block by block: every supported
differential preserves the block (comp, mode, l) of `FoliatedModel.block_key`,
so the complex is a direct sum of small exact-arithmetic complexes indexed by
the window; a block's monomials are grouped by bidegree once
(`_by_bidegree`).  On a model built on a Kronecker torus (``model.torus`` is
not None), d on a block is sum c_g eps_g over the block's `multipliers`, and
`koszul_block_dims` settles the block: a nonzero leaf multiplier c_j makes
h = c_j^-1 iota_j a contracting homotopy, and with none d_F vanishes.  The
Cartan identity eps_g iota_j + iota_j eps_g = delta_gj behind h is checked
on the model's exterior tables (`models.ExteriorTables`) for every table.

An operator is a term map (`models.TermMap`): its action on one monomial,
a list of (monomial, coefficient).  `component_terms` gives d and its three
components, each caching its blocks' multipliers as Scalars; `Form.map` is
the one linear extension to forms.

One block engine ranks the other blocks: the leafwise tables of frame models
and their cones, the basic table and closed/exact sets here, poisson's
boundary homology and the specseq filtration use it.  A block is given as its
monomial bases by degree; `block_differentials` assembles each differential
d_t once, reading the term map of each source monomial into the matrix
(`operator_matrix`), and `linalg.homology_dims` ranks each d_t once and returns
dim C^t - rank d_t - rank d_(t-1).  Its invariants: d_(t+1) d_t = 0 is checked
once per consecutive pair; an image term outside the next degree of the block
raises (the leak check), so a wrong block split or grading is never counted;
and no dimension is negative.  Each failure raises ComplexViolationError
naming the block and the degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import ComplexViolationError, UnsupportedModelError, ValidationError
from .linalg import SparseMatrix, homology_dims, rank, rank_kernel
from .models import (
    FoliatedModel,
    Form,
    FormMonomial,
    KroneckerTorus,
    ModeWindow,
    TermMap,
    _frame_d,
    _multiplier_d,
    check_cartan_identity,
    linear_extension,
)
from .scalars import Scalar

_SHIFTS = {"d": None, "d_F": (1, 0), "d_perp": (0, 1), "boundary": (-1, 2)}
COMPONENTS = tuple(_SHIFTS)


def component_terms(model: FoliatedModel, component: str) -> TermMap:
    """Term map of d, or of one bigraded component, from the model's data.

    `_multiplier_d` over the block's multipliers (g, c), of shift bideg(g), plus
    `_frame_d` over the frame terms g -> c a ^ b, of shift bideg(a ^ b) - bideg(g):
    d keeps every term, a component the terms of its shift.  The term map
    keeps, per block key, the block's kept nonzero multipliers as Scalars
    (g, c, -c); the cache lives in the closure, so it belongs to one model
    and one component."""
    if component not in COMPONENTS:
        raise ValidationError(f"unknown differential component {component!r}")
    shift = _SHIFTS[component]

    def keep(gained: tuple[int, ...], lost: tuple[int, ...] = ()) -> bool:
        (r, s), (r0, s0) = model.bidegree(gained), model.bidegree(lost)
        return shift is None or (r - r0, s - s0) == shift

    kept = [keep((g,)) for g in range(len(model.gen_names))]
    frame = [[(c, ab) for c, ab in row if keep(ab, (g,))] for g, row in enumerate(model._dual_d)]
    blocks: dict[tuple, list[tuple[int, Scalar, Scalar]]] = {}

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        key = model.block_key(mono)
        mults = blocks.get(key)
        if mults is None:
            # field.scalar shares the Scalars of small ints, the usual multipliers
            scalar = model.field.scalar
            mults = [(g, scalar(c), scalar(-c)) for g, c in model.multipliers(key) if kept[g] and c]
            blocks[key] = mults
        out = _multiplier_d(model, mono, mults)
        return out + _frame_d(frame, mono) if frame else out

    return terms


def differential(model: FoliatedModel, component: str, form: Form) -> Form:
    """Apply d or one of its bigraded components to a form."""
    return form.map(component_terms(model, component), model)


# -- identity suite -----------------------------------------------------------


def check_identities(
    model: FoliatedModel,
    window: ModeWindow,
    identities: Sequence[tuple],
    detail: str = "counterexample: {}",
) -> list[dict]:
    """Check identities on the windowed basis; name each one's first counterexample.

    An identity is (name, [(c, f, g, ...), ...]), composites c * f g ... of term
    maps that must sum to zero, or (name, maps, holds), a predicate
    holds(mono, image) on one composite's image.  Each image of a monomial is
    computed once and shared by every identity.  Returns one check document
    {"name", "passed", "detail"} per identity.
    """
    bad: dict[str, str] = {}
    for mono in model.basis_monomials(window):
        images: dict[tuple, dict[FormMonomial, Scalar]] = {(): {mono: model.field.one}}
        for name, *spec in identities:
            if name in bad:
                continue
            if len(spec) == 2:
                holds = spec[1](mono, _image(images, spec[0]))
            else:
                total: dict[FormMonomial, Scalar] = {}
                for c, *maps in spec[0]:
                    linear_extension(lambda m: ((m, c),), _image(images, tuple(maps)).items(), total)
                holds = not total
            if not holds:
                bad[name] = detail.format(model.monomial_label(mono))
    return [
        {"name": name, "passed": name not in bad, "detail": bad.get(name, "")}
        for name, *_ in identities
    ]


def _image(images: dict[tuple, dict], maps: tuple) -> dict[FormMonomial, Scalar]:
    """The image of a composite of term maps, each suffix's image computed once.

    A module-level function: a recursive closure would be a reference cycle,
    keeping the term maps (and their block caches) alive until a full collection.
    """
    if maps not in images:
        images[maps] = linear_extension(maps[0], _image(images, maps[1:]).items())
    return images[maps]


def verify_decomposition_identities(
    model: FoliatedModel, window: ModeWindow | None = None
) -> dict:
    """Check the five anticommutation identities and d^2 = 0.

    Runs over the full windowed generator basis; failures are reported with a
    counterexample label, never raised.  The report passes when every check
    does; "boundary = 0" is recorded as ``boundary_vanishes``, not checked.
    """
    dF, dP, dB, d = (component_terms(model, c) for c in ("d_F", "d_perp", "boundary", "d"))
    checks = check_identities(
        model,
        window or ModeWindow(bound=1),
        [
            ("d_F^2 = 0", [(1, dF, dF)]),
            ("boundary^2 = 0", [(1, dB, dB)]),
            ("d_perp^2 + boundary d_F + d_F boundary = 0", [(1, dP, dP), (1, dB, dF), (1, dF, dB)]),
            ("d_F d_perp + d_perp d_F = 0", [(1, dF, dP), (1, dP, dF)]),
            ("boundary d_perp + d_perp boundary = 0", [(1, dB, dP), (1, dP, dB)]),
            ("d^2 = 0", [(1, d, d)]),
            ("d = d_F + d_perp + boundary", [(1, d), (-1, dF), (-1, dP), (-1, dB)]),
            ("boundary = 0", [(1, dB)]),
        ],
    )
    checks, vanishes = checks[:-1], checks[-1]["passed"]
    return {
        "model": repr(model),
        "passed": all(c["passed"] for c in checks),
        "boundary_vanishes": vanishes,
        "checks": checks,
    }


# -- block machinery ----------------------------------------------------------


def operator_matrix(
    model: FoliatedModel,
    terms: TermMap,
    source: Sequence[FormMonomial],
    target: Sequence[FormMonomial],
) -> SparseMatrix:
    """Matrix of a term map between monomial bases: column j is terms(source[j]).

    Raises ComplexViolationError if the operator leaks outside the stated
    target basis (which would mean the block decomposition is wrong).
    """
    index = {m: i for i, m in enumerate(target)}
    entries: dict[tuple[int, int], Scalar] = {}
    for j, mono in enumerate(source):
        for m2, c in terms(mono):
            i = index.get(m2)
            if i is None:
                raise ComplexViolationError(
                    f"operator leaves the block: {model.monomial_label(mono)} -> "
                    f"{model.monomial_label(m2)}"
                )
            entries[(i, j)] = c
    return SparseMatrix(len(target), len(source), entries, model.field)


def block_differentials(
    model: FoliatedModel,
    terms: TermMap,
    graded: dict[int, Sequence[FormMonomial]],
) -> dict[int, SparseMatrix]:
    """Matrices d_t: graded[t] -> graded[t + 1] of a degree-raising term map.

    Every degree t whose successor is in ``graded`` is a source: the term map
    is read once for each of its monomials, and an image term outside
    graded[t + 1] raises ComplexViolationError.  A caller that wants the top
    degree checked to map to zero adds an empty successor for it.
    """
    return {
        t: operator_matrix(model, terms, source, graded[t + 1])
        for t, source in graded.items()
        if t + 1 in graded
    }


def block_homology(
    model: FoliatedModel,
    terms: TermMap,
    graded: dict[int, Sequence[FormMonomial]],
    block: str,
) -> dict[int, int]:
    """Homology dims of one block complex, degree by degree.

    Each differential is assembled once and ranked once; a broken complex
    raises ComplexViolationError naming ``block`` and the degrees.
    """
    try:
        diffs = block_differentials(model, terms, graded)
        return homology_dims({t: len(b) for t, b in graded.items()}, diffs)
    except ComplexViolationError as exc:
        raise ComplexViolationError(f"block {block}: {exc}") from exc


@dataclass
class BigradedDims:
    """Exact dimension table (r, s) -> count with provenance flags."""

    dims: dict[tuple[int, int], int]
    model: str
    window: ModeWindow
    homogeneity: int | None = None
    unbounded: bool = False
    formal: bool = False
    certificate: "DiophantineCertificate | None" = None

    def get(self, r: int, s: int) -> int:
        return self.dims.get((r, s), 0)

    def total(self, k: int) -> int:
        return sum(v for (r, s), v in self.dims.items() if r + s == k)

    def nonzero(self) -> dict[tuple[int, int], int]:
        return {rs: v for rs, v in sorted(self.dims.items()) if v}

    def to_json(self) -> dict:
        out = {
            "model": self.model,
            "operator": "d_F",
            "dims": [[r, s, v] for (r, s), v in sorted(self.dims.items()) if v],
            "window": self.window.to_json(),
            "unbounded": self.unbounded,
            "formal": self.formal,
        }
        if self.homogeneity is not None:
            out["homogeneity"] = self.homogeneity
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _by_bidegree(model: FoliatedModel, key: tuple) -> dict[tuple[int, int], list[FormMonomial]]:
    """The monomials of one block grouped by bidegree, in block order."""
    by_deg: dict[tuple[int, int], list[FormMonomial]] = {}
    for m in model.block_monomials(key):
        by_deg.setdefault(model.bidegree(m.ext), []).append(m)
    return by_deg


def _block_bidegree_dims(
    model: FoliatedModel, key: tuple, op: TermMap
) -> dict[tuple[int, int], int]:
    """H^{r,s} of one block for a (1,0)-shift operator: one chain in r per s."""
    by_deg = _by_bidegree(model, key)
    out: dict[tuple[int, int], int] = {}
    for s in sorted({s for _r, s in by_deg}):
        # r = leaf_dim + 1 stays empty, so the top degree must map to zero
        chain = {r: by_deg.get((r, s), []) for r in range(model.leaf_dim + 2)}
        for r, h in block_homology(model, op, chain, f"{key}, s = {s}").items():
            out[(r, s)] = h
    return out


def koszul_block_dims(
    model: FoliatedModel, key: tuple, full: bool = False
) -> dict[tuple[int, int], int]:
    """H^{r,s} of one block of a torus-family model, settled by the Cartan homotopy.

    d = sum c_g eps_g over ``model.multipliers(key)``; d_F keeps the leaf terms,
    ``full`` all.  A kept c_j != 0 makes c_j^-1 iota_j a contraction: no classes.
    Otherwise the differential vanishes: C(p, r) * C(q, s) classes.
    """
    if any(c for g, c in model.multipliers(key) if full or model.long_flags[g]):
        return {}
    p, q = model.leaf_dim, model.codim
    return {(r, s): math.comb(p, r) * math.comb(q, s) for r in range(p + 1) for s in range(q + 1)}


def cohomology_dims(
    model: FoliatedModel,
    window: ModeWindow | None = None,
    homogeneity: int | None = None,
    certificate: DiophantineCertificate | None = None,
) -> BigradedDims:
    """Leafwise cohomology dimensions H^{r,s}, summed over window blocks.

    On the conic model, pass ``homogeneity`` to restrict to one radial degree
    (required there, since only fixed-degree slices are finite).  Blocks of
    models built on a Kronecker torus are settled by `koszul_block_dims`, the
    others ranked; ``certificate`` is that torus's `diophantine_certificate`.
    """
    window = window or ModeWindow()
    is_conic = model.has_xi
    if is_conic and homogeneity is None:
        raise ValidationError("conic cohomology needs a homogeneity degree")
    base = model.torus
    # on the cone, every block at the one homogeneity, in the window's range or not
    narrowed = replace(window, l_min=homogeneity, l_max=homogeneity) if is_conic else window
    keys = model.block_keys(narrowed)
    if base is None:
        op = component_terms(model, "d_F")
        block_dims = lambda key: _block_bidegree_dims(model, key, op)
    else:
        check_cartan_identity(model.exterior)
        block_dims = lambda key: koszul_block_dims(model, key)
    totals: dict[tuple[int, int], int] = {}
    for key in keys:
        for rs, v in block_dims(key).items():
            if v:
                totals[rs] = totals.get(rs, 0) + v
    cert = None if base is None else certificate or diophantine_certificate(base)
    formal = cert is not None and cert.verdict != "diophantine"
    # every resonant mode block has a vanishing leafwise differential, so a
    # nonzero lattice makes the in-range entries grow with the window; on the
    # cone this happens only in the radially invariant slice
    unbounded = base is not None and base.resonant and (not is_conic or homogeneity == 0)
    return BigradedDims(
        dims=totals,
        model=repr(model),
        window=window,
        homogeneity=homogeneity,
        unbounded=unbounded,
        formal=formal,
        certificate=cert,
    )


# -- Diophantine certificates ---------------------------------------------------


@dataclass(frozen=True)
class DiophantineCertificate:
    """Either an exact resonance witness or an explicit (C, N) lower bound.

    A `diophantine` verdict certifies |m . alpha|^(-1) <= C * |m|_1^N for all
    nonzero integer vectors m: the norm of the algebraic integer
    den * (m . alpha) is at least 1, each of its deg-1 conjugates is at most
    C' * |m|_1 in absolute value, so |m . alpha| >= den^(-deg) (C'|m|_1)^(1-deg).
    """

    verdict: str  # "diophantine" | "resonant"
    C: Fraction | None = None
    N: int | None = None
    witness: tuple[int, ...] | None = None
    method: str = ""

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "method": self.method}
        if self.verdict == "diophantine":
            assert self.C is not None and self.N is not None
            out["C"] = f"{self.C.numerator}/{self.C.denominator}"
            out["N"] = self.N
        else:
            out["witness"] = list(self.witness or ())
        return out


def diophantine_certificate(torus: KroneckerTorus) -> DiophantineCertificate:
    """Certify the small-divisor behaviour of the torus's frequency vector alpha.

    The resonance lattice is the torus's own ``resonance_basis``; the torus
    constructor has already checked that alpha is real and nonzero.
    """
    alpha, field = torus.alpha, torus.field
    if torus.resonance_basis:
        witness = min(torus.resonance_basis, key=lambda v: (sum(abs(x) for x in v), v))
        return DiophantineCertificate(
            verdict="resonant",
            witness=witness,
            method="exact integer kernel of the component matrix of alpha",
        )
    # the subfield generated by the entries: subgroup of sign patterns fixing
    # every used basis mask
    used_masks = {mask for mask in range(field.dim) if any(a.coeffs[mask] for a in alpha)}
    t = len(field.radicals)
    fixers = []
    for bits in range(1 << t):
        signs = tuple(-1 if bits & (1 << j) else 1 for j in range(t))
        if all(_mask_fixed(mask, signs) for mask in used_masks):
            fixers.append(signs)
    degree = (1 << t) // len(fixers)
    den = 1
    cprime = Fraction(0)
    for a in alpha:
        den_a = a.denominator_lcm()
        den = math.lcm(den, den_a)
        cprime = max(cprime, a.abs_upper_bound())
    n_exp = degree - 1
    c_const = Fraction(den) ** degree * cprime**n_exp
    return DiophantineCertificate(
        verdict="diophantine",
        C=c_const,
        N=n_exp,
        method=(
            f"norm bound over the degree-{degree} subfield generated by alpha: "
            f"|Norm(den*(m.alpha))| >= 1 with den = {den}, conjugates bounded by "
            f"{cprime} * |m|_1"
        ),
    )


def _mask_fixed(mask: int, signs: tuple[int, ...]) -> bool:
    prod = 1
    for j, s in enumerate(signs):
        if mask & (1 << (1 + j)):
            prod *= s
    return prod == 1


# -- basic and ordinary cohomology ----------------------------------------------


def basic_cohomology_dims(
    model: FoliatedModel, window: ModeWindow | None = None
) -> dict:
    """Dimensions of the basic complex: leafwise-closed (0, s) forms under d_perp.

    The result is window-truncated; ``window_sensitive`` flags a nonzero
    resonance lattice (infinitely many basic functions off-window).
    """
    window = window or ModeWindow()
    if model.has_xi:
        raise UnsupportedModelError("basic complex is computed on unpunctured models")
    q = model.codim
    dF = component_terms(model, "d_F")
    dP = component_terms(model, "d_perp")
    dims = [0] * (q + 1)
    for key in model.block_keys(window):
        by_deg = _by_bidegree(model, key)
        ranks = [0]  # rank of the induced d_perp into degree s
        for s in range(q + 1):
            source = by_deg.get((0, s), [])
            # basic s-forms of the block: the kernel of d_F on (0, s)
            _, kernel = rank_kernel(operator_matrix(model, dF, source, by_deg.get((1, s), [])))
            basic = SparseMatrix(
                len(source),
                len(kernel),
                {(i, j): c for j, vec in enumerate(kernel) for i, c in vec.items()},
                model.field,
            )
            # induced d_perp on them, in (0, s+1) coordinates; the image stays
            # leafwise closed by the anticommutation identities, and (0, q+1)
            # is empty, so the top degree must map to zero
            d_perp = operator_matrix(model, dP, source, by_deg.get((0, s + 1), []))
            ranks.append(rank(d_perp.matmul(basic)))
            dims[s] += len(kernel) - ranks[-1] - ranks[-2]
    sensitive = model.torus is not None and model.torus.resonant
    return {"model": repr(model), "dims": dims, "window_sensitive": sensitive}


def ordinary_derham_dims(
    model: FoliatedModel, window: ModeWindow | None = None
) -> list[int]:
    """Betti numbers of the windowed complex: `koszul_block_dims` on the full d, summed."""
    if model.torus is None or model.has_xi:
        raise UnsupportedModelError(
            "ordinary de Rham dims are computed on torus and circle bundle models"
        )
    check_cartan_identity(model.exterior)
    dims = [0] * (len(model.gen_names) + 1)
    for key in model.block_keys(window or ModeWindow()):
        for (r, s), h in koszul_block_dims(model, key, full=True).items():
            dims[r + s] += h
    return dims


# -- closed and exact vectors (the gysin isomorphism checks) ---------------------


def closed_and_exact(
    model: FoliatedModel, d_f: TermMap, bidegree: tuple[int, int], key: tuple
) -> tuple[list[dict[FormMonomial, Scalar]], list[dict[FormMonomial, Scalar]]]:
    """(Z, B) of one block at a bidegree: the d_F kernel basis, the nonzero columns of d_F into it.

    ``d_f`` is the model's d_F term map.  The block's cohomology there has
    dimension |Z| - dim span(B).
    """
    r, s = bidegree
    by_deg = _by_bidegree(model, key)
    chain = {t: by_deg.get((t, s), []) for t in (r - 1, r, r + 1)}
    diffs = block_differentials(model, d_f, chain)
    vector = lambda v: {chain[r][i]: c for i, c in v.items()}
    _, kernel = rank_kernel(diffs[r])
    columns = diffs[r - 1].transpose().row_vectors()
    return [vector(v) for v in kernel], [vector(v) for v in columns if v]
