"""Bigraded leafwise de Rham calculus and exact cohomology dimensions.

The full differential splits into bi-homogeneous components of shifts
(1,0), (0,1) and (-1,2) (leafwise, transverse, curvature contraction); each
is built from the model's data of its shift, so the identity suite verifies
that d is their sum rather than assuming it.  `check_identities` checks
identities written as data on every windowed basis monomial, which by
linearity covers every form.  The identity suite and the basic table return
their report documents, the JSON the derham report holds, verdicts included.

The identity walk (`check_identities`, which also runs the poisson star-delta
suite and the gysin chain-map checks) is compiled once per call: each distinct
composite suffix f g ... gets a slot, children before parents, and per
monomial each slot's image is the `linear_extension` of its term map over its
child's image.  Only the slots a live identity reads are computed, so a failed
identity costs nothing more.  Most terms carry a sign, and a product with the
field's cached `one` or `minus_one` takes no arithmetic (see `scalars`).

Cohomology dimensions are computed block by block: every supported
differential preserves the block (comp, mode, l) of `FoliatedModel.block_key`,
so the complex is a direct sum of small exact-arithmetic complexes indexed by
the window; a block's monomials are grouped by bidegree once
(`_by_bidegree`).  On a model built on a Kronecker torus (``model.torus`` is
not None), d on a block is sum c_g eps_g over the block's multipliers.  One
rule, `contracted`, settles a block as acyclic when a flagged generator has a
nonzero multiplier, by a contracting homotopy: c_j^-1 iota_j for d and d_F
(`koszul_block_dims`; with no such multiplier the differential vanishes),
-c^-1 eps_dxi for the cone's delta and delta_F, flagged on theta.  The
Cartan identity eps_g iota_j + iota_j eps_g = delta_gj behind both is
checked on every model's exterior tables when they are built
(`models.ExteriorTables`), and each caller reads its flags from those tables.

An operator is a term map (`models.TermMap`): its action on one monomial,
a list of (monomial, coefficient).  `component_terms` gives d and its three
components from the model's multiplier memo (`FoliatedModel.block_multipliers`);
`Form.map` is the one linear extension to forms.

One block engine ranks the blocks no rule settles: the leafwise tables of
frame models and their cones, the basic table and closed/exact sets here,
poisson's boundary homology (frame cones, and the torus-cone blocks with
c = 0) and the specseq filtration (every block) use it.  A block is given as
its monomial bases by degree; `block_differentials` assembles each differential
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
from typing import NamedTuple, Sequence

from .errors import ComplexViolationError, UnsupportedModelError, ValidationError
from .linalg import SparseMatrix, add_into, column_matrix, homology_dims, rank, rank_kernel
from .models import (
    DiophantineCertificate,
    FoliatedModel,
    Form,
    FormMonomial,
    ModeWindow,
    TermMap,
    _frame_d,
    _multiplier_d,
    linear_extension,
)
from .scalars import NumberField, Scalar

_SHIFTS = {"d": None, "d_F": (1, 0), "d_perp": (0, 1), "boundary": (-1, 2)}
COMPONENTS = tuple(_SHIFTS)


def _component_filter(
    model: FoliatedModel, component: str
) -> tuple[list[bool], list[list[tuple[Scalar, tuple[int, int]]]]]:
    """The shift filter of d or of one component: what of the model's data it keeps.

    Returns, per generator g, whether the multiplier term c * g ^ (-) is kept
    (its shift is bideg(g)), and g's kept frame terms c a ^ b (shift
    bideg(a ^ b) - bideg(g)); d keeps every term.
    """
    if component not in COMPONENTS:
        raise ValidationError(f"unknown differential component {component!r}")
    shift = _SHIFTS[component]

    def keep(gained: tuple[int, ...], lost: tuple[int, ...] = ()) -> bool:
        (r, s), (r0, s0) = model.bidegree(gained), model.bidegree(lost)
        return shift is None or (r - r0, s - s0) == shift

    kept = [keep((g,)) for g in range(len(model.gen_names))]
    frame = [[(c, ab) for c, ab in row if keep(ab, (g,))] for g, row in enumerate(model._dual_d)]
    return kept, frame


def component_terms(model: FoliatedModel, component: str) -> TermMap:
    """Term map of d, or of one bigraded component, from the model's data.

    `_multiplier_d` over the block's multipliers (g, c), of shift bideg(g), plus
    `_frame_d` over the frame terms g -> c a ^ b, of shift bideg(a ^ b) - bideg(g):
    d keeps every term, a component the terms of its shift.  The map holds no
    cache: the multipliers come from the model's memo."""
    kept, frame = _component_filter(model, component)

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        out = _multiplier_d(model, mono, kept)
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
    holds(mono, image) on one composite's image; see the module docstring for
    the compiled walk (`_compile_walk`).  Returns one check document
    {"name", "passed", "detail"} per identity.
    """
    steps, compiled = _compile_walk(identities, model.field)
    bad: dict[str, str] = {}
    reads = lambda ids: sorted(set().union(*(uses for *_, uses in ids)))  # in slot order
    live, order = compiled, reads(compiled)
    for mono in model.basis_monomials(window):
        images: list = [None] * len(steps)
        images[0] = {mono: model.field.one}
        for slot in order:
            terms, child = steps[slot]
            source = images[child]  # an empty image maps to an empty image
            images[slot] = linear_extension(terms, source.items()) if source else {}
        failures = len(bad)
        for name, sums, slot, holds, _uses in live:
            if sums is None:
                ok = holds(mono, images[slot])
            else:
                total: dict[FormMonomial, Scalar] = {}
                for c, slot in sums:
                    if images[slot]:
                        add_into(total, images[slot].items(), c)
                ok = not total
            if not ok:
                bad[name] = detail.format(model.monomial_label(mono))
        if len(bad) > failures:
            live = [c for c in live if c[0] not in bad]
            order = reads(live)
    return [
        {"name": name, "passed": name not in bad, "detail": bad.get(name, "")}
        for name, *_ in identities
    ]


def _compile_walk(
    identities: Sequence[tuple], field: NumberField
) -> tuple[list[tuple], list[tuple]]:
    """Slot numbers for the composite suffixes of ``identities``, children before parents.

    Returns the steps, one (term map, child slot) per slot, where the image of
    a slot is its term map applied to its child's image and slot 0 is the
    monomial itself, and one (name, sums, slot, holds, uses) per identity: a
    sum's (c, slot) terms, c a Scalar of ``field`` or None for +1, or a
    predicate's slot and ``holds``, with the slots above 0 that it reads,
    directly or through a child.
    """
    slots: dict[tuple, int] = {(): 0}
    steps: list[tuple] = [(None, 0)]

    def place(maps: tuple, uses: set[int]) -> int:
        for i in range(len(maps) - 1, -1, -1):
            suffix = maps[i:]
            if suffix not in slots:
                slots[suffix] = len(steps)
                steps.append((maps[i], slots[maps[i + 1 :]]))
            uses.add(slots[suffix])
        return slots[maps]

    compiled = []
    for name, *spec in identities:
        uses: set[int] = set()
        if len(spec) == 2:
            compiled.append((name, None, place(tuple(spec[0]), uses), spec[1], uses))
        else:
            sums = [
                (None if c == 1 else field.scalar(c), place(tuple(maps), uses))
                for c, *maps in spec[0]
            ]
            compiled.append((name, sums, 0, None, uses))
    return steps, compiled


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


class BigradedDims(NamedTuple):
    """Exact dimension table (r, s) -> count with provenance flags."""

    dims: dict[tuple[int, int], int]
    model: str
    window: ModeWindow
    homogeneity: int | None = None
    unbounded: bool = False
    formal: bool = False
    certificate: DiophantineCertificate | None = None

    def get(self, r: int, s: int) -> int:
        return self.dims.get((r, s), 0)

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


def contracted(model: FoliatedModel, key: tuple, flags: Sequence[bool]) -> bool:
    """Whether a generator g with flags[g] has a nonzero multiplier c on a torus-family block.

    Then a contracting homotopy makes the block acyclic, by the Cartan identity
    eps_g iota_j + iota_j eps_g = delta_gj that the model's exterior tables
    check: for d or d_F (flags from `_component_filter`), sum c_g eps_g over the
    kept g, h = c_j^-1 iota_j; for delta or delta_F on a torus cone (flagged on
    theta), d_xi iota_theta - c iota_dxi (`poisson.delta_terms`), h = -c^-1 eps_dxi,
    which commutes with d_xi, anticommutes with iota_theta, keeps each line
    k - l and does not depend on the homogeneity key[2].  A model built on no
    torus is never settled: frame terms are not multipliers.  Only c != 0
    matters, so the raw `multipliers` are read, not the term maps' Scalar memo
    (`FoliatedModel.block_multipliers`): tables walk more blocks than it keeps.
    """
    return model.torus is not None and any(flags[g] and c for g, c in model.multipliers(key))


def koszul_block_dims(
    model: FoliatedModel, key: tuple, flags: Sequence[bool]
) -> dict[tuple[int, int], int]:
    """H^{r,s} of one block of a torus-family model for d or d_F, by `contracted`.

    ``flags`` are the operator's kept flags (`_component_filter`).  A
    contracted block has no classes; otherwise the operator vanishes on it:
    C(p, r) * C(q, s) classes.
    """
    if contracted(model, key, flags):
        return {}
    p, q = model.leaf_dim, model.codim
    return {(r, s): math.comb(p, r) * math.comb(q, s) for r in range(p + 1) for s in range(q + 1)}


def cohomology_dims(
    model: FoliatedModel,
    window: ModeWindow | None = None,
    homogeneity: int | None = None,
) -> BigradedDims:
    """Leafwise cohomology dimensions H^{r,s}, summed over window blocks.

    ``homogeneity`` restricts the conic model to one radial degree, required
    there (only fixed-degree slices are finite) and rejected elsewhere.  Blocks
    of models built on a Kronecker torus are settled by `koszul_block_dims`,
    the others ranked; a table on a torus carries `KroneckerTorus.certificate`.
    """
    window = window or ModeWindow()
    is_conic = model.has_xi
    if is_conic and homogeneity is None:
        raise ValidationError("conic cohomology needs a homogeneity degree")
    if not is_conic and homogeneity is not None:
        raise ValidationError("a homogeneity degree needs the conic model")
    base = model.torus
    # on the cone, every block at the one homogeneity, in the window's range or not
    narrowed = ModeWindow(window.bound, homogeneity, homogeneity) if is_conic else window
    keys = model.block_keys(narrowed)
    if base is None:
        op = component_terms(model, "d_F")
        block_dims = lambda key: _block_bidegree_dims(model, key, op)
    else:
        flags, _ = _component_filter(model, "d_F")
        block_dims = lambda key: koszul_block_dims(model, key, flags)
    totals: dict[tuple[int, int], int] = {}
    for key in keys:
        for rs, v in block_dims(key).items():
            if v:
                totals[rs] = totals.get(rs, 0) + v
    cert = None if base is None else base.certificate
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
            basic = column_matrix(len(source), kernel, model.field)
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
    flags, _ = _component_filter(model, "d")
    dims = [0] * (len(model.gen_names) + 1)
    for key in model.block_keys(window or ModeWindow()):
        for (r, s), h in koszul_block_dims(model, key, flags).items():
            dims[r + s] += h
    return dims


# -- closed and exact vectors (the gysin isomorphism checks) ---------------------


def closed_and_exact(
    model: FoliatedModel, d_f: TermMap, key: tuple, bidegrees: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], tuple[list[dict], list[dict]]]:
    """(Z, B) of one block per bidegree: the d_F kernel basis, the nonzero d_F columns into it.

    ``d_f`` is the model's d_F term map.  The block is split by bidegree once,
    and each d_F matrix (r, s) -> (r + 1, s) is assembled once, whichever
    bidegrees read it; an image term outside the next bidegree raises
    ComplexViolationError.  The block's cohomology at (r, s) has dimension
    |Z| - dim span(B).
    """
    by_deg = _by_bidegree(model, key)
    diffs: dict[tuple[int, int], SparseMatrix] = {}

    def diff(r: int, s: int) -> SparseMatrix:
        if (r, s) not in diffs:
            source, target = by_deg.get((r, s), []), by_deg.get((r + 1, s), [])
            diffs[(r, s)] = operator_matrix(model, d_f, source, target)
        return diffs[(r, s)]

    out = {}
    for r, s in bidegrees:
        cell = by_deg.get((r, s), [])
        vector = lambda v: {cell[i]: c for i, c in v.items()}
        _, kernel = rank_kernel(diff(r, s))
        columns = diff(r - 1, s).transpose().row_vectors()
        out[(r, s)] = [vector(v) for v in kernel], [vector(v) for v in columns if v]
    return out
