"""Exact spectral sequences of finite filtered cochain complexes.

Pages are computed from the literal subspace chains
Z_r^w = {x in F^w : dx in F^(w+r)} with exact linear algebra -- no
homotopy-theoretic shortcuts -- so the engine is simple enough to serve as
an oracle for the rest of the package.  Filtrations are encoded by one
integer weight per basis vector with the convention that the differential
never decreases weight; F^w is spanned by the vectors of weight >= w.

Cell dimensions satisfy the page recursion (asserted internally) and the
final page is checked against the homology of the underlying complex, so a
convergence failure cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derham import block_differentials
from .errors import ComplexViolationError, UnsupportedModelError, ValidationError
from .linalg import Echelon, SparseMatrix, SparseVector, homology_dims, rank_kernel
from .models import ConicDualModel, FoliatedModel, FormMonomial, ModeWindow
from .poisson import delta_terms
from .scalars import NumberField


@dataclass(frozen=True)
class BasisVector:
    label: str
    degree: int
    weight: int


class FilteredComplex:
    """A finite cochain complex with filtration weights on basis vectors.

    ``diffs[t]`` is the matrix of d from degree t to degree t+1 in the
    per-degree local bases (order of appearance in ``basis``).
    """

    def __init__(
        self,
        field: NumberField,
        basis: list[BasisVector] | tuple[BasisVector, ...],
        diffs: dict[int, SparseMatrix],
    ):
        self.field = field
        self.basis = tuple(basis)
        labels = [b.label for b in self.basis]
        if len(set(labels)) != len(labels):
            raise ValidationError("basis labels must be unique")
        self.by_degree: dict[int, list[int]] = {}
        for idx, b in enumerate(self.basis):
            self.by_degree.setdefault(b.degree, []).append(idx)
        self.diffs = dict(diffs)
        self._validate()

    def _validate(self) -> None:
        """Shapes, weights and d^2 = 0; keeps the homology dims it computes."""
        for t, mat in self.diffs.items():
            src = self.by_degree.get(t, [])
            dst = self.by_degree.get(t + 1, [])
            if mat.cols != len(src) or mat.rows != len(dst):
                raise ValidationError(f"differential at degree {t} has the wrong shape")
            for (i, j), _v in mat.entries.items():
                if self.basis[dst[i]].weight < self.basis[src[j]].weight:
                    raise ValidationError(
                        "differential decreases the filtration weight at "
                        f"{self.basis[src[j]].label} -> {self.basis[dst[i]].label}"
                    )
        sizes = {t: len(idxs) for t, idxs in self.by_degree.items()}
        self._homology = homology_dims(sizes, self.diffs)

    @property
    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    @property
    def weight_range(self) -> tuple[int, int]:
        weights = [b.weight for b in self.basis]
        return (min(weights), max(weights)) if weights else (0, 0)

    def homology_dims(self) -> dict[int, int]:
        return dict(self._homology)

@dataclass(frozen=True)
class SpectralPage:
    """One page: cell dimensions and the exact ranks of its differential."""

    index: int
    dims: dict[tuple[int, int], int]  # (weight, total degree) -> dimension
    d_ranks: dict[tuple[int, int], int]  # rank of d_r out of the cell
    stabilized: bool

    def dim(self, weight: int, degree: int) -> int:
        return self.dims.get((weight, degree), 0)

    def nonzero_weights(self) -> set[int]:
        return {w for (w, _t), v in self.dims.items() if v}

    def total_dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (_w, t), v in self.dims.items():
            out[t] = out.get(t, 0) + v
        return out

    def differentials_vanish(self) -> bool:
        return all(v == 0 for v in self.d_ranks.values())

    def to_json(self) -> dict:
        return {
            "page": self.index,
            "stabilized": self.stabilized,
            "cells": [
                {"filtration": w, "degree": t, "complementary": t - w, "dim": v}
                for (w, t), v in sorted(self.dims.items())
                if v
            ],
            "d_ranks": [
                {"filtration": w, "degree": t, "rank": v}
                for (w, t), v in sorted(self.d_ranks.items())
                if v
            ],
        }


def pages(fc: FilteredComplex) -> list[SpectralPage]:
    """All pages from E_1 up to provable stabilization, exactly.

    The final page's totals are checked against the homology of the
    underlying complex; a mismatch raises ComplexViolationError (it would
    mean the engine itself is broken, so it must never pass silently).
    """
    w_min, w_max = fc.weight_range
    width = w_max - w_min
    r_stop = width + 1
    degrees = fc.degrees
    if not degrees:
        return [SpectralPage(1, {}, {}, True)]

    weights_of: dict[int, list[int]] = {
        t: [fc.basis[i].weight for i in fc.by_degree[t]] for t in degrees
    }

    z_cache: dict[tuple[int, int, int], list[SparseVector]] = {}

    def z_space(r: int, w: int, t: int) -> list[SparseVector]:
        """Basis of {x in F^w cap C^t : dx in F^(w+r)} in local C^t coords."""
        if t not in fc.by_degree:
            return []
        key = (r, w, t)
        cached = z_cache.get(key)
        if cached is not None:
            return cached
        local_weights = weights_of[t]
        cols = [j for j, wt in enumerate(local_weights) if wt >= w]
        d_t = fc.diffs.get(t)
        if d_t is None:
            vecs = [{j: fc.field.one} for j in cols]
            z_cache[key] = vecs
            return vecs
        target_weights = weights_of.get(t + 1, [])
        rows = [i for i, wt in enumerate(target_weights) if wt < w + r]
        row_pos = {i: a for a, i in enumerate(rows)}
        col_pos = {j: a for a, j in enumerate(cols)}
        entries = {}
        for (i, j), v in d_t.entries.items():
            if i in row_pos and j in col_pos:
                entries[(row_pos[i], col_pos[j])] = v
        sub = SparseMatrix(len(rows), len(cols), entries, fc.field)
        _, kern = rank_kernel(sub)
        vecs = [{cols[j]: v for j, v in k.items()} for k in kern]
        z_cache[key] = vecs
        return vecs

    def apply_d(t: int, vec: SparseVector) -> SparseVector:
        d_t = fc.diffs.get(t)
        if d_t is None:
            return {}
        return d_t.apply(vec)

    def denominator(r: int, w: int, t: int) -> Echelon:
        ech = Echelon(fc.field)
        ech.extend(z_space(r - 1, w + 1, t))
        for vec in z_space(r - 1, w - r + 1, t - 1):
            img = apply_d(t - 1, vec)
            if img:
                ech.add(img)
        return ech

    cells = [(w, t) for t in degrees for w in range(w_min, w_max + 1)]
    out_pages: list[SpectralPage] = []
    prev_dims: dict[tuple[int, int], int] | None = None
    for r in range(1, r_stop + 2):
        dims: dict[tuple[int, int], int] = {}
        d_ranks: dict[tuple[int, int], int] = {}
        denoms: dict[tuple[int, int], Echelon] = {}
        for w, t in cells:
            denoms[(w, t)] = denominator(r, w, t)
            z_dim = len(z_space(r, w, t))
            dims[(w, t)] = z_dim - denoms[(w, t)].dim
            if dims[(w, t)] < 0:
                raise ComplexViolationError("page cell with negative dimension")
        for w, t in cells:
            target = (w + r, t + 1)
            if target[0] > w_max or (t + 1) not in fc.by_degree:
                d_ranks[(w, t)] = 0
                continue
            tgt_ech = denoms.get(target)
            if tgt_ech is None:
                d_ranks[(w, t)] = 0
                continue
            span = Echelon(fc.field)
            rank_count = 0
            for vec in z_space(r, w, t):
                img = apply_d(t, vec)
                if not img:
                    continue
                residual = tgt_ech.reduce(img)
                if span.add(residual):
                    rank_count += 1
            d_ranks[(w, t)] = rank_count
        if prev_dims is not None:
            # page recursion: dims drop exactly by the adjacent d_{r-1} ranks
            for w, t in cells:
                incoming = prev_ranks.get((w - (r - 1), t - 1), 0)
                outgoing = prev_ranks.get((w, t), 0)
                if dims[(w, t)] != prev_dims[(w, t)] - incoming - outgoing:
                    raise ComplexViolationError(
                        f"page recursion fails at cell (w={w}, t={t}, r={r})"
                    )
        stabilized = r >= r_stop
        out_pages.append(SpectralPage(r, dims, d_ranks, stabilized))
        prev_dims, prev_ranks = dims, d_ranks
        if stabilized and all(v == 0 for v in d_ranks.values()):
            break
    final = out_pages[-1]
    totals = final.total_dims()
    for t, h in fc.homology_dims().items():
        if totals.get(t, 0) != h:
            raise ComplexViolationError(
                f"spectral sequence does not converge at degree {t}: "
                f"{totals.get(t, 0)} != homology dim {h}"
            )
    return out_pages


# -- the transverse-degree filtration of the cone boundary complex ----------------


def poisson_filtration(
    model: FoliatedModel, k: int, window: ModeWindow | None = None
) -> FilteredComplex:
    """Filtered complex computing homogeneous boundary homology at offset k.

    Basis: all monomials of form degree k + l and homogeneity l (l runs over
    the finite range where the degree is representable), graded by t = -l,
    filtered by transverse degree.  The differential is the full boundary
    operator; its leafwise part preserves the weight, the transverse part
    raises it by one.  A broken complex raises ComplexViolationError naming
    the operator and the offset.
    """
    conic = model
    if not isinstance(conic, ConicDualModel):
        raise UnsupportedModelError("the filtration lives on the conic dual model")
    window = window or ModeWindow()
    top = conic.leaf_dim + conic.codim
    basis: list[BasisVector] = []
    graded: dict[int, list[FormMonomial]] = {}
    for l in range(-k, top - k + 1):
        deg = k + l
        for comp in range(conic.components_count):
            for mode in window.modes(conic.mode_len):
                for mono in conic.block_monomials((comp, mode, l)):
                    if len(mono.ext) != deg:
                        continue
                    label = f"l={l}|{conic.monomial_label(mono)}"
                    _r, s = conic.bidegree(mono.ext)
                    basis.append(BasisVector(label, -l, s))
                    graded.setdefault(-l, []).append(mono)
    try:
        diffs = block_differentials(conic, delta_terms(conic), graded)
        return FilteredComplex(conic.field, basis, diffs)
    except ComplexViolationError as exc:
        raise ComplexViolationError(f"delta filtration at offset k = {k}: {exc}") from exc
