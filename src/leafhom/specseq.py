"""Exact spectral sequences of finite filtered cochain complexes.

Filtrations are encoded by one integer weight per basis vector with the
convention that the differential never decreases weight; F^w is spanned by
the vectors of weight >= w.  Every page comes from one persistence
reduction of each differential (Zomorodian & Carlsson, "Computing
persistent homology", 2005): the pairs it finds are the differentials
d_r, and the vectors it leaves unpaired survive to the limit (Basu &
Parida, "Spectral sequences, exact couples and persistent homology of
filtrations", 2017); a column absorbs an earlier one through `linalg.add_into`,
the package's one sparse accumulation.  A complex is checked when it is
built: shapes and d^2 = 0 by `linalg.complex_ranks`, whose ranks give the
homology of the underlying complex, then the weights.  The final page is
checked against that homology, a separate elimination, so a convergence
failure cannot pass silently.
"""

from __future__ import annotations

from typing import NamedTuple

from .derham import block_differentials
from .errors import ComplexViolationError, UnsupportedModelError, ValidationError
from .linalg import SparseMatrix, SparseVector, add_into, complex_ranks, homology_dims
from .models import ConicDualModel, FoliatedModel, FormMonomial, ModeWindow
from .poisson import delta_terms, line_blocks
from .scalars import NumberField, Scalar


class BasisVector(NamedTuple):
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
        """Shapes and d^2 = 0 (`linalg.complex_ranks`), then weights; keeps the homology dims."""
        sizes = {t: len(idxs) for t, idxs in self.by_degree.items()}
        self._homology = homology_dims(sizes, complex_ranks(sizes, self.diffs))
        for t, mat in self.diffs.items():
            src, dst = self.by_degree.get(t, []), self.by_degree.get(t + 1, [])
            for (i, j), _v in mat.entries.items():
                if self.basis[dst[i]].weight < self.basis[src[j]].weight:
                    raise ValidationError(
                        "differential decreases the filtration weight at "
                        f"{self.basis[src[j]].label} -> {self.basis[dst[i]].label}"
                    )

    @property
    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    @property
    def weight_range(self) -> tuple[int, int]:
        weights = [b.weight for b in self.basis]
        return (min(weights), max(weights)) if weights else (0, 0)

    def homology_dims(self) -> dict[int, int]:
        return dict(self._homology)

class SpectralPage(NamedTuple):
    """One page: cell dimensions and the exact ranks of its differential."""

    index: int
    dims: dict[tuple[int, int], int]  # (weight, total degree) -> dimension
    d_ranks: dict[tuple[int, int], int]  # rank of d_r out of the cell
    stabilized: bool

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

    Each differential is reduced once (`_pairs`).  A pair joining a vector of
    weight w in degree t to a row of weight w + g lives in cells (w, t) and
    (w + g, t + 1) on pages r <= g and is a rank of d_g out of (w, t); a
    vector in no pair lives in its cell on every page.  No gap exceeds the
    weight width, so page width + 1 is the limit.  The limit's totals are
    checked against the homology of the underlying complex, an independent
    elimination; a mismatch raises ComplexViolationError.
    """
    w_min, w_max = fc.weight_range
    degrees = fc.degrees
    if not degrees:
        return [SpectralPage(1, {}, {}, True)]
    weights = {t: [fc.basis[i].weight for i in fc.by_degree[t]] for t in degrees}
    free = {(t, j) for t in degrees for j in range(len(weights[t]))}
    pairs = []
    for t, mat in fc.diffs.items():
        for j, i in _pairs(mat, weights.get(t, []), weights.get(t + 1, [])):
            free -= {(t, j), (t + 1, i)}
            pairs.append((weights[t][j], t, weights[t + 1][i] - weights[t][j]))
    cells = [(w, t) for t in degrees for w in range(w_min, w_max + 1)]
    last = w_max - w_min + 1
    out_pages = []
    for r in range(1, last + 1):
        dims, d_ranks = dict.fromkeys(cells, 0), dict.fromkeys(cells, 0)
        for t, j in free:
            dims[(weights[t][j], t)] += 1
        for w, t, g in pairs:
            if g >= r:
                dims[(w, t)] += 1
                dims[(w + g, t + 1)] += 1
            if g == r:
                d_ranks[(w, t)] += 1
        out_pages.append(SpectralPage(r, dims, d_ranks, r == last))
    totals = out_pages[-1].total_dims()
    for t, h in fc.homology_dims().items():
        if totals.get(t, 0) != h:
            raise ComplexViolationError(
                f"spectral sequence does not converge at degree {t}: "
                f"{totals.get(t, 0)} != homology dim {h}"
            )
    return out_pages


def _pairs(mat: SparseMatrix, src: list[int], dst: list[int]) -> list[tuple[int, int]]:
    """(column, low row) pairs of the persistence reduction of ``mat``.

    Columns and rows run by weight descending, then by index; a column absorbs
    only earlier ones, and its low is its nonzero row that comes last.
    """
    rows = sorted(range(len(dst)), key=lambda i: (-dst[i], i))
    pos = {i: p for p, i in enumerate(rows)}
    cols: dict[int, SparseVector] = {}
    for (i, j), v in mat.entries.items():
        cols.setdefault(j, {})[pos[i]] = v
    # low -> (its column without the low, inverse of its entry there)
    reduced: dict[int, tuple[SparseVector, Scalar]] = {}
    out = []
    for j in sorted(cols, key=lambda j: (-src[j], j)):
        col = cols[j]
        while col:
            low = max(col)
            entry = col.pop(low)
            if low not in reduced:
                reduced[low] = (col, entry.inverse())
                out.append((j, rows[low]))
                break
            # the stored rest lies below the low, so max(col) strictly falls
            rest, inv = reduced[low]
            add_into(col, rest.items(), -(entry * inv))
    return out


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
    graded: dict[int, list[FormMonomial]] = {}
    for _block, cells in line_blocks(conic, k, window or ModeWindow()):
        for t, monos in cells.items():
            graded.setdefault(t, []).extend(monos)
    basis = [
        BasisVector(f"l={-t}|{conic.monomial_label(mono)}", t, conic.bidegree(mono.ext)[1])
        for t in sorted(graded, reverse=True)
        for mono in graded[t]
    ]
    try:
        diffs = block_differentials(conic, delta_terms(conic), graded)
        return FilteredComplex(conic.field, basis, diffs)
    except ComplexViolationError as exc:
        raise ComplexViolationError(f"delta filtration at offset k = {k}: {exc}") from exc
