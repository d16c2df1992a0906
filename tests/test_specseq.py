"""Spectral engine: pages, convergence, and the cone filtration."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from leafhom.errors import ComplexViolationError, ValidationError
from leafhom.linalg import SparseMatrix
from leafhom.models import ConicDualModel, KroneckerTorus, ModeWindow
from leafhom.poisson import BoundaryDims
from leafhom.scalars import NumberField
from leafhom.specseq import BasisVector, FilteredComplex, pages, poisson_filtration


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


def two_term_complex(field, d_value, weights=(0, 0)):
    basis = [BasisVector("x", 0, weights[0]), BasisVector("y", 1, weights[1])]
    entries = {}
    if d_value:
        entries[(0, 0)] = field.scalar(d_value)
    diffs = {0: SparseMatrix(1, 1, entries, field)}
    return FilteredComplex(field, basis, diffs)


def test_two_term_acyclic(field):
    fc = two_term_complex(field, 1)
    result = pages(fc)
    final = result[-1]
    assert final.stabilized
    assert all(v == 0 for v in final.dims.values())


def test_zero_differential_freezes_at_page_one(field):

    basis = [
        BasisVector("a", 0, 0),
        BasisVector("b", 1, 1),
        BasisVector("c", 1, 0),
    ]
    diffs = {0: SparseMatrix(2, 1, {}, field)}
    fc = FilteredComplex(field, basis, diffs)
    result = pages(fc)
    first, final = result[0], result[-1]
    assert first.dim(0, 0) == 1 and first.dim(1, 1) == 1 and first.dim(0, 1) == 1
    assert first.dims == final.dims
    assert final.differentials_vanish()


def test_weight_jump_creates_late_differential(field):
    # d(x) = y with weight(x) = 0, weight(y) = 2: survives to page 2, dies at 3
    fc = two_term_complex(field, 1, weights=(0, 2))
    result = pages(fc)
    page1 = result[0]
    assert page1.dim(0, 0) == 1 and page1.dim(2, 1) == 1
    assert page1.differentials_vanish()
    page2 = result[1]
    assert page2.d_ranks.get((0, 0)) == 1
    final = result[-1]
    assert all(v == 0 for v in final.dims.values())


def test_convergence_totals_match_homology(field):

    # 0 -> Q^2 -> Q -> 0 with d(a) = y, d(b) = 2y and mixed weights
    basis = [
        BasisVector("a", 0, 0),
        BasisVector("b", 0, 1),
        BasisVector("y", 1, 1),
    ]
    diffs = {
        0: SparseMatrix(1, 2, {(0, 0): field.one, (0, 1): field.scalar(2)}, field)
    }
    fc = FilteredComplex(field, basis, diffs)
    final = pages(fc)[-1]
    assert final.total_dims() == {t: h for t, h in fc.homology_dims().items()}
    assert fc.homology_dims() == {0: 1, 1: 0}


def test_validation_rejects_weight_drop(field):

    basis = [BasisVector("x", 0, 3), BasisVector("y", 1, 1)]
    diffs = {0: SparseMatrix(1, 1, {(0, 0): field.one}, field)}
    with pytest.raises(ValidationError):
        FilteredComplex(field, basis, diffs)


def test_validation_rejects_broken_square(field):

    basis = [BasisVector("x", 0, 0), BasisVector("y", 1, 0), BasisVector("z", 2, 0)]
    diffs = {
        0: SparseMatrix(1, 1, {(0, 0): field.one}, field),
        1: SparseMatrix(1, 1, {(0, 0): field.one}, field),
    }
    with pytest.raises(ComplexViolationError):
        FilteredComplex(field, basis, diffs)


def test_reindexing_invariance(field):

    basis = [
        BasisVector("a", 0, 0),
        BasisVector("b", 0, 1),
        BasisVector("y", 1, 1),
        BasisVector("z", 1, 2),
    ]
    diffs = {0: SparseMatrix(2, 2, {(0, 0): field.one}, field)}
    fc = FilteredComplex(field, basis, diffs)
    remap = lambda w: 3 * w + 5  # order-preserving
    basis2 = [BasisVector(b.label, b.degree, remap(b.weight)) for b in basis]
    fc2 = FilteredComplex(field, basis2, diffs)
    final1, final2 = pages(fc)[-1], pages(fc2)[-1]
    dims1 = {(remap(w), t): v for (w, t), v in final1.dims.items() if v}
    dims2 = {k: v for k, v in final2.dims.items() if v}
    assert dims1 == dims2


# -- the cone filtration ------------------------------------------------------------


@pytest.fixture(scope="module")
def conic(field):
    return ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))


def test_cone_filtration_single_row(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    fc = poisson_filtration(conic, 1, window)
    result = pages(fc)
    page1 = result[0]
    # all of E_1 lives in the single transverse-degree row k - p = 0
    assert page1.nonzero_weights() <= {0}
    for page in result:
        assert page.differentials_vanish()


def test_cone_filtration_limit_matches_direct_dims(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    for k in (0, 1, 2):
        fc = poisson_filtration(conic, k, window)
        final = pages(fc)[-1]
        totals = final.total_dims()
        top = conic.leaf_dim + conic.codim
        for l in range(-k, top - k + 1):
            expected = BoundaryDims(conic, window).get(k + l, l)
            assert totals.get(-l, 0) == expected, (k, l)


def test_cone_filtration_requires_conic(field):
    torus = KroneckerTorus(field, ["1", "sqrt2"])
    with pytest.raises(Exception):
        poisson_filtration(torus, 1, ModeWindow(bound=1))


def load_filtration(path):
    """A filtered complex from a fixture: field radicals, basis, (i, j, value) per degree."""
    doc = json.loads(path.read_text())
    field = NumberField(tuple(doc["field"]["sqrts"]))
    basis = [BasisVector(b["label"], b["degree"], b["weight"]) for b in doc["basis"]]
    sizes = Counter(b.degree for b in basis)
    diffs = {}
    for t, triples in doc["diffs"].items():
        entries = {(i, j): field.parse(v) for i, j, v in triples}
        diffs[int(t)] = SparseMatrix(sizes[int(t) + 1], sizes[int(t)], entries, field)
    return FilteredComplex(field, basis, diffs)


def test_frozen_fixture_round_trips(conic):
    # regression fixture: the zero-mode slice of the offset-1 filtration
    frozen = load_filtration(Path(__file__).parent / "data" / "cone_filtration_k1_b0.json")
    fresh = poisson_filtration(conic, 1, ModeWindow(bound=0, l_min=-2, l_max=2))
    triples = lambda fc: {
        t: [(i, j, str(v)) for (i, j), v in sorted(m.entries.items())] for t, m in fc.diffs.items()
    }
    assert frozen.field == fresh.field
    assert frozen.basis == fresh.basis
    assert triples(frozen) == triples(fresh)
    assert pages(frozen)[-1].dims == pages(fresh)[-1].dims
