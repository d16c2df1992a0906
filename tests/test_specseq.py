"""Spectral engine: pages, convergence, and the cone filtration.

`zspace_pages` is the oracle: it computes every page from the literal
subspace chains Z_r^w = {x in F^w : dx in F^(w+r)}, and asserts the page
recursion between consecutive pages.  The package's persistence reduction
must give the same pages on the hand-built complexes, on random filtered
complexes with late differentials and on every cone offset of the golden
specs.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from leafhom import cli
from leafhom.errors import ComplexViolationError, ValidationError
from leafhom.linalg import Echelon, SparseMatrix, SparseVector
from leafhom.models import ConicDualModel, KroneckerTorus, ModeWindow, make_model
from leafhom.poisson import BoundaryDims
from leafhom.scalars import NumberField, Scalar
from leafhom.specseq import BasisVector, FilteredComplex, SpectralPage, pages, poisson_filtration
from kernel_oracle import rref_rank_kernel
from test_golden import CASES

try:  # test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None


def zspace_pages(fc: FilteredComplex) -> list[SpectralPage]:
    """Every page from the subspace chains Z_r^w, with the page recursion asserted."""
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
        _, kern = rref_rank_kernel(sub)
        vecs = [{cols[j]: v for j, v in k.items()} for k in kern]
        z_cache[key] = vecs
        return vecs

    def apply_d(t: int, vec: SparseVector) -> SparseVector:
        d_t = fc.diffs.get(t)
        if d_t is None:
            return {}
        image = d_t.matmul(SparseMatrix(d_t.cols, 1, {(i, 0): v for i, v in vec.items()}, fc.field))
        return {i: v for (i, _j), v in image.entries.items()}

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
            assert dims[(w, t)] >= 0, "page cell with negative dimension"
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
                assert dims[(w, t)] == prev_dims[(w, t)] - incoming - outgoing, (
                    f"page recursion fails at cell (w={w}, t={t}, r={r})"
                )
        stabilized = r >= r_stop
        out_pages.append(SpectralPage(r, dims, d_ranks, stabilized))
        prev_dims, prev_ranks = dims, d_ranks
        if stabilized and all(v == 0 for v in d_ranks.values()):
            break
    return out_pages


def checked_pages(fc: FilteredComplex) -> list[SpectralPage]:
    """`pages(fc)`, asserted equal to the oracle page by page."""
    got, expected = pages(fc), zspace_pages(fc)
    assert [p.to_json() for p in got] == [p.to_json() for p in expected]
    assert [(p.dims, p.d_ranks) for p in got] == [(p.dims, p.d_ranks) for p in expected]
    return got


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
    result = checked_pages(fc)
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
    result = checked_pages(fc)
    first, final = result[0], result[-1]
    assert first.dims[(0, 0)] == first.dims[(1, 1)] == first.dims[(0, 1)] == 1
    assert first.dims == final.dims
    assert final.differentials_vanish()


def test_weight_jump_creates_late_differential(field):
    # d(x) = y with weight(x) = 0, weight(y) = 2: survives to page 2, dies at 3
    fc = two_term_complex(field, 1, weights=(0, 2))
    result = checked_pages(fc)
    page1 = result[0]
    assert page1.dims[(0, 0)] == page1.dims[(2, 1)] == 1
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
    final = checked_pages(fc)[-1]
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
    final1, final2 = checked_pages(fc)[-1], checked_pages(fc2)[-1]
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
    result = checked_pages(fc)
    page1 = result[0]
    # all of E_1 lives in the single transverse-degree row k - p = 0
    assert page1.nonzero_weights() <= {0}
    for page in result:
        assert page.differentials_vanish()


def test_cone_filtration_limit_matches_direct_dims(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    for k in (0, 1, 2):
        fc = poisson_filtration(conic, k, window)
        final = checked_pages(fc)[-1]
        totals = final.total_dims()
        top = conic.leaf_dim + conic.codim
        for l in range(-k, top - k + 1):
            expected = BoundaryDims(conic, window).get("delta", k + l, l)
            assert totals.get(-l, 0) == expected, (k, l)


def test_cone_filtration_requires_conic(field):
    torus = KroneckerTorus(field, ["1", "sqrt2"])
    with pytest.raises(Exception):
        poisson_filtration(torus, 1, ModeWindow(bound=1))


def test_pages_end_under_wrong_inverses(conic, monkeypatch):
    # every inverse off by a factor 2: the persistence reduction goes wrong,
    # but it must still end, in pages or in a ComplexViolationError
    window = ModeWindow(bound=1)
    top = conic.leaf_dim + conic.codim
    filtrations = [poisson_filtration(conic, k, window) for k in range(top + 1)]
    real = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda self: real(self) * 2)
    for fc in filtrations:
        try:
            assert pages(fc)
        except ComplexViolationError:
            pass


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
    assert checked_pages(frozen)[-1].dims == checked_pages(fresh)[-1].dims


# -- the oracle on the golden cones and on random filtered complexes ---------------


SPECSEQ_CASES = sorted(
    case
    for case, (_spec, args, _code) in CASES.items()
    if {"specseq", "all"} & set(args[args.index("--analyses") + 1].split(","))
)


@pytest.mark.parametrize("case", SPECSEQ_CASES)
def test_golden_cone_offsets_match_oracle(case):
    spec, args, _code = CASES[case]
    window = cli._parse_window(cli.build_parser().parse_args(["run", "--model", "-", *args]))
    conic = cli.RunContext(make_model(spec), window).cone
    for k in range(conic.leaf_dim + conic.codim + 1):
        checked_pages(poisson_filtration(conic, k, window))


if st is not None:

    QI2 = NumberField((2,))
    SCALARS = st.tuples(*[st.integers(-3, 3).map(Fraction)] * QI2.dim).map(
        lambda coords: Scalar(QI2, coords)
    )

    @st.composite
    def filtered_complexes(draw):
        """Elementary pieces x -> y (gaps 0-3) and free vectors over Q(i, sqrt2),
        each degree then conjugated by a random invertible filtered change of basis.

        A change x -> E x with E = 1 + c e_ij and weight(i) >= weight(j) keeps
        F^w, and so does E^-1 = 1 - c e_ij: row i of d into the degree gains c
        times row j, and column j of d out of it loses c times column i.
        """
        top = draw(st.integers(1, 3))
        weights: dict[int, list[int]] = {t: [] for t in range(top + 1)}
        links = []
        for _ in range(draw(st.integers(2, 8))):
            t, w = draw(st.integers(0, top)), draw(st.integers(-1, 2))
            if t < top and draw(st.integers(0, 3)):
                links.append((t, len(weights[t]), len(weights[t + 1])))
                weights[t + 1].append(w + draw(st.integers(0, 3)))
            weights[t].append(w)
        d = {t: [[QI2.zero] * len(weights[t]) for _ in weights[t + 1]] for t in range(top)}
        for t, j, i in links:
            d[t][i][j] = QI2.one
        for _ in range(draw(st.integers(0, 12))):
            s = draw(st.integers(0, top))
            n = len(weights[s])
            if n == 0:
                continue
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if weights[s][i] < weights[s][j]:
                i, j = j, i
            c = draw(SCALARS)
            if i == j:  # rescale the vector by a unit
                u = c or QI2.one
                if s > 0:
                    d[s - 1][i] = [u * v for v in d[s - 1][i]]
                if s < top:
                    for row in d[s]:
                        row[i] = row[i] * u.inverse()
                continue
            if s > 0:
                d[s - 1][i] = [a + c * b for a, b in zip(d[s - 1][i], d[s - 1][j])]
            if s < top:
                for row in d[s]:
                    row[j] = row[j] - c * row[i]
        basis = [
            BasisVector(f"v{t}.{k}", t, w) for t in range(top + 1) for k, w in enumerate(weights[t])
        ]
        diffs = {
            t: SparseMatrix(
                len(rows),
                len(weights[t]),
                {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v},
                QI2,
            )
            for t, rows in d.items()
        }
        return FilteredComplex(QI2, basis, diffs)

    def test_oracle_on_complexes_with_late_differentials():
        late = []

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(filtered_complexes())
        def check(fc):
            result = checked_pages(fc)
            late.append(any(v for page in result[1:] for v in page.d_ranks.values()))

        check()
        # most draws carry a nonzero d_r with r >= 2
        assert sum(late) > len(late) // 2, (sum(late), len(late))

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_oracle_on_complexes_with_late_differentials():
        pass
