"""Closed-form oracles for the Kronecker torus on random slope vectors.

For a linear flow on T^n with slope alpha (leaf dimension 1, codimension
n - 1) the tables have closed forms, restated here from the paper's Fourier
computation and checked on random alpha over Q(i, sqrt2, sqrt3):

* alpha nonresonant (m . alpha = 0 only for m = 0): the leafwise table is
  H^{r,s} = C(n-1, s) for r in {0, 1}; the Hochschild dimensions under
  second-page collapse are HH_k = 2 C(n+1, k), k = 0 .. n+1; the periodic
  pair is HP = (2^(n+1), 2^(n+1)).
* any alpha: the ordinary Betti numbers are C(n, k), since only the zero
  mode has all multipliers of the full differential zero.
* alpha resonant: a mode block contributes C(1, r) C(n-1, s) exactly when
  m . alpha = 0, so the leafwise table is (number of window modes with
  m . alpha = 0) * C(1, r) C(n-1, s).  The modes are counted here with
  Fraction arithmetic on the rational components of alpha, not with Scalar.

The tables are read off `model.multipliers` by the Cartan rule, and the
rule-vs-rank test compares the rule with the rank engine on term maps that
`component_terms` builds from the same multipliers; these oracles are what
catch a wrong multiplier.

Two symmetry oracles need no closed form.  A Galois automorphism of the
field, applied to alpha or to the structure constants of a Lie frame,
conjugates every block matrix entrywise and so keeps every rank.  A signed
permutation of the coordinates of T^n maps the foliation of alpha onto that
of the permuted alpha, Fourier modes onto Fourier modes and the cube window
onto itself.  Either way every dimension table must come out the same:
leafwise, basic, Betti, cosphere and circle product, the cone's boundary
lines, the spectral pages and the Hochschild predictors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from leafhom import hochschild
from leafhom.derham import basic_cohomology_dims, cohomology_dims, ordinary_derham_dims
from leafhom.hochschild import hh_dims_assuming_collapse, hp_dims
from leafhom.models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
)
from leafhom.poisson import BoundaryDims
from leafhom.scalars import NumberField
from leafhom.specseq import pages, poisson_filtration

try:  # test-only dependency
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None

FIELD = NumberField((2, 3))
# a Q-basis of the real subfield Q(sqrt2, sqrt3)
BASIS = (FIELD.one, FIELD.sqrt(2), FIELD.sqrt(3), FIELD.sqrt(2) * FIELD.sqrt(3))


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _torus(components: list[list[Fraction]]) -> KroneckerTorus:
    """alpha_j = sum_b components[j][b] * BASIS[b]."""
    alpha = [sum((b * c for b, c in zip(BASIS, row)), FIELD.zero) for row in components]
    return KroneckerTorus(FIELD, alpha)


def _resonant_modes(components: list[list[Fraction]], bound: int) -> int:
    """Window modes m with m . alpha = 0, component by component."""
    n = len(components)
    return sum(
        all(sum(m[j] * components[j][b] for j in range(n)) == 0 for b in range(len(BASIS)))
        for m in itertools.product(range(-bound, bound + 1), repeat=n)
    )


def _leafwise(n: int, count: int) -> dict[tuple[int, int], int]:
    return {(r, s): count * comb(n - 1, s) for r in (0, 1) for s in range(n)}


if st is not None:
    RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @st.composite
    def nonresonant(draw):
        n = draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(RATIONAL, min_size=4, max_size=4), min_size=n, max_size=n))
        # rank n: no nonzero integer (indeed rational) m has m . alpha = 0
        assume(_rank(rows) == n)
        return rows, draw(st.integers(1, 2 if n < 4 else 1))

    @st.composite
    def resonant(draw):
        n = draw(st.integers(2, 4))
        k = draw(st.integers(1, n - 1))  # alpha spans a k-dimensional space, k < n
        span = draw(st.lists(st.lists(RATIONAL, min_size=4, max_size=4), min_size=k, max_size=k))
        coeffs = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        rows = []
        for cs in draw(st.lists(coeffs, min_size=n, max_size=n)):  # alpha_j = sum c * span
            rows.append([sum(c * v[b] for c, v in zip(cs, span)) for b in range(4)])
        assume(any(rows[0]))  # the model rescales alpha by its first entry
        return rows, draw(st.integers(1, 2 if n < 4 else 1))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(nonresonant())
    def test_nonresonant_torus_closed_forms(case):
        rows, bound = case
        n, window = len(rows), ModeWindow(bound=bound)
        torus = _torus(rows)
        assert not torus.resonant
        assert cohomology_dims(torus, window).dims == _leafwise(n, 1)
        assert ordinary_derham_dims(torus, window) == [comb(n, k) for k in range(n + 1)]
        cosphere = CosphereCircleModel(torus)
        circle = cohomology_dims(cosphere, window)
        assert hh_dims_assuming_collapse(torus, circle) == [2 * comb(n + 1, k) for k in range(n + 2)]
        assert hp_dims(ordinary_derham_dims(cosphere, window)) == (2 ** (n + 1), 2 ** (n + 1))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(resonant())
    def test_resonant_torus_counts_the_lattice_modes(case):
        rows, bound = case
        n, window = len(rows), ModeWindow(bound=bound)
        torus = _torus(rows)
        assert torus.resonant
        count = _resonant_modes(rows, bound)
        assert cohomology_dims(torus, window).dims == _leafwise(n, count)
        assert ordinary_derham_dims(torus, window) == [comb(n, k) for k in range(n + 1)]

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_nonresonant_torus_closed_forms():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_resonant_torus_counts_the_lattice_modes():
        pass


# -- symmetry oracles ---------------------------------------------------------------

WINDOW = ModeWindow(bound=1)
F2 = NumberField((2,))
T2_ALPHA = (F2.one, F2.parse("2+sqrt2"))
T2_RESONANT = (F2.one, F2.scalar(-1))  # m1 = m2: three window modes
# resonant along m = (1, 1, -1)
T3_ALPHA = (FIELD.one, FIELD.parse("sqrt2+sqrt3"), FIELD.parse("1+sqrt2+sqrt3"))


def _cone_tables(cone: ConicDualModel, e2: dict | None = None) -> dict:
    """The cone's boundary lines, spectral pages and, given ``e2``, page bridge.

    The lines are read per component at every cell, the pages at every offset;
    ``e2`` is the closed-form second page the bridge compares the cone with.
    """
    top = cone.leaf_dim + cone.codim
    cells = [(k, l) for k in range(top + 1) for l in WINDOW.homogeneities()]
    boundary = {op: BoundaryDims(cone, WINDOW, op) for op in ("delta", "delta_F")}
    out = {
        op: {cell: dims.get(*cell, per_component=True) for cell in cells}
        for op, dims in boundary.items()
    }
    if e2 is not None:
        out["page_bridge"] = hochschild.e1_to_e2(boundary["delta"], e2)["cells"]
    filtrations = (poisson_filtration(cone, k, WINDOW) for k in range(top + 1))
    out["pages"] = [[page.to_json() for page in pages(fc)] for fc in filtrations]
    return out


@cache
def _torus_tables(alpha: tuple) -> dict:
    """Every dimension table of the torus of slope alpha on WINDOW, by name."""
    torus = KroneckerTorus(alpha[0].field, alpha)
    cosphere = CosphereCircleModel(torus)
    leafwise, circle = cohomology_dims(torus, WINDOW), cohomology_dims(cosphere, WINDOW)
    e2 = hochschild.e2_dims(torus, circle)
    return {
        "leafwise": leafwise.dims,
        "basic": basic_cohomology_dims(torus, WINDOW)["dims"],
        "betti": ordinary_derham_dims(torus, WINDOW),
        "cosphere": circle.dims,
        "circle_product": cohomology_dims(CircleProductModel(torus), WINDOW).dims,
        **_cone_tables(ConicDualModel(torus), e2),
        "e2": e2,
        "hh": hh_dims_assuming_collapse(torus, circle),
        "bottom_top": hochschild.hh0_and_top(torus, circle, leafwise),
        "hp": hp_dims(ordinary_derham_dims(cosphere, WINDOW)),
    }


def _signed_permutation(alpha: tuple, perm: tuple[int, ...], signs: tuple[int, ...]) -> tuple:
    """(signs[j] * alpha[perm[j]])_j, rescaled so that its first entry is 1."""
    image = [alpha[p] * s for p, s in zip(perm, signs)]
    return tuple(a * image[0].inverse() for a in image)


def _signed_permutations(alpha: tuple) -> set:
    n = len(alpha)
    return {
        _signed_permutation(alpha, perm, signs)
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    }


@pytest.mark.parametrize(
    "alpha, bits",
    [(T2_ALPHA, (1,)), (T3_ALPHA, (1, 2))],
    ids=["t2_sqrt2", "t3_sqrt2_sqrt3"],
)
def test_galois_conjugate_slope_keeps_every_table(alpha, bits):
    conjugate = alpha
    for bit in bits:
        conjugate = tuple(a.conjugate(bit) for a in conjugate)
    # no coordinate symmetry relates the two foliations
    assert conjugate not in _signed_permutations(alpha)
    assert _torus_tables(conjugate) == _torus_tables(alpha)


def test_galois_conjugate_frame_keeps_every_table():
    # [e1, e3] = e1, [e2, e3] = sqrt2 e2, foliated by e1
    def tables(c):
        frame = LieFrameModel.create(FIELD, 3, {(0, 2): {0: FIELD.one}, (1, 2): {1: c}}, {0})
        return {
            "leafwise": cohomology_dims(frame, WINDOW).dims,
            "basic": basic_cohomology_dims(frame, WINDOW)["dims"],
            **_cone_tables(ConicDualModel(frame)),
        }

    sqrt2 = FIELD.sqrt(2)
    assert tables(sqrt2.conjugate(1)) == tables(sqrt2)


@pytest.mark.parametrize(
    "alpha, perm, signs",
    [
        (T2_ALPHA, (1, 0), (1, 1)),
        (T2_ALPHA, (0, 1), (1, -1)),
        (T2_RESONANT, (0, 1), (1, -1)),
        (T3_ALPHA, (2, 0, 1), (1, -1, 1)),
    ],
    ids=["t2_swap", "t2_flip", "t2_resonant_flip", "t3_cycle_flip"],
)
def test_signed_permutation_keeps_every_table(alpha, perm, signs):
    image = _signed_permutation(alpha, perm, signs)
    assert image != alpha
    assert _torus_tables(image) == _torus_tables(alpha)
