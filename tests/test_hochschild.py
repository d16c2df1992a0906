"""Dimension predictors for the symbol algebra invariants."""

from __future__ import annotations

import pytest

from leafhom.derham import cohomology_dims, ordinary_derham_dims
from leafhom.errors import UnsupportedModelError, WindowError
from leafhom.hochschild import (
    e1_to_e2,
    e2_dims,
    hh0_and_top,
    hh_dims_assuming_collapse,
    hp_dims,
)
from leafhom.models import (
    ConicDualModel,
    CosphereCircleModel,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    torus_of,
)
from leafhom.poisson import BoundaryDims
from leafhom.scalars import NumberField


def circle(model):
    """The cosphere-circle bundle of the torus a model is built on."""
    return CosphereCircleModel(torus_of(model))


def circle_table(torus, window):
    return cohomology_dims(circle(torus), window)


def bridge(torus, window):
    e2 = e2_dims(torus, circle_table(torus, window))
    return e1_to_e2(BoundaryDims(ConicDualModel(torus), window), e2)


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


@pytest.fixture(scope="module")
def torus2(field):
    return KroneckerTorus(field, ["1", "sqrt2"])


@pytest.fixture(scope="module")
def torus3():
    # 1, sqrt2, sqrt3 are Q-linearly independent: genuinely nonresonant
    return KroneckerTorus(NumberField((2, 3)), ["1", "sqrt2", "sqrt3"])


def test_e2_table_values(torus2):
    window = ModeWindow(bound=1)
    table = e2_dims(torus2, circle_table(torus2, window))
    assert table[(-1, 1)] == 2  # shifted index (2, 0) on the bundle
    assert table[(0, 1)] == 4
    assert table[(1, 1)] == 2
    assert table[(-1, 2)] == 2
    assert table[(0, 2)] == 4
    assert table[(1, 2)] == 2
    assert sum(v for (k, h), v in table.items() if k + h == 1) == 6
    # vanishing outside the index window
    assert all(k <= 1 for (k, _h) in table)


def test_hh_dims_n2(torus2):
    window = ModeWindow(bound=1)
    assert hh_dims_assuming_collapse(torus2, circle_table(torus2, window)) == [2, 6, 6, 2]


def test_hh_dims_n3(torus3):
    window = ModeWindow(bound=1)
    assert hh_dims_assuming_collapse(torus3, circle_table(torus3, window)) == [2, 8, 12, 8, 2]


def test_hh_vanishing_above_top(torus2):
    dims = hh_dims_assuming_collapse(torus2, circle_table(torus2, ModeWindow(bound=1)))
    # list covers exactly k = 0 .. 2p+q; beyond that the groups vanish
    assert len(dims) == 4


def test_hh0_and_top(torus2):
    window = ModeWindow(bound=1)
    report = hh0_and_top(torus2, circle_table(torus2, window), cohomology_dims(torus2, window))
    assert report["HH_0"] == 2
    assert report["HH_top"] == 1
    assert any("not applicable" in note for note in report["notes"])


def test_hp_dims(torus2, torus3):
    assert hp_dims(ordinary_derham_dims(circle(torus2), ModeWindow(bound=1))) == (8, 8)
    assert hp_dims(ordinary_derham_dims(circle(torus3), ModeWindow(bound=1))) == (16, 16)


def test_hp_unsupported_model(field):
    lie = LieFrameModel.create(field, 3, {(0, 1): {2: field.one}}, {2})
    with pytest.raises(UnsupportedModelError):
        hp_dims(ordinary_derham_dims(circle(lie)))


def test_page_bridge_matches_closed_form(torus2):
    report = bridge(torus2, ModeWindow(bound=1, l_min=-2, l_max=2))
    assert report["passed"], [c for c in report["cells"] if not c["consistent"]]
    table = {(c["k"], c["h"]): c["from_cone"] for c in report["cells"]}
    assert table[(1, 1)] == 2  # row h = p matches H^{0,0} of the bundle
    assert table[(2, 1)] == 0 and table[(-2, 1)] == 0


def test_page_bridge_window_error(torus2):
    with pytest.raises(WindowError):
        bridge(torus2, ModeWindow(bound=1, l_min=0, l_max=1))


def test_total_dims_match_page_table(torus2):
    # under the collapse assumption the totals are exactly the page-table sums
    window = ModeWindow(bound=1)
    table = e2_dims(torus2, circle_table(torus2, window))
    dims = hh_dims_assuming_collapse(torus2, circle_table(torus2, window))
    assert sum(dims) == sum(table.values())
    for k, dim in enumerate(dims):
        assert dim == sum(v for (kk, h), v in table.items() if kk + h == k)


def test_window_stability_of_predictors(torus2):
    small = hh_dims_assuming_collapse(torus2, circle_table(torus2, ModeWindow(bound=1)))
    large = hh_dims_assuming_collapse(torus2, circle_table(torus2, ModeWindow(bound=2)))
    assert small == large
    b1 = bridge(torus2, ModeWindow(bound=1, l_min=-2, l_max=2))
    b2 = bridge(torus2, ModeWindow(bound=2, l_min=-2, l_max=2))
    assert b1["cells"] == b2["cells"]
