"""The Cartan-homotopy rule for torus-family blocks against the rank engine.

`derham.koszul_block_dims` settles a block of a model built on a Kronecker
torus from its multipliers alone.  Here every such block is also ranked by
the engine (`_block_bidegree_dims` for the leafwise table, `block_homology`
on the full differential for the Betti numbers), for the golden specs and
two resonant tori, and the two must agree block by block and in total.
The engine ranks `component_terms(model, "d_F")` and `component_terms(model,
"d")`, which are built from the same multipliers, so a wrong multiplier is
caught by the closed-form oracles (test_oracles.py), not here.
"""

from __future__ import annotations

import pytest
from test_golden import CASES

from leafhom import models
from leafhom.derham import (
    _block_bidegree_dims,
    block_homology,
    cohomology_dims,
    component_terms,
    koszul_block_dims,
    ordinary_derham_dims,
)
from leafhom.errors import ComplexViolationError, UnsupportedModelError
from leafhom.models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    ExteriorTables,
    KroneckerTorus,
    ModeWindow,
    check_cartan_identity,
    make_model,
    torus_of,
)
from leafhom.scalars import NumberField

SPECS = {name: spec for name, (spec, _args, _code) in CASES.items()}
SPECS["resonant_t2"] = {"family": "kronecker_torus", "alpha": ["1", "1"]}
SPECS["resonant_t3"] = {"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt2-1"]}


def _torus(spec: dict) -> KroneckerTorus | None:
    try:
        return torus_of(make_model(spec))
    except UnsupportedModelError:
        return None  # a lie_frame: its tables stay on the rank engine


# one spec per distinct torus: the golden T^2 specs share theirs
TORUS_SPECS = {repr(_torus(spec)): name for name, spec in sorted(SPECS.items(), reverse=True)}
TORUS_SPECS.pop(repr(None))


def _add(total: dict, part: dict) -> None:
    for k, v in part.items():
        if v:
            total[k] = total.get(k, 0) + v


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name", sorted(TORUS_SPECS.values()))
def test_rule_matches_rank_engine(name, bound):
    torus = _torus(SPECS[name])
    window = ModeWindow(bound=bound, l_min=-2, l_max=2)
    # the spec's own model is one of the four a run builds on its torus
    for model in (torus, CosphereCircleModel(torus), CircleProductModel(torus), ConicDualModel(torus)):
        dF = component_terms(model, "d_F")
        is_conic = isinstance(model, ConicDualModel)
        for l in window.homogeneities() if is_conic else [None]:
            keys = [k for k in model.block_keys(window) if not is_conic or k[2] == l]
            ranked: dict = {}
            for key in keys:
                block = _block_bidegree_dims(model, key, dF)
                assert koszul_block_dims(model, key) == {k: v for k, v in block.items() if v}, key
                _add(ranked, block)
            assert cohomology_dims(model, window, homogeneity=l).dims == ranked, (model, l)
        if is_conic:
            continue
        betti = [0] * (len(model.gen_names) + 1)
        for key in model.block_keys(window):
            by_deg = {k: [] for k in range(len(model.gen_names) + 2)}
            for m in model.block_monomials(key):
                by_deg[len(m.ext)].append(m)
            ranked_block = block_homology(model, component_terms(model, "d"), by_deg, str(key))
            rule_block: dict = {}
            for (r, s), v in koszul_block_dims(model, key, full=True).items():
                rule_block[r + s] = rule_block.get(r + s, 0) + v
            assert rule_block == {k: v for k, v in ranked_block.items() if v}, key
            for k, v in rule_block.items():
                betti[k] += v
        assert ordinary_derham_dims(model, window) == betti, model


def test_cartan_identity_holds():
    for n in range(1, 7):
        check_cartan_identity(ExteriorTables((True,) + (False,) * (n - 1)))


def test_corrupted_exterior_sign_fails_the_cartan_check(monkeypatch):
    real = models.merge_ext

    def corrupted(a, b):
        # the sign of multiplying a generator onto a 2-form is flipped
        out = real(a, b)
        return out if out is None or len(b) != 2 else (-out[0], out[1])

    monkeypatch.setattr(models, "merge_ext", corrupted)
    with pytest.raises(ComplexViolationError, match="Cartan identity fails"):
        check_cartan_identity(ExteriorTables((True, False, False)))
    torus = KroneckerTorus(NumberField((2,)), ["1", "sqrt2", "sqrt2-1"])
    for run in (
        lambda: cohomology_dims(torus, ModeWindow(bound=0)),
        lambda: ordinary_derham_dims(torus, ModeWindow(bound=0)),
    ):
        with pytest.raises(ComplexViolationError, match="Cartan identity fails"):
            run()
