"""The Cartan-homotopy rule for torus-family blocks against the rank engine.

`derham.contracted` settles a block of a model built on a Kronecker torus
from its multipliers alone, and the leafwise table counts the blocks it
leaves open (`derham.open_blocks`), C(p, r) C(q, s) classes each.  Here
every such block is also ranked by the engine (`block_homology` on each
r-chain of d_F for the leafwise table, and on the full differential for the
Betti numbers), for the golden specs and two resonant tori, and the two must
agree block by block; the leafwise totals must equal those of the window's
`rank_pass`.
The engine ranks `component_terms(model, "d_F")` and `component_terms(model,
"d")`, which are built from the same multipliers, so a wrong multiplier is
caught by the closed-form oracles (test_oracles.py), not here.
"""

from __future__ import annotations

import math

import pytest
from test_golden import CASES

from leafhom import models
from leafhom.derham import (
    _component_filter,
    block_homology,
    cohomology_dims,
    component_terms,
    contracted,
    ordinary_derham_dims,
    rank_pass,
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


def _leafwise_block(model, key, dF) -> dict:
    """H^{r,s} of one block by the rank engine: one d_F chain in r per s, top cell empty."""
    by_deg: dict = {}
    for m in model.block_monomials(key):
        by_deg.setdefault(model.bidegree(m.ext), []).append(m)
    out = {}
    for s in {s for _r, s in by_deg}:
        chain = {r: by_deg.get((r, s), []) for r in range(model.leaf_dim + 2)}
        dims = block_homology(model, dF, chain, f"{key}, s = {s}")
        out.update(((r, s), h) for r, h in dims.items() if h)
    return out


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
        (dF_flags, _), (d_flags, _) = _component_filter(model, "d_F"), _component_filter(model, "d")
        is_conic = isinstance(model, ConicDualModel)
        for l in window.homogeneities() if is_conic else [None]:
            keys = [k for k in model.block_keys(window) if not is_conic or k[2] == l]
            ranked: dict = {}
            p, q = model.leaf_dim, model.codim
            for key in keys:
                block = _leafwise_block(model, key, dF)
                # a contracted block is acyclic; on any other d_F vanishes
                rule_block = {} if contracted(model, key, dF_flags) else {
                    (r, s): math.comb(p, r) * math.comb(q, s)
                    for r in range(p + 1)
                    for s in range(q + 1)
                }
                assert rule_block == block, key
                _add(ranked, block)
            narrowed = ModeWindow(bound, l, l) if is_conic else window
            assert rank_pass(model, narrowed).dims == ranked, (model, l)
            assert cohomology_dims(model, window, homogeneity=l).dims == ranked, (model, l)
        if is_conic:
            continue
        n = len(model.gen_names)
        betti = [0] * (n + 1)
        for key in model.block_keys(window):
            by_deg = {k: [] for k in range(n + 2)}
            for m in model.block_monomials(key):
                by_deg[len(m.ext)].append(m)
            ranked_block = block_homology(model, component_terms(model, "d"), by_deg, str(key))
            # a contracted block is acyclic; on any other d vanishes
            contracts = contracted(model, key, d_flags)
            rule_block = {} if contracts else {k: math.comb(n, k) for k in range(n + 1)}
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
