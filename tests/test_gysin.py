"""Circle bundle pullback / fiber integration and the splitting table."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from leafhom import cli, derham, gysin, models
from leafhom.derham import cohomology_dims, differential
from leafhom.errors import ValidationError
from leafhom.gysin import fiber_integration_terms, product_splitting_dims
from leafhom.models import (
    CircleProductModel,
    FoliatedModel,
    Form,
    FormMonomial,
    KroneckerTorus,
    ModeWindow,
    merge_ext,
)
from leafhom.models import pullback_from_base as pullback
from leafhom.scalars import NumberField


@pytest.fixture(scope="module")
def torus():
    return KroneckerTorus(NumberField((2,)), ["1", "sqrt2"])


@pytest.fixture(scope="module")
def bundle(torus):
    return CircleProductModel(torus)


def integrate(bundle, form):
    return form.map(fiber_integration_terms(bundle), bundle.base)


def splitting(bundle, h, window):
    base_dims = cohomology_dims(bundle.base, window)
    return product_splitting_dims(bundle, base_dims, cohomology_dims(bundle, window))[h]


def test_pullback_of_coframe(bundle, torus):
    theta = torus.monomial_form(1, ext=("theta",))
    up = pullback(bundle, theta)
    assert up == bundle.monomial_form(1, ext=("theta",))
    e_eta = torus.monomial_form(1, mode=(2, 1), ext=("eta1",))
    up2 = pullback(bundle, e_eta)
    assert up2 == bundle.monomial_form(1, mode=(2, 1, 0), ext=("eta1",))


def test_pullback_injective_on_monomials(bundle, torus):
    window = ModeWindow(bound=1)
    images = set()
    for mono in torus.basis_monomials(window):
        up = pullback(bundle, Form(torus, {mono: torus.field.one}))
        (img_mono,) = up.terms
        assert img_mono not in images
        images.add(img_mono)


def test_pullback_commutes_with_leafwise_differential(bundle, torus):
    total = bundle
    e_m = torus.monomial_form(1, mode=(1, 0))
    lhs = differential(total, "d_F", pullback(bundle, e_m))
    rhs = pullback(bundle, differential(torus, "d_F", e_m))
    assert lhs == rhs


def test_fiber_integration_normalization(bundle):
    total = bundle
    dphi = total.monomial_form(1, ext=("dphi",))
    assert integrate(bundle, dphi) == bundle.base.monomial_form(1)


def test_fiber_integration_kills_base_forms(bundle, torus):
    total = bundle
    e_theta = total.monomial_form(1, mode=(1, 0, 0), ext=("theta",))
    assert integrate(bundle, e_theta).is_zero()
    # nonzero circle mode integrates to zero even with a dphi factor
    osc = total.monomial_form(1, mode=(0, 0, 2), ext=("dphi",))
    assert integrate(bundle, osc).is_zero()


def test_fiber_integration_sign(bundle, torus):
    total = bundle
    theta_dphi = total.monomial_form(1, mode=(1, 0, 0), ext=("theta", "dphi"))
    out = integrate(bundle, theta_dphi)
    # rightmost-removal convention: positive sign here, pinned by intertwining
    assert out == torus.monomial_form(1, mode=(1, 0), ext=("theta",))


def test_integration_intertwines_leafwise_differential(bundle, torus):
    total = bundle
    window = ModeWindow(bound=1)
    for mono in total.basis_monomials(window):
        form = Form(total, {mono: total.field.one})
        lhs = differential(torus, "d_F", integrate(bundle, form))
        rhs = integrate(bundle, differential(total, "d_F", form))
        assert lhs == rhs


def test_form_from_other_model_rejected(bundle, torus):
    with pytest.raises(ValidationError):
        pullback(bundle, bundle.monomial_form(1))


def test_splitting_table_h0(bundle):
    report = splitting(bundle, 0, ModeWindow(bound=2))
    assert report["passed"], report
    by_k = {row["k"]: row for row in report["rows"]}
    # direct 2 = 1 + 1 in the middle degree, 1 = 1 + 0 and 1 = 0 + 1 at the ends
    assert (by_k[0]["direct"], by_k[0]["predicted"]) == (1, 1)
    assert (by_k[1]["direct"], by_k[1]["predicted"]) == (2, 2)
    assert (by_k[2]["direct"], by_k[2]["predicted"]) == (1, 1)


def test_splitting_table_h1(bundle):
    report = splitting(bundle, 1, ModeWindow(bound=2))
    assert report["passed"]
    by_k = {row["k"]: row["direct"] for row in report["rows"]}
    assert by_k == {0: 1, 1: 2, 2: 1}


def test_splitting_checks_present(bundle):
    report = splitting(bundle, 0, ModeWindow(bound=1))
    names = {c["name"] for c in report["checks"]}
    assert "pullback intertwines d_F" in names
    assert "fiber integration intertwines d_F" in names
    assert "fiber integration kills pullbacks" in names
    assert "fiber-class wedge splits the sequence" in names
    assert all(c["passed"] for c in report["checks"])



def test_flipped_fiber_sign_fails_intertwining(bundle, monkeypatch):
    original = gysin.fiber_integration_terms

    def flipped(total):
        terms = original(total)
        # a wrong sign whenever theta precedes dphi (the leftmost-slot convention)
        return lambda mono: [(m, -c if 0 in mono.ext else c) for m, c in terms(mono)]

    monkeypatch.setattr(gysin, "fiber_integration_terms", flipped)
    report = splitting(bundle, 0, ModeWindow(bound=1))
    failing = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failing["fiber integration intertwines d_F"] == "counterexample: e[-1, -1, 0]*dphi"
    assert report["checks"][1]["detail"] == "counterexample: e[-1, -1, 0]*dphi"


def test_unclosed_fiber_class_fails_splitting(bundle, monkeypatch):
    # dphi + e[1, 0, 0] eta1 still integrates pi^*c ^ (-) back to c, but its
    # d_F is (1 . alpha) e[1, 0, 0] theta ^ eta1 != 0
    wedge_dphi = gysin._dphi_terms

    def unclosed(total):
        def terms(mono):
            sign, ext = merge_ext(mono.ext, (2,)) or (0, ())
            mode = (mono.mode[0] + 1,) + mono.mode[1:]
            extra = [(FormMonomial(mode, 0, 0, ext), total.field.scalar(sign))] if sign else []
            return list(wedge_dphi(total)(mono)) + extra

        return terms

    monkeypatch.setattr(gysin, "_dphi_terms", unclosed)
    report = splitting(bundle, 0, ModeWindow(bound=1))
    failing = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failing == {"fiber-class wedge splits the sequence": "counterexample: e[-1, -1]"}


@pytest.mark.parametrize(
    "zeroed, readers, iso",
    [
        ("pullback_terms", (gysin, models), "pullback iso in fiber-low degrees (k = 0)"),
        (
            "fiber_integration_terms",
            (gysin,),
            "fiber integration iso above the leaf degree (k = p+1)",
        ),
    ],
)
def test_zero_map_fails_its_iso_check(zeroed, readers, iso, bundle, monkeypatch):
    for module in readers:
        monkeypatch.setattr(module, zeroed, lambda total: lambda mono: [])
    window = ModeWindow(bound=1)
    base_dims = cohomology_dims(bundle.base, window)
    reports = product_splitting_dims(bundle, base_dims, cohomology_dims(bundle, window))
    assert [report["transverse_degree"] for report in reports] == [0, 1]
    for h, report in enumerate(reports):
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failing == {"fiber-class wedge splits the sequence", iso}, h


@pytest.mark.parametrize(
    "blinded, readers, iso",
    [
        ("pullback_terms", (gysin, models), "pullback iso in fiber-low degrees (k = 0)"),
        (
            "fiber_integration_terms",
            (gysin,),
            "fiber integration iso above the leaf degree (k = p+1)",
        ),
    ],
)
def test_iso_checks_read_each_transverse_degree(blinded, readers, iso, monkeypatch):
    # a map that kills the forms of transverse degree 1 breaks its iso at h = 1
    # alone, so no h may read another h's cells
    torus = KroneckerTorus(NumberField((2, 3)), ["1", "sqrt2", "sqrt3"])
    bundle, window = CircleProductModel(torus), ModeWindow(bound=1)
    original = getattr(readers[0], blinded)

    def blind(total):
        terms, source = original(total), total.base if blinded == "pullback_terms" else total
        return lambda mono: [] if source.bidegree(mono.ext)[1] == 1 else terms(mono)

    for module in readers:
        monkeypatch.setattr(module, blinded, blind)
    reports = product_splitting_dims(
        bundle, cohomology_dims(torus, window), cohomology_dims(bundle, window)
    )
    failing = [{c["name"] for c in report["checks"] if not c["passed"]} for report in reports]
    split = "fiber-class wedge splits the sequence"
    assert failing == [{split}, {split, iso}, {split}]


def test_chain_map_checks_once_per_run(tmp_path, monkeypatch):
    walks: Counter = Counter()
    walk = FoliatedModel.basis_monomials

    def counting_walk(model, window):
        walks[type(model).__name__] += 1
        return walk(model, window)

    assemblies = []
    closed_and_exact = gysin.closed_and_exact

    def counting_assembly(model, d_f, key, bidegrees):
        assemblies.append((type(model).__name__, key, tuple(bidegrees)))
        return closed_and_exact(model, d_f, key, bidegrees)

    matrices = Counter()
    operator_matrix = derham.operator_matrix

    def counting_matrix(model, terms, source, target):
        matrices[type(model).__name__] += 1
        return operator_matrix(model, terms, source, target)

    monkeypatch.setattr(FoliatedModel, "basis_monomials", counting_walk)
    monkeypatch.setattr(gysin, "closed_and_exact", counting_assembly)
    monkeypatch.setattr(derham, "operator_matrix", counting_matrix)
    spec = tmp_path / "t3.json"
    spec.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt3"]}))
    args = ["gysin", "--model", str(spec), "--mode-bound", "1", "--out", str(tmp_path / "o")]
    assert cli.main(args) == 0
    report = json.loads((tmp_path / "o" / "gysin.json").read_text())
    assert sorted(report["splitting_by_transverse_degree"]) == ["0", "1", "2"]
    # three transverse degrees, one walk per model: the pullback identities and
    # the splitting over the base, integration over the total space
    assert walks == {"KroneckerTorus": 1, "CircleProductModel": 1}
    # one pass per model: each of the base's 27 blocks and the total space's 81
    # is split once, for (0, h) and (1, h) on the base and (0, h) and (2, h)
    # on the total space, h = 0, 1, 2
    hs = range(3)
    cells = {
        "KroneckerTorus": tuple((r, h) for h in hs for r in (0, 1)),
        "CircleProductModel": tuple((r, h) for h in hs for r in (0, 2)),
    }
    assert len(assemblies) == 27 + 81
    assert len(set(assemblies)) == len(assemblies)
    assert Counter(name for name, _key, _cells in assemblies) == {
        "KroneckerTorus": 27,
        "CircleProductModel": 81,
    }
    assert all(bidegrees == cells[name] for name, _key, bidegrees in assemblies)
    # each d_F matrix once per block: (r, h) -> (r + 1, h) for r = -1, 0, 1 on
    # the base and r = -1, 0, 1, 2 on the total space, h = 0, 1, 2
    assert matrices == {"KroneckerTorus": 27 * 3 * 3, "CircleProductModel": 81 * 4 * 3}


@pytest.mark.parametrize("bound", [0, 2])
def test_chain_map_checks_walk_the_run_window(bound, tmp_path, monkeypatch):
    walks = []
    walk = FoliatedModel.basis_monomials

    def recording_walk(model, window):
        monos = list(walk(model, window))
        walks.append((type(model).__name__, monos))
        return iter(monos)

    monkeypatch.setattr(FoliatedModel, "basis_monomials", recording_walk)
    spec = tmp_path / "t2.json"
    spec.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}))
    args = ["gysin", "--model", str(spec), "--mode-bound", str(bound), "--out", str(tmp_path / "o")]
    assert cli.main(args) == 0
    base_basis = list(walk(KroneckerTorus(NumberField((2,)), ["1", "sqrt2"]), ModeWindow(bound)))
    # the base identities walk the base once, over the run's window
    assert [monos for name, monos in walks if name == "KroneckerTorus"] == [base_basis]
