"""Poisson calculus on the dual cone: contraction, bracket, star, homology."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from leafhom import cli, poisson
from leafhom.derham import block_homology, cohomology_dims, differential, operator_matrix
from leafhom.errors import ComplexViolationError, UnsupportedModelError, ValidationError
from leafhom.linalg import homology_dims
from leafhom.models import (
    ConicDualModel,
    CosphereCircleModel,
    Form,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
)
from leafhom.poisson import (
    BoundaryDims,
    bracket,
    contract_bivector,
    delta,
    delta_terms,
    poisson_tensor,
    verify_homology_correspondence,
    verify_star_delta_identity,
)
from leafhom.scalars import NumberField


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


@pytest.fixture(scope="module")
def conic(field):
    return ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))


def boundary_tables(conic, window):
    return BoundaryDims(conic, window, "delta"), BoundaryDims(conic, window, "delta_F")


def star(form):
    """The leafwise symplectic star, extended over transverse factors."""
    return form.map(poisson._star_terms(form.model))


def affine_conic(field):
    # [e1, e2] = e1 with a one-dimensional leaf along e1: d_perp(theta) != 0
    lie = LieFrameModel.create(field, 2, {(0, 1): {0: field.one}}, {0})
    return ConicDualModel(lie)


# -- the tensor and the contraction ------------------------------------------


def test_poisson_tensor_omega(conic):
    tensor = poisson_tensor(conic)
    omega = conic.monomial_form(1, ext=(0, 1))  # theta ^ dxi
    assert tensor["omega"] == repr(omega) and omega.bidegree() == (2, 0)
    assert tensor["omega_homogeneity"] == [1]


def test_contraction_of_leaf_area(conic):
    # orientation pinned by the coordinate bracket table: i_G(theta^dxi) = -1
    area = conic.monomial_form(1, ext=("theta", "dxi"))
    assert contract_bivector(conic, area) == conic.monomial_form(-1)


def test_contraction_needs_both_leaf_factors(conic):
    assert contract_bivector(conic, conic.monomial_form(1, ext=("theta", "eta1"))).is_zero()
    assert contract_bivector(conic, conic.monomial_form(1, ext=("dxi",))).is_zero()


def test_contraction_module_property(conic):
    f = conic.monomial_form(1, mode=(1, 0), xi=2)
    omega = conic.monomial_form(1, ext=("theta", "dxi"))
    eta = conic.monomial_form(1, ext=("eta1",))
    lhs = contract_bivector(conic, f.wedge(omega).wedge(eta))
    rhs = contract_bivector(conic, f.wedge(omega)).wedge(eta)
    assert lhs == rhs
    assert lhs == f.wedge(eta).scale(-1)


def test_contraction_requires_conic(field):
    torus = KroneckerTorus(field, ["1", "sqrt2"])
    with pytest.raises(UnsupportedModelError):
        contract_bivector(torus, torus.monomial_form(1))


# -- bracket -------------------------------------------------------------------


def test_bracket_antisymmetry(conic):
    f = conic.monomial_form(1, mode=(1, 0), xi=1)
    assert bracket(f, f).is_zero()
    g = conic.monomial_form(1, mode=(0, 1))
    assert bracket(f, g) == -bracket(g, f)


def test_bracket_radial_against_mode(conic, field):
    # {xi, e_m} = (m . alpha) e_m in the reduced normalization
    xi = conic.monomial_form(1, xi=1)
    for mode in [(1, 0), (0, 1), (2, 1)]:
        e_m = conic.monomial_form(1, mode=mode)
        lam = field.scalar(mode[0]) + field.parse("sqrt2") * mode[1]
        assert bracket(xi, e_m) == e_m.scale(lam)


def test_bracket_of_mode_functions_vanishes(conic):
    a = conic.monomial_form(1, mode=(1, 0))
    b = conic.monomial_form(1, mode=(0, 1))
    assert bracket(a, b).is_zero()


def test_bracket_jacobi_random(conic):
    rng = random.Random(23)
    modes = [(0, 0), (1, 0), (0, 1), (1, -1)]
    for _ in range(8):
        scalars = []
        for _k in range(3):
            scalars.append(
                conic.monomial_form(
                    rng.randint(1, 3), mode=rng.choice(modes), xi=rng.randint(-1, 2)
                )
            )
        f, g, h = scalars
        total = (
            bracket(f, bracket(g, h))
            + bracket(g, bracket(h, f))
            + bracket(h, bracket(f, g))
        )
        assert total.is_zero()


def test_bracket_rejects_nonscalars(conic):
    with pytest.raises(ValidationError):
        bracket(conic.monomial_form(1, ext=("theta",)), conic.monomial_form(1))


# -- delta ----------------------------------------------------------------------


def test_delta_on_scalars_vanishes(conic):
    f = conic.monomial_form(3, mode=(2, 1), xi=-1)
    assert delta(f).is_zero()


def test_delta_leafwise_matches_star_route(conic):
    a = conic.monomial_form(1, mode=(1, 1), xi=1, ext=("dxi",))
    assert delta(a, "delta_F") == a.map(poisson._star_conjugated_terms(conic))


def test_delta_perp_vanishes_on_flat_cone(conic):
    window = ModeWindow(bound=1, l_min=-1, l_max=1)
    for mono in conic.basis_monomials(window):
        form = Form(conic, {mono: conic.field.one})
        assert delta(form, "delta_perp").is_zero()


def test_delta_perp_nonzero_witness_on_affine_cone(field):
    model = affine_conic(field)
    area = model.monomial_form(1, ext=(0, 1))
    witness = delta(area, "delta_perp")
    assert not witness.is_zero()
    # shift is (-2, +1): from (2, 0) to (0, 1)
    assert witness.bidegree() == (0, 1)


def test_delta_perp_module_property_over_transverse(field):
    # delta_perp(omega ^ beta) = delta_perp(omega) ^ beta for transverse beta
    model = affine_conic(field)
    omega = model.monomial_form(1, xi=1, ext=(0, 1))
    beta = model.monomial_form(1, ext=(2,))
    lhs = delta(omega.wedge(beta), "delta_perp")
    rhs = delta(omega, "delta_perp").wedge(beta)
    assert not delta(omega, "delta_perp").is_zero()
    assert lhs == rhs


def test_delta_homogeneity_shift(conic):
    a = conic.monomial_form(1, mode=(1, 0), xi=2, ext=("theta", "eta1"))
    out = delta(a)
    assert out and list(out.homogeneity_decompose()) == [1]


def test_bracket_expansion_formula(conic):
    # delta_F(f0 dF f1 ^ dF f2) expands into bracket terms, term by term
    rng = random.Random(31)
    modes = [(0, 0), (1, 0), (0, 1), (1, 1)]
    dF = lambda a: differential(conic, "d_F", a)
    for _ in range(6):
        f0, f1, f2 = (
            conic.monomial_form(1, mode=rng.choice(modes), xi=rng.randint(0, 2))
            for _ in range(3)
        )
        lhs = delta(f0.wedge(dF(f1)).wedge(dF(f2)), "delta_F")
        rhs = (
            bracket(f0, f1).wedge(dF(f2))
            - bracket(f0, f2).wedge(dF(f1))
            - f0.wedge(dF(bracket(f1, f2)))
        )
        assert lhs == rhs


# -- hodge star -------------------------------------------------------------------


def test_star_tables_on_leaf_factor(conic):
    one = conic.monomial_form(1)
    theta = conic.monomial_form(1, ext=("theta",))
    dxi = conic.monomial_form(1, ext=("dxi",))
    area = conic.monomial_form(1, ext=("theta", "dxi"))
    assert star(one) == area
    assert star(theta) == -theta
    assert star(dxi) == -dxi
    assert star(area) == one


def test_star_transverse_extension(conic):
    f = conic.monomial_form(1, mode=(1, 0), xi=2)
    eta = conic.monomial_form(1, ext=("eta1",))
    area = conic.monomial_form(1, ext=("theta", "dxi"))
    assert star(f.wedge(area).wedge(eta)) == f.wedge(eta)
    assert star(f.wedge(eta)) == f.wedge(area).wedge(eta)
    theta_eta = conic.monomial_form(1, ext=("theta", "eta1"))
    assert star(theta_eta) == -theta_eta


def test_star_involution_full_window(conic):
    window = ModeWindow(bound=1, l_min=-1, l_max=1)
    for mono in conic.basis_monomials(window):
        form = Form(conic, {mono: conic.field.one})
        assert star(star(form)) == form


# -- identity suite ----------------------------------------------------------------


def test_star_delta_identity_suite(conic):
    report = verify_star_delta_identity(conic, ModeWindow(bound=2, l_min=-2, l_max=2))
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_star_delta_identity_suite_affine(field):
    report = verify_star_delta_identity(
        affine_conic(field), ModeWindow(bound=0, l_min=-2, l_max=2)
    )
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_flipped_star_sign_fails(conic, monkeypatch):
    bad = dict(poisson._STAR_TABLE)
    bad[(0,)] = ((0,), 1)  # deliberately flipped sign on the leaf covector
    monkeypatch.setattr(poisson, "_STAR_TABLE", bad)
    report = verify_star_delta_identity(conic, ModeWindow(bound=1, l_min=-1, l_max=1))
    assert not report["passed"]
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "star_conjugated d_F equals leafwise delta" in failing
    # the detail is the bare label of the first failing monomial
    assert {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]} == {
        "star_conjugated d_F equals leafwise delta": "+*e[-1, -1]*xi^-1*theta"
    }


# -- homogeneous homology ------------------------------------------------------------


def test_homology_vanishes_beyond_leaf_degree(conic):
    window = ModeWindow(bound=1, l_min=-3, l_max=3)
    for k in range(0, 4):
        assert BoundaryDims(conic, window).get(k, 2) == 0
        assert BoundaryDims(conic, window).get(k, -2) == 0


def test_homology_k2_l0(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get(2, 0) == 4


def test_homology_k0_lminus1(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get(0, -1) == 2
    per = BoundaryDims(conic, window).get(0, -1, per_component=True)
    assert per == {"+": 1, "-": 1}


def test_out_of_range_degrees_are_zero(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get(-1, 0) == 0
    assert BoundaryDims(conic, window).get(5, 0) == 0


def delta_f_bigraded_dims(conic, r, s, l, window):
    """delta_F homology at bidegree (r, s), homogeneity l, ranked block by block.

    delta_F has shift (-1, 0) and lowers homogeneity by one, so the slices
    (r + 1, l + 1) -> (r, l) -> (r - 1, l - 1) at transverse degree s form a
    complex on each (component, mode) block.
    """
    d_f = delta_terms(conic, "delta_F")
    total = 0
    for comp in range(conic.components_count):
        for mode in window.modes(conic.mode_len):
            src, mid, tgt = (
                [
                    m
                    for m in conic.block_monomials((comp, mode, l + t))
                    if conic.bidegree(m.ext) == (r + t, s)
                ]
                for t in (1, 0, -1)
            )
            diffs = {
                0: operator_matrix(conic, d_f, src, mid),
                1: operator_matrix(conic, d_f, mid, tgt),
            }
            total += homology_dims({0: len(src), 1: len(mid), 2: len(tgt)}, diffs)[1]
    return total


def test_bigraded_star_correspondence(conic):
    # leafwise-delta homology at (r, s, l) matches cohomology at (2p-r, s, l+p-r)
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    p = 1
    for r in range(0, 3):
        for s in range(0, 2):
            for l in (-1, 0, 1):
                lhs = delta_f_bigraded_dims(conic, r, s, l, window)
                rhs = cohomology_dims(
                    conic, window, homogeneity=l + p - r
                ).get(2 * p - r, s)
                assert lhs == rhs, (r, s, l)


def test_homology_correspondence_table(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    circle_dims = cohomology_dims(CosphereCircleModel(conic.base), window)
    report = verify_homology_correspondence(*boundary_tables(conic, window), circle_dims)
    assert report["passed"]
    assert not report["formal"]
    # spot values frozen from the closed form: 2 C(2, p-l) C(1, k-l-p) per sign
    table = {(row["k"], row["l"]): row["delta"] for row in report["rows"]}
    assert table[(1, 0)] == 4
    assert table[(0, -1)] == 2
    assert table[(2, 1)] == 2
    assert table[(3, 1)] == 2
    assert table[(3, 0)] == 0
    assert table[(0, 1)] == 0
    delta_dims, delta_f_dims = boundary_tables(conic, window)
    for tables in [(delta_f_dims, delta_dims), boundary_tables(conic, ModeWindow(bound=0))]:
        with pytest.raises(ValidationError, match="one cone and window"):
            verify_homology_correspondence(*tables, circle_dims)


def test_homology_correspondence_resonant_stays_consistent(field):
    model = ConicDualModel(KroneckerTorus(field, ["1", "2"]))
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    circle_dims = cohomology_dims(CosphereCircleModel(model.base), window)
    report = verify_homology_correspondence(*boundary_tables(model, window), circle_dims)
    assert report["passed"]
    assert report["formal"]


def slice_dims(conic, operator, k, l, window):
    """Reference: each block's 3-term slice l+1 -> l -> l-1 in degrees t = -l."""
    out = dict.fromkeys(conic.components, 0)
    if not 0 <= k <= conic.leaf_dim + conic.codim:
        return out
    op = poisson.delta_terms(conic, operator)
    for comp, name in enumerate(conic.components):
        for mode in window.modes(conic.mode_len):
            chain = {
                -(l + j): [
                    m
                    for m in conic.block_monomials((comp, mode, l + j))
                    if len(m.ext) == k + j
                ]
                for j in (1, 0, -1)
            }
            out[name] += block_homology(conic, op, chain, "slice")[-l]
    return out


@pytest.mark.parametrize("bound", [0, 1])
@pytest.mark.parametrize("base", ["torus", "resonant_t3", "lie_frame"])
def test_line_table_matches_cell_slices(base, bound, field):
    conic = {
        "torus": lambda: ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"])),
        # (1, -1, 1) . alpha = 0
        "resonant_t3": lambda: ConicDualModel(KroneckerTorus(field, ["1", "sqrt2", "sqrt2-1"])),
        "lie_frame": lambda: affine_conic(field),
    }[base]()
    window = ModeWindow(bound=bound)
    top = conic.leaf_dim + conic.codim
    for operator in ("delta", "delta_F"):
        table = BoundaryDims(conic, window, operator)
        # l = +-3 lies outside the window's homogeneity range
        for k in range(-1, top + 2):
            for l in range(-3, 4):
                expected = slice_dims(conic, operator, k, l, window)
                fresh = BoundaryDims(conic, window, operator).get(k, l, per_component=True)
                assert fresh == expected, (operator, k, l)
                assert table.get(k, l, per_component=True) == expected, (operator, k, l)
                assert table.get(k, l) == sum(expected.values()), (operator, k, l)


def test_boundary_lines_once_per_run(tmp_path, monkeypatch):
    blocks: Counter = Counter()
    real = poisson.block_homology

    def counting(model, terms, graded, block):
        if isinstance(model, ConicDualModel):
            blocks[block] += 1
        return real(model, terms, graded, block)

    monkeypatch.setattr(poisson, "block_homology", counting)
    spec = tmp_path / "t2.json"
    spec.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}))
    args = ["run", "--model", str(spec), "--analyses", "poisson,specseq,hochschild"]
    assert cli.main([*args, "--mode-bound", "1", "--out", str(tmp_path / "o")]) == 0
    # each (component, mode, line) complex once per operator: 2 x 9 blocks on
    # the correspondence lines k - l = -2..5 of delta and of delta_F; specseq
    # and hochschild read lines delta already holds
    assert max(blocks.values()) == 1
    assert len(blocks) == 2 * 9 * 8 * 2


def test_broken_cone_names_block_and_line(field):
    # d(dxi) = theta ^ dxi keeps the bigrading but breaks d^2 = 0 on the
    # cone (d^2 xi^a = a xi^(a-1) theta ^ dxi), and delta^2 = 0 with it.  A
    # base that breaks Jacobi cannot do this: delta^2 = +-i_G d^2 i_G, and d^2
    # of a frame never produces the dxi that i_G removes.
    broken = affine_conic(field)
    broken._dual_d[1] = [(field.one, (0, 1))]
    message = r"block \(0, \(\)\), delta line k - l = 1: d\^2 != 0 between degrees -2 and 0"
    with pytest.raises(ComplexViolationError, match=message):
        BoundaryDims(broken, ModeWindow(bound=0)).get(2, 1)


# -- the boundary operator as a composed term map -----------------------------------


def commutator_delta(form, variant):
    """delta as the commutator i_G d - d i_G of form-level maps, a reference."""
    model = form.model
    component = {"delta": "d", "delta_F": "d_F", "delta_perp": "d_perp"}[variant]
    dd = lambda a: differential(model, component, a)
    return contract_bivector(model, dd(form)) - dd(contract_bivector(model, form))


@pytest.mark.parametrize("base", ["torus", "resonant_torus", "lie_frame"])
def test_delta_terms_match_form_commutator(base, field):
    conic = {
        "torus": lambda: ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"])),
        "resonant_torus": lambda: ConicDualModel(KroneckerTorus(field, ["1", "2"])),
        "lie_frame": lambda: affine_conic(field),
    }[base]()
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    for variant in poisson.DELTA_VARIANTS:
        terms = poisson.delta_terms(conic, variant)
        for mono in conic.basis_monomials(window):
            image = list(terms(mono))
            assert all(c for _m, c in image), (variant, mono)
            assert len({m for m, _c in image}) == len(image)
            expected = commutator_delta(Form(conic, {mono: field.one}), variant)
            assert dict(image) == expected.terms, (variant, conic.monomial_label(mono))
