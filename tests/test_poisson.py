"""Poisson calculus on the dual cone: contraction, bracket, star, homology."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from collections import Counter

import pytest

from leafhom import cli, derham, models, poisson
from leafhom.derham import (
    block_homology,
    cohomology_dims,
    component_terms,
    contracted,
    differential,
    operator_matrix,
)
from leafhom.errors import ComplexViolationError, UnsupportedModelError, ValidationError
from leafhom.linalg import homology_dims
from leafhom.models import (
    ConicDualModel,
    CosphereCircleModel,
    Form,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    linear_extension,
    make_model,
)
from leafhom.poisson import (
    BoundaryDims,
    bracket,
    contract_bivector,
    delta,
    delta_terms,
    line_blocks,
    poisson_tensor,
    verify_homology_correspondence,
    verify_star_delta_identity,
)
from leafhom.scalars import NumberField, Scalar


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


@pytest.fixture(scope="module")
def conic(field):
    return ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))


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
    # delta_F = (-1)^(r+1) star d_F star on bidegree (r, s), composed here from the star and d_F
    signs = Counter()
    for mono in conic.basis_monomials(ModeWindow(bound=1, l_min=-1, l_max=1)):
        a = Form(conic, {mono: conic.field.one})
        r = conic.bidegree(mono.ext)[0]
        route = star(differential(conic, "d_F", star(a))).scale((-1) ** (r + 1))
        assert delta(a, "delta_F") == route, conic.monomial_label(mono)
        signs[r % 2] += bool(route)
    assert signs[0] and signs[1]  # both signs of the parity meet a nonzero image


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


def test_star_delta_suite_multiplies_no_signs(field, monkeypatch):
    # most terms of the suite's composites carry the field's cached +-1, which
    # Scalar.__mul__ returns by identity; count the products that reach arithmetic
    cone = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    signs = (field.one, field.minus_one)
    products = []
    mul = Scalar.__mul__

    def counting(self, other):
        if not any(x is s for x in (self, other) for s in signs):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    report = verify_star_delta_identity(cone, ModeWindow(bound=1))
    monkeypatch.undo()
    assert report["passed"]
    assert len(products) <= 200


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
        assert BoundaryDims(conic, window).get("delta", k, 2) == 0
        assert BoundaryDims(conic, window).get("delta", k, -2) == 0


def test_homology_k2_l0(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get("delta", 2, 0) == 4


def test_homology_k0_lminus1(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get("delta", 0, -1) == 2
    per = BoundaryDims(conic, window).get("delta", 0, -1, per_component=True)
    assert per == {"+": 1, "-": 1}


def test_out_of_range_degrees_are_zero(conic):
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    assert BoundaryDims(conic, window).get("delta", -1, 0) == 0
    assert BoundaryDims(conic, window).get("delta", 5, 0) == 0


def test_boundary_table_reads_delta_and_delta_f_only(conic):
    table = BoundaryDims(conic, ModeWindow(bound=1))
    for operator in ("delta_perp", "d_F"):
        with pytest.raises(ValidationError, match="unsupported homology operator"):
            table.get(operator, 1, 0)


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
    report = verify_homology_correspondence(BoundaryDims(conic, window), circle_dims)
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
    with pytest.raises(ValidationError, match="one window"):
        verify_homology_correspondence(BoundaryDims(conic, ModeWindow(bound=0)), circle_dims)


def test_homology_correspondence_resonant_stays_consistent(field):
    model = ConicDualModel(KroneckerTorus(field, ["1", "2"]))
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    circle_dims = cohomology_dims(CosphereCircleModel(model.base), window)
    report = verify_homology_correspondence(BoundaryDims(model, window), circle_dims)
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
    table = BoundaryDims(conic, window)
    for operator in ("delta", "delta_F"):
        # l = +-3 lies outside the window's homogeneity range
        for k in range(-1, top + 2):
            for l in range(-3, 4):
                expected = slice_dims(conic, operator, k, l, window)
                fresh = BoundaryDims(conic, window).get(operator, k, l, per_component=True)
                assert fresh == expected, (operator, k, l)
                assert table.get(operator, k, l, per_component=True) == expected, (operator, k, l)
                assert table.get(operator, k, l) == sum(expected.values()), (operator, k, l)


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
    # each (component, mode, line) complex at most once per operator, on the
    # correspondence lines k - l = -2..5 of delta and of delta_F; specseq and
    # hochschild read lines delta already holds.  The rule settles every
    # block with m . alpha != 0, so of the 9 modes only m = 0 is ranked
    ranked = {
        f"{(comp, (0, 0))}, {op} line k - l = {c}"
        for comp in range(2)
        for op in ("delta", "delta_F")
        for c in range(-2, 6)
    }
    assert max(blocks.values()) == 1
    assert set(blocks) == ranked and len(ranked) == 2 * 1 * 8 * 2


def test_broken_cone_names_block_and_line(field):
    # d(dxi) = theta ^ dxi keeps the bigrading but breaks d^2 = 0 on the
    # cone (d^2 xi^a = a xi^(a-1) theta ^ dxi), and delta^2 = 0 with it.  A
    # base that breaks Jacobi cannot do this: delta^2 = +-i_G d^2 i_G, and d^2
    # of a frame never produces the dxi that i_G removes.
    broken = affine_conic(field)
    broken._dual_d[1] = [(field.one, (0, 1))]
    message = r"block \(0, \(\)\), delta line k - l = 1: d\^2 != 0 between degrees -2 and 0"
    with pytest.raises(ComplexViolationError, match=message):
        BoundaryDims(broken, ModeWindow(bound=0)).get("delta", 2, 1)


# -- the boundary operator as a composed term map -----------------------------------


def commutator_delta(form, variant):
    """delta as the commutator i_G d - d i_G of form-level maps, a reference."""
    model = form.model
    component = {"delta": "d", "delta_F": "d_F", "delta_perp": "d_perp"}[variant]
    dd = lambda a: differential(model, component, a)
    return contract_bivector(model, dd(form)) - dd(contract_bivector(model, form))


# the torus cones of the direct formula, and the frame cones, whose frame part
# stays a composite
CONES = {
    "t2": {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
    "t3_spec": {"family": "kronecker_torus", "alpha": ["1", "1/2*sqrt2", "-3*sqrt3"]},
    "resonant_t3": {"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt2-1"]},
    "affine": {"family": "lie_frame", "n": 2, "brackets": [[1, 2, [[1, "1"]]]], "leaf": [1]},
    "so3": {
        "family": "lie_frame",
        "n": 3,
        "brackets": [[1, 2, [[3, "1"]]], [2, 3, [[1, "1"]]], [1, 3, [[2, "-1"]]]],
        "leaf": [3],
    },
    "heisenberg": {"family": "lie_frame", "n": 3, "brackets": [[1, 2, [[3, "1"]]]], "leaf": [3]},
}
TORUS_CONES = ("t2", "t3_spec", "resonant_t3")
FRAME_CONES = ("affine", "so3", "heisenberg")


def cone(name):
    return ConicDualModel(make_model(CONES[name]))


def theta_flags(conic):
    """The flags of the cone rule: `contracted` reads theta's multiplier alone."""
    return [g == 0 for g in range(len(conic.gen_names))]


@pytest.mark.parametrize("name", ["t2", "t3_spec", "so3"])
def test_line_blocks_partition_each_block(name):
    # every line a run reads: k - l = c for k = 0 .. top and |l| <= p + 1
    conic, window = cone(name), ModeWindow(bound=1)
    p, top = conic.leaf_dim // 2, conic.leaf_dim + conic.codim
    modes = list(window.modes(conic.mode_len))
    keys = [(comp, mode) for comp in range(conic.components_count) for mode in modes]
    for c in range(-p - 1, top + p + 2):
        blocks = list(line_blocks(conic, c, window))
        assert [block for block, _cells in blocks] == keys
        for (comp, mode), cells in blocks:
            # each exterior subset exactly once, in the cell of its degree
            exts = [m.ext for cell in cells.values() for m in cell]
            assert sorted(exts) == sorted(conic.exterior.subsets), (c, comp, mode)
            for t, cell in cells.items():
                l = -t
                assert all(len(m.ext) == c + l and conic.homogeneity(m) == l for m in cell)
                block = conic.block_monomials((comp, mode, l))
                assert cell == [m for m in block if len(m.ext) == c + l], (c, comp, mode, l)


def test_term_maps_keep_a_bounded_block_cache():
    # a term map walking the T^3-spec cone window at bound 2 (1,250 blocks)
    # retains at most BLOCK_CACHE_SIZE blocks' multipliers, not all of them
    conic, window = cone("t3_spec"), ModeWindow(bound=2)
    monos = list(conic.basis_monomials(window))
    assert len({conic.block_key(m) for m in monos}) == 1250

    def walk(terms):
        for mono in monos:
            list(terms(mono))
        return terms

    makers = (lambda: component_terms(conic, "d"), lambda: delta_terms(conic))
    for make in makers:
        walk(make())  # fills the model's and the field's own caches first
    tracemalloc.start()
    try:
        for make in makers:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            terms = walk(make())
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 250_000
            del terms
    finally:
        tracemalloc.stop()


def test_term_maps_share_one_multiplier_memo(field, monkeypatch):
    # d, d_F and delta walking one window side by side read each block's
    # multipliers once, from the model's memo; 90 blocks overflow the memo
    conic, window = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"])), ModeWindow(bound=1)
    reads, real = Counter(), conic.multipliers

    def counting(key):
        reads[key] += 1
        return real(key)

    monkeypatch.setattr(conic, "multipliers", counting)
    maps = (component_terms(conic, "d"), component_terms(conic, "d_F"), delta_terms(conic))
    for mono in conic.basis_monomials(window):
        for terms in maps:
            list(terms(mono))
    assert len(reads) == 90 and set(reads) == set(conic.block_keys(window))
    assert set(reads.values()) == {1}
    # the memo is bounded: the first block has left it and is read afresh
    first = conic.block_keys(window)[0]
    conic.block_multipliers(first)
    assert reads[first] == 2


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


def composite_delta(conic, variant):
    """[i_G, d] (or its piece) composed from the contraction's and d's term maps."""
    i_g = poisson._contraction_terms(conic)
    d = component_terms(conic, {"delta": "d", "delta_F": "d_F", "delta_perp": "d_perp"}[variant])

    def image(mono):
        out = linear_extension(i_g, d(mono))
        return linear_extension(d, ((m, -c) for m, c in i_g(mono)), out)

    return image


def test_direct_delta_matches_composite_on_torus_cones():
    # every windowed monomial and variant of three cones at bound 1: T^2, the
    # T^3 spec and resonant T^3, where m . alpha = 0 on the lattice modes
    compared = 0
    for name in TORUS_CONES:
        conic = cone(name)
        for variant in poisson.DELTA_VARIANTS:
            direct, composite = poisson.delta_terms(conic, variant), composite_delta(conic, variant)
            for mono in conic.basis_monomials(ModeWindow(bound=1)):
                image = list(direct(mono))
                assert dict(image) == composite(mono), (name, variant, conic.monomial_label(mono))
                assert len(dict(image)) == len(image) and all(c for _m, c in image)
                if variant == "delta_perp":
                    assert not image  # delta_perp is the zero map on a torus cone
                compared += 1
    assert compared == 3 * (9 * 2 * 5 * 8 + 2 * 27 * 2 * 5 * 16)


@pytest.mark.parametrize("name", FRAME_CONES)
def test_frame_cones_keep_the_composite_frame_part(name, monkeypatch):
    calls = Counter()
    real = poisson._frame_d

    def counting(frame, mono):
        calls["frame_d"] += 1
        return real(frame, mono)

    monkeypatch.setattr(poisson, "_frame_d", counting)
    window = ModeWindow(bound=0)
    # the torus cone's delta runs no frame composite
    torus = cone("t2")
    for variant in poisson.DELTA_VARIANTS:
        terms = poisson.delta_terms(torus, variant)
        for mono in torus.basis_monomials(window):
            list(terms(mono))
    assert not calls
    conic = cone(name)
    for variant in poisson.DELTA_VARIANTS:
        direct, composite = poisson.delta_terms(conic, variant), composite_delta(conic, variant)
        for mono in conic.basis_monomials(window):
            assert dict(direct(mono)) == composite(mono), (variant, conic.monomial_label(mono))
    assert calls["frame_d"]
    report = verify_star_delta_identity(conic, window)
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_identity_suite_checks_delta_against_its_definition(conic, monkeypatch):
    # a direct delta with its iota_theta term dropped: the definition row
    # fails and names the first monomial it fails on
    real = poisson.delta_terms

    def no_iota_theta(model, variant="delta"):
        terms = real(model, variant)
        return lambda m: [(m2, c) for m2, c in terms(m) if m2.xi == m.xi]

    monkeypatch.setattr(poisson, "delta_terms", no_iota_theta)
    report = verify_star_delta_identity(conic, ModeWindow(bound=1, l_min=-1, l_max=1))
    failing = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert "delta = [i_G, d]" in failing
    assert failing["delta = [i_G, d]"] == "+*e[-1, -1]*xi^-1*theta"


# -- the cone rule: torus-cone blocks with m . alpha != 0 are acyclic -------------------


def ranked_lines(conic, operator, window):
    """Every correspondence line of `operator` by the rank engine, block by block.

    Returns ({c: {component: {k: dim}}}, the blocks the rule settles, with
    their ranked dims, which must all vanish).
    """
    p, top = conic.leaf_dim // 2, conic.leaf_dim + conic.codim
    op, lines, settled = delta_terms(conic, operator), {}, {}
    for c in range(-p - 1, top + p + 2):
        out = lines[c] = {name: dict.fromkeys(range(top + 1), 0) for name in conic.components}
        for block, cells in line_blocks(conic, c, window):
            dims = block_homology(conic, op, cells, str(block))
            if contracted(conic, (*block, 0), theta_flags(conic)):
                settled[(block, c)] = dims
            for t, h in dims.items():
                out[conic.components[block[0]]][c - t] += h
    return lines, settled


@pytest.mark.parametrize(
    "name, bound", [("t2", 1), ("t2", 2), ("t3_spec", 1), ("resonant_t3", 1)]
)
def test_rule_settled_lines_match_the_rank_engine(name, bound):
    conic, window = cone(name), ModeWindow(bound=bound)
    blocks = [block for block, _cells in line_blocks(conic, 0, window)]
    for operator in ("delta", "delta_F"):
        lines, settled = ranked_lines(conic, operator, window)
        # the rule settles exactly the blocks with m . alpha != 0, and each is acyclic
        assert {block for block, _c in settled} == {
            block for block in blocks if conic.torus.pairing(block[1])
        }
        assert all(not any(dims.values()) for dims in settled.values()), operator
        table = BoundaryDims(conic, window)
        for c, per_comp in lines.items():
            for k in per_comp[conic.components[0]]:
                expected = {name: dims[k] for name, dims in per_comp.items()}
                got = table.get(operator, k, k - c, per_component=True)
                assert got == expected, (operator, k, c)


def contracting_homotopy(conic):
    """h = -c^-1 eps_dxi on a block with theta multiplier c != 0, as a term map."""
    insert = conic.exterior.insert[conic.XI_GEN]

    def terms(mono):
        c = conic.torus.pairing(mono.mode)
        ins = insert[mono.ext]
        if ins is None:
            return []
        sign, ext = ins
        return [(mono._replace(ext=ext), conic.field.scalar(-sign) * c.inverse())]

    return terms


@pytest.mark.parametrize("name", TORUS_CONES)
def test_homotopy_contracts_every_settled_block(name):
    conic, window = cone(name), ModeWindow(bound=1)
    h, one = contracting_homotopy(conic), conic.field.one
    keys = [key for key in conic.block_keys(window) if contracted(conic, key, theta_flags(conic))]
    assert keys and all(conic.torus.pairing(key[1]) for key in keys)
    for operator in ("delta", "delta_F"):
        op = delta_terms(conic, operator)
        for key in keys:
            for mono in conic.block_monomials(key):
                # h raises k and l by one, so it keeps the line k - l
                assert all(
                    len(m.ext) - conic.homogeneity(m) == len(mono.ext) - conic.homogeneity(mono)
                    for m, _ in h(mono)
                )
                total = linear_extension(op, h(mono))
                linear_extension(h, op(mono), total)
                assert total == {mono: one}, (operator, conic.monomial_label(mono))


def test_frame_cones_rank_every_block(field, monkeypatch):
    ranked: Counter = Counter()
    real = poisson.block_homology

    def counting(model, terms, graded, block):
        ranked[block] += 1
        return real(model, terms, graded, block)

    monkeypatch.setattr(poisson, "block_homology", counting)
    # an abelian frame whose base reports a theta multiplier: the rule reads
    # the torus, not the multipliers, so its blocks are still ranked
    flat = LieFrameModel.create(field, 2, {}, {0})
    monkeypatch.setattr(flat, "multipliers", lambda key: [(0, 1)])
    for conic in (affine_conic(field), ConicDualModel(flat)):
        ranked.clear()
        assert not contracted(conic, (0, (), 0), theta_flags(conic))
        table = BoundaryDims(conic, ModeWindow(bound=1))
        for operator in ("delta", "delta_F"):
            for k in range(conic.leaf_dim + conic.codim + 1):
                table.get(operator, k, 0)
        # two components, one mode, four lines, two operators
        assert len(ranked) == 2 * 1 * 4 * 2 and max(ranked.values()) == 1


def test_cartan_identity_checked_before_any_block_is_settled(monkeypatch):
    # every model's exterior tables check the identity once, when first read
    calls = []
    monkeypatch.setattr(models, "check_cartan_identity", calls.append)
    for name in ("t2", "affine"):  # a torus cone and a frame cone
        calls.clear()
        base = make_model(CONES[name])
        assert calls == []
        conic = ConicDualModel(base)  # moves the base's monomials: reads its tables
        assert calls == [base.exterior]
        tables = conic.exterior
        assert calls == [base.exterior, tables]
        table = BoundaryDims(conic, ModeWindow(bound=1))
        for k in range(4):
            table.get("delta", k, 0)
        cohomology_dims(conic, ModeWindow(bound=1), homogeneity=0)
        assert conic.exterior is tables and len(calls) == 2
    monkeypatch.undo()

    # a wrong exterior sign raises before any block is settled or ranked
    conic, torus = cone("t2"), make_model(CONES["t3_spec"])  # T^2 has no 2-form to sign
    real, settled = models.merge_ext, []

    def corrupted(a, b):
        out = real(a, b)
        return out if out is None or len(b) != 2 else (-out[0], out[1])

    def settle(*args):
        settled.append(args)
        return False

    monkeypatch.setattr(models, "merge_ext", corrupted)
    for module in (derham, poisson):
        monkeypatch.setattr(module, "contracted", settle)
        monkeypatch.setattr(module, "block_homology", settle)
    for run in (
        lambda: derham.cohomology_dims(torus, ModeWindow(bound=1)),
        lambda: derham.ordinary_derham_dims(torus, ModeWindow(bound=1)),
        lambda: BoundaryDims(conic, ModeWindow(bound=1)).get("delta", 1, 0),
    ):
        with pytest.raises(ComplexViolationError, match="Cartan identity fails"):
            run()
    assert settled == []
