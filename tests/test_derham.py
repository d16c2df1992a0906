"""Leafwise differentials, identity suite, cohomology tables, certificates."""

from __future__ import annotations

import random

import pytest

from leafhom.derham import (
    _block_bidegree_dims,
    basic_cohomology_dims,
    block_homology,
    check_identities,
    closed_and_exact,
    cohomology_dims,
    component_terms,
    differential,
    operator_matrix,
    ordinary_derham_dims,
    verify_decomposition_identities,
)
from leafhom.errors import ComplexViolationError, ValidationError
from leafhom.linalg import rank, span_dim
from leafhom.models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    Form,
    FormMonomial,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    linear_extension,
    pullback_from_base,
)
from leafhom.scalars import NumberField


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


@pytest.fixture(scope="module")
def torus(field):
    return KroneckerTorus(field, ["1", "sqrt2"])


def so3(field):
    one = field.one
    return LieFrameModel.create(
        field, 3, {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}}, {2}
    )


def heisenberg(field):
    return LieFrameModel.create(field, 3, {(0, 1): {2: field.one}}, {2})


# -- differentials ------------------------------------------------------------


def test_leafwise_derivative_of_constant(torus):
    e0 = torus.monomial_form(1)
    assert differential(torus, "d_F", e0).is_zero()


def test_leafwise_derivative_matches_symbolic_oracle(torus, field):
    # independent oracle: T = d_1 + sqrt2 d_2 applied to e_m multiplies by
    # m_1 + sqrt2 m_2 (reduced normalization)
    for mode in [(1, 0), (0, 1), (2, -1)]:
        expected_coeff = field.scalar(mode[0]) + field.parse("sqrt2") * mode[1]
        e_m = torus.monomial_form(1, mode=mode)
        expected = torus.monomial_form(expected_coeff, mode=mode, ext=("theta",))
        assert differential(torus, "d_F", e_m) == expected


def test_transverse_derivative(torus, field):
    e_m = torus.monomial_form(1, mode=(3, 2))
    out = differential(torus, "d_perp", e_m)
    assert out == torus.monomial_form(2, mode=(3, 2), ext=("eta1",))


def test_so3_curvature_term(field):
    model = so3(field)
    e3 = model.monomial_form(1, ext=("e3",))
    out = differential(model, "boundary", e3)
    assert out == model.monomial_form(-1, ext=("e1", "e2"))
    assert differential(model, "d_F", e3).is_zero()


def test_unknown_component_rejected(torus):
    with pytest.raises(ValidationError):
        differential(torus, "d_flat", torus.monomial_form(1))


def test_conic_radial_term(field):
    conic = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    f = conic.monomial_form(1, xi=3)
    out = differential(conic, "d_F", f)
    assert out == conic.monomial_form(3, xi=2, ext=("dxi",))
    # homogeneity is preserved by d_F on the cone
    for l, part in differential(conic, "d_F", conic.monomial_form(1, xi=2, ext=("theta",))).homogeneity_decompose().items():
        assert l == 2


# -- identity suite ------------------------------------------------------------


def test_identities_flat_torus(torus):
    report = verify_decomposition_identities(torus)
    assert report["passed"]
    assert report["boundary_vanishes"]


def test_identities_so3(field):
    report = verify_decomposition_identities(so3(field))
    assert report["passed"]
    assert not report["boundary_vanishes"]


def test_identities_heisenberg(field):
    report = verify_decomposition_identities(heisenberg(field))
    assert report["passed"]
    assert not report["boundary_vanishes"]


def test_identities_on_bundle_models(torus, field):
    # the anticommutation suite holds on every supported family
    conic = ConicDualModel(torus)
    rep = verify_decomposition_identities(conic, window=ModeWindow(bound=1, l_min=-1, l_max=1))
    assert rep["passed"]
    cosphere = CosphereCircleModel(torus)
    rep = verify_decomposition_identities(cosphere)
    assert rep["passed"]
    affine = LieFrameModel.create(field, 2, {(0, 1): {0: field.one}}, {0})
    rep = verify_decomposition_identities(ConicDualModel(affine), window=ModeWindow(bound=0))
    assert rep["passed"]


def test_identities_catch_broken_jacobi(field):
    one = field.one
    # raw constructor: validation deliberately bypassed
    broken = LieFrameModel(field, 3, {(0, 1): {2: one}, (0, 2): {0: one}}, {2})
    report = verify_decomposition_identities(broken)
    assert not report["passed"]
    names = {c["name"]: c["passed"] for c in report["checks"]}
    assert not names["d^2 = 0"]
    # failure details are part of the report bytes
    assert {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]} == {
        "d_perp^2 + boundary d_F + d_F boundary = 0": "counterexample: e3",
        "d^2 = 0": "counterexample: e3",
    }


def test_non_integrable_frame_fails_only_the_split(field):
    # raw constructor: [e1, e2] = e3 leaves the leaf span {e1, e2}, so
    # d e3 = -e1 ^ e2 has shift (2, -1), which no component carries
    raw = LieFrameModel(field, 3, {(0, 1): {2: field.one}}, {0, 1})
    report = verify_decomposition_identities(raw)
    assert {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]} == {
        "d = d_F + d_perp + boundary": "counterexample: e3"
    }


@pytest.mark.parametrize("component", ["d", "d_F", "d_perp", "boundary"])
def test_term_maps_have_distinct_nonzero_terms(torus, field, component):
    # operator_matrix stores entries[(i, j)] = c, so a repeated image monomial
    # would be overwritten rather than added
    window = ModeWindow(bound=1, l_min=-1, l_max=1)
    for model in (
        torus,
        CosphereCircleModel(torus),
        CircleProductModel(torus),
        ConicDualModel(torus),
        so3(field),
        heisenberg(field),
        ConicDualModel(so3(field)),
    ):
        terms = component_terms(model, component)
        for mono in model.basis_monomials(window):
            image = terms(mono)
            assert all(c for _m, c in image), (model, model.monomial_label(mono))
            assert len({m for m, _c in image}) == len(image), (model, model.monomial_label(mono))


def test_block_caches_are_per_model(field):
    # tori with the same shape and block keys but different alpha: each term map
    # must keep reading its own model's multipliers, in any order of use
    tori = [KroneckerTorus(field, ["1", a]) for a in ("sqrt2", "2*sqrt2", "-1/3*sqrt2")]
    maps = [(t, c, component_terms(t, c)) for t in tori for c in ("d", "d_F")]
    monos = [FormMonomial((1, -1), 0, 0, ext) for ext in ((), (1,))]
    for _round in range(2):
        for t, c, terms in maps:
            pairing = t.pairing((1, -1))
            for mono in monos:
                expected = {FormMonomial((1, -1), 0, 0, (0,) + mono.ext): pairing}
                if c == "d" and not mono.ext:
                    expected[FormMonomial((1, -1), 0, 0, (1,))] = field.scalar(-1)
                assert dict(terms(mono)) == expected, (t, c, mono)


def test_check_identities_names_first_counterexample(torus):
    dF = component_terms(torus, "d_F")
    same_degree = lambda m, img: all(len(m2.ext) == len(m.ext) for m2 in img)
    checks = check_identities(
        torus,
        ModeWindow(bound=1),
        [
            ("d_F = 0", [(1, dF)]),
            ("d_F^2 = 0", [(1, dF, dF)]),
            ("d_F keeps the degree", (dF,), same_degree),
            ("id - id = 0", [(1,), (-1,)]),
        ],
    )
    # the first monomial with a nonzero leaf multiplier is the first counterexample
    first = next(m for m in torus.basis_monomials(ModeWindow(bound=1)) if dF(m))
    label = f"counterexample: {torus.monomial_label(first)}"
    assert checks == [
        {"name": "d_F = 0", "passed": False, "detail": label},
        {"name": "d_F^2 = 0", "passed": True, "detail": ""},
        {"name": "d_F keeps the degree", "passed": False, "detail": label},
        {"name": "id - id = 0", "passed": True, "detail": ""},
    ]


def sign_identities(model):
    """Identities whose terms carry the field's signs: six hold, two fail."""
    field = model.field
    d, dF, dP, dB = (component_terms(model, c) for c in ("d", "d_F", "d_perp", "boundary"))
    flip = lambda m: [(m, field.minus_one)]
    parity = lambda m: [(m, field.one if len(m.ext) % 2 else field.minus_one)]
    raises = lambda m, img: all(len(m2.ext) == len(m.ext) + 1 for m2 in img)
    return [
        ("d^2 = 0", [(1, d, d)]),
        ("d = d_F + d_perp + boundary", [(1, d), (-1, dF), (-1, dP), (-1, dB)]),
        ("flip d = -d", [(1, flip, d), (1, d)]),
        ("flip^2 = id", [(1, flip, flip), (-1,)]),
        ("parity d parity = -d", [(1, parity, d, parity), (1, d)]),
        ("flip d_F = d_F", [(1, flip, dF), (-1, dF)]),
        ("d_F flip raises the degree", (dF, flip), raises),
        ("parity = id", [(1, parity), (-1,)]),
    ]


@pytest.mark.parametrize("name", ["torus", "cosphere", "cone"])
def test_fresh_unit_coefficients_give_the_same_checks(name, torus, field):
    # a product with the field's cached +-1 objects takes no arithmetic; term
    # maps that return equal units built apart take the general product instead
    model = {
        "torus": torus,
        "cosphere": CosphereCircleModel(torus),
        "cone": ConicDualModel(torus),
    }[name]
    fresh = {1: field.from_components({0: 1}), -1: field.from_components({0: -1})}
    assert fresh[1] is not field.one and fresh[-1] is not field.minus_one

    def unshared(c):
        return fresh[1] if c is field.one else fresh[-1] if c is field.minus_one else c

    wrapped = {}

    def rebuilt(terms):
        if id(terms) not in wrapped:  # one wrapper per map, so composites still share suffixes
            wrapped[id(terms)] = lambda m: [(m2, unshared(c)) for m2, c in terms(m)]
        return wrapped[id(terms)]

    identities = sign_identities(model)
    copies = [
        (name, [(c, *map(rebuilt, maps)) for c, *maps in spec[0]])
        if len(spec) == 1
        else (name, tuple(map(rebuilt, spec[0])), spec[1])
        for name, *spec in identities
    ]
    window = ModeWindow(bound=1, l_min=-1, l_max=1)
    checks = check_identities(model, window, identities)
    assert checks == check_identities(model, window, copies)
    assert [c["passed"] for c in checks] == [True] * 5 + [False, True, False]
    first = next(iter(model.basis_monomials(window)))
    assert checks[-1]["detail"] == f"counterexample: {model.monomial_label(first)}"


def test_failed_identity_reads_no_more_composites(torus):
    window = ModeWindow(bound=1)
    dF = component_terms(torus, "d_F")
    calls = {"own": 0, "shared": 0}

    def counting(tag):
        def terms(mono):
            calls[tag] += 1
            return dF(mono)

        return terms

    own, shared = counting("own"), counting("shared")
    raises = lambda m, img: all(len(m2.ext) == len(m.ext) + 1 for m2 in img)
    checks = check_identities(
        torus,
        window,
        [
            ("own^2 + own = 0", [(1, own, own), (1, own)]),
            ("shared = 0", [(1, shared)]),
            ("shared raises the degree", (shared,), raises),
        ],
    )
    monos = list(torus.basis_monomials(window))
    at = next(i for i, m in enumerate(monos) if dF(m))
    label = f"counterexample: {torus.monomial_label(monos[at])}"
    assert checks == [
        {"name": "own^2 + own = 0", "passed": False, "detail": label},
        {"name": "shared = 0", "passed": False, "detail": label},
        {"name": "shared raises the degree", "passed": True, "detail": ""},
    ]
    # up to the first counterexample own runs once on each monomial and once on
    # each term of its image, then never again; the shared composite is still
    # read by the predicate, once per monomial
    assert calls["own"] == sum(1 + len(dF(m)) for m in monos[: at + 1])
    assert calls["shared"] == len(monos)


def test_homogeneity_only_on_the_cone(field, torus):
    # the radial degree slices the cone's table and labels no other model's
    window = ModeWindow(bound=1)
    for model in (torus, CosphereCircleModel(torus), so3(field)):
        with pytest.raises(ValidationError, match="homogeneity"):
            cohomology_dims(model, window, homogeneity=5)
    with pytest.raises(ValidationError, match="homogeneity"):
        cohomology_dims(ConicDualModel(torus), window)


def test_cohomology_rejects_broken_complex(field):
    s = lambda d: {k: field.scalar(v) for k, v in d.items()}
    structure = {
        (0, 1): s({1: 1, 2: -1}),
        (0, 2): s({0: 1, 1: -1}),
        (1, 2): s({0: -1, 1: -1, 2: 1}),
    }
    # raw constructor: the Jacobi identity fails, so d_F^2 != 0
    broken = LieFrameModel(field, 3, structure, {0, 1})
    with pytest.raises(
        ComplexViolationError, match=r"block \(0, \(\), 0\), s = 1: d\^2 != 0 between degrees 0 and 2"
    ):
        cohomology_dims(broken, ModeWindow(bound=0))


# -- cohomology tables ----------------------------------------------------------


def test_torus_cohomology_table(torus):
    dims = cohomology_dims(torus, ModeWindow(bound=3))
    for k in (0, 1):
        for h in (0, 1):
            assert dims.get(k, h) == 1
    assert dims.get(2, 0) == 0 and dims.get(0, 2) == 0
    assert not dims.unbounded and not dims.formal
    assert sum(v for (r, s), v in dims.dims.items() if r + s == 1) == 2


def test_cosphere_circle_cohomology_table(torus):
    from math import comb

    model = CosphereCircleModel(torus)
    dims = cohomology_dims(model, ModeWindow(bound=1))
    for k in range(0, 3):
        for h in range(0, 2):
            assert dims.get(k, h) == 2 * comb(2, k) * comb(1, h)


def test_resonant_torus_flags(field):
    model = KroneckerTorus(field, ["1", "sqrt2", "sqrt2-1"])
    dims = cohomology_dims(model, ModeWindow(bound=1))
    assert dims.get(0, 0) > 1
    assert dims.unbounded
    assert dims.formal


def test_window_stability_nonresonant(torus):
    small = cohomology_dims(torus, ModeWindow(bound=1))
    large = cohomology_dims(torus, ModeWindow(bound=3))
    assert small.dims == large.dims


def test_leibniz_rule_random_pairs(torus):
    rng = random.Random(17)
    window = ModeWindow(bound=1)
    monos = list(torus.basis_monomials(window))
    for _ in range(12):
        ma, mb = rng.choice(monos), rng.choice(monos)
        a = Form(torus, {ma: torus.field.scalar(rng.randint(1, 3))})
        b = Form(torus, {mb: torus.field.scalar(rng.randint(1, 3))})
        deg_a = len(ma.ext)
        for comp in ("d", "d_F", "d_perp"):
            lhs = differential(torus, comp, a.wedge(b))
            rhs = differential(torus, comp, a).wedge(b) + (
                a.wedge(differential(torus, comp, b)).scale(-1 if deg_a % 2 else 1)
            )
            assert lhs == rhs, comp


@pytest.fixture(scope="module")
def t3():
    return KroneckerTorus(NumberField((2, 3)), ["1", "1/2*sqrt2", "-3*sqrt3"])


@pytest.mark.parametrize("component", ["d", "d_F", "d_perp", "boundary"])
@pytest.mark.parametrize(
    "bundle, on_frame",
    [(CosphereCircleModel, False), (CircleProductModel, False), (ConicDualModel, False),
     (ConicDualModel, True)],
    ids=["cosphere", "circle_product", "cone", "so3_cone"],
)
def test_functoriality_of_bundle_pullback(t3, field, bundle, on_frame, component):
    # pins each bundle's moved multipliers, component by component; on the so(3)
    # cone the leaf e3 moves to slot 0, so d e1 = -e2 ^ e3 changes its order and sign
    base = so3(field) if on_frame else t3
    model = bundle(base)
    for mono in base.basis_monomials(ModeWindow(bound=1)):
        form = Form(base, {mono: base.field.one})
        lhs = differential(model, component, pullback_from_base(model, form))
        rhs = pullback_from_base(model, differential(base, component, form))
        assert lhs == rhs, base.monomial_label(mono)


# -- certificates ---------------------------------------------------------------


def test_certificate_sqrt2(torus):
    cert = torus.certificate
    assert cert.verdict == "diophantine"
    assert cert.N == 1
    assert cert.C is not None and cert.C >= 1


def test_certificate_resonant_lattice(field):
    model = KroneckerTorus(field, ["1", "sqrt2", "sqrt2-1"])
    cert = model.certificate
    assert cert.verdict == "resonant"
    assert cert.witness == (1, -1, 1)
    # the witness really kills the pairing
    assert not model.pairing(cert.witness)


def test_certificate_rational_slope(field):
    model = KroneckerTorus(field, ["1", "2"])
    cert = model.certificate
    assert cert.verdict == "resonant"
    w = cert.witness
    assert w is not None and w[0] + 2 * w[1] == 0 and any(w)


def test_certificate_detects_rational_combination_resonance(field):
    # (1, sqrt2, 1/3) looks irrational but (1, 0, -3) kills it exactly
    model = KroneckerTorus(field, ["1", "sqrt2", "1/3"])
    cert = model.certificate
    assert cert.verdict == "resonant"
    assert cert.witness == (1, 0, -3)


@pytest.mark.parametrize("alpha", [["1", "sqrt2"], ["1", "2"]])
def test_every_table_carries_its_torus_certificate(field, alpha):
    torus = KroneckerTorus(field, alpha)
    window = ModeWindow(bound=1)
    tables = [
        cohomology_dims(torus, window),
        cohomology_dims(CosphereCircleModel(torus), window),
        cohomology_dims(CircleProductModel(torus), window),
        cohomology_dims(ConicDualModel(torus), window, homogeneity=0),
    ]
    assert all(table.certificate is torus.certificate for table in tables)
    # the certificate is held per torus: an equal torus computes an equal one of its own
    other = KroneckerTorus(field, alpha).certificate
    assert other == torus.certificate and other is not torus.certificate


# -- basic and ordinary cohomology ------------------------------------------------


def test_basic_dims_flat_torus(torus):
    rep = basic_cohomology_dims(torus, ModeWindow(bound=2))
    assert rep["dims"] == [1, 1]
    assert not rep["window_sensitive"]


def test_basic_dims_rational_slope(field):
    model = KroneckerTorus(field, ["1", "0"])
    rep = basic_cohomology_dims(model, ModeWindow(bound=2))
    assert rep["dims"][0] == 1
    assert rep["window_sensitive"]


def test_basic_dims_heisenberg(field):
    rep = basic_cohomology_dims(heisenberg(field), ModeWindow(bound=1))
    assert rep["dims"][0] == 1


def test_mode_zero_block_quotient(torus):
    # ker dim 1, im dim 0 at leafwise degree 1 of the zero-mode block
    window = ModeWindow(bound=1)
    key = (0, (0, 0), 0)
    monos = torus.block_monomials(key)
    pick = lambda r, s: [m for m in monos if torus.bidegree(m.ext) == (r, s)]
    op = component_terms(torus, "d_F")
    chain = {r: pick(r, 0) for r in range(3)}
    assert block_homology(torus, op, chain, str(key))[1] == 1


def test_operator_leaving_the_block_raises(torus):
    key = (0, (1, 0), 0)
    source = [m for m in torus.block_monomials(key) if not m.ext]
    dF = component_terms(torus, "d_F")  # d_F e[1, 0] = e[1, 0] theta, not in the empty target
    leak = r"operator leaves the block: e\[1, 0\] -> e\[1, 0\]\*theta$"
    with pytest.raises(ComplexViolationError, match="^" + leak):
        operator_matrix(torus, dF, source, [])
    with pytest.raises(ComplexViolationError, match=r"^block \(0, \(1, 0\), 0\): " + leak):
        block_homology(torus, dF, {0: source, 1: []}, str(key))


@pytest.mark.parametrize("name", ["torus", "cosphere", "resonant_circle_product"])
def test_closed_and_exact_match_block_dims(name, torus, field):
    model = {
        "torus": torus,
        "cosphere": CosphereCircleModel(torus),
        "resonant_circle_product": CircleProductModel(KroneckerTorus(field, ["1", "1"])),
    }[name]
    window = ModeWindow(bound=1)
    dF = component_terms(model, "d_F")
    bidegrees = [(r, s) for s in range(model.codim + 1) for r in range(model.leaf_dim + 2)]
    for key in model.block_keys(window):
        dims = _block_bidegree_dims(model, key, dF)
        monos = model.block_monomials(key)
        cells = closed_and_exact(model, dF, key, bidegrees)
        assert list(cells) == bidegrees
        for s in range(model.codim + 1):
            pick = lambda r: [m for m in monos if model.bidegree(m.ext) == (r, s)]
            for r in range(model.leaf_dim + 2):
                closed, exact = cells[(r, s)]
                here = {m: i for i, m in enumerate(pick(r))}
                coords = lambda vecs: [{here[m]: c for m, c in v.items()} for v in vecs]
                exact_dim = span_dim(model.field, coords(exact))
                assert len(closed) - exact_dim == dims.get((r, s), 0), (key, r, s)
                d_in = operator_matrix(model, dF, pick(r - 1), pick(r))
                assert exact_dim == rank(d_in), (key, r, s)
                assert span_dim(model.field, coords(closed)) == len(closed), (key, r, s)
                assert not any(linear_extension(dF, z.items()) for z in closed)


def test_ordinary_dims(torus, field):
    assert ordinary_derham_dims(torus, ModeWindow(bound=2)) == [1, 2, 1]
    cosphere = CosphereCircleModel(torus)
    assert ordinary_derham_dims(cosphere, ModeWindow(bound=1)) == [2, 6, 6, 2]
    t3 = KroneckerTorus(field, ["1", "sqrt2", "1/3"])
    assert ordinary_derham_dims(t3, ModeWindow(bound=1)) == [1, 3, 3, 1]
