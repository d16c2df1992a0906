"""Model construction, validation, wedge algebra, gradings."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from leafhom.errors import LeafhomError, SpecParseError, UnsupportedModelError, ValidationError
from leafhom.models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    ExteriorTables,
    FoliatedModel,
    FormMonomial,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    _infer_field_spec,
    make_model,
    merge_ext,
    torus_of,
)
from leafhom.scalars import NumberField, sqrt_in, square_class
from forms import Form, monomial_form, sort_key

try:  # test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None


@pytest.fixture(scope="module")
def field():
    return NumberField((2,))


@pytest.fixture(scope="module")
def torus(field):
    return KroneckerTorus(field, ["1", "sqrt2"])


def so3_model(field):
    one = field.one
    return LieFrameModel.create(
        field,
        3,
        {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}},
        {2},
    )


def heisenberg_model(field):
    return LieFrameModel.create(field, 3, {(0, 1): {2: field.one}}, {2})


# -- construction and validation -------------------------------------------


def test_kronecker_nonresonant_lattice(torus):
    # 1 and sqrt2 are Q-linearly independent: m1 + m2*sqrt2 = 0 forces m = 0
    assert torus.resonance_basis == []
    assert not torus.resonant


def test_kronecker_resonant_lattice(field):
    # (m1 - m3) + (m2 + m3) sqrt2 = 0 exactly on the (1, -1, 1) line
    model = KroneckerTorus(field, ["1", "sqrt2", "sqrt2-1"])
    assert model.resonance_basis == [(1, -1, 1)]
    assert model.resonant


def test_rational_slope_resonance(field):
    model = KroneckerTorus(field, ["1", "2"])
    assert len(model.resonance_basis) == 1
    (m,) = model.resonance_basis
    assert m[0] * 1 + m[1] * 2 == 0 and m != (0, 0)


def test_alpha_validation(field):
    with pytest.raises(ValidationError):
        KroneckerTorus(field, ["0", "0"])
    with pytest.raises(ValidationError):
        KroneckerTorus(field, ["0", "1"])
    with pytest.raises(ValidationError):
        KroneckerTorus(field, ["i", "1"])


def test_alpha_normalization(field):
    model = KroneckerTorus(field, ["2", "sqrt2"])
    assert model.alpha[0] == field.one
    assert model.alpha[1] == field.parse("1/2*sqrt2")


def test_jacobi_validation_error(field):
    one = field.one
    # [e1,e2]=e3 together with [e1,e3]=e1 violates Jacobi on (e1,e2,e3)
    with pytest.raises(ValidationError):
        LieFrameModel.create(
            field,
            3,
            {(0, 1): {2: one}, (0, 2): {0: one}},
            {2},
        )


def test_subalgebra_validation_error(field):
    one = field.one
    # leaf = {0, 1} but [e1, e2] = e3 leaves the would-be leaf
    with pytest.raises(ValidationError):
        LieFrameModel.create(field, 3, {(0, 1): {2: one}}, {0, 1})


def test_make_model_families(field):
    spec = {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}
    model = make_model(spec)
    assert isinstance(model, KroneckerTorus)
    assert model.field.radicals == (2,)

    conic = make_model({"family": "conic_dual", "base": spec})
    assert isinstance(conic, ConicDualModel)

    cos = make_model({"family": "cosphere_circle", "base": spec})
    assert isinstance(cos, CosphereCircleModel)
    assert cos.components == ("+", "-")

    lie = make_model(
        {
            "family": "lie_frame",
            "n": 3,
            "brackets": [[1, 2, [[3, "1"]]]],
            "leaf": [3],
        }
    )
    assert isinstance(lie, LieFrameModel)

    with pytest.raises(SpecParseError):
        make_model({"family": "nonsense"})
    with pytest.raises(SpecParseError):
        make_model({"alpha": ["1"]})
    # sqrt12 = 2*sqrt3 spans Q(i, sqrt3); an explicit field must list square-free radicands
    twelve = make_model({"family": "kronecker_torus", "alpha": ["1", "sqrt12"]})
    assert twelve.field.radicals == (3,) and twelve.alpha[1] == twelve.field.parse("2*sqrt3")
    with pytest.raises(ValidationError):
        make_model({"family": "kronecker_torus", "alpha": ["1", "sqrt12"], "field": {"sqrts": [12]}})


# -- exterior algebra --------------------------------------------------------


def test_merge_ext_signs():
    assert merge_ext((0,), (1,)) == (1, (0, 1))
    assert merge_ext((1,), (0,)) == (-1, (0, 1))
    assert merge_ext((0,), (0,)) is None
    assert merge_ext((0, 2), (1,)) == (-1, (0, 1, 2))


def test_exterior_tables_match_their_definitions():
    # every leaf-flag pattern of up to 6 generators
    for n in range(7):
        for flags in itertools.product((True, False), repeat=n):
            tables = ExteriorTables(flags)
            subsets = [e for k in range(n + 1) for e in itertools.combinations(range(n), k)]
            assert list(tables.subsets) == subsets
            assert len(tables.insert) == n
            for g in range(n):
                assert tables.insert[g] == {e: merge_ext((g,), e) for e in subsets}
            p = sum(flags)
            counts: dict[tuple[int, int], int] = {}
            for e in subsets:
                r, s = tables.bidegree[e]
                assert (r, s) == (sum(flags[g] for g in e), len(e) - r)
                counts[(r, s)] = counts.get((r, s), 0) + 1
            assert counts == {
                (r, s): math.comb(p, r) * math.comb(n - p, s)
                for r in range(p + 1)
                for s in range(n - p + 1)
            }


def test_exterior_tables_are_per_model(field, torus):
    other = KroneckerTorus(field, ["1", "sqrt2"])
    assert torus.exterior is torus.exterior and other.exterior is not torus.exterior
    conic = ConicDualModel(torus)
    assert conic.exterior.bidegree[(1, 2)] == conic.bidegree((1, 2)) == (1, 1)
    assert [m.ext for m in conic.block_monomials((0, (0, 0), 0))] == list(
        conic.exterior.subsets
    )


def test_the_form_algebra_is_not_in_the_package():
    # runs compute on term maps; the Form algebra over them lives in tests/forms.py
    import leafhom
    from leafhom import derham, models, poisson

    assert "Form" not in leafhom.__all__ and not hasattr(leafhom, "Form")
    moved = {
        models: ("Form", "pullback_from_base"),
        derham: ("Form", "differential"),
        poisson: ("Form", "contract_bivector", "bracket", "delta"),
    }
    for module, names in moved.items():
        assert [n for n in names if hasattr(module, n)] == [], module.__name__
    assert not hasattr(FoliatedModel, "monomial_form")


def test_form_monomial_is_a_named_tuple():
    mono = FormMonomial(mode=(1, -1), xi=2, comp=1, ext=(0, 2))
    assert mono == FormMonomial((1, -1), 2, 1, (0, 2))
    assert (mono.mode, mono.xi, mono.comp, mono.ext) == ((1, -1), 2, 1, (0, 2))
    assert hash(mono) == hash(((1, -1), 2, 1, (0, 2)))
    assert mono != FormMonomial((1, -1), 2, 0, (0, 2))
    assert sort_key(mono) == (1, (1, -1), 2, 2, (0, 2))
    assert {mono: 1}[FormMonomial((1, -1), 2, 1, (0, 2))] == 1


def test_wedge_square_and_anticommutativity(torus):
    theta = monomial_form(torus, 1, ext=("theta",))
    eta = monomial_form(torus, 1, ext=("eta1",))
    assert theta.wedge(theta).is_zero()
    assert theta.wedge(eta) == -(eta.wedge(theta))


def test_wedge_of_modes(torus):
    a = monomial_form(torus, 1, mode=(1, 0), ext=("theta",))
    b = monomial_form(torus, 1, mode=(0, 2), ext=("eta1",))
    prod = a.wedge(b)
    assert prod == monomial_form(torus, 1, mode=(1, 2), ext=("theta", "eta1"))


def test_wedge_anticommutes_on_generator_pairs(torus):
    gens = [monomial_form(torus, 1, ext=(nm,)) for nm in torus.gen_names]
    for a in gens:
        for b in gens:
            assert a.wedge(b) == -(b.wedge(a))


def test_odd_degree_squares_vanish(field):
    model = KroneckerTorus(field, ["1", "sqrt2", "1/3"])
    rng = random.Random(5)
    gens = [monomial_form(model, 1, ext=(nm,)) for nm in model.gen_names]
    # random odd-degree forms square to zero
    for _ in range(10):
        form = Form.zero(model)
        for g in gens:
            form = form + g.scale(rng.randint(-3, 3))
        assert form.wedge(form).is_zero()


def random_form(model, rng):
    """A seeded random form: a few monomials on random components, some coefficients cancelling."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        ext = tuple(sorted(rng.sample(range(len(model.gen_names)), rng.randint(0, 2))))
        mode = tuple(rng.randint(-1, 1) for _ in range(model.mode_len))
        xi = rng.randint(-1, 1) if model.has_xi else 0
        terms[FormMonomial(mode, xi, rng.randrange(model.components_count), ext)] = rng.randint(-2, 2)
    return Form(model, {m: model.field.scalar(c) for m, c in terms.items()})


def literal_sum(a, b):
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def literal_wedge(a, b):
    """Double loop over the terms; the sign counts the inversions of ext_a + ext_b."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            gens = ma.ext + mb.ext
            if ma.comp != mb.comp or len(set(gens)) < len(gens):
                continue
            inversions = sum(1 for i, x in enumerate(gens) for y in gens[i + 1 :] if x > y)
            mode = tuple(x + y for x, y in zip(ma.mode, mb.mode))
            mono = FormMonomial(mode, ma.xi + mb.xi, ma.comp, tuple(sorted(gens)))
            value = ca * cb if inversions % 2 == 0 else -(ca * cb)
            out[mono] = out[mono] + value if mono in out else value
    return {m: c for m, c in out.items() if c}


def test_sum_and_wedge_match_literal_double_loop(field):
    torus3 = KroneckerTorus(field, ["1", "sqrt2", "1/3"])
    cone = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    rng = random.Random(17)
    for model in (torus3, cone):
        cross = 0
        for _ in range(150):
            a, b = random_form(model, rng), random_form(model, rng)
            cancel = {m: -c for m, c in a.terms.items() if rng.random() < 0.3}
            b = Form(model, {**b.terms, **cancel})  # a + b drops these monomials
            assert (a + b).terms == literal_sum(a, b)
            assert a.wedge(b).terms == literal_wedge(a, b)
            cross += any(ma.comp != mb.comp for ma in a.terms for mb in b.terms)
        assert model is torus3 or cross > 50  # the cone draws cross-component products


def test_homogeneity_decompose(field):
    conic = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    xi2_theta = monomial_form(conic, 1, xi=2, ext=("theta",))
    assert list(xi2_theta.homogeneity_decompose()) == [2]
    xi_dxi = monomial_form(conic, 1, xi=1, ext=("dxi",))
    assert list(xi_dxi.homogeneity_decompose()) == [2]
    mixed = monomial_form(conic, 1, xi=1, ext=("theta",)) + monomial_form(
        conic, 1, xi=0, ext=("dxi",)
    )
    parts = mixed.homogeneity_decompose()
    assert list(parts) == [1] and parts[1] == mixed


def test_homogeneity_requires_conic(torus):
    with pytest.raises(UnsupportedModelError):
        monomial_form(torus, 1, ext=("theta",)).homogeneity_decompose()


def test_homogeneity_additive_under_wedge(field):
    conic = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    a = monomial_form(conic, 1, xi=2, ext=("theta",))
    b = monomial_form(conic, 1, xi=-1, ext=("dxi",))
    prod = a.wedge(b)
    assert list(prod.homogeneity_decompose()) == [2 + 0]


def test_component_separation(field):
    conic = ConicDualModel(KroneckerTorus(field, ["1", "sqrt2"]))
    plus = monomial_form(conic, 1, comp=0)
    minus = monomial_form(conic, 1, comp=1)
    assert plus.wedge(minus).is_zero()
    both = monomial_form(conic, 1)
    assert len(both.terms) == 2
    assert both.wedge(both) == both


def test_window_basis_counts(torus):
    window = ModeWindow(bound=1)
    monos = list(torus.basis_monomials(window))
    # 9 modes x 4 exterior subsets
    assert len(monos) == 36
    assert len(set(monos)) == 36


def test_mode_window_validation():
    with pytest.raises(ValidationError):
        ModeWindow(bound=-1)
    with pytest.raises(ValidationError):
        ModeWindow(bound=1, l_min=2, l_max=-2)


def test_mode_window_is_an_immutable_value():
    window = ModeWindow(1, -1, 1)
    assert repr(window) == "ModeWindow(bound=1, l_min=-1, l_max=1)"
    table = {window: "entry"}
    assert table[ModeWindow(bound=1, l_min=-1, l_max=1)] == "entry"
    with pytest.raises(AttributeError):
        window.bound = 2


def test_lie_blocks(field):
    model = so3_model(field)
    window = ModeWindow(bound=3)
    keys = model.block_keys(window)
    assert keys == [(0, (), 0)]
    assert len(model.block_monomials(keys[0])) == 8


FAMILIES = {
    "torus": lambda t, f: t,
    "cosphere": lambda t, f: CosphereCircleModel(t),
    "circle_product": lambda t, f: CircleProductModel(t),
    "cone": lambda t, f: ConicDualModel(t),
    "frame": lambda t, f: heisenberg_model(f),
    "frame_cone": lambda t, f: ConicDualModel(heisenberg_model(f)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_blocks_partition_every_family(family, field, torus):
    model = FAMILIES[family](torus, field)
    window = ModeWindow(bound=1, l_min=-1, l_max=1)
    keys = model.block_keys(window)
    assert len(set(keys)) == len(keys)
    blocks = {key: model.block_monomials(key) for key in keys}
    for key, monos in blocks.items():
        assert all(model.block_key(m) == key for m in monos), key
    basis = list(model.basis_monomials(window))
    for m in basis:
        assert m in blocks[model.block_key(m)], m
    assert len(set(basis)) == len(basis) == sum(len(monos) for monos in blocks.values())


def test_torus_lookup(field, torus):
    for family in ("torus", "cosphere", "circle_product", "cone"):
        assert FAMILIES[family](torus, field).torus is torus
    for family in ("frame", "frame_cone"):
        model = FAMILIES[family](torus, field)
        assert model.torus is None
        with pytest.raises(UnsupportedModelError):
            torus_of(model)


def test_frame_specs(field, torus):
    # the coframe layout: generator names in slot order, leafwise flags alongside
    layouts = {
        torus: (("theta", "eta1"), (True, False)),
        ConicDualModel(torus): (("theta", "dxi", "eta1"), (True, True, False)),
        CosphereCircleModel(torus): (("theta", "dphi", "eta1"), (True, True, False)),
        heisenberg_model(field): (("e1", "e2", "e3"), (False, False, True)),
    }
    for model, (names, flags) in layouts.items():
        assert (model.gen_names, model.long_flags) == (names, flags), model
        assert len(set(model.gen_names)) == len(names), model


# -- spec fuzzer ------------------------------------------------------------------

if st is not None:

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )
    # symbols of the scalar syntax, each optionally followed by a digit run of
    # at most 4 digits, so no radicand has more than 4 digits
    DIGITS = st.just("") | st.integers(0, 9999).map(str)
    ATOM = st.tuples(st.sampled_from(("sqrt", "²", "/", "*", "+", "-", "i", " ")), DIGITS)
    SCALAR = st.sampled_from(("1", "0", "-2/3", "sqrt2", "1/3*sqrt2", "-2/3*sqrt3", "i")) | st.tuples(
        DIGITS, st.lists(ATOM.map("".join), max_size=4).map("".join)
    ).map("".join)
    INDEX = st.integers(-1, 6)
    BRACKET = (
        st.tuples(INDEX, INDEX, st.lists(st.tuples(INDEX, SCALAR).map(list), max_size=3)).map(list)
        | JSON
    )
    TORUS = st.fixed_dictionaries(
        {"family": st.just("kronecker_torus"), "alpha": st.lists(SCALAR, max_size=5) | JSON}
    )
    LIE = st.fixed_dictionaries(
        {
            "family": st.just("lie_frame"),
            "n": st.integers(0, 5) | JSON,
            "brackets": st.lists(BRACKET, max_size=4) | JSON,
            "leaf": st.lists(INDEX, max_size=3) | JSON,
        }
    )
    BUNDLE = st.fixed_dictionaries(
        {
            "family": st.sampled_from(("conic_dual", "cosphere_circle", "circle_product")),
            "base": TORUS | LIE | JSON,
        }
    )
    FIELD = st.fixed_dictionaries({"sqrts": st.lists(st.integers(-1, 9999), max_size=3)}) | JSON

    @st.composite
    def spec_documents(draw):
        spec = draw(TORUS | LIE | BUNDLE | JSON)
        if isinstance(spec, dict) and draw(st.booleans()):
            spec["field"] = draw(FIELD)
        return spec

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spec_documents())
    def test_make_model_returns_a_model_or_raises_leafhom_error(spec):
        try:
            model = make_model(spec)
        except LeafhomError:
            return
        assert isinstance(model, FoliatedModel)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(SCALAR)
    def test_inferred_radicands_are_the_ascii_digit_runs_after_sqrt(text):
        runs = {int(d) for d in re.findall(r"sqrt([0-9]+)", text)}
        basis = _infer_field_spec({"alpha": [text]})["sqrts"]
        # a basis of the runs' square classes: each radical the class of a run and
        # outside the span of those before it, and every run read in their span
        assert set(basis) <= {square_class(d) for d in runs if d}
        assert all(r > 1 and sqrt_in(r, basis[:i]) is None for i, r in enumerate(basis))
        if len(basis) <= 2:
            assert all(sqrt_in(d, basis) is not None for d in runs)

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_make_model_returns_a_model_or_raises_leafhom_error():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_inferred_radicands_are_the_ascii_digit_runs_after_sqrt():
        pass
