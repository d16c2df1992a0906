"""Circle bundle pullback / fiber integration and the splitting table."""

from __future__ import annotations

import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from leafhom import cli, derham, gysin, models
from leafhom.derham import cohomology_dims
from leafhom.errors import ComplexViolationError, ValidationError
from leafhom.gysin import fiber_integration_terms, product_splitting_dims
from leafhom.linalg import Echelon, SparseMatrix, add_into, homology_dims, rank
from leafhom.models import (
    CircleProductModel,
    FoliatedModel,
    FormMonomial,
    KroneckerTorus,
    ModeWindow,
    merge_ext,
)
from leafhom.scalars import NumberField
from forms import Form, differential, monomial_form
from forms import pullback_from_base as pullback
from kernel_oracle import rref_rank_kernel


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
    theta = monomial_form(torus, 1, ext=("theta",))
    up = pullback(bundle, theta)
    assert up == monomial_form(bundle, 1, ext=("theta",))
    e_eta = monomial_form(torus, 1, mode=(2, 1), ext=("eta1",))
    up2 = pullback(bundle, e_eta)
    assert up2 == monomial_form(bundle, 1, mode=(2, 1, 0), ext=("eta1",))


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
    e_m = monomial_form(torus, 1, mode=(1, 0))
    lhs = differential(total, "d_F", pullback(bundle, e_m))
    rhs = pullback(bundle, differential(torus, "d_F", e_m))
    assert lhs == rhs


def test_fiber_integration_normalization(bundle):
    total = bundle
    dphi = monomial_form(total, 1, ext=("dphi",))
    assert integrate(bundle, dphi) == monomial_form(bundle.base, 1)


def test_fiber_integration_kills_base_forms(bundle, torus):
    total = bundle
    e_theta = monomial_form(total, 1, mode=(1, 0, 0), ext=("theta",))
    assert integrate(bundle, e_theta).is_zero()
    # nonzero circle mode integrates to zero even with a dphi factor
    osc = monomial_form(total, 1, mode=(0, 0, 2), ext=("dphi",))
    assert integrate(bundle, osc).is_zero()


def test_fiber_integration_sign(bundle, torus):
    total = bundle
    theta_dphi = monomial_form(total, 1, mode=(1, 0, 0), ext=("theta", "dphi"))
    out = integrate(bundle, theta_dphi)
    # rightmost-removal convention: positive sign here, pinned by intertwining
    assert out == monomial_form(torus, 1, mode=(1, 0), ext=("theta",))


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
        pullback(bundle, monomial_form(bundle, 1))


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

    passes = []
    block_ranks = derham.block_ranks

    def counting_pass(model, terms, graded, block):
        passes.append((type(model).__name__, block))
        return block_ranks(model, terms, graded, block)

    matrices, cones = Counter(), Counter()

    def counting(counter, real):
        def matrix(model, terms, source, target):
            counter[type(model).__name__] += 1
            return real(model, terms, source, target)

        return matrix

    monkeypatch.setattr(FoliatedModel, "basis_monomials", counting_walk)
    monkeypatch.setattr(derham, "block_ranks", counting_pass)
    monkeypatch.setattr(derham, "operator_matrix", counting(matrices, derham.operator_matrix))
    monkeypatch.setattr(gysin, "operator_matrix", counting(cones, gysin.operator_matrix))
    spec = tmp_path / "t3.json"
    spec.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt3"]}))
    args = ["gysin", "--model", str(spec), "--mode-bound", "1", "--out", str(tmp_path / "o")]
    assert cli.main(args) == 0
    report = json.loads((tmp_path / "o" / "gysin.json").read_text())
    assert sorted(report["splitting_by_transverse_degree"]) == ["0", "1", "2"]
    # three transverse degrees, one walk per model: the pullback identities and
    # the splitting over the base, integration over the total space
    assert walks == {"KroneckerTorus": 1, "CircleProductModel": 1}
    # one `rank_pass` per model serves every h: each r-chain of the base's 27
    # blocks and of the total space's 81 is checked and ranked once, per s = 0, 1, 2
    assert len(passes) == len(set(passes)) == (27 + 81) * 3
    by_model = Counter(name for name, _block in passes)
    assert by_model == {"KroneckerTorus": 27 * 3, "CircleProductModel": 81 * 3}
    # each block's d_F matrix once per bidegree (r, h) -> (r + 1, h): r = 0, 1
    # on the base and r = 0, 1, 2 on the total space, h = 0, 1, 2
    assert matrices == {"KroneckerTorus": 27 * 2 * 3, "CircleProductModel": 81 * 3 * 3}
    # and one mapping-cone matrix per check and h: 2 (q + 1), from the source model
    assert cones == {"KroneckerTorus": 3, "CircleProductModel": 3}


def test_iso_checks_reject_a_broken_complex(bundle, monkeypatch):
    # d_F on the total space, doubled on monomials with theta: still a (1, 0)
    # map within each block, but D D = -c1 c2 theta^dphi on a block whose theta
    # and dphi multipliers c1, c2 are both nonzero
    real = derham.component_terms

    def skewed(model, component):
        terms = real(model, component)
        if model is not bundle:
            return terms
        two = model.field.scalar(2)
        return lambda mono: [(m, two * c if 0 in mono.ext else c) for m, c in terms(mono)]

    monkeypatch.setattr(derham, "component_terms", skewed)
    with pytest.raises(
        ComplexViolationError,
        match=r"^block \(0, \(-1, -1, -1\), 0\), s = 0: d\^2 != 0 between degrees 0 and 2$",
    ):
        gysin._iso_checks(bundle, ModeWindow(bound=1), derham.rank_pass)


# -- the mapping-cone rank against the Z/B count of a kernel oracle --------------------

ENTRIES = ("1", "-1", "2", "1/2", "sqrt2", "i", "1+sqrt2")


def dense(field, rows, cols, values):
    """A rows x cols SparseMatrix from {(r, c): text}."""
    return SparseMatrix(rows, cols, {rc: field.parse(x) for rc, x in values.items()}, field)


def transpose(m):
    return SparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()}, m.field)


def random_pair(field, rng, n0, n1, n2):
    """(D0, D1) with D1 D0 = 0: the rows of D1 mix the oracle's left kernel of a random D0."""
    draw = lambda: rng.choice(ENTRIES) if rng.random() < 0.4 else None
    d0 = dense(field, n1, n0, {(r, c): x for r in range(n1) for c in range(n0) if (x := draw())})
    left = rref_rank_kernel(transpose(d0))[1]
    d1: dict = {}
    for r in range(n2):
        for vec in left:
            if x := draw():
                add_into(d1, (((r, c), v) for c, v in vec.items()), field.parse(x))
    return d0, SparseMatrix(n2, n1, d1, field)


def hand_built(name, low, d_low, d_mid):
    """Degrees low .. low + 2 with differentials d_low and d_mid, as a `derham.RankPass` at h = 0.

    Basis element i of degree t is (name, t, i).
    """
    sizes = {low: d_low.cols, low + 1: d_low.rows, low + 2: d_mid.rows}
    diffs = {low: d_low, low + 1: d_mid}

    def d_f(mono):
        _, t, i = mono
        entries = diffs[t].entries.items() if t in diffs else ()
        return [((name, t + 1, r), v) for (r, c), v in entries if c == i]

    cells = {(t, 0): [(name, t, i) for i in range(n)] for t, n in sizes.items()}
    ranks = {t: rank(m) for t, m in diffs.items()}
    dims = {(t, 0): h for t, h in homology_dims(sizes, ranks).items() if h}
    model = SimpleNamespace(field=d_low.field, monomial_label=repr)
    blocks = [(name, cells)]  # one block
    return derham.RankPass(model, d_f, blocks, {(t, 0): n for t, n in ranks.items()}, dims)


def zb_count(d_a, f, d_b):
    """(rank of the induced map, dim H(A), dim H(B)) at the middle degree, from kernel vectors.

    ``d_a`` and ``d_b`` are each side's differentials (into, out of) the
    middle degree and ``f`` the matrix of the map.  Z is the oracle's kernel
    basis, B the differential's columns; the induced map has rank
    dim span(f(Z_A) + B_B) - dim span(B_B).
    """
    field = f.field
    columns = lambda m: [v for v in transpose(m).row_vectors() if v]
    apply = lambda m, v: add_into({}, ((r, x * v[c]) for (r, c), x in m.entries.items() if c in v))
    z_a, z_b = rref_rank_kernel(d_a[1])[1], rref_rank_kernel(d_b[1])[1]
    span = Echelon(field)
    dim_b = len(z_b) - span.extend(columns(d_b[0]))
    induced = span.extend([apply(f, z) for z in z_a])
    return induced, len(z_a) - Echelon(field).extend(columns(d_a[0])), dim_b


def cone_cases(field):
    """(name, d_a, f, d_b, verdict): hand-built chain maps, then random complexes and maps."""
    m = lambda rows, cols, values={}: dense(field, rows, cols, values)
    # A: 0 -> F -> 0, and B: F -> F^2 -> 0 with boundary e2
    point, line = (m(1, 0), m(0, 1)), (m(2, 1, {(1, 0): "1"}), m(0, 2))
    yield "iso off the boundaries", point, m(2, 1, {(0, 0): "1"}), line, True
    yield "image in the boundaries", point, m(2, 1, {(1, 0): "sqrt2"}), line, False
    # A: x -> y1, y2 -> z, y3 closed; B = A + (c0 -> c1) with y1, y3 -> y + c1:
    # a chain map whose image meets the boundaries and is an iso
    a = (m(3, 1, {(0, 0): "1"}), m(1, 3, {(0, 1): "1"}))
    b = (m(4, 2, {(0, 0): "1", (3, 1): "1"}), m(1, 4, {(0, 1): "1"}))
    twisted = {(0, 0): "1", (3, 0): "1", (1, 1): "1", (2, 2): "1", (3, 2): "1"}
    yield "iso through the boundaries", a, m(4, 3, twisted), b, True
    yield "not onto the classes", a, m(4, 3, {(0, 0): "1", (1, 1): "1"}), b, False
    rng = random.Random(5)
    sizes = lambda: (rng.randint(0, 2), rng.randint(1, 4), rng.randint(0, 2))
    mixed = lambda rows, cols: m(rows, cols, {
        (r, c): rng.choice(ENTRIES) for r in range(rows) for c in range(cols) if rng.random() < 0.5
    })
    for n in range(60):
        # any linear map: the cone identity holds whether or not f is a chain map
        d_a, d_b = random_pair(field, rng, *sizes()), random_pair(field, rng, *sizes())
        yield f"random map {n}", d_a, mixed(d_b[0].rows, d_a[0].rows), d_b, None
        # B = A + C, C exact in the middle (c0 unipotent), and f y = (y, c0 h y):
        # a chain map and an iso, whose image meets the boundaries of C
        (a0, a1), w = random_pair(field, rng, *sizes()), rng.randint(1, 3)
        upper = {(r, c): rng.choice(ENTRIES) for r in range(w) for c in range(r + 1, w)}
        c0 = m(w, w, {**upper, **{(r, r): "1" for r in range(w)}})
        c1 = m(rng.randint(0, 2), w)
        twist = c0.matmul(mixed(w, a0.rows)).entries
        f = SparseMatrix(a0.rows + w, a0.rows, {
            **{(i, i): field.one for i in range(a0.rows)},
            **{(a0.rows + r, c): v for (r, c), v in twist.items()},
        }, field)
        yield f"twisted inclusion {n}", (a0, a1), f, (direct_sum(a0, c0), direct_sum(a1, c1)), True


def direct_sum(m, n):
    """The block-diagonal matrix of m and n."""
    entries = {(r + m.rows, c + m.cols): v for (r, c), v in n.entries.items()}
    return SparseMatrix(m.rows + n.rows, m.cols + n.cols, {**m.entries, **entries}, m.field)


@pytest.mark.parametrize("degrees", [(0, 0), (2, 1)], ids=["pullback", "integration"])
def test_cone_rank_matches_the_zb_count(degrees, monkeypatch):
    # pullback reads (k, j) = (0, 0), fiber integration (p + 1, p)
    k, j = degrees
    cone_ranks = []
    real = gysin.rank
    monkeypatch.setattr(gysin, "rank", lambda m: cone_ranks.append(real(m)) or cone_ranks[-1])
    seen = Counter()
    for name, d_a, fmat, d_b, verdict in cone_cases(NumberField((2,))):
        a, b = hand_built("A", k - 1, *d_a), hand_built("B", j - 1, *d_b)
        f = lambda mono: [(("B", j, r), v) for (r, c), v in fmat.entries.items() if c == mono[2]]
        induced, dim_a, dim_b = zb_count(d_a, fmat, d_b)
        assert verdict in (None, induced == dim_a == dim_b), name
        assert gysin._induces_iso(f, a, b, degrees, 0) == (induced == dim_a == dim_b), name
        # the cone's rank less rank D_A^k and rank D_B^(j-1) is the induced rank itself
        (cone_rank,) = cone_ranks
        assert cone_rank - rank(d_a[1]) - rank(d_b[0]) == induced, name
        cone_ranks.clear()
        seen["iso" if induced == dim_a == dim_b else "not", induced > 0] += 1
    # isos and non-isos, most of them with classes on both sides
    assert seen["iso", True] > 30 and seen["not", True] > 20, seen


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
