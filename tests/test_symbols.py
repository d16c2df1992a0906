"""Symbol composition, traces, derivations, cocycles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from leafhom import expansion, symbols
from leafhom.derham import cohomology_dims
from leafhom.errors import InsufficientTruncationError, ValidationError
from leafhom.hochschild import hh_dims_assuming_collapse
from leafhom.models import CosphereCircleModel, KroneckerTorus, ModeWindow
from leafhom.scalars import NumberField
from leafhom.symbols import (
    Derivation,
    TruncatedSymbol,
    apply_derivation,
    cocycle_evaluate,
    commutator_trace,
    compose,
    derivation_set,
    random_symbol,
    verify_traces_and_collapse,
)

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


def predicted_hh(torus):
    """The closed-form HH dims the collapse certificate is checked against."""
    circle = cohomology_dims(CosphereCircleModel(torus), ModeWindow(bound=1))
    return hh_dims_assuming_collapse(torus, circle)


def lam(field, mode):
    return field.scalar(mode[0]) + field.parse("sqrt2") * mode[1]


def coordinate_power(torus, j):
    """xi^j = (sign xi)^j |xi|^j on both sides."""
    plus = TruncatedSymbol.mode(torus, (0, 0), j, side=1)
    minus = TruncatedSymbol.mode(torus, (0, 0), j, side=-1)
    return add(plus, scale(minus, (-1) ** j))


def agrees_with(a, b, at_or_above):
    """Whether a and b have the same coefficients at every order >= at_or_above."""
    return all(
        a.sides[s].get(j, {}) == b.sides[s].get(j, {})
        for s in (1, -1)
        for j in set(a.sides[s]) | set(b.sides[s])
        if j >= at_or_above
    )


# -- composition ----------------------------------------------------------------


def test_unit_law(torus):
    one = TruncatedSymbol.mode(torus, (0, 0), 0)
    b = TruncatedSymbol.mode(torus, (1, -1), order=2)
    ab = compose(one, b, 4)
    ba = compose(b, one, 4)
    assert agrees_with(ab, b, ab.floor)
    assert agrees_with(ba, b, ba.floor)


def test_coordinate_against_mode(torus, field):
    xi = coordinate_power(torus, 1)
    m = (1, 0)
    em = TruncatedSymbol.mode(torus, m)
    comm = commutator(xi, em, 4)
    expected = scale(TruncatedSymbol.mode(torus, m), lam(field, m))
    assert agrees_with(comm, expected, comm.floor)


def test_x_independent_symbols_compose_trivially(torus):
    a = TruncatedSymbol.mode(torus, (0, 0), -1)
    ab = compose(a, a, 2)
    expected = TruncatedSymbol.mode(torus, (0, 0), -2)
    assert agrees_with(ab, expected, ab.floor)


def test_order_additivity_and_commutator_drop(torus):
    # each side is a graded integral domain: top orders add side by side
    def side_order(x, s):
        return max(x.sides[s]) if x.sides[s] else None

    rng = random.Random(3)
    for _ in range(15):
        a = random_symbol(torus, rng)
        b = random_symbol(torus, rng)
        ab = compose(a, b, 8)
        comm = commutator(a, b, 8)
        for s in (1, -1):
            oa, ob = side_order(a, s), side_order(b, s)
            if oa is None or ob is None:
                assert side_order(ab, s) is None
                continue
            assert side_order(ab, s) == oa + ob
            oc = side_order(comm, s)
            if oc is not None:
                assert oc <= oa + ob - 1


def test_associativity_above_watermark(torus):
    rng = random.Random(9)
    for _ in range(10):
        a, b, c = (random_symbol(torus, rng, orders=(-2, 1)) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        left = compose(compose(a, b, 7), c, 7)
        right = compose(a, compose(b, c, 7), 7)
        level = max(
            x for x in (left.floor, right.floor) if x is not None
        )
        assert agrees_with(left, right, level)


def test_filtration_property(torus):
    # order(a o b) = order(a) + order(b) realizes F_m o F_m' into F_{m+m'}
    a = TruncatedSymbol.mode(torus, (1, 0), order=2)
    b = TruncatedSymbol.mode(torus, (0, 1), order=-1)
    assert compose(a, b, 5).order() == 1


def test_sides_never_mix(torus):
    plus = TruncatedSymbol.mode(torus, (1, 0), order=1, side=1)
    minus = TruncatedSymbol.mode(torus, (0, 1), order=1, side=-1)
    prod = compose(plus, minus, 4)
    assert prod.is_zero()
    both = compose(add(plus, minus), add(plus, minus), 4)
    assert all(j >= -4 for j in both.sides[1])
    der = apply_derivation(Derivation("radial"), plus, depth=3)
    assert not der.sides[-1]


def test_depth_validation(torus):
    a = TruncatedSymbol.mode(torus, (0, 0), 0)
    with pytest.raises(ValidationError):
        compose(a, a, -1)


# -- residue traces -----------------------------------------------------------------


def test_trace_of_radial_inverse(torus, field):
    a = TruncatedSymbol.mode(torus, (0, 0), -1)
    assert trace(a, 1) == field.one
    assert trace(a, -1) == field.one


def test_trace_ignores_other_orders_and_modes(torus, field):
    assert trace(TruncatedSymbol.mode(torus, (1, 0), order=0), 1) == field.zero
    assert trace(TruncatedSymbol.mode(torus, (1, 0), order=-1), 1) == field.zero


def test_trace_below_watermark_rejected(torus):
    a = TruncatedSymbol.mode(torus, (0, 0), 2)
    b = TruncatedSymbol.mode(torus, (0, 0), 2)
    shallow = compose(a, b, 1)  # exact only above order 3
    with pytest.raises(InsufficientTruncationError):
        trace(shallow, 1)


def test_trace_kills_specific_commutator(torus, field):
    # [xi, e_m |xi|^-1] has no zero-mode order -1 part
    xi = coordinate_power(torus, 1)
    b = TruncatedSymbol.mode(torus, (1, 0), order=-1)
    comm = commutator(xi, b, 5)
    assert trace(comm, 1) == field.zero
    assert trace(comm, -1) == field.zero


def test_residue_trace_is_the_l0_cocycle(torus):
    rng = random.Random(23)
    residue = TruncatedSymbol.mode(torus, (0, 0), -1)
    for _ in range(40):
        a = add(random_symbol(torus, rng), residue)  # mostly a nonzero trace
        for s in (1, -1):
            assert trace(a, s) == read_residue(a, s)
    deep = TruncatedSymbol.mode(torus, (0, 0), 2)
    shallow = compose(deep, deep, 1)  # exact only above order 3
    for read in (trace, read_residue):
        with pytest.raises(InsufficientTruncationError):
            read(shallow, 1)
    with pytest.raises(ValidationError):
        trace(deep, 0)


def test_trace_kills_commutators(torus, field):
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        a = random_symbol(torus, rng)
        b = random_symbol(torus, rng)
        if a.is_zero() or b.is_zero():
            continue
        depth = a.order() + b.order() + 2
        comm = commutator(a, b, max(depth, 5))
        checked += 1
        assert trace(comm, 1) == field.zero
        assert trace(comm, -1) == field.zero


# -- derivations ---------------------------------------------------------------------


def test_leafwise_derivation(torus, field):
    m = (2, -1)
    out = apply_derivation(Derivation("leafwise"), TruncatedSymbol.mode(torus, m))
    assert out.sides[1][0][m] == lam(field, m)


def test_transverse_derivation(torus, field):
    m = (2, 3)
    out = apply_derivation(Derivation("transverse", 1), TruncatedSymbol.mode(torus, m))
    assert out.sides[1][0][m] == field.scalar(3)
    assert out.sides[-1][0][m] == field.scalar(3)


def test_radial_derivation_expansion(torus, field):
    m = (1, 0)
    out = apply_derivation(Derivation("radial"), TruncatedSymbol.mode(torus, m), depth=2)
    c = lam(field, m)
    # + side carries xi^-1 = |xi|^-1: coefficients c and -c^2/2
    assert out.sides[1][-1][m] == c
    assert out.sides[1][-2][m] == -(c * c) * Fraction(1, 2)
    # - side: xi^-1 = -|xi|^-1 but xi^-2 = |xi|^-2
    assert out.sides[-1][-1][m] == -c
    assert out.sides[-1][-2][m] == -(c * c) * Fraction(1, 2)


def test_derivations_satisfy_leibniz(torus):
    rng = random.Random(11)
    for d in derivation_set(torus):
        for _ in range(6):
            a = random_symbol(torus, rng, orders=(-1, 1))
            b = random_symbol(torus, rng, orders=(-1, 1))
            if a.is_zero() or b.is_zero():
                continue
            lhs = apply_derivation(d, compose(a, b, 9), depth=9)
            rhs = add(
                compose(apply_derivation(d, a, 9), b, 9),
                compose(a, apply_derivation(d, b, 9), 9),
            )
            level = max(x for x in (lhs.floor, rhs.floor, -6) if x is not None)
            assert agrees_with(lhs, rhs, level), d


def test_derivations_commute_pairwise(torus):
    rng = random.Random(13)
    ds = derivation_set(torus)
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1 :]:
            for _ in range(4):
                a = random_symbol(torus, rng, orders=(-1, 1))
                if a.is_zero():
                    continue
                lhs = apply_derivation(d1, apply_derivation(d2, a, 8), 8)
                rhs = apply_derivation(d2, apply_derivation(d1, a, 8), 8)
                level = max(x for x in (lhs.floor, rhs.floor, -5) if x is not None)
                assert agrees_with(lhs, rhs, level), (d1, d2)


# -- cocycles -----------------------------------------------------------------------


def test_empty_cocycle_is_the_trace(torus, field):
    value = cocycle_evaluate([], 1, [TruncatedSymbol.mode(torus, (0, 0), -1)], 6, apply_derivation)
    assert value == field.one


def test_one_step_cocycle(torus, field):
    m = (1, 0)
    a0 = TruncatedSymbol.mode(torus, tuple(-x for x in m), order=-1)
    a1 = TruncatedSymbol.mode(torus, m)
    value = cocycle_evaluate([Derivation("leafwise")], 1, [a0, a1], 6, apply_derivation)
    assert value == lam(field, m)


def test_cocycle_antisymmetry_under_slot_swap(torus, field):
    d1, d2 = Derivation("transverse", 1), Derivation("leafwise")
    rng = random.Random(29)
    for _ in range(5):
        args = [random_symbol(torus, rng, orders=(-1, 1)) for _ in range(3)]
        if any(a.is_zero() for a in args):
            continue
        v12 = cocycle_evaluate([d1, d2], 1, args, 10, apply_derivation)
        v21 = cocycle_evaluate([d2, d1], 1, args, 10, apply_derivation)
        assert v12 == -v21


def test_repeated_derivations_rejected(torus):
    d = Derivation("leafwise")
    args = [TruncatedSymbol.mode(torus, (0, 0), -1)] * 3
    with pytest.raises(ValidationError):
        cocycle_evaluate([d, d], 1, args, 6, apply_derivation)


def _unit(torus, m=(0, 0), order=0):
    return TruncatedSymbol.mode(torus, m, order)


def _one_cocycle(d, a0, a1):
    return cocycle_evaluate([d], 1, [a0, a1], 6, apply_derivation)


BAD_INPUT = {  # case: (message, call on the test torus t and another torus o)
    "compose-two-tori": ("different tori", lambda t, o: compose(_unit(t), _unit(o), 4)),
    "trace-pair-two-tori": (
        "different tori",
        lambda t, o: commutator_trace(_unit(t), _unit(o), 1, 4),
    ),
    "cocycle-two-tori": (
        "different tori",
        lambda t, o: _one_cocycle(Derivation("leafwise"), _unit(t, (-1, 0), -1), _unit(o, (1, 0))),
    ),
    "cocycle-argument-count": (
        "takes 2 arguments",
        lambda t, o: cocycle_evaluate([Derivation("leafwise")], 1, [_unit(t)], 6, apply_derivation),
    ),
    "transverse-index": (
        "out of range",
        lambda t, o: _one_cocycle(
            Derivation("transverse", t.n), _unit(t, (0, -1), -1), _unit(t, (0, 1))
        ),
    ),
    "derivation-tag": (
        "unknown derivation tag",
        lambda t, o: _one_cocycle(Derivation("angular"), _unit(t, (-1, 0), -1), _unit(t, (1, 0))),
    ),
    "suite-trials": ("trial count", lambda t, o: verify_traces_and_collapse(t, [2, 6, 6, 2], trials=-1)),
    "suite-depth": ("depth", lambda t, o: verify_traces_and_collapse(t, [2, 6, 6, 2], depth=-1)),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_symbol_layer_rejects_bad_input(torus, field, case):
    message, call = BAD_INPUT[case]
    other = KroneckerTorus(field, ["1", "1/2*sqrt2"])
    with pytest.raises(ValidationError, match=message):
        call(torus, other)


def test_depth_and_side_checked_before_any_derivation(torus):
    a, b = TruncatedSymbol.mode(torus, (1, 0), 1), TruncatedSymbol.mode(torus, (-1, 0), -1)
    leafwise, radial = Derivation("leafwise"), Derivation("radial")
    derived = []

    def derive(d, arg, depth):
        derived.append(d)
        return apply_derivation(d, arg, depth)

    # leafwise, radial and no derivation all reject a negative depth alike
    for dirs, args in (([leafwise], [a, b]), ([radial], [a, b]), ([], [b])):
        with pytest.raises(ValidationError, match="depth"):
            cocycle_evaluate(dirs, 1, args, -1, derive)
        with pytest.raises(ValidationError, match="side"):
            cocycle_evaluate(dirs, 0, args, 6, derive)
    assert derived == []


def test_coboundary_of_trace_is_trace_of_commutator(torus, field):
    rng = random.Random(37)
    for _ in range(5):
        a = random_symbol(torus, rng, orders=(-2, 1))
        b = random_symbol(torus, rng, orders=(-2, 1))
        if a.is_zero() or b.is_zero():
            continue
        assert full_coboundary([], 1, [a, b], 10) == field.zero


# -- the full suite -------------------------------------------------------------------


def test_trace_suite_certifies_collapse(torus):
    report = verify_traces_and_collapse(torus, predicted_hh(torus), trials=25, depth=6, seed=7)
    assert report["passed"]
    assert report["trace_property_holds"]
    assert report["coboundary_vanishes"] == {"0": True, "1": True, "2": True}
    assert report["independence"] == {
        "0": {"expected": 2, "rank": 2},
        "1": {"expected": 6, "rank": 6},
        "2": {"expected": 6, "rank": 6},
    }
    assert report["collapse_certified"]
    assert report["predicted_dims"] == [2, 6, 6, 2]


def test_suite_verdict_needs_every_check_and_the_prediction(torus, monkeypatch):
    run = lambda predicted: verify_traces_and_collapse(torus, predicted, trials=3, depth=6, seed=5)
    mispredicted = run([2, 6, 5, 2])
    assert mispredicted["passed"] and not mispredicted["collapse_certified"]
    one = lambda *_args: torus.field.one
    stages = (("commutator_trace", "trace_property_holds"), ("_signed_sum", "coboundary_vanishes"))
    for stage, key in stages:
        with monkeypatch.context() as patch:
            patch.setattr(symbols, stage, one)  # every trace pair, or every coboundary, nonzero
            report = run(predicted_hh(torus))
        assert report[key] in (False, {"0": False, "1": False, "2": False}), stage
        assert not report["passed"] and not report["collapse_certified"], stage


def test_trace_suite_rejects_resonant(field):
    resonant = KroneckerTorus(field, ["1", "2"])
    with pytest.raises(ValidationError):
        verify_traces_and_collapse(resonant, predicted_hh(resonant), trials=1)


def test_two_sided_trace_independence(torus, field):
    plus = TruncatedSymbol.mode(torus, (0, 0), -1, side=1)
    minus = TruncatedSymbol.mode(torus, (0, 0), -1, side=-1)
    assert trace(plus, 1) == field.one and trace(plus, -1) == field.zero
    assert trace(minus, -1) == field.one and trace(minus, 1) == field.zero


# -- the targeted cocycle path against the full product chain -------------------------


def reference_compose(a, b, depth):
    """The product by its defining expansion: every side, every order, D^k by iteration."""
    torus = a.torus
    if a.is_zero() or b.is_zero():
        return TruncatedSymbol.zero(torus)
    hi_a, hi_b = a.order(), b.order()
    candidates = [hi_a + hi_b - depth]
    if a.floor is not None:
        candidates.append(a.floor + hi_b)
    if b.floor is not None:
        candidates.append(b.floor + hi_a)
    floor = max(candidates)
    sides = {1: {}, -1: {}}
    for s in (1, -1):
        b_der = dict(b.sides[s])
        for k in range(0, depth + 1):
            kfact = 1
            for i in range(1, k + 1):
                kfact *= i
            for u, pa in a.sides[s].items():
                fall = 1
                for i in range(k):
                    fall *= u - i
                sign = 1 if (s > 0 or k % 2 == 0) else -1
                factor = torus.field.scalar(Fraction(fall * sign, kfact))
                for v, pb in b_der.items():
                    j = u - k + v
                    if j < floor:
                        continue
                    for m1, c1 in pa.items():
                        for m2, c2 in pb.items():
                            m = tuple(x + y for x, y in zip(m1, m2))
                            acc = sides[s].setdefault(j, {})
                            acc[m] = acc.get(m, torus.field.zero) + c1 * c2 * factor
            b_der = {
                v: {m: c * torus.pairing(m) for m, c in p.items()} for v, p in b_der.items()
            }
    return TruncatedSymbol(torus, sides, floor)


def reference_radial(a, depth):
    """The radial derivation by its defining series, D^k by iteration."""
    torus = a.torus
    if a.is_zero():
        return a
    floor = a.order() - depth if a.floor is None else max(a.order() - depth, a.floor - 1)
    sides = {1: {}, -1: {}}
    for s in (1, -1):
        derived = dict(a.sides[s])
        for k in range(1, depth + 1):
            derived = {
                u: {m: c * torus.pairing(m) for m, c in p.items()} for u, p in derived.items()
            }
            sign = (1 if k % 2 == 1 else -1) * (s**k)
            for u, p in derived.items():
                if u - k >= floor:
                    acc = sides[s].setdefault(u - k, {})
                    for m, c in p.items():
                        acc[m] = acc.get(m, torus.field.zero) + c * Fraction(sign, k)
    return TruncatedSymbol(torus, sides, floor)


def read_residue(a, side):
    """The zero-mode coefficient at order -1 on one side, read off the symbol's dicts."""
    if a.floor is not None and a.floor > -1:
        raise InsufficientTruncationError("order -1 lies below the watermark")
    return a.sides[side].get(-1, {}).get((0,) * a.torus.n, a.torus.field.zero)


def add(a, b):
    """a + b order by order on each side, exact above the higher watermark."""
    sides = {s: {j: dict(p) for j, p in a.sides[s].items()} for s in (1, -1)}
    for s in (1, -1):
        for j, p in b.sides[s].items():
            acc = sides[s].setdefault(j, {})
            for m, c in p.items():
                acc[m] = acc[m] + c if m in acc else c
    floors = [f for f in (a.floor, b.floor) if f is not None]
    return TruncatedSymbol(a.torus, sides, max(floors) if floors else None)


def scale(a, c):
    """c * a for a scalar or rational c."""
    sides = {
        s: {j: {m: v * c for m, v in p.items()} for j, p in a.sides[s].items()} for s in (1, -1)
    }
    return TruncatedSymbol(a.torus, sides, a.floor)


def commutator(a, b, depth):
    """a o b - b o a with both products built."""
    return add(compose(a, b, depth), scale(compose(b, a, depth), -1))


def trace(a, side):
    """The residue trace on one side: the package's l = 0 cocycle."""
    return cocycle_evaluate([], side, [a], 0, apply_derivation)


def full_chain(dirs, side, args, depth):
    """The residue of the whole chain ((a_0 o D_1 a_1) o ...) built with compose."""
    acc = args[0]
    for d, arg in zip(dirs, args[1:]):
        acc = compose(acc, apply_derivation(d, arg, depth), depth)
    return read_residue(acc, side)


def full_coboundary(dirs, side, args, depth):
    l = len(dirs)
    total = args[0].torus.field.zero
    for i in range(0, l + 2):
        if i <= l:
            merged = args[:i] + [compose(args[i], args[i + 1], depth)] + args[i + 2 :]
        else:
            merged = [compose(args[-1], args[0], depth)] + args[1:-1]
        value = full_chain(dirs, side, merged, depth)
        total = total + (value if i % 2 == 0 else -value)
    return total


def outcome(evaluate, *call):
    try:
        return evaluate(*call)
    except InsufficientTruncationError:
        return "insufficient truncation"


def test_suite_cocycles_match_full_chain(torus, monkeypatch):
    cocycles, coboundaries, traces, raw = [], [], [], {}
    cocycle, signed_sum, terms_of, pair_trace = (
        symbols.cocycle_evaluate,
        symbols._signed_sum,
        symbols._coboundary_terms,
        symbols.commutator_trace,
    )

    def record_cocycle(dirs, side, args, depth, derive):
        value = cocycle(dirs, side, args, depth, derive)
        cocycles.append((list(dirs), side, list(args), depth, value))
        return value

    def record_terms(args, depth):
        terms = terms_of(args, depth)
        raw[id(terms)] = (terms, list(args))
        return terms

    def record_sum(dirs, side, terms, depth, derive):
        value = signed_sum(dirs, side, terms, depth, derive)
        coboundaries.append((list(dirs), side, raw[id(terms)][1], depth, value))
        return value

    def record_trace(a, b, side, depth):
        value = pair_trace(a, b, side, depth)
        traces.append((a, b, side, depth, value))
        return value

    monkeypatch.setattr(symbols, "cocycle_evaluate", record_cocycle)
    monkeypatch.setattr(symbols, "_coboundary_terms", record_terms)
    monkeypatch.setattr(symbols, "_signed_sum", record_sum)
    monkeypatch.setattr(symbols, "commutator_trace", record_trace)
    report = verify_traces_and_collapse(torus, predicted_hh(torus), trials=20, depth=6, seed=11)
    monkeypatch.undo()
    assert report["collapse_certified"]
    # the 40 trace pairs (20 pairs, two sides) are read off targeted residues,
    # not cocycles; the cocycles are the l + 2 terms of each signed sum, each
    # crafted tuple under every l-subset of derivations on its own side, and
    # the four seeded random tuples per level on the sides where a_0 lives
    assert len(coboundaries) == 24 and len(traces) == 40
    terms = sum(len(args) for _dirs, _side, args, _depth, _value in coboundaries)
    crafted = sum(
        comb(torus.n + 1, l) * len(symbols._crafted_tuples(torus, l, s))
        for l in range(symbols.MAX_LEVEL + 1)
        for s in (1, -1)
    )
    assert (terms, crafted) == (72, 124) and len(cocycles) == terms + crafted + 44
    for dirs, side, args, depth, value in cocycles:
        assert value == full_chain(dirs, side, args, depth)
    for dirs, side, args, depth, value in coboundaries:
        assert value == full_coboundary(dirs, side, args, depth)
    for a, b, side, depth, value in traces:
        assert value == read_residue(commutator(a, b, depth), side)


def test_one_expansion_serves_the_suite(torus, field, monkeypatch):
    built = []
    init = expansion.Expansion.__init__

    def counting(self, torus_):
        built.append(torus_)
        init(self, torus_)

    monkeypatch.setattr(expansion.Expansion, "__init__", counting)
    fresh = KroneckerTorus(field, ["1", "sqrt2"])
    report = verify_traces_and_collapse(fresh, predicted_hh(fresh), trials=20, depth=6, seed=11)
    assert report["collapse_certified"] and built == [fresh]
    # kept on the torus: a later product reads the same caches
    a = TruncatedSymbol.mode(fresh, (1, 0), 1)
    compose(a, a, 2)
    assert built == [fresh]


def test_commutator_trace_matches_the_full_commutator(torus):
    rng = random.Random(41)
    raised, forward = set(), False
    for _ in range(80):
        a, b = (random_symbol(torus, rng) for _ in range(2))
        if a.is_zero() or b.is_zero():
            continue
        a = TruncatedSymbol(torus, a.sides, rng.choice((None, None, -6, -3)))
        depth = rng.randint(0, 8)
        for s in (1, -1):
            got = outcome(commutator_trace, a, b, s, depth)
            assert got == outcome(lambda: read_residue(commutator(a, b, depth), s))
            raised.add(got == "insufficient truncation")
            if got != "insufficient truncation":
                # a o b alone has a nonzero trace somewhere, so a sign slip would show
                forward = forward or bool(read_residue(compose(a, b, depth), s))
    assert raised == {True, False} and forward


def test_derivation_memo_matches_apply_derivation(torus, monkeypatch):
    calls = []
    real = symbols.apply_derivation

    def counting(d, a, depth=6):
        calls.append(d)
        return real(d, a, depth)

    monkeypatch.setattr(symbols, "apply_derivation", counting)
    derive = symbols._derivation_memo()
    rng = random.Random(43)
    a = random_symbol(torus, rng, orders=(-2, 1))
    assert not a.is_zero()
    # the same sides under three floors, each at three depths
    cases = [
        (d, TruncatedSymbol(torus, a.sides, floor), depth)
        for floor in (None, -3, -2)
        for depth in (1, 3, 6)
        for d in derivation_set(torus)
    ]
    for d, arg, depth in cases + cases:
        assert derive(d, arg, depth) == real(d, arg, depth), (d, arg.floor, depth)
    assert len(calls) == len(cases)
    # an equal symbol built apart, its orders in another order, is the same key,
    # and so is each equal derivation built apart
    rebuilt = TruncatedSymbol(torus, {s: dict(reversed(a.sides[s].items())) for s in (1, -1)})
    for d in (Derivation("radial"), Derivation("leafwise", 0), Derivation("transverse", 1)):
        derive(d, rebuilt, 6)
    assert len(calls) == len(cases)


def test_suite_reports_do_not_depend_on_an_earlier_torus(field):
    # two tori over one field draw the same random symbols from one seed, so a
    # derivation image kept from one suite run would reach the other torus
    tori = [KroneckerTorus(field, alpha) for alpha in (["1", "sqrt2"], ["1", "1/2*sqrt2"])]
    run = lambda t: verify_traces_and_collapse(t, predicted_hh(t), trials=5, depth=6, seed=3)
    forward = [run(t) for t in tori]
    backward = [run(t) for t in reversed(tori)][::-1]
    assert forward == backward
    assert all(report["collapse_certified"] for report in forward)


if st is not None:

    MODES = st.tuples(st.sampled_from((1, -1, 0)), st.sampled_from((-1, 1, 0)))
    COEFFS = st.sampled_from((1, -1, 2, -2))

    @st.composite
    def symbol_strategy(draw, torus, anchor):
        """A symbol with a few random terms, one of them at the mode `anchor`."""
        sides = {}
        for s in (1, -1):
            if draw(st.integers(0, 9)) == 9:
                continue  # an empty side now and then
            orders = draw(st.lists(st.integers(-3, 1), min_size=1, max_size=3, unique=True))
            sides[s] = {}
            for j in orders:
                modes = draw(st.lists(MODES, max_size=2, unique=True))
                sides[s][j] = {m: torus.field.scalar(draw(COEFFS)) for m in modes}
            sides[s][draw(st.sampled_from(orders))][anchor] = torus.field.scalar(draw(COEFFS))
        floor = draw(st.sampled_from((None, None, None, -6, -4, -2, 0)))
        return TruncatedSymbol(torus, sides, floor)

    @st.composite
    def cocycle_call(draw, torus):
        """A cocycle call whose arguments' anchor modes sum to zero, so values are often nonzero."""
        dirs = draw(st.permutations(derivation_set(torus)))[: draw(st.integers(0, 2))]
        anchors = [draw(MODES) for _ in dirs]
        first = tuple(-sum(m[i] for m in anchors) for i in range(torus.n))
        args = [draw(symbol_strategy(torus, m)) for m in [first, *anchors]]
        return dirs, draw(st.sampled_from((1, -1))), args, draw(st.integers(0, 8))

    _TORI = {}

    def _torus(name):
        if name not in _TORI:
            field = NumberField((2,))
            alpha = ["1", "sqrt2"] if name == "nonresonant" else ["1", "2"]
            _TORI[name] = KroneckerTorus(field, alpha)
        return _TORI[name]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("nonresonant", "resonant")).map(_torus).flatmap(cocycle_call))
    def test_targeted_cocycle_matches_full_chain(call):
        dirs, side, args, depth = call
        assert outcome(cocycle_evaluate, dirs, side, args, depth, apply_derivation) == outcome(
            full_chain, dirs, side, args, depth
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("nonresonant", "resonant")).map(_torus).flatmap(cocycle_call))
    def test_commutator_trace_matches_full_commutator_property(call):
        _dirs, side, args, depth = call
        if len(args) >= 2:
            a, b = args[:2]
            assert outcome(commutator_trace, a, b, side, depth) == outcome(
                lambda: read_residue(commutator(a, b, depth), side)
            )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("nonresonant", "resonant")).map(_torus).flatmap(cocycle_call))
    def test_compose_and_radial_match_reference_property(call):
        _dirs, _side, args, depth = call
        if len(args) >= 2:
            a, b = args[:2]
            assert compose(a, b, depth) == reference_compose(a, b, depth)
        if depth >= 1:
            radial = Derivation("radial")
            assert apply_derivation(radial, args[0], depth) == reference_radial(args[0], depth)

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_targeted_cocycle_matches_full_chain():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_compose_and_radial_match_reference_property():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_commutator_trace_matches_full_commutator_property():
        pass
