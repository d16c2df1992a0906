"""Exact sparse ranks, spans and homology; kernels only through the test oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from leafhom.errors import ComplexViolationError, ShapeError
from leafhom.linalg import (
    Echelon,
    SparseMatrix,
    add_into,
    complex_ranks,
    homology_dims,
    integer_kernel,
    rank,
)
from leafhom.models import FormMonomial
from leafhom.scalars import NumberField
from kernel_oracle import rref_rank_kernel

try:  # test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None


@pytest.fixture(scope="module")
def field() -> NumberField:
    return NumberField((2,))


def dense(field, rows):
    entries = {
        (r, c): x if hasattr(x, "field") else field.scalar(x)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    }
    return SparseMatrix(len(rows), len(rows[0]), entries, field)


def transpose(m):
    return SparseMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()}, m.field)


def span_dim(field, vectors):
    return Echelon(field).extend(vectors)


def annihilates(m, vectors):
    """m @ v = 0 for every v, as one product with the matrix whose columns are the vectors."""
    columns = {(i, j): c for j, vec in enumerate(vectors) for i, c in vec.items()}
    return not m.matmul(SparseMatrix(m.cols, len(vectors), columns, m.field)).entries


# The kernel cases check `rank` against the oracle, and the oracle's kernel
# basis against its matrix: the spectral and induced-map references read it.


def test_identity_full_rank(field):
    m = dense(field, [[1, 0], [0, 1]])
    assert rank(m) == 2 and rref_rank_kernel(m) == (2, [])


def test_zero_matrix_kernel(field):
    m = SparseMatrix(3, 4, {}, field)
    r, kernel = rref_rank_kernel(m)
    assert rank(m) == r == 0 and len(kernel) == 4
    assert span_dim(field, kernel) == 4


def test_sqrt2_rank_one_kernel(field):
    # row 2 = sqrt2 * row 1, so rank 1 and kernel spanned by (-sqrt2, 1)
    s2 = field.sqrt(2)
    m = dense(field, [[field.one, s2], [s2, field.scalar(2)]])
    r, kernel = rref_rank_kernel(m)
    assert rank(m) == r == 1 and len(kernel) == 1
    (vec,) = kernel
    # normalize to second coordinate 1
    scale = vec[1].inverse()
    assert {c: v * scale for c, v in vec.items()} == {0: -s2, 1: field.one}
    assert annihilates(m, [vec])


def test_kernel_vectors_annihilated(field):
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    entries[(i, j)] = field.scalar(rng.randint(-3, 3))
        m = SparseMatrix(rows, cols, entries, field)
        r, kernel = rref_rank_kernel(m)
        assert rank(m) == r and r + len(kernel) == cols
        assert annihilates(m, kernel)
        assert span_dim(field, kernel) == len(kernel)


def test_rank_agrees_under_reordering(field):
    # two independent elimination orders: as-is and with rows+cols reversed
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.45:
                    entries[(i, j)] = field.scalar(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    )
        m = SparseMatrix(rows, cols, entries, field)
        flipped = SparseMatrix(
            rows,
            cols,
            {(rows - 1 - r, cols - 1 - c): v for (r, c), v in m.entries.items()},
            field,
        )
        assert rank(m) == rank(flipped)
        assert rank(m) == rank(transpose(m))


def test_shape_errors(field):
    with pytest.raises(ShapeError):
        SparseMatrix(2, 2, {(2, 0): field.one}, field)
    a = SparseMatrix(2, 3, {}, field)
    b = SparseMatrix(2, 3, {}, field)
    with pytest.raises(ShapeError):
        a.matmul(b)


def dims_of(sizes, diffs):
    return homology_dims(sizes, complex_ranks(sizes, diffs))


def test_homology_dims_plain(field):
    # C^0 (dim 1) -> C^1 (dim 3) -> C^2 (dim 1): a line mapped into the
    # kernel of the zero map leaves a 2-dim middle homology
    z = SparseMatrix(1, 3, {}, field)
    b = SparseMatrix(3, 1, {(0, 0): field.one}, field)
    sizes = {0: 1, 1: 3, 2: 1}
    assert complex_ranks(sizes, {0: b, 1: z}) == {0: 1, 1: 0}
    assert dims_of(sizes, {0: b, 1: z}) == {0: 0, 1: 2, 2: 1}
    # ranks summed over a direct sum give the direct sum's dims
    assert homology_dims({0: 2, 1: 6, 2: 2}, {0: 2, 1: 0}) == {0: 0, 1: 4, 2: 2}


def test_homology_dims_detects_broken_complex(field, monkeypatch):
    z = SparseMatrix(1, 2, {(0, 0): field.one}, field)
    b = SparseMatrix(2, 1, {(0, 0): field.one}, field)
    ranked = []
    monkeypatch.setattr(Echelon, "extend", lambda self, rows: ranked.append(rows) or 0)
    with pytest.raises(ComplexViolationError, match="d\\^2 != 0 between degrees 3 and 5"):
        complex_ranks({3: 1, 4: 2, 5: 1}, {3: b, 4: z})
    assert ranked == []  # the check comes before any rank


def test_d_squared_checked_once_per_pair_of_nonzero_maps(field, monkeypatch):
    products = []
    real = SparseMatrix.matmul
    monkeypatch.setattr(SparseMatrix, "matmul", lambda a, b: products.append(1) or real(a, b))
    m = lambda rows, cols, entries={}: SparseMatrix(rows, cols, entries, field)
    one = field.one
    diffs = {0: m(2, 1, {(0, 0): one}), 1: m(1, 2, {(0, 1): one}), 2: m(1, 1), 3: m(1, 1, {(0, 0): one})}
    sizes = {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}
    assert complex_ranks(sizes, diffs) == {0: 1, 1: 1, 2: 0, 3: 1}
    # d_1 d_0 is the one product: d_2 is zero, and there is no d_4
    assert len(products) == 1
    assert dims_of(sizes, diffs) == dict.fromkeys(sizes, 0)


def test_homology_dims_rejects_wrong_shape(field):
    b = SparseMatrix(2, 1, {(0, 0): field.one}, field)
    with pytest.raises(ShapeError):
        complex_ranks({0: 1, 1: 3}, {0: b})


def test_homology_dims_never_negative(field):
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        # build a genuine two-step complex: B maps in, Z kills the image
        img_entries = {}
        for i in range(n):
            if rng.random() < 0.6:
                img_entries[(i, 0)] = field.scalar(rng.randint(-2, 2))
        b = SparseMatrix(n, 1, img_entries, field)
        r, kernel = rref_rank_kernel(transpose(b))
        z_rows = {
            (idx, c): v for idx, vec in enumerate(kernel) for c, v in vec.items()
        }
        z = SparseMatrix(len(kernel), n, z_rows, field)
        dims = dims_of({0: 1, 1: n, 2: len(kernel)}, {0: b, 1: z})
        assert min(dims.values()) >= 0
        assert dims[1] == n - r - rank(z)
    # ranks that no complex has: the guard raises rather than return a negative dim
    with pytest.raises(ComplexViolationError, match="negative homology dimension at degree 1"):
        homology_dims({0: 1, 1: 1}, {0: 1, 1: 1})


def test_echelon_membership(field):
    ech = Echelon(field)
    assert ech.add({0: field.one, 1: field.scalar(2)})
    assert ech.add({1: field.one})
    assert not ech.add({0: field.scalar(3), 1: field.scalar(5)})
    assert ech.dim == 2
    assert not ech.reduce({0: field.scalar(7)})
    assert ech.reduce({2: field.one})


def test_integer_kernel_lattice():
    # m1 + m2 = 0 over two constraint rows that are multiples
    basis = integer_kernel([[1, 1], [2, 2]], 2)
    assert basis == [(1, -1)]
    # full kernel when there are no constraints
    basis = integer_kernel([], 3)
    assert len(basis) == 3
    # the (1, -1, 1) line: m1 - m3 = 0 and m2 + m3 = 0
    basis = integer_kernel([[1, 0, -1], [0, 1, 1]], 3)
    assert basis == [(1, -1, 1)]


def test_rank_matches_sympy_over_q_sqrt2(field):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)

    def entry():
        if rng.random() < 0.5:
            return field.zero
        return field.from_components(
            {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in (0, 2)}
        )

    def random_matrix(rows, cols):
        return dense(field, [[entry() for _ in range(cols)] for _ in range(rows)])

    def to_sympy(x):
        c = x.coeffs
        assert c[1] == c[3] == 0
        return sympy.Rational(c[0].numerator, c[0].denominator) + sympy.Rational(
            c[2].numerator, c[2].denominator
        ) * sympy.sqrt(2)

    ranks = set()
    for _ in range(30):
        # a product through a thin middle dimension is often rank-deficient
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rows, inner).matmul(random_matrix(inner, cols))
        expected = sympy.Matrix(
            rows, cols, lambda i, j: to_sympy(m.entries.get((i, j), field.zero))
        ).rank(simplify=True)
        assert rank(m) == expected
        ranks.add((expected, min(rows, cols)))
    assert any(r < full for r, full in ranks)


# -- the sparse accumulation kernel over Q(i, sqrt2) ---------------------------------


def test_add_into_works_in_place_and_returns_out(field):
    two, x = field.scalar(2), field.parse("1+sqrt2")
    out = {0: two}
    assert add_into(out, [(1, x), (0, two)]) is out
    assert out == {0: field.scalar(4), 1: x}


def test_add_into_drops_a_key_that_cancels(field):
    x = field.parse("i-sqrt2")
    assert add_into({0: x, 1: x}, [(0, -x)]) == {1: x}
    assert add_into({}, [(0, x), (0, -x), (1, field.zero)]) == {}
    assert add_into({0: x}, [(0, x)], field.minus_one) == {}


def test_add_into_scales_by_a_scalar_or_adds_unscaled(field):
    x, c = field.parse("1/2+i"), field.parse("sqrt2")
    assert add_into({}, [(0, x)], c) == {0: c * x}
    assert add_into({0: x}, [(0, x)], c) == {0: x + c * x}
    assert add_into({0: x}, [(0, x)]) == add_into({0: x}, [(0, x)], None) == {0: x + x}


def test_add_into_takes_int_tuple_and_monomial_keys(field):
    x = field.parse("i")
    for key in (3, (1, -1), FormMonomial((1, 0), 0, 0, (0,))):
        assert add_into({key: x}, [(key, x), (key, x)], field.minus_one) == {key: -x}


QI2 = NumberField((2,))


def ref_product(a, b):
    """Product of coordinate tuples on the basis 1, i, sqrt2, i*sqrt2 of Q(i, sqrt2)."""
    out = [Fraction(0)] * 4
    for ma, x in enumerate(a):
        for mb, y in enumerate(b):
            both = ma & mb  # i^2 = -1, sqrt2^2 = 2
            out[ma ^ mb] += x * y * (-1 if both & 1 else 1) * (2 if both & 2 else 1)
    return out


if st is not None:
    QI2_VALUES = [QI2.parse(t) for t in ("1", "i", "sqrt2", "1/2-i*sqrt2", "2+i")]
    QI2_ELEMENT = st.sampled_from(QI2_VALUES + [-v for v in QI2_VALUES])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.dictionaries(st.integers(0, 3), QI2_ELEMENT, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), QI2_ELEMENT), max_size=8),
        st.one_of(st.none(), st.just(QI2.one), st.just(QI2.minus_one), QI2_ELEMENT),
    )
    def test_add_into_matches_a_dense_fraction_reference(start, pairs, coeff):
        dense = [list(start[k].coeffs) if k in start else [Fraction(0)] * 4 for k in range(4)]
        c = (1, 0, 0, 0) if coeff is None else coeff.coeffs
        for key, v in pairs:
            dense[key] = [a + b for a, b in zip(dense[key], ref_product(c, v.coeffs))]
        out = dict(start)
        assert add_into(out, iter(pairs), coeff) is out
        assert {k: v.coeffs for k, v in out.items()} == {
            k: tuple(x) for k, x in enumerate(dense) if any(x)
        }

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_add_into_matches_a_dense_fraction_reference():
        pass


# -- the rank-only echelon over Q(i, sqrt2, sqrt3) -----------------------------------

QI23 = NumberField((2, 3))
ENTRIES = tuple(
    QI23.parse(text)
    for text in ("1", "-1", "2", "1/2", "-3/2", "i", "sqrt2", "sqrt3", "1+sqrt2", "-1+i*sqrt3",
                 "1/3*sqrt2*sqrt3", "2-1/2*i*sqrt2")
)


def dense_q23(rows):
    return SparseMatrix(
        len(rows),
        len(rows[0]),
        {(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)},
        QI23,
    )


def combine(coeffs, vectors):
    out = {}
    for a, vec in zip(coeffs, vectors):
        for c, v in vec.items():
            out[c] = out.get(c, QI23.zero) + a * v
    return {c: v for c, v in out.items() if v}


def sympy_rank(m):
    sympy = pytest.importorskip("sympy")
    gens = (sympy.I, sympy.sqrt(2), sympy.sqrt(3))

    def to_sympy(x):
        total = 0
        for mask, c in enumerate(x.coeffs):
            term = sympy.Rational(c.numerator, c.denominator)
            for bit, g in enumerate(gens):
                if mask >> bit & 1:
                    term *= g
            total += term
        return total

    return sympy.Matrix(
        m.rows, m.cols, lambda i, j: to_sympy(m.entries.get((i, j), QI23.zero))
    ).rank(simplify=True)


if st is not None:
    SCALAR = st.one_of(st.just(QI23.zero), st.sampled_from(ENTRIES))

    def grids(rows, cols):
        return st.lists(st.lists(SCALAR, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    @st.composite
    def rank_deficient_matrices(draw):
        """A product through a middle dimension below both sides: rank <= inner."""
        rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        inner = draw(st.integers(1, min(rows, cols) - 1))
        return dense_q23(draw(grids(rows, inner))).matmul(dense_q23(draw(grids(inner, cols))))

    @st.composite
    def repeated_pivot_matrices(draw):
        """L U with unit lower-triangular integer L and x on each step of the echelon U.

        Reduced in row order, every row's pivot entry is x; rows mixing the
        earlier ones follow, so the matrix has rank len(U).
        """
        x = draw(st.sampled_from(ENTRIES))
        cols = draw(st.integers(2, 5))
        leads = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=min(cols, 3))))
        echelon = []
        for lead in leads:
            tail = draw(st.lists(SCALAR, min_size=cols - lead - 1, max_size=cols - lead - 1))
            echelon.append([QI23.zero] * lead + [x] + tail)
        rows = []
        for i, _row in enumerate(echelon):
            mix = [QI23.scalar(draw(st.integers(-2, 2))) for _ in range(i)] + [QI23.one]
            rows.append([sum((a * r[c] for a, r in zip(mix, echelon)), QI23.zero) for c in range(cols)])
        for _ in range(draw(st.integers(0, 2))):
            mix = [draw(SCALAR) for _ in rows]
            rows.append([sum((a * r[c] for a, r in zip(mix, rows)), QI23.zero) for c in range(cols)])
        return x, len(echelon), dense_q23(rows)

    def check_echelon(m, rng_vector, mix):
        expected = rank(m)
        assert rref_rank_kernel(m)[0] == expected
        ech = Echelon(QI23)
        rows = m.row_vectors()
        assert ech.extend(rows) == ech.dim == expected
        # reduce is a function of the coset: no entry at a pivot, the same for v + span
        w = combine(mix, rows)
        assert ech.reduce(w) == {}
        residual = ech.reduce(rng_vector)
        assert not residual.keys() & ech.pivot_rows.keys()
        assert ech.reduce(combine([QI23.one, QI23.one], [rng_vector, w])) == residual
        assert ech.add(rng_vector) == bool(residual)
        return expected

    VECTOR = st.dictionaries(st.integers(0, 4), st.sampled_from(ENTRIES), max_size=4)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rank_deficient_matrices(), VECTOR, st.lists(SCALAR, min_size=4, max_size=4))
    def test_rank_only_echelon_on_rank_deficient_matrices(m, vec, mix):
        vec = {c: v for c, v in vec.items() if c < m.cols}
        r = check_echelon(m, vec, mix)
        assert r < min(m.rows, m.cols)
        assert r == sympy_rank(m)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(repeated_pivot_matrices(), VECTOR, st.lists(SCALAR, min_size=5, max_size=5))
    def test_rank_only_echelon_with_one_repeated_pivot(drawn, vec, mix):
        x, expected, m = drawn
        vec = {c: v for c, v in vec.items() if c < m.cols}
        assert check_echelon(m, vec, mix) == expected == sympy_rank(m)
        ech = Echelon(QI23)
        ech.extend(m.row_vectors())
        assert {inv for _tail, inv in ech.pivot_rows.values()} == {x.inverse()}

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_rank_only_echelon_on_rank_deficient_matrices():
        pass

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_rank_only_echelon_with_one_repeated_pivot():
        pass


# -- rank against the kernel oracle, a normalized Gauss-Jordan elimination ---------


KERNEL_FIELDS = {
    "Q(i,sqrt2)": (NumberField((2,)), ("1", "-1", "2", "1/2", "i", "sqrt2", "1+sqrt2", "-3/2*i*sqrt2")),
    "Q(i,sqrt2,sqrt3)": (QI23, tuple(str(x) for x in ENTRIES)),
}


def kernel_cases(field, entries, rng):
    """Zero and empty matrices, random ones, and products through a thin middle."""
    yield from (SparseMatrix(r, c, {}, field) for r, c in ((3, 4), (0, 3), (3, 0), (0, 0)))

    def grid(rows, cols, density):
        return SparseMatrix(rows, cols, {
            (i, j): rng.choice(entries)
            for i in range(rows)
            for j in range(cols)
            if rng.random() < density
        }, field)

    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield grid(rows, cols, rng.choice((0.3, 0.6, 1.0)))
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        yield grid(rows, inner, 0.8).matmul(grid(inner, cols, 0.8))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernels_match_the_gauss_jordan_oracle(name):
    field, texts = KERNEL_FIELDS[name]
    entries = [field.parse(text) for text in texts]
    deficient = vectors = 0
    for m in kernel_cases(field, entries, random.Random(43)):
        r, kernel = rref_rank_kernel(m)
        # the same rank, so the same kernel dimension, and the oracle's basis is one
        assert rank(m) == r == m.cols - len(kernel)
        assert annihilates(m, kernel) and span_dim(field, kernel) == len(kernel)
        deficient += r < min(m.rows, m.cols)
        vectors += len(kernel)
    assert deficient > 100 and vectors > 300
