"""Sparse exact linear algebra over a NumberField.

`add_into` is the one sparse accumulation of the package: out += c * v into
a dict of exact Scalars, dropping the keys that sum to zero.  Operator
images (forms), symbol products (trigonometric polynomials) and matrix
columns are all built through it.

One elimination, a row echelon (`Echelon`), gives ranks and spans: each row
is stored as its residual modulo the rows before it, with the memoized
inverse of its lead entry, and is never normalized or back-substituted.
Every dimension the package reports is read off ranks: `complex_ranks` is
the one body that checks a complex (shapes, d^2 = 0 once per consecutive
pair) and ranks each differential once, and `homology_dims` the one body of
dim C^t - rank d_t - rank d_(t-1).  No kernel basis over the field is built.
Exact field arithmetic throughout; no floating point anywhere.
"""

from __future__ import annotations

from bisect import insort
from typing import Hashable, Iterable

from .errors import ComplexViolationError, ShapeError
from .scalars import NumberField, Scalar

SparseVector = dict[int, Scalar]


def add_into(out: dict, pairs: Iterable[tuple[Hashable, Scalar]], coeff: Scalar | None = None):
    """out += coeff * pairs in place (unscaled when coeff is None); returns out.

    Each (key, v) of ``pairs`` adds coeff * v at key, and a key whose sum is
    exactly zero is dropped, so ``out`` never holds a zero.
    """
    for key, v in pairs:
        if coeff is not None:
            v = coeff * v
        cur = out.get(key)
        if cur is not None:
            v = cur + v
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


class SparseMatrix:
    """Immutable sparse matrix: entries keyed by (row, col), no stored zeros."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: dict[tuple[int, int], Scalar],
        field: NumberField,
    ):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        clean: dict[tuple[int, int], Scalar] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeError(f"entry at ({r}, {c}) outside a {rows}x{cols} matrix")
            if v.field is not field and v.field != field:
                raise ShapeError("matrix entry from a different field")
            if v:
                clean[(r, c)] = v
        self.rows = rows
        self.cols = cols
        self.entries = clean
        self.field = field

    def row_vectors(self) -> list[SparseVector]:
        out: list[SparseVector] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def matmul(self, other: SparseMatrix) -> SparseMatrix:
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_row_other: list[SparseVector] = other.row_vectors()
        acc: dict[tuple[int, int], Scalar] = {}
        for (r, k), v in self.entries.items():
            add_into(acc, (((r, c), w) for c, w in by_row_other[k].items()), v)
        return SparseMatrix(self.rows, other.cols, acc, self.field)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


class Echelon:
    """Incrementally maintained row echelon span over a field, for ranks.

    A row is inserted as its residual modulo the rows already there; its
    lowest column is its pivot, and the row is kept without that entry,
    beside the entry's inverse.  Rows are never normalized and never
    back-substituted, so a row may carry entries at pivot columns inserted
    after it: `reduce` eliminates pivots in increasing column order,
    including those that an elimination brings into the vector.
    """

    __slots__ = ("field", "pivot_rows")

    def __init__(self, field: NumberField):
        self.field = field
        # pivot column -> (the row's entries right of it, inverse of its entry there)
        self.pivot_rows: dict[int, tuple[SparseVector, Scalar]] = {}

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: SparseVector) -> SparseVector:
        """Return vec reduced modulo the current span (a fresh dict).

        The result has no entry at any pivot column, so it is the same for
        every vector of the coset vec + span.  The elimination keeps its own
        loop rather than `add_into`: it must learn which pivot columns a tail
        brings into the vector, to insert them into the walk (`insort`).
        """
        work = {c: v for c, v in vec.items() if v}
        pivots = self.pivot_rows
        # the pivot columns to eliminate, increasing; the walk inserts the
        # pivots a tail brings in, which lie right of the current column
        todo = sorted(c for c in work if c in pivots)
        for c in todo:
            coeff = work.pop(c, None)
            if coeff is None:
                continue  # cancelled, or a repeat of a column already eliminated
            tail, inv = pivots[c]
            scale = coeff * inv
            for c2, v in tail.items():
                cur = work.get(c2)
                if cur is None:
                    work[c2] = -(scale * v)
                    if c2 in pivots:
                        insort(todo, c2)
                else:
                    new = cur - scale * v
                    if new:
                        work[c2] = new
                    else:
                        del work[c2]
        return work

    def add(self, vec: SparseVector) -> bool:
        """Insert vec into the span; True if the dimension grew."""
        residual = self.reduce(vec)
        if not residual:
            return False
        lead = min(residual)
        inv = residual.pop(lead).inverse()
        self.pivot_rows[lead] = (residual, inv)
        return True

    def extend(self, vectors: list[SparseVector]) -> int:
        added = 0
        for v in vectors:
            if self.add(v):
                added += 1
        return added


def rank(matrix: SparseMatrix) -> int:
    return Echelon(matrix.field).extend([row for row in matrix.row_vectors() if row])


def complex_ranks(sizes: dict[int, int], diffs: dict[int, SparseMatrix]) -> dict[int, int]:
    """The rank of each d_t: C^t -> C^(t+1) (``diffs[t]``, dim C^t = ``sizes[t]``).

    Shapes (ShapeError) and d_(t+1) d_t = 0 once per consecutive pair of
    nonzero maps (ComplexViolationError naming the degrees) are checked
    before any d_t is ranked; each is ranked once.
    """
    for t, mat in diffs.items():
        if mat.cols != sizes.get(t, 0) or mat.rows != sizes.get(t + 1, 0):
            raise ShapeError(
                f"differential at degree {t} is {mat.rows}x{mat.cols}, expected "
                f"{sizes.get(t + 1, 0)}x{sizes.get(t, 0)}"
            )
        nxt = diffs.get(t + 1)
        if mat.entries and nxt is not None and nxt.entries and nxt.matmul(mat).entries:
            raise ComplexViolationError(f"d^2 != 0 between degrees {t} and {t + 2}")
    return {t: rank(mat) for t, mat in diffs.items()}


def homology_dims(sizes: dict[int, int], ranks: dict[int, int]) -> dict[int, int]:
    """dim H^t = dim C^t - rank d_t - rank d_(t-1) for every t in ``sizes``.

    ``ranks`` come from `complex_ranks`, or sum them over a direct sum of
    complexes; a missing rank is zero.
    """
    out = {}
    for t, n in sorted(sizes.items()):
        h = n - ranks.get(t, 0) - ranks.get(t - 1, 0)
        if h < 0:  # unreachable once d^2 = 0 holds; guards an engine bug
            raise ComplexViolationError(f"negative homology dimension at degree {t}")
        out[t] = h
    return out


def integer_kernel(rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {m in Z^n : A m = 0} for an integer matrix A.

    Unimodular column reduction;  the returned basis generates the full
    integer kernel (saturated), each vector normalized so its first nonzero
    entry is positive.
    """
    work = [list(r) for r in rows]
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # tracker
    active = list(range(n))
    for r in range(len(work)):
        live = [j for j in active if work[r][j] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(work[r][j]))
            j0 = live[0]
            a0 = work[r][j0]
            for j in live[1:]:
                q = work[r][j] // a0
                if q:
                    for rr in range(len(work)):
                        work[rr][j] -= q * work[rr][j0]
                    for t in range(n):
                        cols[j][t] -= q * cols[j0][t]
            live = [j for j in live if work[r][j] != 0]
        if live:
            active.remove(live[0])
    basis = []
    for j in sorted(active):
        vec = tuple(cols[j])
        lead = next((x for x in vec if x != 0), 0)
        if lead < 0:
            vec = tuple(-x for x in vec)
        if any(vec):
            basis.append(vec)
    return basis
