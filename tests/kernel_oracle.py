"""The tests' kernel oracle: a normalized Gauss-Jordan elimination, independent of `Echelon`.

The package reads every dimension off ranks and never builds a kernel
basis; tests that need one (the spectral page oracle, the Z/B reference for
induced maps) take it from here.
"""

from __future__ import annotations


def _subtract_scaled(work, row, coeff):
    for c, v in row.items():
        new = work.get(c, coeff.field.zero) - coeff * v
        if new:
            work[c] = new
        else:
            work.pop(c, None)


def rref_rank_kernel(matrix):
    """Rank and a right-kernel basis ({col: Scalar} vectors) read off the RREF of ``matrix``.

    Each pivot row is scaled to 1 at its pivot and carries no entry at another
    pivot column, so the kernel vector of a free column f is e_f minus the
    rows' entries at f.
    """
    pivots = {}
    for work in matrix.row_vectors():
        for c in sorted(set(work) & pivots.keys()):
            coeff = work.get(c)
            if coeff:
                _subtract_scaled(work, pivots[c], coeff)
        if not work:
            continue
        lead = min(work)
        inv = work[lead].inverse()
        normalized = {c: v * inv for c, v in work.items()}
        for prow in pivots.values():
            coeff = prow.get(lead)
            if coeff:
                _subtract_scaled(prow, normalized, coeff)
        pivots[lead] = normalized
    kernel = []
    for f in range(matrix.cols):
        if f not in pivots:
            vec = {f: matrix.field.one}
            vec.update({p: -row[f] for p, row in pivots.items() if row.get(f)})
            kernel.append(vec)
    return len(pivots), kernel
