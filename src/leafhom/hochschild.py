"""Dimension predictors for the invariants of the truncated symbol algebra.

In the paper the Hochschild homology of the complete-symbol algebra is read
off the Poisson homology of the foliation and of two bundles over it: the
cosphere-circle bundle and the punctured dual cone.  So every predictor here
is a pure function of the tables it reads: the second spectral page, the
total dimensions under the collapse assumption and the bottom group read the
leafwise table of the cosphere-circle bundle, the top group reads the torus
table, and the even/odd periodic pair reads the bundle's Betti numbers.  The
caller computes each table once and passes it in.  The bridge from the first
page to the second is the one computation: it takes the boundary homology of
the cone and compares it with the second-page table cell by cell.  The
bottom/top pair and the bridge return their report documents.

Collapse at the second page is an assumption everywhere except where the
symbol-level cocycle count certifies it; reports carry that caveat
explicitly.
"""

from __future__ import annotations

from typing import Sequence

from .derham import BigradedDims
from .errors import WindowError
from .models import KroneckerTorus
from .poisson import BoundaryDims


def e2_dims(torus: KroneckerTorus, circle: BigradedDims) -> dict[tuple[int, int], int]:
    """Second-page table (k, h) -> dim, read off the cosphere-circle table.

    ``circle`` is the leafwise cohomology of the torus's cosphere-circle
    bundle.  Nonzero only for -p <= k <= p and p <= h <= p + q.
    """
    p, q = torus.leaf_dim, torus.codim
    out: dict[tuple[int, int], int] = {}
    for k in range(-p, p + 1):
        for h in range(p, p + q + 1):
            out[(k, h)] = circle.get(p - k, h - p)
    return out


def hh_dims_assuming_collapse(torus: KroneckerTorus, circle: BigradedDims) -> list[int]:
    """Total homology dimensions k = 0 .. 2p+q under second-page collapse.

    dim_k = sum_j dim H^{2p+j-k, j} of the cosphere-circle bundle; the
    collapse assumption is certified only by the symbol-level cocycle count.
    """
    p, q = torus.leaf_dim, torus.codim
    out = []
    for k in range(0, 2 * p + q + 1):
        out.append(sum(circle.get(2 * p + j - k, j) for j in range(0, q + 1)))
    return out


def hh0_and_top(
    torus: KroneckerTorus, circle: BigradedDims, torus_dims: BigradedDims
) -> dict:
    """The bottom group (trace space) and the top group (2p+q) dimensions.

    The bottom group is H^{2p,0} of the cosphere-circle table ``circle``, the
    top group H^{0,q} of the torus table ``torus_dims``.
    """
    p, q = torus.leaf_dim, torus.codim
    # a Kronecker torus has leaf dimension p = 1; the bottom group equals
    # the base H^{p,0} only from p = 2 on
    note = "simplification to the base H^{p,0} not applicable (leaf dimension 1)"
    return {"HH_0": circle.get(2 * p, 0), "HH_top": torus_dims.get(0, q), "notes": [note]}


def hp_dims(circle_betti: Sequence[int]) -> tuple[int, int]:
    """Even/odd periodic dimensions: alternating sums of the bundle's Betti numbers."""
    return sum(circle_betti[0::2]), sum(circle_betti[1::2])


def e1_to_e2(cone_dims: BoundaryDims, e2: dict[tuple[int, int], int]) -> dict:
    """Second page computed through the cone vs the closed form, cell by cell.

    The first page is the space of (k+h)-forms on the cone of homogeneity k;
    applying the boundary operator and taking exact homology gives the second
    page, read off the delta lines of ``cone_dims``, which must match ``e2``,
    the table `e2_dims` reads off the cosphere-circle bundle of the cone's
    base torus.  A cell is
    consistent when the two agree; the report passes when every cell is.
    """
    conic, window = cone_dims.conic, cone_dims.window
    p, q = conic.leaf_dim // 2, conic.codim
    if window.l_min > -p - 1 or window.l_max < p + 1:
        raise WindowError(
            f"homogeneity range [{window.l_min}, {window.l_max}] cannot hold the"
            f" first-page degrees [-{p + 1}, {p + 1}]"
        )
    expected = [((k, h), e2[(k, h)]) for k in range(-p, p + 1) for h in range(p, p + q + 1)]
    # out-of-range cells must vanish on both pipelines
    expected += [((k, h), 0) for k, h in ((p + 1, p), (-p - 1, p), (p, 2 * p + q + 1 - p))]
    cells = []
    for (k, h), closed_form in expected:
        from_cone = cone_dims.get("delta", k + h, k)
        cells.append(
            {
                "k": k,
                "h": h,
                "from_cone": from_cone,
                "closed_form": closed_form,
                "consistent": from_cone == closed_form,
            }
        )
    return {
        "model": repr(conic.base),
        "passed": all(c["consistent"] for c in cells),
        "unit_note": (
            "the first-page differential is the boundary operator times an"
            " imaginary unit; the unit is dropped in rank computations"
        ),
        "cells": cells,
    }
