"""Dimension predictors for the invariants of the truncated symbol algebra.

Everything here is a closed-form probe into the leafwise cohomology of the
cosphere-circle bundle or into the homogeneous boundary homology of the dual
cone: the second spectral page in terms of shifted bundle cohomology, the
total dimensions under the collapse assumption, the bottom/top groups, the
even/odd periodic pair, and the bridge from the first page to the second
computed through the cone (the two pipelines are compared cell by cell).

Collapse at the second page is an assumption everywhere except where the
symbol-level cocycle count certifies it; reports carry that caveat
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derham import cohomology_dims, ordinary_derham_dims
from .errors import WindowError
from .models import (
    ConicDualModel,
    CosphereCircleModel,
    FoliatedModel,
    ModeWindow,
    torus_of,
)
from .poisson import homogeneous_poisson_dims


def e2_dims(
    model: FoliatedModel, window: ModeWindow | None = None
) -> dict[tuple[int, int], int]:
    """Second-page table (k, h) -> dim, via shifted circle-bundle cohomology.

    Nonzero only for -p <= k <= p and p <= h <= p + q.
    """
    torus = torus_of(model)
    window = window or ModeWindow()
    p, q = torus.leaf_dim, torus.codim
    circle = CosphereCircleModel(torus)
    dims = cohomology_dims(circle, window)
    out: dict[tuple[int, int], int] = {}
    for k in range(-p, p + 1):
        for h in range(p, p + q + 1):
            out[(k, h)] = dims.get(p - k, h - p)
    return out


def hh_dims_assuming_collapse(
    model: FoliatedModel, window: ModeWindow | None = None
) -> list[int]:
    """Total homology dimensions k = 0 .. 2p+q under second-page collapse.

    dim_k = sum_j dim H^{2p+j-k, j} of the cosphere-circle bundle; the
    collapse assumption is certified only by the symbol-level cocycle count.
    """
    torus = torus_of(model)
    window = window or ModeWindow()
    p, q = torus.leaf_dim, torus.codim
    circle = CosphereCircleModel(torus)
    dims = cohomology_dims(circle, window)
    out = []
    for k in range(0, 2 * p + q + 1):
        out.append(sum(dims.get(2 * p + j - k, j) for j in range(0, q + 1)))
    return out


@dataclass(frozen=True)
class BottomTopReport:
    bottom: int
    top: int
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {"HH_0": self.bottom, "HH_top": self.top, "notes": list(self.notes)}


def hh0_and_top(
    model: FoliatedModel, window: ModeWindow | None = None
) -> BottomTopReport:
    """The bottom group (trace space) and the top group (2p+q) dimensions."""
    torus = torus_of(model)
    window = window or ModeWindow()
    p, q = torus.leaf_dim, torus.codim
    circle = CosphereCircleModel(torus)
    bottom = cohomology_dims(circle, window).get(2 * p, 0)
    top = cohomology_dims(torus, window).get(0, q)
    notes = []
    if p >= 2:
        notes.append("bottom group also equals the base leafwise H^{p,0}")
    else:
        notes.append(
            "simplification to the base H^{p,0} not applicable (leaf dimension 1)"
        )
    return BottomTopReport(bottom, top, tuple(notes))


def hp_dims(
    model: FoliatedModel, window: ModeWindow | None = None
) -> tuple[int, int]:
    """Even/odd periodic dimensions: alternating Betti sums of the bundle."""
    torus = torus_of(model)
    window = window or ModeWindow()
    circle = CosphereCircleModel(torus)
    betti = ordinary_derham_dims(circle, window)
    even = sum(b for k, b in enumerate(betti) if k % 2 == 0)
    odd = sum(b for k, b in enumerate(betti) if k % 2 == 1)
    return even, odd


@dataclass(frozen=True)
class PageBridgeCell:
    k: int
    h: int
    from_cone: int
    closed_form: int

    @property
    def consistent(self) -> bool:
        return self.from_cone == self.closed_form

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "from_cone": self.from_cone,
            "closed_form": self.closed_form,
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class PageBridgeReport:
    model: str
    cells: tuple[PageBridgeCell, ...]
    unit_note: str = (
        "the first-page differential is the boundary operator times an"
        " imaginary unit; the unit is dropped in rank computations"
    )

    @property
    def passed(self) -> bool:
        return all(c.consistent for c in self.cells)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "passed": self.passed,
            "unit_note": self.unit_note,
            "cells": [c.to_json() for c in self.cells],
        }


def e1_to_e2(
    model: FoliatedModel, window: ModeWindow | None = None
) -> PageBridgeReport:
    """Second page computed through the cone vs the closed form, cell by cell.

    The first page is the space of (k+h)-forms on the cone of homogeneity k;
    applying the boundary operator and taking exact homology gives the second
    page, which must match the shifted circle-bundle table.
    """
    torus = torus_of(model)
    window = window or ModeWindow()
    p, q = torus.leaf_dim, torus.codim
    if window.l_min > -p - 1 or window.l_max < p + 1:
        raise WindowError(
            f"homogeneity range [{window.l_min}, {window.l_max}] cannot hold the"
            f" first-page degrees [-{p + 1}, {p + 1}]"
        )
    conic = ConicDualModel(torus)
    closed = e2_dims(torus, window)
    cells = []
    for k in range(-p, p + 1):
        for h in range(p, p + q + 1):
            via_cone = homogeneous_poisson_dims(conic, k + h, k, window)
            cells.append(PageBridgeCell(k, h, via_cone, closed[(k, h)]))
    # out-of-range cells must vanish on both pipelines
    for k, h in ((p + 1, p), (-p - 1, p), (p, 2 * p + q + 1 - p)):
        via_cone = homogeneous_poisson_dims(conic, k + h, k, window)
        cells.append(PageBridgeCell(k, h, via_cone, 0))
    return PageBridgeReport(repr(torus), tuple(cells))
