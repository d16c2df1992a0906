"""Acceptance criteria, one test per criterion, exact tolerances, timed.

Every check here is exact (integer/field equality); the time limits are the
stated budgets.  Each test prints one pass/fail line (visible with -s or in
captured output on failure).
"""

from __future__ import annotations

import json
import time
from math import comb
from pathlib import Path

import pytest

from leafhom import cli
from leafhom.derham import (
    cohomology_dims,
    ordinary_derham_dims,
    verify_decomposition_identities,
)
from leafhom.gysin import product_splitting_dims
from leafhom.hochschild import (
    e1_to_e2,
    e2_dims,
    hh0_and_top,
    hh_dims_assuming_collapse,
    hp_dims,
)
from leafhom.models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
)
from leafhom.poisson import (
    BoundaryDims,
    verify_homology_correspondence,
    verify_star_delta_identity,
)
from leafhom.scalars import NumberField
from leafhom.specseq import pages, poisson_filtration
from leafhom.symbols import verify_traces_and_collapse


@pytest.fixture(scope="module")
def field2():
    return NumberField((2,))


@pytest.fixture(scope="module")
def torus2(field2):
    return KroneckerTorus(field2, ["1", "sqrt2"])


@pytest.fixture(scope="module")
def torus3():
    return KroneckerTorus(NumberField((2, 3)), ["1", "sqrt2", "sqrt3"])


@pytest.fixture(scope="module")
def conic2(torus2):
    return ConicDualModel(torus2)


def circle_table(torus, window):
    """The cosphere-circle table the hochschild predictors read."""
    return cohomology_dims(CosphereCircleModel(torus), window)


def predicted_hh(torus, window):
    return hh_dims_assuming_collapse(torus, circle_table(torus, window))


class Stopwatch:
    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.monotonic()

    def check(self) -> float:
        return time.monotonic() - self.start


def report(number: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number:2d} ({name}): {status}{timing}")


def test_criterion_01_torus_cohomology_table(torus2):
    watch = Stopwatch(5.0)
    dims = cohomology_dims(torus2, ModeWindow(bound=3))
    expected = {(k, h): 1 for k in (0, 1) for h in (0, 1)}
    actual = dims.dims
    ok = actual == expected
    elapsed = watch.check()
    report(1, "torus cohomology table", ok and elapsed < watch.limit, elapsed)
    assert actual == expected
    assert elapsed < watch.limit


def test_criterion_02_hochschild_dims(torus2, torus3):
    watch = Stopwatch(30.0)
    dims2 = predicted_hh(torus2, ModeWindow(bound=2))
    dims3 = predicted_hh(torus3, ModeWindow(bound=2))
    ok = dims2 == [2, 6, 6, 2] and dims3 == [2, 8, 12, 8, 2]
    elapsed = watch.check()
    report(2, "hochschild dims", ok and elapsed < watch.limit, elapsed)
    assert dims2 == [2, 6, 6, 2]
    assert dims3 == [2, 8, 12, 8, 2]
    assert elapsed < watch.limit


def test_criterion_03_identity_suites(torus2, field2):
    watch = Stopwatch(10.0)
    one = field2.one
    so3 = LieFrameModel.create(
        field2, 3, {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}}, {2}
    )
    heis = LieFrameModel.create(field2, 3, {(0, 1): {2: one}}, {2})
    r_torus = verify_decomposition_identities(torus2, window=ModeWindow(bound=2))
    r_so3 = verify_decomposition_identities(so3)
    r_heis = verify_decomposition_identities(heis)
    broken = LieFrameModel(field2, 3, {(0, 1): {2: one}, (0, 2): {0: one}}, {2})
    r_broken = verify_decomposition_identities(broken)
    ok = (
        r_torus["passed"]
        and r_torus["boundary_vanishes"]
        and r_so3["passed"]
        and not r_so3["boundary_vanishes"]
        and r_heis["passed"]
        and not r_heis["boundary_vanishes"]
        and not r_broken["passed"]
    )
    elapsed = watch.check()
    report(3, "identity suites", ok and elapsed < watch.limit, elapsed)
    assert r_torus["passed"] and r_torus["boundary_vanishes"]
    assert r_so3["passed"] and not r_so3["boundary_vanishes"]
    assert r_heis["passed"] and not r_heis["boundary_vanishes"]
    assert not r_broken["passed"]
    assert elapsed < watch.limit


def test_criterion_04_star_delta_identity(conic2):
    watch = Stopwatch(60.0)
    rep = verify_star_delta_identity(conic2, ModeWindow(bound=2, l_min=-2, l_max=2))
    elapsed = watch.check()
    report(4, "star-conjugation identity", rep["passed"] and elapsed < watch.limit, elapsed)
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]
    assert elapsed < watch.limit


def test_criterion_05_homology_correspondence(conic2, torus2):
    watch = Stopwatch(60.0)
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    rep = verify_homology_correspondence(
        BoundaryDims(conic2, window, "delta"),
        BoundaryDims(conic2, window, "delta_F"),
        circle_table(torus2, window),
    )
    covered = {(row["k"], row["l"]) for row in rep["rows"]}
    needed = {(k, l) for k in range(0, 4) for l in (-2, -1, 0, 1, 2)}
    range_ok = needed <= covered
    vanishing_ok = all(
        row["delta"] == 0 for row in rep["rows"] if abs(row["l"]) > 1
    )
    elapsed = watch.check()
    ok = rep["passed"] and range_ok and vanishing_ok
    report(5, "homology correspondence triangle", ok and elapsed < watch.limit, elapsed)
    assert rep["passed"]
    assert range_ok and vanishing_ok
    assert elapsed < watch.limit


def test_criterion_06_filtration_spectral_collapse(conic2):
    watch = Stopwatch(120.0)
    window = ModeWindow(bound=2, l_min=-2, l_max=2)
    top = conic2.leaf_dim + conic2.codim
    p = conic2.leaf_dim // 2
    ok = True
    for k in range(0, top + 1):
        fc = poisson_filtration(conic2, k, window)
        result = pages(fc)
        if not result[0].nonzero_weights() <= {k - p}:
            ok = False
        if not all(page.differentials_vanish() for page in result):
            ok = False
        totals = result[-1].total_dims()
        for l in range(-k, top - k + 1):
            if totals.get(-l, 0) != BoundaryDims(conic2, window).get(k + l, l):
                ok = False
    elapsed = watch.check()
    report(6, "filtration collapses at the first page", ok and elapsed < watch.limit, elapsed)
    assert ok
    assert elapsed < watch.limit


def test_criterion_07_gysin_splitting(torus2):
    watch = Stopwatch(60.0)
    ok = True
    window = ModeWindow(bound=2)
    total = CircleProductModel(torus2)
    base_dims, total_dims = cohomology_dims(torus2, window), cohomology_dims(total, window)
    for rep in product_splitting_dims(total, base_dims, total_dims):
        if not rep["passed"]:
            ok = False
        for row in rep["rows"]:
            if row["direct"] != row["predicted"]:
                ok = False
    elapsed = watch.check()
    report(7, "product circle bundle splitting", ok and elapsed < watch.limit, elapsed)
    assert ok
    assert elapsed < watch.limit


def test_criterion_08_page_bridge(torus2, conic2):
    watch = Stopwatch(60.0)
    window = ModeWindow(bound=1, l_min=-2, l_max=2)
    rep = e1_to_e2(BoundaryDims(conic2, window), e2_dims(torus2, circle_table(torus2, window)))
    elapsed = watch.check()
    report(8, "first-to-second page bridge", rep["passed"] and elapsed < watch.limit, elapsed)
    assert rep["passed"], [c for c in rep["cells"] if not c["consistent"]]
    assert elapsed < watch.limit


def test_criterion_09_residue_traces(torus2):
    watch = Stopwatch(60.0)
    window = ModeWindow(bound=1)
    rep = verify_traces_and_collapse(
        torus2, predicted_hh(torus2, window), trials=100, depth=6, seed=2024
    )
    bottom = hh0_and_top(
        torus2, circle_table(torus2, window), cohomology_dims(torus2, window)
    )["HH_0"]
    ok = (
        rep["trace_property_holds"]
        and rep["trace_pairs_checked"] >= 100
        and rep["independence"]["0"] == {"expected": 2, "rank": 2}
        and bottom == 2
    )
    elapsed = watch.check()
    report(9, "residue traces", ok and elapsed < watch.limit, elapsed)
    assert rep["trace_property_holds"] and rep["trace_pairs_checked"] >= 100
    assert rep["independence"]["0"] == {"expected": 2, "rank": 2}
    assert bottom == 2
    assert elapsed < watch.limit


def test_criterion_10_collapse_certificate(torus2):
    watch = Stopwatch(120.0)
    predicted = predicted_hh(torus2, ModeWindow(bound=1))
    rep = verify_traces_and_collapse(torus2, predicted, trials=10, depth=6, seed=7)
    counts_ok = all(
        rep["independence"][str(l)] == {"expected": 2 * comb(3, l), "rank": 2 * comb(3, l)}
        for l in (0, 1, 2)
    )
    match_ok = all(rep["independence"][str(l)]["expected"] == predicted[l] for l in (0, 1, 2))
    ok = (
        all(rep["coboundary_vanishes"].values())
        and counts_ok
        and match_ok
        and rep["collapse_certified"]
    )
    elapsed = watch.check()
    report(10, "collapse certificate", ok and elapsed < watch.limit, elapsed)
    assert all(rep["coboundary_vanishes"].values())
    assert counts_ok and match_ok
    assert rep["collapse_certified"]
    assert elapsed < watch.limit


def test_criterion_11_periodic_dims(torus2, torus3):
    watch = Stopwatch(60.0)
    hp2 = hp_dims(ordinary_derham_dims(CosphereCircleModel(torus2), ModeWindow(bound=1)))
    hp3 = hp_dims(ordinary_derham_dims(CosphereCircleModel(torus3), ModeWindow(bound=1)))
    ok = hp2 == (8, 8) and hp3 == (16, 16)
    elapsed = watch.check()
    report(11, "periodic cyclic dims", ok and elapsed < watch.limit, elapsed)
    assert hp2 == (8, 8)
    assert hp3 == (16, 16)
    assert elapsed < watch.limit


def test_criterion_12_deterministic_reports(tmp_path):
    watch = Stopwatch(240.0)
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}))
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli.main(
            [
                "run",
                "--model",
                str(spec),
                "--analyses",
                "all",
                "--mode-bound",
                "1",
                "--trials",
                "20",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        blob = b"".join(
            (out / f).read_bytes() for f in sorted(p.name for p in out.iterdir())
        )
        digests.append(blob)
    ok = digests[0] == digests[1]
    elapsed = watch.check()
    report(12, "byte-identical seeded runs", ok and elapsed < watch.limit, elapsed)
    assert ok
    assert elapsed < watch.limit
