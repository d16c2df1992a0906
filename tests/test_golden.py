"""Byte-for-byte regression of whole CLI runs against committed reports.

The reports under ``tests/data/golden/<case>/`` were written by the CLI with
the arguments below; any change to a number, a key or the rendering shows up
here as a differing file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from leafhom import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "kronecker_t2": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        [
            "--analyses",
            "derham,poisson,gysin,specseq,hochschild",
            "--mode-bound",
            "1",
            "--seed",
            "11",
        ],
        0,
    ),
    # the criterion-12 symbol configuration
    "kronecker_t2_symbols": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        [
            "--analyses",
            "symbols",
            "--mode-bound",
            "1",
            "--trials",
            "20",
            "--depth",
            "6",
            "--seed",
            "11",
        ],
        0,
    ),
    # the criterion-12 run: every analysis in one process, so the symbols and
    # hochschild reports read tables that poisson and gysin computed first
    "kronecker_t2_all": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        [
            "--analyses",
            "all",
            "--mode-bound",
            "1",
            "--trials",
            "20",
            "--depth",
            "6",
            "--seed",
            "11",
        ],
        0,
    ),
    # T^3 over Q(i, sqrt2, sqrt3): the t3_blocks benchmark spec at seed 1
    "kronecker_t3": (
        {"family": "kronecker_torus", "alpha": ["1", "1/3*sqrt2", "-2/3*sqrt3"]},
        ["--analyses", "derham,hochschild,gysin", "--mode-bound", "1", "--seed", "1"],
        0,
    ),
    # resonant mode (1, -1, 0) in the window: nonzero d_F kernels in the basic complex
    "circle_product_resonant": (
        {"family": "circle_product", "base": {"family": "kronecker_torus", "alpha": ["1", "1"]}},
        ["--analyses", "derham", "--mode-bound", "1"],
        0,
    ),
    # the conic cohomology_by_homogeneity tables
    "conic_t2": (
        {"family": "conic_dual", "base": {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}},
        ["--analyses", "derham,poisson,specseq", "--mode-bound", "1"],
        0,
    ),
    # a leaf-line Lie frame: poisson and specseq run on its punctured dual cone
    "lie_frame_2d": (
        {"family": "lie_frame", "n": 2, "brackets": [[1, 2, [[1, "1"]]]], "leaf": [1]},
        ["--analyses", "derham,poisson,specseq"],
        0,
    ),
    # the cone beyond T^2: the kronecker_t3 torus and a resonant T^3
    "kronecker_t3_cone": (
        {"family": "kronecker_torus", "alpha": ["1", "1/3*sqrt2", "-2/3*sqrt3"]},
        ["--analyses", "poisson,specseq,hochschild", "--mode-bound", "1", "--seed", "1"],
        0,
    ),
    "resonant_t3_cone": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt2-1"]},
        ["--analyses", "poisson,specseq,hochschild", "--mode-bound", "1", "--seed", "1"],
        0,
    ),
    # the cone over 3-D leaf-line frames: so(3) and the Heisenberg algebra
    "so3_cone": (
        {
            "family": "lie_frame",
            "n": 3,
            "brackets": [[1, 2, [[3, "1"]]], [2, 3, [[1, "1"]]], [1, 3, [[2, "-1"]]]],
            "leaf": [3],
        },
        ["--analyses", "poisson,specseq"],
        0,
    ),
    "heisenberg_cone": (
        {"family": "lie_frame", "n": 3, "brackets": [[1, 2, [[3, "1"]]]], "leaf": [3]},
        ["--analyses", "poisson,specseq"],
        0,
    ),
    # the markdown and csv renderings of the same two reports and the summary
    "kronecker_t2_markdown": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        ["--analyses", "derham,gysin", "--mode-bound", "1", "--format", "markdown"],
        0,
    ),
    "kronecker_t2_csv": (
        {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
        ["--analyses", "derham,gysin", "--mode-bound", "1", "--format", "csv"],
        0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_reports(case, tmp_path):
    spec, args, expected_code = CASES[case]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = cli.main(["run", "--model", str(model), *args, "--out", str(out)])
    assert code == expected_code
    golden = GOLDEN / case
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
