"""End-to-end CLI runs: reports, determinism, exit codes."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from leafhom import cli, derham, expansion, gysin, hochschild, poisson, specseq, symbols
from leafhom.models import LieFrameModel, ModeWindow
from leafhom.scalars import NumberField


@pytest.fixture()
def torus_spec(tmp_path: Path) -> Path:
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}))
    return path


@pytest.fixture()
def resonant_spec(tmp_path: Path) -> Path:
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps({"family": "kronecker_torus", "alpha": ["1", "2"]}))
    return path


def test_derham_report_table(torus_spec, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        ["derham", "--model", str(torus_spec), "--mode-bound", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "derham.json").read_text())
    dims = {tuple(cell[:2]): cell[2] for cell in doc["cohomology"]["dims"]}
    assert dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert doc["certificate"]["verdict"] == "diophantine"
    assert doc["identities"]["passed"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] and summary["analyses"]["derham"]["passed"]


def test_run_subset(torus_spec, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--model",
            str(torus_spec),
            "--analyses",
            "derham,hochschild",
            "--mode-bound",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "derham.json").exists()
    assert (out / "hochschild.json").exists()
    assert not (out / "poisson.json").exists()
    doc = json.loads((out / "hochschild.json").read_text())
    assert doc["hh_dims_assuming_collapse"] == [2, 6, 6, 2]
    assert doc["hp_dims"] == [8, 8]


def test_resonant_run_banner(resonant_spec, tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--model",
            str(resonant_spec),
            "--analyses",
            "derham,symbols",
            "--mode-bound",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "formal (non-Diophantine)" in summary["banner"]
    assert summary["certificate"]["verdict"] == "resonant"
    sym = json.loads((out / "symbols.json").read_text())
    assert "skipped" in sym
    der = json.loads((out / "derham.json").read_text())
    assert der["cohomology"]["unbounded"] is True


def test_determinism_byte_identical(torus_spec, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            [
                "run",
                "--model",
                str(torus_spec),
                "--analyses",
                "derham,symbols",
                "--mode-bound",
                "1",
                "--trials",
                "10",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for fname in ("derham.json", "symbols.json", "summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_corrupted_composition_fails(torus_spec, tmp_path, monkeypatch):
    # corrupt the expansion coefficients: u^k instead of the falling factorial
    monkeypatch.setattr(expansion, "_falling", lambda u, k: u**k)
    out = tmp_path / "out"
    code = cli.main(
        [
            "symbols",
            "--model",
            str(torus_spec),
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    doc = json.loads((out / "symbols.json").read_text())
    assert doc["suite"]["trace_property_holds"] is False
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_malformed_spec_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["derham", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err


def test_unknown_analysis_rejected(torus_spec, tmp_path):
    code = cli.main(
        [
            "run",
            "--model",
            str(torus_spec),
            "--analyses",
            "nonsense",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_unsupported_pairing(tmp_path):
    lie = tmp_path / "lie.json"
    lie.write_text(
        json.dumps(
            {
                "family": "lie_frame",
                "n": 3,
                "brackets": [[1, 2, [[3, "1"]]]],
                "leaf": [3],
            }
        )
    )
    code = cli.main(["hochschild", "--model", str(lie), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "spec, args, message",
    [
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["hochschild", "--mode-bound", "1", "--xi-range=-1:1"],
            "cannot hold the first-page degrees",
        ),
        (
            {"family": "lie_frame", "n": 2, "brackets": [[1, 2, [[3]]]], "leaf": [1]},
            ["derham"],
            "malformed bracket targets",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2", "sqrt3", "sqrt5"]},
            ["derham"],
            "at most two quadratic radicals are supported",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["run", "--analyses", "symbols", "--trials", "-3"],
            "trial count must be nonnegative",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["run", "--analyses", "symbols", "--depth", "-5", "--trials", "5"],
            "expansion depth must be nonnegative",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt\u00b2"]},
            ["derham"],
            "malformed radical",
        ),
        *(
            (
                {"family": "kronecker_torus", "alpha": ["1", "sqrt2"], "field": field},
                ["derham"],
                'field must be an object {"sqrts": [int, ...]}',
            )
            for field in (3, {"sqrts": "ab"}, {"sqrts": [None]}, {"sqrts": [2.5]}, {"sqrts": [True]})
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt100000000000000000039"]},
            ["derham"],
            "radicand 100000000000000000039 exceeds 10^12",
        ),
        (
            {"family": "lie_frame", "n": 2, "brackets": 3, "leaf": [1]},
            ["derham"],
            "needs a 'brackets' list",
        ),
        (
            {"family": "lie_frame", "n": 2, "brackets": [[1, float("inf"), []]], "leaf": [1]},
            ["derham"],
            "malformed bracket entry",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt" + "7" * 5000]},
            ["derham"],
            "radicand of 5000 digits exceeds 10^12",
        ),
        # raw JSON text: the integer has more digits than int() converts
        (
            '{"family": "lie_frame", "n": ' + "7" * 5000 + ', "brackets": [], "leaf": [1]}',
            ["derham"],
            "malformed model spec",
        ),
    ],
    ids=[
        "window-too-small",
        "bracket-target",
        "three-radicals",
        "negative-trials",
        "negative-depth",
        "non-ascii-digit",
        "field-not-object",
        "field-sqrts-string",
        "field-sqrts-null",
        "field-sqrts-float",
        "field-sqrts-bool",
        "huge-radicand",
        "brackets-not-list",
        "infinite-bracket-index",
        "radicand-beyond-int-digit-limit",
        "integer-beyond-int-digit-limit",
    ],
)
def test_bad_input_exits_2_with_one_line(spec, args, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    code = cli.main([*args, "--model", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


def test_exit_2_still_writes_summary(tmp_path, capsys):
    lie = tmp_path / "lie.json"
    lie.write_text(
        json.dumps({"family": "lie_frame", "n": 2, "brackets": [[1, 2, [[1, "1"]]]], "leaf": [1]})
    )
    out = tmp_path / "o"
    code = cli.main(["run", "--model", str(lie), "--analyses", "derham,gysin", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["analyses"]["derham"] == {"passed": True, "report": "derham.json"}
    gysin = summary["analyses"]["gysin"]
    assert gysin["passed"] is False and gysin["error"] in err
    assert "\n" not in gysin["error"]
    assert not (out / "gysin.json").exists()


def test_lie_model_derham_and_poisson(tmp_path):
    lie = tmp_path / "lie.json"
    lie.write_text(
        json.dumps(
            {
                "family": "lie_frame",
                "n": 2,
                "brackets": [[1, 2, [[1, "1"]]]],
                "leaf": [1],
            }
        )
    )
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--model", str(lie), "--analyses", "derham,poisson", "--out", str(out)]
    )
    assert code == 0
    pois = json.loads((out / "poisson.json").read_text())
    assert pois["star_delta_identities"]["passed"]


def test_xi_range_flag(torus_spec, tmp_path):
    code = cli.main(
        [
            "poisson",
            "--model",
            str(torus_spec),
            "--mode-bound",
            "1",
            "--xi-range=-2:2",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 0
    code = cli.main(
        [
            "poisson",
            "--model",
            str(torus_spec),
            "--xi-range",
            "nonsense",
            "--out",
            str(tmp_path / "o2"),
        ]
    )
    assert code == 2


def test_one_run_computes_each_table_once(torus_spec, tmp_path, monkeypatch):
    # torus, cosphere-circle and circle-product tables: each read by several
    # analyses, computed once
    real = derham.cohomology_dims
    calls = []

    def counted(model, *args, **kwargs):
        calls.append(repr(model))
        return real(model, *args, **kwargs)

    # every module binding the name, so a direct import cannot bypass the count
    for module in (cli, derham, gysin, hochschild, poisson, specseq, symbols):
        if getattr(module, "cohomology_dims", None) is real:
            monkeypatch.setattr(module, "cohomology_dims", counted)
    out = tmp_path / "out"
    args = ["run", "--model", str(torus_spec), "--analyses", "all", "--mode-bound", "1"]
    assert cli.main([*args, "--trials", "2", "--out", str(out)]) == 0
    assert len(calls) == 3 and len(set(calls)) == 3, calls


def test_run_context_memo_is_keyed_by_model_instance():
    # two frames that print alike: only the structure constants differ
    field = NumberField(())
    abelian = LieFrameModel.create(field, 2, {}, {1})
    affine = LieFrameModel.create(field, 2, {(0, 1): {0: field.one}}, {1})
    assert repr(abelian) == repr(affine)
    ctx = cli.RunContext(abelian, ModeWindow(bound=1))
    table = ctx.table(abelian)
    assert ctx.table(affine).nonzero() == {(0, 0): 1, (1, 0): 1}
    assert table.nonzero() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert ctx.table(abelian) is table



def test_deeply_nested_spec_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = cli.main(["run", "--model", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: malformed model spec {path}: ")


def test_nesting_at_the_recursion_limit_exits_2_with_one_line(tmp_path, capsys):
    # a little below the limit the JSON decoder succeeds and building the
    # model recurses through the nested bases instead; every depth ends in
    # one line, and some depth reaches the limit while building
    limit, built_too_deep = sys.getrecursionlimit(), False
    spec = json.dumps({"family": "kronecker_torus", "alpha": ["1", "sqrt2"]})
    path = tmp_path / "model.json"
    for depth in range(limit - 200, limit + 1):
        path.write_text('{"family": "conic_dual", "base": ' * depth + spec + "}" * depth)
        code = cli.main(["derham", "--model", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), (depth, err[:200])
        built_too_deep |= "recursion" in err and "decoding" not in err
    assert built_too_deep


def test_one_certificate_per_run(torus_spec, tmp_path, monkeypatch):
    real = derham.diophantine_certificate
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return real(alpha)

    monkeypatch.setattr(derham, "diophantine_certificate", counted)
    args = ["run", "--model", str(torus_spec), "--analyses", "all", "--mode-bound", "1"]
    assert cli.main([*args, "--trials", "2", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_package_imports_only_the_stdlib():
    # hypothesis and sympy stay test-only: every import of the package is
    # relative or a standard-library module
    outside = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "leafhom" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert not outside
