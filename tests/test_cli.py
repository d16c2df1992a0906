"""End-to-end CLI runs: reports, determinism, exit codes."""

from __future__ import annotations

import ast
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from leafhom import (
    cli,
    derham,
    expansion,
    gysin,
    hochschild,
    models,
    poisson,
    reports,
    specseq,
    symbols,
)
from leafhom.errors import ComplexViolationError
from leafhom.models import ConicDualModel, LieFrameModel, ModeWindow
from leafhom.scalars import NumberField

try:  # test-only dependency
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover
    st = None


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
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["derham", "--xi-range=1:-1"],
            "empty --xi-range '1:-1'; expected a:b with a <= b",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["derham", "--mode-bound", "-1"],
            "negative --mode-bound -1; expected a bound >= 0",
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
        # file errors: "{tmp}" is the test's directory, and these flags override the defaults
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["run", "--analyses", "all", "--out", "{tmp}/model.json"],
            "cannot create --out",
        ),
        (
            {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
            ["derham", "--model", "{tmp}"],
            "cannot read model spec",
        ),
    ],
    ids=[
        "window-too-small",
        "empty-xi-range",
        "negative-mode-bound",
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
        "out-is-a-file",
        "model-is-a-directory",
    ],
)
def test_bad_input_exits_2_with_one_line(spec, args, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    command, *flags = (a.replace("{tmp}", str(tmp_path)) for a in args)
    code = cli.main([command, "--model", str(path), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--depth", "expansion depth must be nonnegative"),
        ("--trials", "trial count must be nonnegative"),
    ],
)
def test_negative_symbol_flag_rejected_before_any_analysis(
    flag, message, torus_spec, tmp_path, capsys
):
    # the flag is at fault, not the model: no analysis runs and no report is written
    out = tmp_path / "o"
    args = ["run", "--model", str(torus_spec), "--analyses", "all", flag, "-1", "--out", str(out)]
    code = cli.main(args)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} -1: {message}\n"
    assert not out.exists()


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
    assert ctx.table(affine).dims == {(0, 0): 1, (1, 0): 1}
    assert table.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
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
    real = models.diophantine_certificate
    calls = []

    def counted(torus):
        calls.append(torus)
        return real(torus)

    monkeypatch.setattr(models, "diophantine_certificate", counted)
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


def _modules_loaded(statement: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter loads running ``statement``, past its own preloads."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)  # site hooks preload certifi and the like\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


def test_start_up_loads_only_the_analyses_a_run_selects(torus_spec, tmp_path):
    # each runner imports its own modules, and no record is a dataclass
    args = ["run", "--model", str(torus_spec), "--analyses", "derham,hochschild,gysin",
            "--mode-bound", "1", "--out", str(tmp_path / "o")]
    loaded = _modules_loaded("from leafhom import cli\nassert cli.main(sys.argv[1:]) == 0", *args)
    assert {"leafhom.derham", "leafhom.hochschild", "leafhom.gysin"} <= loaded
    unused = {"leafhom.symbols", "leafhom.specseq", "leafhom.expansion", "dataclasses"}
    assert sorted(loaded & unused) == []
    assert "dataclasses" not in _modules_loaded("import leafhom")


def test_analysis_documents_equal_their_written_json(torus_spec, tmp_path):
    # a document holds only what JSON writes back as itself: no tuple, no
    # int key, no object that merely serializes alike
    cfg = cli.RunConfig(torus_spec, cli.ANALYSES, ModeWindow(bound=1), trials=2, out_dir=tmp_path)
    model = cli.make_model(json.loads(torus_spec.read_text()))
    ctx = cli.RunContext(model, cfg.window)
    for name, runner in cli._RUNNERS.items():
        doc, passed = runner(ctx, cfg)
        assert passed, name
        assert doc == json.loads(reports.canonical_json(doc)), name


def test_broken_complex_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # the broken affine cone of test_poisson.test_broken_cone_names_block_and_line
    field = NumberField(())

    def broken_cone(_spec):
        cone = ConicDualModel(LieFrameModel.create(field, 2, {(0, 1): {0: field.one}}, {0}))
        cone._dual_d[1] = [(field.one, (0, 1))]
        return cone

    with pytest.raises(ComplexViolationError) as engine:
        derham.cohomology_dims(broken_cone(None), ModeWindow(bound=0), homogeneity=-2)
    monkeypatch.setattr(cli, "make_model", broken_cone)
    spec, out = tmp_path / "cone.json", tmp_path / "o"
    spec.write_text("{}")
    analyses = "derham,poisson,specseq"
    args = ["run", "--model", str(spec), "--analyses", analyses, "--mode-bound", "0"]
    assert cli.main([*args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)
    assert "Traceback" not in captured.err + captured.out
    summary = json.loads((out / "summary.json").read_text())
    error = summary["analyses"]["derham"]["error"]
    assert error == str(engine.value) and error in lines[0]
    assert "block (0, (), -2)" in error and "between degrees 0 and 2" in error
    # the run went on: poisson ran and wrote its report
    assert summary["analyses"]["poisson"] == {"passed": False, "report": "poisson.json"}
    # the filtration's d^2 failure names its operator and offset
    error = summary["analyses"]["specseq"]["error"]
    assert error in lines[1]
    assert error == "delta filtration at offset k = 0: d^2 != 0 between degrees -2 and 0"
    assert summary["passed"] is False and not (out / "derham.json").exists()
    assert not (out / "specseq.json").exists()


# -- CLI fuzzer -------------------------------------------------------------------

VALID_SPECS = (
    {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]},
    {"family": "lie_frame", "n": 2, "brackets": [[1, 2, [[1, "1"]]]], "leaf": [1]},
    {"family": "conic_dual", "base": {"family": "kronecker_torus", "alpha": ["1", "sqrt2"]}},
    {"family": "cosphere_circle", "base": {"family": "kronecker_torus", "alpha": ["1", "2"]}},
    {"family": "circle_product", "base": {"family": "kronecker_torus", "alpha": ["1", "1"]}},
)


def run_fuzzed(spec: dict, flags: list[str]) -> None:
    """One CLI run: exit 0, 1 or 2, no exception, and exit 2 prints one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", "--model", str(path), *flags, "--out", str(Path(tmp) / "o")])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (spec, flags)
    assert all(line.startswith("error: ") for line in lines), (spec, flags, lines)
    if code == 2:
        assert len(lines) == 1, (spec, flags, lines)


if st is not None:

    VALUE = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-3, 5)
        | st.text(max_size=4)
        | st.sampled_from(("0", "1", "-1/2", "sqrt2", "sqrt3", "1+sqrt2", "i")),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=4,
    )
    FIELD = st.fixed_dictionaries({"sqrts": st.lists(st.integers(-1, 7), max_size=3)})

    @st.composite
    def mutated_specs(draw):
        """A valid spec of one of the five families with up to two mutations."""
        spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
        for _ in range(draw(st.integers(0, 2))):
            node = spec
            while isinstance(node.get("base"), dict) and draw(st.booleans()):
                node = node["base"]
            key = draw(st.sampled_from(sorted(node) + ["field", "extra"]))
            action = draw(st.sampled_from(("set", "delete", "entry", "append")))
            if action == "delete":
                node.pop(key, None)
            elif action == "append" and isinstance(node.get(key), list):
                node[key].append(draw(VALUE))
            elif action == "entry" and isinstance(node.get(key), list) and node[key]:
                node[key][draw(st.integers(0, len(node[key]) - 1))] = draw(VALUE)
            else:
                node[key] = copy.deepcopy(draw(VALUE | FIELD | st.sampled_from(VALID_SPECS)))
        return spec

    @st.composite
    def flag_lists(draw):
        flags = ["--mode-bound", draw(st.sampled_from(("0", "1")))]
        xi_range = draw(st.none() | st.sampled_from(("-1:1", "-2:2", "0:1", "1:-1", "a:b")))
        if xi_range is not None:
            flags.append(f"--xi-range={xi_range}")
        flags += ["--depth", str(draw(st.integers(-1, 6)))]
        flags += ["--trials", str(draw(st.integers(-1, 3)))]
        flags += ["--format", draw(st.sampled_from(("json", "markdown", "csv")))]
        subset = st.lists(st.sampled_from(cli.ANALYSES), min_size=1, max_size=3, unique=True)
        return flags + ["--analyses", ",".join(draw(subset | st.just(["all"])))]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_specs(), flag_lists())
    def test_cli_fuzz_exits_0_1_or_2_without_traceback(spec, flags):
        run_fuzzed(spec, flags)

else:  # pragma: no cover

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_cli_fuzz_exits_0_1_or_2_without_traceback():
        pass
