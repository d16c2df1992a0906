"""Batch front end: parse a model spec, run analyses, emit reports.

Every analysis returns its report document, which is written as one JSON
report (plus an optional markdown/csv rendering) into the output
directory, and a summary collects the pass/fail status, the small-divisor
certificate and the collapse certificate.  Runs are deterministic given
the seed; the exit status is 1 when an exact check failed and 2 when an
analysis cannot run on the model, in which case the summary records the
error and the run stops.  A broken complex found by the engine
(ComplexViolationError) is a failed check: the summary records its
message in place of the report and the run goes on.  The analyses of one
run share a `RunContext`, so each derived model and each leafwise table
is computed once per run.  Of the analyses only `derham`, which the context
needs, is imported here; each runner imports its own, so a run loads (and,
with no cached bytecode, compiles) only what it selects.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from . import derham
from .errors import ComplexViolationError, LeafhomError, SpecParseError, UnsupportedModelError
from .models import (
    CircleProductModel,
    ConicDualModel,
    CosphereCircleModel,
    FoliatedModel,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    make_model,
    torus_of,
)
from .reports import SCHEMA_VERSION, write_report

if TYPE_CHECKING:
    from . import poisson

ANALYSES = ("derham", "poisson", "gysin", "specseq", "hochschild", "symbols")


class RunConfig:
    """The settings of one run, checked when built, before any analysis runs."""

    def __init__(
        self,
        model_path: Path,
        analyses: tuple[str, ...],
        window: ModeWindow = ModeWindow(),
        depth: int = 6,
        trials: int = 100,
        seed: int = 0,
        out_dir: Path = Path("leafhom-out"),
        format: str = "json",
    ):
        if not analyses:
            raise SpecParseError("at least one analysis must be selected")
        for a in analyses:
            if a not in ANALYSES:
                raise SpecParseError(f"unknown analysis {a!r}")
        if format not in ("json", "markdown", "csv"):
            raise SpecParseError(f"unknown output format {format!r}")
        # flags only the symbols analysis reads
        if depth < 0:
            raise SpecParseError(f"--depth {depth}: expansion depth must be nonnegative")
        if trials < 0:
            raise SpecParseError(f"--trials {trials}: trial count must be nonnegative")
        self.model_path, self.analyses, self.window = model_path, analyses, window
        self.depth, self.trials, self.seed = depth, trials, seed
        self.out_dir, self.format = out_dir, format


# -- the run context ----------------------------------------------------------


class RunContext:
    """What one run computes once: the derived models and their tables.

    `run` builds one context and hands it to every analysis.  The derived
    models (torus, cone, cosphere-circle bundle, circle product) are built on
    first use, each leafwise table is computed once per model instance and
    homogeneity, each d_F `derham.rank_pass` once per model instance and
    window (the frame tables, the basic table and the gysin isomorphism
    checks read it), and the cone's one boundary table computes each line
    once per operator.  The memos are keyed by the model object, never by its
    repr: two models can print alike and differ (`LieFrameModel.__repr__`
    omits the structure constants).
    """

    def __init__(self, model: FoliatedModel, window: ModeWindow):
        self.model = model
        self.window = window
        self._tables: dict[tuple[FoliatedModel, int | None], derham.BigradedDims] = {}
        self._passes: dict[tuple[FoliatedModel, ModeWindow], derham.RankPass] = {}

    @cached_property
    def torus(self) -> KroneckerTorus:
        return torus_of(self.model)

    @cached_property
    def cone(self) -> ConicDualModel:
        """The punctured dual cone the poisson, specseq and hochschild analyses use."""
        model = self.model
        if isinstance(model, ConicDualModel):
            return model
        if isinstance(model, LieFrameModel) and model.leaf_dim == 1:
            return ConicDualModel(model)
        return ConicDualModel(self.torus)

    @cached_property
    def cosphere(self) -> CosphereCircleModel:
        return CosphereCircleModel(self.torus)

    @cached_property
    def circle_product(self) -> CircleProductModel:
        return CircleProductModel(self.torus)

    def table(self, model: FoliatedModel, homogeneity: int | None = None) -> derham.BigradedDims:
        """The leafwise cohomology table of ``model`` on the run's window."""
        key = (model, homogeneity)
        if key not in self._tables:
            self._tables[key] = derham.cohomology_dims(
                model, self.window, homogeneity, self.rank_pass
            )
        return self._tables[key]

    def rank_pass(self, model: FoliatedModel, window: ModeWindow) -> derham.RankPass:
        """The d_F pass of ``model`` over ``window``, checked and ranked once per run."""
        key = (model, window)
        if key not in self._passes:
            self._passes[key] = derham.rank_pass(model, window)
        return self._passes[key]

    @cached_property
    def boundary(self) -> poisson.BoundaryDims:
        """The cone's delta and delta_F homology, each line computed once per operator."""
        from . import poisson
        return poisson.BoundaryDims(self.cone, self.window)


# -- analyses -----------------------------------------------------------------


def _run_derham(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    model = ctx.model
    identities = derham.verify_decomposition_identities(model, _small(cfg.window))
    doc: dict = {
        "source_ops": [
            "derham.verify_decomposition_identities",
            "derham.cohomology_dims",
            "derham.basic_cohomology_dims",
        ],
        "identities": identities,
    }
    passed = identities["passed"]
    if isinstance(model, ConicDualModel):
        tables = {}
        for l in cfg.window.homogeneities():
            tables[str(l)] = ctx.table(model, l).to_json()
        doc["cohomology_by_homogeneity"] = tables
    else:
        dims = ctx.table(model)
        doc["cohomology"] = dims.to_json()
        doc["basic"] = derham.basic_cohomology_dims(model, cfg.window, ctx.rank_pass)
        if dims.certificate is not None:
            doc["certificate"] = dims.certificate.to_json()
            doc["formal"] = dims.formal
        try:
            doc["ordinary_betti"] = derham.ordinary_derham_dims(model, cfg.window)
            doc["source_ops"].append("derham.ordinary_derham_dims")
        except UnsupportedModelError:
            pass
    return doc, passed


def _run_poisson(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    from . import poisson
    conic = ctx.cone
    star = poisson.verify_star_delta_identity(conic, cfg.window)
    doc = {
        "source_ops": [
            "poisson.verify_star_delta_identity",
            "poisson.verify_homology_correspondence",
        ],
        "tensor": poisson.poisson_tensor(conic),
        "star_delta_identities": star,
    }
    passed = star["passed"]
    if conic.torus is not None:
        table = poisson.verify_homology_correspondence(ctx.boundary, ctx.table(ctx.cosphere))
        doc["homology_correspondence"] = table
        passed = passed and table["passed"]
    return doc, passed


def _run_gysin(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    from . import gysin
    total = ctx.circle_product
    base_dims, total_dims = ctx.table(ctx.torus), ctx.table(total)
    reports = gysin.product_splitting_dims(total, base_dims, total_dims, ctx.rank_pass)
    return (
        {
            "source_ops": ["gysin.product_splitting_dims"],
            "splitting_by_transverse_degree": {
                str(rep["transverse_degree"]): rep for rep in reports
            },
        },
        all(rep["passed"] for rep in reports),
    )


def _run_specseq(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    from . import specseq
    conic, direct = ctx.cone, ctx.boundary
    top = conic.leaf_dim + conic.codim
    p = conic.leaf_dim // 2
    out = {}
    passed = True
    for k in range(0, top + 1):
        fc = specseq.poisson_filtration(conic, k, cfg.window)
        result = specseq.pages(fc)
        first, final = result[0], result[-1]
        single_row = first.nonzero_weights() <= {k - p}
        collapse = all(page.differentials_vanish() for page in result)
        totals = final.total_dims()
        limit_ok = all(
            totals.get(-l, 0) == direct.get("delta", k + l, l) for l in range(-k, top - k + 1)
        )
        out[str(k)] = {
            "pages": [p_.to_json() for p_ in result],
            "single_row": single_row,
            "collapses_at_first_page": collapse,
            "limit_matches_direct_dims": limit_ok,
        }
        passed = passed and single_row and collapse and limit_ok
    return (
        {
            "source_ops": ["specseq.poisson_filtration", "specseq.pages"],
            "by_offset": out,
        },
        passed,
    )


def _run_hochschild(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    from . import hochschild
    torus = ctx.torus
    circle = ctx.table(ctx.cosphere)
    e2 = hochschild.e2_dims(torus, circle)
    bridge = hochschild.e1_to_e2(ctx.boundary, e2)
    doc = {
        "source_ops": [
            "hochschild.e2_dims",
            "hochschild.hh_dims_assuming_collapse",
            "hochschild.hh0_and_top",
            "hochschild.hp_dims",
            "hochschild.e1_to_e2",
        ],
        "e2_table": [{"k": k, "h": h, "dim": v} for (k, h), v in sorted(e2.items())],
        "hh_dims_assuming_collapse": hochschild.hh_dims_assuming_collapse(torus, circle),
        "collapse_caveat": (
            "total dimensions assume second-page collapse; the symbols analysis"
            " certifies it for this family when its cocycle counts match"
        ),
        "bottom_top": hochschild.hh0_and_top(torus, circle, ctx.table(torus)),
        "hp_dims": list(
            hochschild.hp_dims(derham.ordinary_derham_dims(ctx.cosphere, cfg.window))
        ),
        "page_bridge": bridge,
        "collapse_status": "assumed; run the symbols analysis for the certificate",
    }
    return doc, bridge["passed"]


def _run_symbols(ctx: RunContext, cfg: RunConfig) -> tuple[dict, bool]:
    from . import hochschild, symbols
    torus = ctx.torus
    if torus.resonant:
        return (
            {
                "source_ops": ["symbols.verify_traces_and_collapse"],
                "skipped": (
                    "the trace suite requires a nonresonant frequency vector;"
                    " no check was run (and none failed)"
                ),
            },
            True,
        )
    predicted = hochschild.hh_dims_assuming_collapse(torus, ctx.table(ctx.cosphere))
    report = symbols.verify_traces_and_collapse(
        torus, predicted, trials=cfg.trials, depth=cfg.depth, seed=cfg.seed
    )
    return (
        {"source_ops": ["symbols.verify_traces_and_collapse"], "suite": report},
        report["passed"],
    )


_RUNNERS = {
    "derham": _run_derham,
    "poisson": _run_poisson,
    "gysin": _run_gysin,
    "specseq": _run_specseq,
    "hochschild": _run_hochschild,
    "symbols": _run_symbols,
}


def _small(window: ModeWindow) -> ModeWindow:
    """The identity window: bound at most 1, and the (at most) three l of the range nearest 0."""
    lo = max(window.l_min, min(-1, window.l_max - 2))
    return ModeWindow(min(window.bound, 1), lo, min(lo + 2, window.l_max))


# -- orchestration ----------------------------------------------------------------


def run(config: RunConfig) -> int:
    """Run the selected analyses; returns the process exit status."""
    try:
        model = make_model(json.loads(config.model_path.read_text(encoding="utf-8")))
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: cannot read model spec {config.model_path}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed model spec {config.model_path}:{exc.lineno}:{exc.colno}:"
            f" {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except LeafhomError as exc:
        print(f"error: invalid model spec: {exc}", file=sys.stderr)
        return 2
    # an integer beyond Python's digit limit, or nesting beyond the recursion limit
    except (ValueError, RecursionError) as exc:
        print(f"error: malformed model spec {config.model_path}: {exc}", file=sys.stderr)
        return 2
    try:  # before any analysis runs, so a bad --out costs no work
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out {config.out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "model": repr(model),
        "config": {
            "analyses": list(config.analyses),
            "window": config.window.to_json(),
            "depth": config.depth,
            "trials": config.trials,
            "seed": config.seed,
            "format": config.format,
        },
        "analyses": {},
    }
    ctx = RunContext(model, config.window)
    if model.torus is not None:
        cert = model.torus.certificate
        summary["certificate"] = cert.to_json()
        if cert.verdict != "diophantine":
            summary["banner"] = (
                "formal (non-Diophantine): dimension tables hold in the"
                " trigonometric-polynomial category only"
            )
    all_passed = True
    for name in config.analyses:
        runner = _RUNNERS[name]
        try:
            doc, passed = runner(ctx, config)
        except ComplexViolationError as exc:
            # the engine found a broken complex: a failed check, and the run goes on
            print(f"error: analysis {name!r} found a broken complex: {exc}", file=sys.stderr)
            summary["analyses"][name] = {"passed": False, "error": str(exc)}
            all_passed = False
            continue
        except LeafhomError as exc:
            print(f"error: analysis {name!r} cannot run on this model: {exc}", file=sys.stderr)
            summary["analyses"][name] = {"passed": False, "error": str(exc)}
            summary["passed"] = False
            write_report(config.out_dir, "summary", summary, config.format)
            return 2
        doc = {"schema_version": SCHEMA_VERSION, "analysis": name, **doc}
        write_report(config.out_dir, name, doc, config.format)
        summary["analyses"][name] = {"passed": passed, "report": f"{name}.json"}
        if name == "symbols" and "suite" in doc:
            summary["collapse_certified"] = doc["suite"]["collapse_certified"]
        all_passed = all_passed and passed
        status = "ok" if passed else "FAILED"
        print(f"{name}: {status}")
    summary["passed"] = all_passed
    write_report(config.out_dir, "summary", summary, config.format)
    return 0 if all_passed else 1


def _parse_window(args: argparse.Namespace) -> ModeWindow:
    l_min, l_max = -2, 2
    if args.xi_range:
        try:
            lo, hi = args.xi_range.split(":")
            l_min, l_max = int(lo), int(hi)
        except ValueError as exc:
            raise SpecParseError(
                f"malformed --xi-range {args.xi_range!r}; expected a:b"
            ) from exc
        if l_min > l_max:
            raise SpecParseError(f"empty --xi-range {args.xi_range!r}; expected a:b with a <= b")
    if args.mode_bound < 0:
        raise SpecParseError(f"negative --mode-bound {args.mode_bound}; expected a bound >= 0")
    return ModeWindow(bound=args.mode_bound, l_min=l_min, l_max=l_max)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="path to the model spec JSON")
    parser.add_argument("--mode-bound", type=int, default=2, help="per-axis Fourier bound")
    parser.add_argument("--xi-range", default=None, help="radial degree range a:b")
    parser.add_argument("--depth", type=int, default=6, help="symbol expansion depth")
    parser.add_argument("--trials", type=int, default=100, help="random trace trials")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", default="leafhom-out", help="report output directory")
    parser.add_argument(
        "--format", default="json", choices=("json", "markdown", "csv"),
        help="extra rendering next to the JSON reports",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafhom",
        description="Exact homological invariants of linear foliated models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ANALYSES:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        _add_common(p)
    p_run = sub.add_parser("run", help="run several analyses")
    _add_common(p_run)
    p_run.add_argument(
        "--analyses",
        default="all",
        help="comma-separated subset of analyses, or 'all'",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            wanted = (
                ANALYSES
                if args.analyses == "all"
                else tuple(a.strip() for a in args.analyses.split(",") if a.strip())
            )
        else:
            wanted = (args.command,)
        config = RunConfig(
            model_path=Path(args.model),
            analyses=wanted,
            window=_parse_window(args),
            depth=args.depth,
            trials=args.trials,
            seed=args.seed,
            out_dir=Path(args.out),
            format=args.format,
        )
    except LeafhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
