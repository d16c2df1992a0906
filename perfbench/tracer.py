"""In-memory span tracer for one leafhom CLI invocation.

Run as ``python3 perfbench/tracer.py TRACE_OUT INVOCATION_ID -- <leafhom args>``
with ``src`` on ``PYTHONPATH``.  It wraps the public functions and methods of
every ``leafhom`` module from the outside (the package itself is not edited),
runs ``leafhom.cli.main`` in-process, and when the run ends writes the span
table to ``TRACE_OUT.spans`` (see `Tracer.write_spans`) and ``TRACE_OUT`` as
JSON: per-function call counts, self time per layer derived from the spans,
and inclusive time of the functions named in `call_times`.

Spans.  A call opens a span when it enters a different layer (module) than
the innermost open span, or when its inclusive time is printed
(`always_span`).  A span records name, start, end and parent span; the
invocation id is recorded once per trace.  The scalar
layer is the bottom of the stack and calls nothing else in the package, so
scalar calls open no span: they are counted, and their time is added to the
calling span as leaf time.  This keeps memory bounded by the number of layer
crossings above the scalars.  A layer's self time is the duration of its
spans minus their child spans and leaf time.

Names are patched wherever they are looked up: a module-level function in
every ``leafhom`` module namespace that binds it (``from .linalg import rank``
makes a second binding), methods on their classes (``Scalar`` operators
included), and the CLI's analysis dispatch table.  Generator functions are
counted but open no span, since their body runs after they return.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "scalars",
    "linalg",
    "models",
    "derham",
    "poisson",
    "specseq",
    "gysin",
    "hochschild",
    "symbols",
    "reports",
    "cli",
)
LEAF_LAYER = "scalars"
SCALAR_OPERATORS = frozenset(
    {
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__neg__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
    }
)
ALWAYS_SPAN = frozenset(
    {"specseq.pages", "specseq.poisson_filtration", "symbols.compose", "reports.write_report"}
)

ANALYSES = ("derham", "poisson", "gysin", "specseq", "hochschild", "symbols")

_now = time.perf_counter_ns


def always_span(name: str) -> bool:
    """Whether every call of `name` opens a span (its inclusive time is printed)."""
    return name in ALWAYS_SPAN or name.startswith("cli.analysis.")


class Tracer:
    """Spans and counts of one invocation, kept in memory until `summary`."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.counts: Counter[str] = Counter()
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_leaf_ns = array("q")
        self.stack = [-1]
        self.stack_layer = [""]
        self.root_leaf_ns = 0
        self.in_leaf = False

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        if layer == LEAF_LAYER:
            return self._wrap_leaf(fn, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_count_only(fn, name)
        return self._wrap_span(fn, layer, name)

    def _wrap_count_only(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def _wrap_leaf(self, fn, name: str):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = _now() - t0
                tracer.in_leaf = False
                top = tracer.stack[-1]
                if top < 0:
                    tracer.root_leaf_ns += spent
                else:
                    tracer.span_leaf_ns[top] += spent

        return _like(wrapper, fn)

    def _wrap_span(self, fn, layer: str, name: str):
        counts = self.counts
        stack, stack_layer = self.stack, self.stack_layer
        always = always_span(name)
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_leaf = self.span_start, self.span_end, self.span_leaf_ns
        probe = _PROBES.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if not always and stack_layer[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(span_name)
                span_name.append(name_id)
                span_parent.append(stack[-1])
                span_leaf.append(0)
                span_end.append(0)
                stack.append(idx)
                stack_layer.append(layer)
                span_start.append(_now())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = _now()
                    stack.pop()
                    stack_layer.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        return _like(wrapper, fn)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, patching each binding."""
        modules = {layer: importlib.import_module(f"leafhom.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(obj, layer, f"{layer}.{attr}")
                    for other in modules.values():
                        for bound, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, bound, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(obj, layer)
        runners = modules["cli"]._RUNNERS
        for analysis, runner in list(runners.items()):
            runners[analysis] = self._wrap_span(runner, "cli", f"cli.analysis.{analysis}")

    def _install_class(self, cls, layer: str) -> None:
        operators = SCALAR_OPERATORS if layer == LEAF_LAYER else frozenset()
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in operators:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, layer, name))

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, self time per layer, and inclusive time of `always_span` names."""
        names = sorted(self.name_ids, key=self.name_ids.get)
        timed = {i for i, n in enumerate(names) if always_span(n)}
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child_ns = [0] * len(durations)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_ns[parent] += durations[idx]
        self_ns: Counter[str] = Counter({LEAF_LAYER: self.root_leaf_ns})
        inclusive_ns: Counter[str] = Counter()
        for idx, name_id in enumerate(self.span_name):
            name = names[name_id]
            self_ns[name.split(".", 1)[0]] += durations[idx] - child_ns[idx] - self.span_leaf_ns[idx]
            self_ns[LEAF_LAYER] += self.span_leaf_ns[idx]
            if name_id in timed and not self._nested_in_same_name(idx):
                inclusive_ns[name] += durations[idx]
        return {
            "invocation": self.invocation,
            "counts": dict(sorted(self.counts.items())),
            "self_s": {k: v / 1e9 for k, v in sorted(self_ns.items())},
            "inclusive_s": {k: v / 1e9 for k, v in sorted(inclusive_ns.items())},
            "span_names": names,
            "span_count": len(durations),
        }

    def write_spans(self, path: str) -> None:
        """The span table as four native-endian columns, one after another:
        name id (int32, an index into span_names), parent span (int32, -1 at
        the top), start and end (int64 ns, perf_counter)."""
        with open(path, "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)

    def _nested_in_same_name(self, idx: int) -> bool:
        name_id = self.span_name[idx]
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False


def _like(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


# Probes add counts at a boundary from a call's arguments and result.


def _matrix_probe(counts: Counter, args, result) -> None:
    matrix = args[0]
    counts["linalg.rows_in"] += matrix.rows
    counts["linalg.nnz_in"] += len(matrix.entries)


def _echelon_probe(counts: Counter, args, result) -> None:
    if result:
        counts["linalg.Echelon.add[grew]"] += 1


def _cohomology_probe(counts: Counter, args, result) -> None:
    if type(args[0]).__name__ == "CosphereCircleModel":
        counts["derham.cohomology_dims[CosphereCircleModel]"] += 1


_PROBES = {
    "linalg.rank": _matrix_probe,
    "linalg.rank_kernel": _matrix_probe,
    "linalg.Echelon.add": _echelon_probe,
    "derham.cohomology_dims": _cohomology_probe,
}


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer counts, ratios and self times, as (value, unit), from one invocation.

    Self times come from the spans alone, so a layer the workload never calls
    reads exactly 0.
    """
    c = Counter(summary["counts"])
    self_s = summary["self_s"]

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0, "ratio")

    def count(*names: str) -> tuple[int, str]:
        return (sum(c[n] for n in names), "count")

    adds = c["linalg.Echelon.add"]
    quotients = c["linalg.quotient_dim"]
    d_full = [k for k in c if k.startswith("models.") and k.endswith(".d_full")]
    out = {
        "scalars.mul_calls": count("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
        "scalars.inverse_calls": count("scalars.Scalar.inverse"),
        "linalg.rank_calls": count("linalg.rank"),
        "linalg.rank_kernel_calls": count("linalg.rank_kernel"),
        "linalg.quotient_dim_calls": count("linalg.quotient_dim"),
        "linalg.matmul_calls": count("linalg.SparseMatrix.matmul"),
        "linalg.echelon_add_calls": count("linalg.Echelon.add"),
        "linalg.echelon_pivot_ratio": ratio(c["linalg.Echelon.add[grew]"], adds),
        "linalg.rows_in": count("linalg.rows_in"),
        "linalg.nnz_in": count("linalg.nnz_in"),
        "models.d_full_calls": count(*d_full),
        "derham.cohomology_dims_calls": count("derham.cohomology_dims"),
        "derham.operator_matrix_calls": count("derham.operator_matrix"),
        "derham.matrices_per_quotient": ratio(c["derham.operator_matrix"], quotients),
        "poisson.delta_calls": count("poisson.delta"),
        "poisson.homogeneous_poisson_dims_calls": count("poisson.homogeneous_poisson_dims"),
        "specseq.pages_calls": count("specseq.pages"),
        "hochschild.cosphere_tables": count("derham.cohomology_dims[CosphereCircleModel]"),
        "symbols.compose_calls": count("symbols.compose"),
        "symbols.apply_derivation_calls": count("symbols.apply_derivation"),
        "symbols.cocycle_evaluate_calls": count("symbols.cocycle_evaluate"),
        "symbols.residue_trace_calls": count("symbols.residue_trace"),
        "symbols.compose_per_trace": ratio(c["symbols.compose"], c["symbols.residue_trace"]),
        "reports.write_s": (summary["inclusive_s"].get("reports.write_report", 0.0), "s"),
    }
    for layer in LAYERS:
        if layer not in ("reports", "cli"):
            out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return out


def call_times(summary: dict) -> dict[str, tuple[float, str]]:
    """Inclusive seconds of the functions and analyses whose time is of interest."""
    spans = {
        "specseq.pages_s": "specseq.pages",
        "specseq.poisson_filtration_s": "specseq.poisson_filtration",
        "symbols.compose_s": "symbols.compose",
    }
    spans.update({f"cli.analysis_s.{a}": f"cli.analysis.{a}" for a in ANALYSES})
    return {k: (summary["inclusive_s"].get(v, 0.0), "s") for k, v in spans.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT INVOCATION_ID -- <leafhom args>", file=sys.stderr)
        return 2
    trace_out, invocation = argv[0], int(argv[1])
    tracer = Tracer(invocation)
    tracer.install()
    from leafhom import cli

    status = cli.main(argv[3:])
    tracer.write_spans(trace_out + ".spans")
    summary = tracer.summary()
    summary["status"] = status
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
