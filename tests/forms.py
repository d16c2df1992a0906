"""The `Form` algebra: finite exact-coefficient forms over one model.

The package computes on term maps (`models.TermMap`, the action of an
operator on one monomial) and their one linear extension
(`models.linear_extension`); no run builds a form.  The tests state the
paper's identities on forms: the module properties of the contraction i_G
and the star, the Jacobi identity of the bracket, delta of f0 df1 ^ df2
against brackets, the Leibniz rule, the chain-map properties of pullback
and fiber integration.  A `Form` is a dict of monomials with `map`, the
linear extension of a term map, and the operators below are the package's
term maps extended that way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from leafhom.derham import component_terms
from leafhom.errors import UnsupportedModelError, ValidationError
from leafhom.linalg import add_into
from leafhom.models import (
    FoliatedModel,
    FormMonomial,
    Mode,
    _LeafBundle,
    _sort_sign,
    linear_extension,
    merge_ext,
    pullback_terms,
)
from leafhom.poisson import _contraction_terms, _require_conic, delta_terms
from leafhom.scalars import Scalar


def sort_key(mono: FormMonomial) -> tuple:
    """The print order of a form's monomials: component, mode, xi power, degree, ext."""
    return (mono.comp, mono.mode, mono.xi, len(mono.ext), mono.ext)


class Form:
    """A finite exact-coefficient form over one model."""

    __slots__ = ("model", "terms")

    def __init__(self, model: FoliatedModel, terms: dict[FormMonomial, Scalar]):
        self.model = model
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, model: FoliatedModel) -> Form:
        return cls(model, {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Form) and self.model is other.model and self.terms == other.terms

    def __hash__(self):
        raise TypeError("forms are not hashable")

    def _check_model(self, other: Form) -> None:
        if self.model is not other.model:
            raise ValidationError("forms live on different models")

    def __add__(self, other: Form) -> Form:
        self._check_model(other)
        return Form(self.model, add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.model, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar | int | Fraction) -> Form:
        s = self.model.field.scalar(c)
        return Form(self.model, {m: v * s for m, v in self.terms.items()})

    def wedge(self, other: Form) -> Form:
        self._check_model(other)

        def times_other(ma: FormMonomial) -> Iterator[tuple[FormMonomial, Scalar]]:
            for mb, cb in other.terms.items():
                merged = merge_ext(ma.ext, mb.ext)
                # forms on different components have disjoint supports
                if merged is not None and ma.comp == mb.comp:
                    sign, ext = merged
                    mode = tuple(x + y for x, y in zip(ma.mode, mb.mode))
                    yield FormMonomial(mode, ma.xi + mb.xi, ma.comp, ext), cb if sign > 0 else -cb

        return self.map(times_other)

    def map(self, terms, model: FoliatedModel | None = None) -> Form:
        """The linear extension of a term map, onto ``model`` (default: this form's)."""
        out = linear_extension(terms, self.terms.items())
        return Form(self.model if model is None else model, out)

    def bidegree(self) -> tuple[int, int] | None:
        """The common bidegree of all monomials, or None for a mixed form."""
        degrees = {self.model.bidegree(m.ext) for m in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def homogeneity_decompose(self) -> dict[int, Form]:
        model = self.model
        if not model.has_xi:
            raise UnsupportedModelError("homogeneity degree requires the conic model")
        parts: dict[int, dict[FormMonomial, Scalar]] = {}
        for m, c in self.terms.items():
            parts.setdefault(model.homogeneity(m), {})[m] = c
        return {l: Form(model, t) for l, t in sorted(parts.items())}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))
        return " + ".join(f"({c})*{self.model.monomial_label(m)}" for m, c in ordered)


def monomial_form(
    model: FoliatedModel,
    coeff: Scalar | int | Fraction | str,
    mode: Mode = (),
    xi: int = 0,
    comp: int | None = None,
    ext: tuple[int, ...] | Sequence[str] = (),
) -> Form:
    """Build coeff * e_mode * xi^power * (exterior monomial) on ``model``.

    ``ext`` may use generator names; when ``comp`` is None the monomial is
    placed on every component (the global form).
    """
    if isinstance(coeff, str):
        c = model.field.parse(coeff)
    elif isinstance(coeff, Scalar):
        c = coeff
    else:
        c = model.field.scalar(coeff)
    mode = tuple(mode) if mode else (0,) * model.mode_len
    if len(mode) != model.mode_len:
        raise ValidationError(f"mode length {len(mode)} != {model.mode_len} for this model")
    if xi and not model.has_xi:
        raise ValidationError("radial powers require the conic model")
    indices = []
    for g in ext:
        if isinstance(g, str):
            if g not in model.gen_names:
                raise ValidationError(f"unknown generator {g!r}")
            indices.append(model.gen_names.index(g))
        else:
            indices.append(int(g))
    sorted_idx = tuple(sorted(indices))
    if len(set(sorted_idx)) != len(sorted_idx):
        return Form.zero(model)
    if _sort_sign(indices) < 0:
        c = -c
    comps = range(model.components_count) if comp is None else [comp]
    return Form(model, {FormMonomial(mode, xi, k, sorted_idx): c for k in comps})


def differential(model: FoliatedModel, component: str, form: Form) -> Form:
    """d or one of its bigraded components (`derham.component_terms`) on a form."""
    return form.map(component_terms(model, component), model)


def pullback_from_base(model: _LeafBundle, form: Form) -> Form:
    """Pull a form on the base up a bundle model (mode extended, all components)."""
    if form.model is not model.base:
        raise ValidationError("form does not live on the bundle base")
    return form.map(pullback_terms(model), model)


def contract_bivector(model: FoliatedModel, form: Form) -> Form:
    """Interior product with the leafwise bivector: bidegree shift (-2, 0)."""
    return form.map(_contraction_terms(_require_conic(model)), model)


def bracket(f: Form, g: Form) -> Form:
    """Poisson bracket of two scalar forms: i_G(df ^ dg)."""
    model = f.model
    _require_conic(model)
    for form in (f, g):
        if any(m.ext for m in form.terms):
            raise ValidationError("poisson bracket takes scalar (bidegree (0,0)) forms")
    df = differential(model, "d", f)
    dg = differential(model, "d", g)
    return contract_bivector(model, df.wedge(dg))


def delta(form: Form, variant: str = "delta") -> Form:
    """The boundary operator [i_G, d] or one of its bigraded pieces (`poisson.delta_terms`)."""
    return form.map(delta_terms(form.model, variant))
