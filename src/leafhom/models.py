"""Foliated model families and the term maps of their exterior algebras.

Four families are supported:

* ``KroneckerTorus`` -- the n-torus foliated by the line field sum(a_j d_j),
  leaf dimension 1, with leafwise coframe theta and transverse coframe
  eta_1..eta_{n-1};
* ``LieFrameModel`` -- translation-invariant forms on a frame with constant
  structure coefficients, foliated by a subalgebra;
* three bundles, each a base with a one-dimensional leaf plus one extra leaf
  generator in slot 1 (`_LeafBundle`): the circle bundles over a torus
  (``CosphereCircleModel`` with a two-point factor, ``CircleProductModel``
  without), whose leaves pick up the circle direction dphi, and
  ``ConicDualModel``, the punctured dual line bundle of the leaf direction
  over a torus or a leaf-line frame, with radial Laurent coordinate xi, two
  components (+/-), the leafwise generator dxi and a scaling action grading
  forms by homogeneity degree.

``model.torus`` is the Kronecker torus a model is built on: the torus
itself, a bundle's base torus, or None for a frame and its cone; every table
built on it carries the torus's one small-divisor `KroneckerTorus.certificate`.

A basis monomial (Fourier mode x radial power x component label x ordered
exterior monomial) is a `FormMonomial` named tuple.  An operator is a term
map (`TermMap`), its action on one monomial as (monomial, Scalar) pairs, and
`linear_extension` is its one extension to sums of monomials, accumulating
through `linalg.add_into`.  The monomials split into blocks (comp, mode, l),
described once on `FoliatedModel`; l is the radial homogeneity, 0 on models
without it.  All model objects are immutable and freely shareable across
threads.

The exterior structure of a model's generators is read from its
`ExteriorTables`, built once per model from `merge_ext` and the leaf flags:
the subsets of every size, the bidegree of each, and the insertion
eps_g(ext) = merge_ext((g,), ext) of each generator, which `_multiplier_d`
reads; the tables check the Cartan identity on it when they are built.  Every
term map reads a block's multipliers from the model's one memo
(`FoliatedModel.block_multipliers`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ComplexViolationError, SpecParseError, UnsupportedModelError, ValidationError
from .linalg import add_into, integer_kernel
from .scalars import NumberField, Scalar, sqrt_in, square_class

Mode = tuple[int, ...]
BLOCK_CACHE_SIZE = 64  # blocks a model keeps multipliers for; a full memo is cleared


class _WindowFields(NamedTuple):
    bound: int = 2
    l_min: int = -2
    l_max: int = 2


class ModeWindow(_WindowFields):
    """Finite truncation: per-axis Fourier bound and radial range; ``_replace`` skips the check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bound < 0 or self.l_min > self.l_max:
            raise ValidationError("inconsistent mode window")
        return self

    def modes(self, length: int) -> Iterator[Mode]:
        return itertools.product(range(-self.bound, self.bound + 1), repeat=length)

    def homogeneities(self) -> range:
        return range(self.l_min, self.l_max + 1)

    def to_json(self) -> dict:
        return {"bound": self.bound, "l_min": self.l_min, "l_max": self.l_max}


class FormMonomial(NamedTuple):
    """One basis monomial: mode, radial power, component label, exterior part.

    A named tuple, so it hashes as the tuple (mode, xi, comp, ext).
    """

    mode: Mode
    xi: int
    comp: int
    ext: tuple[int, ...]


TermMap = Callable[[FormMonomial], Iterable[tuple[FormMonomial, Scalar]]]


def linear_extension(
    terms: TermMap,
    pairs: Iterable[tuple[FormMonomial, Scalar]],
    out: dict[FormMonomial, Scalar] | None = None,
) -> dict[FormMonomial, Scalar]:
    """Add sum c * terms(m) over (m, c) in ``pairs`` into ``out`` (`linalg.add_into`)."""
    out = {} if out is None else out
    for mono, coeff in pairs:
        add_into(out, terms(mono), coeff)
    return out


def merge_ext(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two strictly increasing index tuples with the exterior sign.

    Returns (sign, merged) or None when a generator repeats.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    out: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            if (la - i) & 1:
                sign = -sign
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class ExteriorTables:
    """The exterior basis of generators with the given leaf flags, as lookup tables.

    ``subsets`` lists the increasing index tuples by size, ``bidegree[ext]`` is
    (leaf count, transverse count), and ``insert[g][ext]`` is merge_ext((g,), ext):
    (sign, ext with g) or None when g is in ext.  Building them checks the Cartan identity.
    """

    __slots__ = ("subsets", "bidegree", "insert")

    def __init__(self, long_flags: tuple[bool, ...]):
        n = len(long_flags)
        self.subsets = tuple(
            itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1))
        )
        self.bidegree = {}
        for ext in self.subsets:
            r = sum(1 for g in ext if long_flags[g])
            self.bidegree[ext] = (r, len(ext) - r)
        self.insert = tuple({ext: merge_ext((g,), ext) for ext in self.subsets} for g in range(n))
        check_cartan_identity(self)


class FoliatedModel:
    """Shared machinery for the model families; subclasses fill in the data.

    A block is (comp, mode, l): a component, a Fourier mode and a radial
    homogeneity l, which is 0 on models without the radial grading.  d and
    its bigraded components preserve it.
    """

    field: NumberField
    gen_names: tuple[str, ...]
    long_flags: tuple[bool, ...]
    components: tuple[str, ...]
    mode_len: int
    leaf_dim: int
    codim: int
    has_xi = False  # the radial grading
    XI_GEN = -1  # the index of dxi where there is one
    torus: KroneckerTorus | None = None  # the Kronecker torus the model is built on

    @property
    def components_count(self) -> int:
        return len(self.components)

    # -- grading helpers ---------------------------------------------------

    @cached_property
    def exterior(self) -> ExteriorTables:
        return ExteriorTables(self.long_flags)

    def bidegree(self, ext: tuple[int, ...]) -> tuple[int, int]:
        return self.exterior.bidegree[ext]

    def homogeneity(self, mono: FormMonomial) -> int:
        """The radial degree l of a monomial: its xi power, plus one with dxi."""
        return self.block_key(mono)[2]

    def monomial_label(self, m: FormMonomial) -> str:
        bits = []
        if self.components_count > 1:
            bits.append(self.components[m.comp])
        if self.mode_len:
            bits.append(f"e{list(m.mode)}")
        if m.xi:
            bits.append(f"xi^{m.xi}")
        if m.ext:
            bits.append("^".join(self.gen_names[g] for g in m.ext))
        return "*".join(bits) if bits else "1"

    # -- differential data and blocks: the Fourier-mode defaults ---------------

    # d of each generator, (coeff, (a, b)) for coeff * a ^ b: frames only
    _dual_d: Sequence[list[tuple[Scalar, tuple[int, int]]]] = ()

    def multipliers(self, key: tuple) -> list[tuple[int, Scalar | int]]:
        """The block's (gen, c): d = sum c * gen ^ (-) plus the `_dual_d` terms."""
        return []

    def block_multipliers(self, key: tuple) -> list[tuple[int, Scalar, Scalar]]:
        """The block's nonzero `multipliers` as Scalars (gen, c, -c), theta (slot 0) first.

        The model keeps its last blocks' lists and clears them when it holds
        BLOCK_CACHE_SIZE, so a walk over a whole window keeps only recent ones.
        """
        memo = self._block_memo
        mults = memo.get(key)
        if mults is None:
            if len(memo) >= BLOCK_CACHE_SIZE:
                memo.clear()
            # field.scalar shares the Scalars of small ints, the usual multipliers
            scalar = self.field.scalar
            pairs = sorted(self.multipliers(key), key=lambda gc: gc[0])
            mults = memo[key] = [(g, scalar(c), scalar(-c)) for g, c in pairs if c]
        return mults

    _block_memo = cached_property(lambda self: {})  # block key -> block_multipliers(key)

    def block_key(self, mono: FormMonomial) -> tuple:
        return (mono.comp, mono.mode, mono.xi + (self.XI_GEN in mono.ext))

    def block_keys(self, window: ModeWindow) -> list[tuple]:
        """The window's blocks (comp, mode, l); l runs over the window's range on the cone."""
        ls = window.homogeneities() if self.has_xi else (0,)
        return [
            (comp, m, l)
            for comp in range(self.components_count)
            for m in window.modes(self.mode_len)
            for l in ls
        ]

    def block_monomials(self, key: tuple) -> list[FormMonomial]:
        """All exterior monomials of one block, every degree."""
        comp, mode, l = key
        xi_gen = self.XI_GEN
        return [FormMonomial(mode, l - (xi_gen in ext), comp, ext) for ext in self.exterior.subsets]

    def basis_monomials(self, window: ModeWindow) -> Iterator[FormMonomial]:
        for key in self.block_keys(window):
            yield from self.block_monomials(key)


def _sort_sign(indices: list[int]) -> int:
    sign = 1
    n = len(indices)
    for i in range(n):
        for j in range(i + 1, n):
            if indices[i] > indices[j]:
                sign = -sign
    return sign


def _multiplier_d(
    model: FoliatedModel, mono: FormMonomial, kept: Sequence[bool]
) -> list[tuple[FormMonomial, Scalar]]:
    """d of a monomial from its block's multipliers: sum of c * gen ^ mono over kept gens.

    The multipliers (gen, c, -c) are read from `FoliatedModel.block_multipliers`,
    gen ^ mono from the model's insertion table.  On the cone, gen = dxi also
    lowers the xi power, so the monomial stays in its homogeneity block.
    """
    insert, xi_gen = model.exterior.insert, model.XI_GEN
    mode, xi, comp, ext = mono
    out = []
    for gen, c, neg in model.block_multipliers(model.block_key(mono)):
        ins = kept[gen] and insert[gen][ext]
        if ins:
            sign, new = ins
            mono2 = FormMonomial(mode, xi - 1 if gen == xi_gen else xi, comp, new)
            out.append((mono2, c if sign > 0 else neg))
    return out


def check_cartan_identity(tables: ExteriorTables) -> None:
    """eps_g iota_j + iota_j eps_g = delta_gj on the whole exterior basis of ``tables``.

    eps_g is the insertion table `_multiplier_d` reads, iota_j the contraction;
    the identity gives the contracting homotopies of `derham.contracted`.
    `ExteriorTables` runs it on itself when it is built.  Raises
    ComplexViolationError at the first failure.
    """
    eps, n = tables.insert, len(tables.insert)

    def iota(j: int, e: tuple[int, ...]):
        return ((-1) ** e.index(j), tuple(x for x in e if x != j)) if j in e else None

    for ext in tables.subsets:
        for g, j in itertools.product(range(n), repeat=2):
            a, b = iota(j, ext), eps[g][ext]
            total: dict[tuple[int, ...], int] = {}
            for first, then in ((a, a and eps[g][a[1]]), (b, b and iota(j, b[1]))):
                if then:
                    total[then[1]] = total.get(then[1], 0) + first[0] * then[0]
            if {e: c for e, c in total.items() if c} != ({ext: 1} if g == j else {}):
                raise ComplexViolationError(
                    f"Cartan identity fails: eps_{g} iota_{j} + iota_{j} eps_{g} on {ext}"
                )


def _frame_d(
    dual_d: list[list[tuple[Scalar, tuple[int, int]]]], mono: FormMonomial
) -> list[tuple[FormMonomial, Scalar]]:
    """d of a constant-coefficient monomial from d of each generator (Leibniz)."""
    out: dict[FormMonomial, Scalar] = {}
    ext = mono.ext
    for pos, g in enumerate(ext):
        rest = ext[:pos] + ext[pos + 1 :]
        outer_sign = -1 if pos & 1 else 1
        for coeff, (a, b) in dual_d[g]:
            merged = merge_ext((a, b), rest)
            if merged is not None:
                sign, new_ext = merged
                mono2 = FormMonomial(mono.mode, mono.xi, mono.comp, new_ext)
                add_into(out, ((mono2, coeff if outer_sign * sign > 0 else -coeff),))
    return list(out.items())


class KroneckerTorus(FoliatedModel):
    """T^n foliated by the constant line field with slope vector alpha.

    Convention: alpha is normalized so its first entry is 1 (validated
    nonzero), the complement is the span of the remaining coordinate frame,
    theta = dx_1 and eta_i = dx_{i+1} - alpha_{i+1} dx_1.  The reduced mode
    pairing is m . alpha (the 2*pi*i factor of the true derivative is dropped;
    every per-mode differential is rescaled by the same nonzero constant, so
    no rank or dimension changes).
    """

    def __init__(self, field: NumberField, alpha: Sequence[Scalar | str]):
        self.field = field
        entries = [field.parse(a) if isinstance(a, str) else field.scalar(a) for a in alpha]
        n = len(entries)
        if n < 2:
            raise ValidationError("torus dimension must be at least 2")
        if all(not a for a in entries):
            raise ValidationError("alpha must be nonzero")
        for a in entries:
            if not a.is_real():
                raise ValidationError("alpha entries must be real scalars")
        if not entries[0]:
            raise ValidationError("alpha[0] must be nonzero for the frame convention")
        inv = entries[0].inverse()
        self.alpha = tuple(a * inv for a in entries)
        self.n = n
        self.leaf_dim = 1
        self.codim = n - 1
        self.gen_names = ("theta",) + tuple(f"eta{i}" for i in range(1, n))
        self.long_flags = (True,) + (False,) * (n - 1)
        self.components = ("",)
        self.mode_len = n
        self._pairing_cache: dict[Mode, Scalar] = {}
        self.resonance_basis = resonance_lattice(self.alpha)

    @property
    def torus(self) -> KroneckerTorus:
        return self

    @property
    def resonant(self) -> bool:
        return bool(self.resonance_basis)

    @cached_property
    def certificate(self) -> DiophantineCertificate:
        """The small-divisor certificate every table of the torus and its bundles carries."""
        return diophantine_certificate(self)

    def pairing(self, mode: Mode) -> Scalar:
        """The reduced leafwise derivative multiplier m . alpha."""
        m = tuple(mode[: self.n])
        cached = self._pairing_cache.get(m)
        if cached is None:
            cached = self.field.zero
            for mj, aj in zip(m, self.alpha):
                if mj:
                    cached = cached + aj * mj
            self._pairing_cache[m] = cached
        return cached

    def multipliers(self, key: tuple) -> list[tuple[int, Scalar | int]]:
        """The block's (gen, c), d = sum c * gen ^ (-): m . alpha on theta, m_i on eta_i."""
        mode = key[1]
        return [(0, self.pairing(mode))] + [(i, mode[i]) for i in range(1, self.n)]

    def __repr__(self) -> str:
        return f"KroneckerTorus(n={self.n}, alpha=({', '.join(str(a) for a in self.alpha)}))"


class LieFrameModel(FoliatedModel):
    """Invariant forms on a constant-structure frame, foliated by a subalgebra.

    ``structure`` maps (i, j) with i < j (0-based) to {k: Scalar} describing
    [e_i, e_j] = sum_k c_k e_k.  The dual differential follows the convention
    d e^k = -(1/2) sum c^k_{ij} e^i ^ e^j, pinned by requiring d^2 = 0.
    Validation (Jacobi, subalgebra) lives in :meth:`create`; the raw
    constructor trusts its input so tests can build corrupted structures.
    """

    def __init__(
        self,
        field: NumberField,
        n: int,
        structure: dict[tuple[int, int], dict[int, Scalar]],
        leaf_indices: frozenset[int] | set[int],
    ):
        self.field = field
        self.n = n
        self.structure = {k: dict(v) for k, v in structure.items()}
        self.leaf_indices = frozenset(leaf_indices)
        if not self.leaf_indices or not self.leaf_indices < set(range(n)):
            raise ValidationError("leaf index set must be a proper nonempty subset")
        self.leaf_dim = len(self.leaf_indices)
        self.codim = n - self.leaf_dim
        self.gen_names = tuple(f"e{i+1}" for i in range(n))
        self.long_flags = tuple(i in self.leaf_indices for i in range(n))
        self.components = ("",)
        self.mode_len = 0
        # d e^k as a list of (sign-corrected coefficient, (a, b)) with a < b
        self._dual_d: list[list[tuple[Scalar, tuple[int, int]]]] = [[] for _ in range(n)]
        for (i, j), targets in self.structure.items():
            for k, c in targets.items():
                if c:
                    self._dual_d[k].append((-c, (i, j)))

    @classmethod
    def create(
        cls,
        field: NumberField,
        n: int,
        structure: dict[tuple[int, int], dict[int, Scalar]],
        leaf_indices: set[int],
    ) -> LieFrameModel:
        model = cls(field, n, structure, leaf_indices)
        model.validate()
        return model

    def bracket_vector(self, i: int, j: int) -> dict[int, Scalar]:
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def validate(self) -> None:
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    acc: dict[int, Scalar] = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        # [[e_a, e_b], e_c]
                        for l, coeff in self.bracket_vector(a, b).items():
                            add_into(acc, self.bracket_vector(l, c).items(), coeff)
                    if acc:
                        raise ValidationError(
                            f"Jacobi identity fails on frame indices ({i+1}, {j+1}, {k+1})"
                        )
        for i in self.leaf_indices:
            for j in self.leaf_indices:
                for k, c in self.bracket_vector(i, j).items():
                    if c and k not in self.leaf_indices:
                        raise ValidationError(
                            "leaf index set is not a subalgebra (integrability fails)"
                        )

    def __repr__(self) -> str:
        leaves = sorted(i + 1 for i in self.leaf_indices)
        return f"LieFrameModel(n={self.n}, leaf={leaves})"


class _LeafBundle(FoliatedModel):
    """A base model with a one-dimensional leaf plus one extra leaf generator in slot 1.

    The base's leaf generator keeps slot 0 and its other generators follow the
    extra one in their order: on a torus, base generator g sits at slot
    g if g == 0 else g + 1.  A block's multipliers are the base block's, moved
    by that map, plus the extra generator's: the trailing circle mode on dphi,
    the homogeneity l on dxi.  The base's frame terms d e^k and
    `pullback_terms` read the same map, each exterior monomial re-sorted with
    its sign.  Subclasses set the components; the cone also sets its extra
    generator and admissible bases.
    """

    EXTRA = "dphi"
    BASES: tuple[type, ...] = (KroneckerTorus,)

    def __init__(self, base: FoliatedModel):
        if not isinstance(base, self.BASES):
            names = " or ".join(cls.__name__ for cls in self.BASES)
            raise ValidationError(f"{type(self).__name__} needs a {names} base")
        if base.leaf_dim != 1:
            raise ValidationError(f"{type(self).__name__} needs a one-dimensional leaf")
        self.base, self.field, self.torus = base, base.field, base.torus
        self.n, self.leaf_dim, self.codim = base.n, 2, base.codim
        # the leaf generator first, then the others in their order
        order = sorted(range(len(base.gen_names)), key=lambda g: not base.long_flags[g])
        self._slot = {g: k + 1 if k else 0 for k, g in enumerate(order)}
        names = [base.gen_names[g] for g in order]
        self.gen_names = (names[0], self.EXTRA, *names[1:])
        self.long_flags = (True, True) + (False,) * self.codim
        self.mode_len = base.mode_len if self.has_xi else base.mode_len + 1
        # each base exterior monomial at the bundle slots, sorted: (sign, ext)
        self._moved = {}
        for ext in base.exterior.subsets:
            moved = [self._slot[g] for g in ext]
            self._moved[ext] = (self.field.scalar(_sort_sign(moved)), tuple(sorted(moved)))
        if base._dual_d:  # left empty over a torus, so no term map runs `_frame_d`
            self._dual_d = [[] for _ in self.gen_names]
            for b, terms in enumerate(base._dual_d):
                for coeff, ab in terms:
                    sign, moved_ab = self._moved[ab]
                    self._dual_d[self._slot[b]].append((coeff * sign, moved_ab))

    def multipliers(self, key: tuple) -> list[tuple[int, Scalar | int]]:
        """(gen, c) on block (comp, mode, l): the base's, moved, and the extra generator's.

        The base reads only the leading entries of ``mode``, its own mode.
        """
        slot = self._slot
        moved = [(slot[g], c) for g, c in self.base.multipliers(key)]
        return [(1, key[2] if self.has_xi else key[1][-1])] + moved

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base!r})"


class CosphereCircleModel(_LeafBundle):
    """The cosphere-of-the-leaf-line bundle times S^1: two disjoint copies.

    Leaves pick up the circle direction dphi; the trailing mode entry is the
    circle mode, dphi's multiplier.
    """

    components = ("+", "-")


class CircleProductModel(_LeafBundle):
    """The plain product M x S^1 (single component); the realized sphere bundle."""

    components = ("",)


class ConicDualModel(_LeafBundle):
    """Punctured dual of the leaf line bundle, graded by radial homogeneity.

    The radial Laurent coordinate xi lives on two components (+/-); dxi is
    leafwise, and the homogeneity degree l of a monomial is its xi power plus
    one when dxi is present.  d(xi^a) = a xi^(a-1) dxi, so dxi's multiplier on
    a block is l.  Bases may be a Kronecker torus or a leaf-line frame model.
    """

    EXTRA = "dxi"
    BASES = (KroneckerTorus, LieFrameModel)
    components = ("+", "-")
    has_xi = True
    XI_GEN = 1


def resonance_lattice(alpha: Sequence[Scalar]) -> list[tuple[int, ...]]:
    """Basis of the integer vectors m with m . alpha = 0.

    m . alpha vanishes iff every rational component of sum m_j alpha_j does,
    so the lattice is the integer kernel of the component matrix of alpha
    (each row cleared of denominators).
    """
    rows: list[list[int]] = []
    for mask in range(alpha[0].field.dim):
        row = [a.coeffs[mask] for a in alpha]
        if any(row):
            denom = math.lcm(*(x.denominator for x in row))
            rows.append([int(x * denom) for x in row])
    return integer_kernel(rows, len(alpha))


class DiophantineCertificate(NamedTuple):
    """Either an exact resonance witness or an explicit (C, N) lower bound.

    A `diophantine` verdict certifies |m . alpha|^(-1) <= C * |m|_1^N for all
    nonzero integer vectors m: the norm of the algebraic integer
    den * (m . alpha) is at least 1, each of its deg-1 conjugates is at most
    C' * |m|_1 in absolute value, so |m . alpha| >= den^(-deg) (C'|m|_1)^(1-deg).
    """

    verdict: str  # "diophantine" | "resonant"
    C: Fraction | None = None
    N: int | None = None
    witness: tuple[int, ...] | None = None
    method: str = ""

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "method": self.method}
        if self.verdict == "diophantine":
            assert self.C is not None and self.N is not None
            out["C"] = f"{self.C.numerator}/{self.C.denominator}"
            out["N"] = self.N
        else:
            out["witness"] = list(self.witness or ())
        return out


def diophantine_certificate(torus: KroneckerTorus) -> DiophantineCertificate:
    """Certify the small-divisor behaviour of the torus's frequency vector alpha.

    The resonance lattice is the torus's own ``resonance_basis``; the torus
    constructor has already checked that alpha is real and nonzero.  Read
    once per torus through `KroneckerTorus.certificate`.
    """
    alpha, field = torus.alpha, torus.field
    if torus.resonance_basis:
        witness = min(torus.resonance_basis, key=lambda v: (sum(abs(x) for x in v), v))
        return DiophantineCertificate(
            verdict="resonant",
            witness=witness,
            method="exact integer kernel of the component matrix of alpha",
        )
    # the subfield generated by the entries: subgroup of sign patterns fixing
    # every used basis mask
    used_masks = {mask for mask in range(field.dim) if any(a.coeffs[mask] for a in alpha)}
    t = len(field.radicals)
    fixers = []
    for bits in range(1 << t):
        signs = tuple(-1 if bits & (1 << j) else 1 for j in range(t))
        if all(_mask_fixed(mask, signs) for mask in used_masks):
            fixers.append(signs)
    degree = (1 << t) // len(fixers)
    den = 1
    cprime = Fraction(0)
    for a in alpha:
        den = math.lcm(den, a.den)
        cprime = max(cprime, a.abs_upper_bound())
    n_exp = degree - 1
    c_const = Fraction(den) ** degree * cprime**n_exp
    return DiophantineCertificate(
        verdict="diophantine",
        C=c_const,
        N=n_exp,
        method=(
            f"norm bound over the degree-{degree} subfield generated by alpha: "
            f"|Norm(den*(m.alpha))| >= 1 with den = {den}, conjugates bounded by "
            f"{cprime} * |m|_1"
        ),
    )


def _mask_fixed(mask: int, signs: tuple[int, ...]) -> bool:
    prod = 1
    for j, s in enumerate(signs):
        if mask & (1 << (1 + j)):
            prod *= s
    return prod == 1


def torus_of(model: FoliatedModel) -> KroneckerTorus:
    """``model.torus``, or UnsupportedModelError when the model is built on none."""
    if model.torus is not None:
        return model.torus
    raise UnsupportedModelError(
        f"needs a Kronecker torus or a model built on one, got {type(model).__name__}"
    )


# -- model specification documents -------------------------------------------


def field_from_spec(spec: object) -> NumberField:
    rads = spec.get("sqrts", []) if isinstance(spec, dict) else None
    if not isinstance(rads, list) or not all(type(d) is int for d in rads):
        raise SpecParseError('field must be an object {"sqrts": [int, ...]}')
    return NumberField(tuple(rads))


def make_model(spec: dict):
    """Build and validate a model from a JSON-style specification document.

    Families: ``kronecker_torus`` (n, alpha: [scalar strings]),
    ``conic_dual`` / ``cosphere_circle`` / ``circle_product`` (base: {...}),
    ``lie_frame`` (n, brackets: [[i, j, [[k, coeff], ...]], ...], leaf: [...]),
    with an optional top-level ``field`` of the shape {"sqrts": [2, 3]}.
    """
    if not isinstance(spec, dict):
        raise SpecParseError("model spec must be a JSON object")
    family = spec.get("family")
    if family is None:
        raise SpecParseError("model spec is missing the 'family' tag")
    field = field_from_spec(spec.get("field", _infer_field_spec(spec)))
    return _build_family(spec, family, field)


def _infer_field_spec(spec: dict) -> dict:
    """A basis of the square classes of the document's sqrt radicands.

    A radicand in the span of the kept ones adds no radical: `NumberField.parse`
    reads sqrt6 beside sqrt2 and sqrt3 as their product, and sqrt8 as 2*sqrt2.
    """
    rads: set[int] = set()

    def scan(obj):
        if isinstance(obj, str):
            pos = obj.find("sqrt")
            while pos >= 0:
                end = pos = pos + 4
                while end < len(obj) and obj[end] in "0123456789":
                    end += 1
                if end > pos:
                    try:
                        rads.add(int(obj[pos:end]))
                    except ValueError as exc:  # beyond Python's int digit limit
                        raise SpecParseError(
                            f"radicand of {end - pos} digits exceeds 10^12"
                        ) from exc
                pos = obj.find("sqrt", end)
        elif isinstance(obj, dict):
            for v in obj.values():
                scan(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                scan(v)

    scan(spec)
    basis: list[int] = []
    for d in sorted(rads):
        if d > 10**12:  # bounds the trial division of square_class
            raise SpecParseError(f"radicand {d} exceeds 10^12")
        if len(basis) > 2:
            break  # already more radicals than a NumberField takes: it says so
        if sqrt_in(d, basis) is None:
            basis.append(square_class(d))
    return {"sqrts": basis}


def _build_family(spec: dict, family: str, field: NumberField):
    if family == "kronecker_torus":
        alpha = spec.get("alpha")
        if not isinstance(alpha, (list, tuple)) or not alpha:
            raise SpecParseError("kronecker_torus spec needs a nonempty 'alpha' list")
        return KroneckerTorus(field, [str(a) for a in alpha])
    if family in ("conic_dual", "cosphere_circle", "circle_product"):
        base_spec = spec.get("base")
        if not isinstance(base_spec, dict):
            raise SpecParseError(f"{family} spec needs a 'base' model object")
        base = _build_family(base_spec, base_spec.get("family", "kronecker_torus"), field)
        if family == "conic_dual":
            return ConicDualModel(base)
        if not isinstance(base, KroneckerTorus):
            raise SpecParseError(f"{family} requires a kronecker_torus base")
        return CosphereCircleModel(base) if family == "cosphere_circle" else CircleProductModel(base)
    if family == "lie_frame":
        n = spec.get("n")
        brackets = spec.get("brackets", [])
        leaf = spec.get("leaf")
        if not isinstance(n, int) or n < 2:
            raise SpecParseError("lie_frame spec needs an integer dimension n >= 2")
        if not isinstance(leaf, (list, tuple)) or not leaf:
            raise SpecParseError("lie_frame spec needs a nonempty 'leaf' index list")
        if not isinstance(brackets, list):
            raise SpecParseError("lie_frame spec needs a 'brackets' list")
        structure: dict[tuple[int, int], dict[int, Scalar]] = {}
        for item in brackets:
            try:
                i, j, targets = item
                i, j = int(i) - 1, int(j) - 1
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecParseError(f"malformed bracket entry {item!r}") from exc
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise SpecParseError(f"bracket indices out of range in {item!r}")
            vec: dict[int, Scalar] = {}
            try:
                for k, coeff in targets:
                    vec[int(k) - 1] = field.parse(str(coeff))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecParseError(
                    f"malformed bracket targets in {item!r}; expected [[k, coeff], ...]"
                ) from exc
            if not all(0 <= k < n for k in vec):
                raise SpecParseError(f"bracket target index out of range in {item!r}")
            if i < j:
                structure[(i, j)] = vec
            else:
                structure[(j, i)] = {k: -c for k, c in vec.items()}
        try:
            leaf_idx = {int(i) - 1 for i in leaf}
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecParseError(f"malformed leaf index list {leaf!r}") from exc
        return LieFrameModel.create(field, n, structure, leaf_idx)
    raise SpecParseError(f"unknown model family {family!r}")


def pullback_terms(model: _LeafBundle) -> TermMap:
    """Term map of the pullback from the bundle's base: mode extended by zeros, every
    component, generators moved by the bundle's slot map."""
    pad, moved = (0,) * (model.mode_len - model.base.mode_len), model._moved

    def terms(mono: FormMonomial) -> list[tuple[FormMonomial, Scalar]]:
        sign, ext = moved[mono.ext]
        mode = mono.mode + pad
        return [(FormMonomial(mode, 0, comp, ext), sign) for comp in range(model.components_count)]

    return terms

