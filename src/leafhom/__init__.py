"""Exact homological invariants of linear foliated models.

Leafwise de Rham cohomology with its bigrading, homogeneous Poisson
homology on the punctured leafwise cotangent cone, circle-bundle splitting,
spectral pages of filtered complexes, Hochschild/periodic-cyclic dimension
predictors, and residue traces on truncated symbol algebras -- all over an
exact number field Q(i, sqrt(d1), sqrt(d2)).
"""

from __future__ import annotations

from .models import (
    ConicDualModel,
    CosphereCircleModel,
    CircleProductModel,
    FormMonomial,
    KroneckerTorus,
    LieFrameModel,
    ModeWindow,
    make_model,
)
from .scalars import NumberField, Scalar

__version__ = "0.1.0"

__all__ = [
    "ConicDualModel",
    "CosphereCircleModel",
    "CircleProductModel",
    "FormMonomial",
    "KroneckerTorus",
    "LieFrameModel",
    "ModeWindow",
    "NumberField",
    "Scalar",
    "make_model",
    "__version__",
]
