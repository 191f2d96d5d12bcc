"""Exact-arithmetic projective geometry: planarizations, duals, conic webs."""

from .projcore import (
    Hyperplane,
    PLine2,
    PPoint,
    Scalar,
    normalize,
)
from .poly import (
    HPoly,
    RatMap,
    implicitize,
    reduce_map,
    variables,
)

__all__ = [
    "Scalar",
    "PPoint",
    "Hyperplane",
    "PLine2",
    "normalize",
    "HPoly",
    "RatMap",
    "variables",
    "reduce_map",
    "implicitize",
]
