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
    UniTuple,
    implicitize,
    reduce_map,
    restrict_to_line,
    span_dim,
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
    "UniTuple",
    "variables",
    "reduce_map",
    "restrict_to_line",
    "span_dim",
    "implicitize",
]
