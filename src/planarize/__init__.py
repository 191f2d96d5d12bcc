"""Exact-arithmetic projective geometry: planarizations, duals, conic webs."""

from .projcore import (
    Hyperplane,
    PLine2,
    PPoint,
    Scalar,
    hyperplane_through,
    normalize,
    wedge_complement,
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
    "wedge_complement",
    "hyperplane_through",
    "HPoly",
    "RatMap",
    "UniTuple",
    "variables",
    "reduce_map",
    "restrict_to_line",
    "span_dim",
    "implicitize",
]
