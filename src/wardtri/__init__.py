"""Exact construction and cross-validation of Ward-related integer triangles."""

from .exact_arith import ExactnessError, exact_div
from .partition_transform import (
    constant_one,
    partition_transform,
    ward_first_kind,
    ward_second_kind,
)
from .triangles import (
    Kind,
    Strategy,
    Triangle,
    UnsupportedStrategyError,
    central,
    lah,
    stirling1_unsigned,
    stirling2,
    stream,
    triangle,
    value,
)

__version__ = "0.1.0"

__all__ = [
    "ExactnessError",
    "Kind",
    "Strategy",
    "Triangle",
    "UnsupportedStrategyError",
    "central",
    "constant_one",
    "exact_div",
    "lah",
    "partition_transform",
    "stirling1_unsigned",
    "stirling2",
    "stream",
    "triangle",
    "value",
    "ward_first_kind",
    "ward_second_kind",
]
