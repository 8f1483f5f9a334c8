"""Exact weighted enumeration of Motzkin paths, compositions, and bipartite
matrix compositions.

Every closed counting formula in this package is paired with an independent
brute-force or series oracle; the `verify` module runs the full identity
suite and the `bellpaths` command line exposes tables, specializations, and
the verification report.
"""

from .bell import (
    BinomialSequence,
    WeightVector,
    partial_bell,
    partial_bell_by_partitions,
    potential,
    power_derivative,
    stirling2,
)
from .core import (
    EnumerationBoundError,
    as_integer,
    binomial,
    factorial,
    multinomial,
)
from .polyring import (
    SYMBOLIC,
    Polynomial,
    Series,
    WeightSpec,
    specialize,
)

__all__ = [
    "BinomialSequence",
    "EnumerationBoundError",
    "Polynomial",
    "SYMBOLIC",
    "Series",
    "WeightSpec",
    "WeightVector",
    "as_integer",
    "binomial",
    "factorial",
    "multinomial",
    "partial_bell",
    "partial_bell_by_partitions",
    "potential",
    "power_derivative",
    "specialize",
    "stirling2",
]
