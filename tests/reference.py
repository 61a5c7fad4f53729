"""Test-side references: code that only the tests call.

The per-class coinvariant character is what the oracles' class sum adds up
without ever forming it; the product combinators multiply the closed forms
of a cartesian product of groups.  Neither is on a library or CLI path.
"""

from __future__ import annotations

from comlie.coinvariants import _numerator_degrees
from comlie.poincare import GroupSpec, bcom_series, bg_series, ecom_numerator
from comlie.qseries import (
    QPoly,
    RationalSeries,
    TruncatedSeries,
    _divide_by_factor,
    _multiply_by_factor,
)
from comlie.weylcomb import CycleData


def _check_consistent(group: GroupSpec, cycles: CycleData) -> None:
    if cycles.size != group.n:
        raise ValueError(
            f"cycle data of size {cycles.size} for a rank-{group.n} group"
        )
    if group.weyl_kind == "sym" and cycles.negative_cycles:
        raise ValueError(f"{group.label} has no negative cycles")


def coinvariant_char(
    group: GroupSpec, cycles: CycleData, trunc: int
) -> TruncatedSeries:
    """Graded trace of a class on the coinvariant algebra, in s = t^2,
    through degree ``trunc``: the numerator divided by det(1 - s*w) on the
    permutation representation, the product of (1 - s^c) over positive and
    (1 + s^c) over negative cycles, one cycle at a time."""
    _check_consistent(group, cycles)
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    coeffs = [1] + [0] * trunc
    for d in _numerator_degrees(group, 1):
        _multiply_by_factor(coeffs, d)
    for c in cycles.positive_cycles:
        _divide_by_factor(coeffs, c, 1)
    for c in cycles.negative_cycles:
        _divide_by_factor(coeffs, c, -1)
    return TruncatedSeries(tuple(coeffs))


def product_ecom_numerator(groups: list[GroupSpec]) -> QPoly:
    """Fiber-space numerator of a finite cartesian product of groups."""
    out = QPoly.one()
    for g in groups:
        out = out * ecom_numerator(g)
    return out


def product_bcom_series(groups: list[GroupSpec]) -> RationalSeries:
    """Series of the commuting classifying space of a cartesian product;
    numerators multiply and denominator factors merge."""
    out = RationalSeries(QPoly.one())
    for g in groups:
        out = out * bcom_series(g)
    return out


def product_bg_series(groups: list[GroupSpec]) -> RationalSeries:
    out = RationalSeries(QPoly.one())
    for g in groups:
        out = out * bg_series(g)
    return out
