"""Molien-type oracle for every Poincare series in the library.

The graded trace of a Weyl group element w on the coinvariant algebra of the
flag manifold is

    prod_i (1 - s^(d_i)) / det(1 - s*w),

with d_i the invariant degrees and the determinant taken on the reflection
representation (the Lie algebra of the maximal torus).  Averaging the square
of this trace over the group gives the fiber-space series; averaging trace
over det once more gives the series of the commuting classifying space.
Both averages run over conjugacy classes weighted by class size, so the
oracle scales with the number of cycle types, not with the group order.

Everything stays in exact integers; the final division by the group order is
checked for exactness and never rounded.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterator

from .poincare import GroupSpec
from .qseries import QPoly, TruncatedSeries, _convolve, _divide_by_factor
from .repa import partitions
from .weylcomb import CycleData


class IntegralityError(ArithmeticError):
    """A class-weighted average failed to be an integer; the class data or
    the character formula is inconsistent."""


def _cycle_type_weight(lengths: tuple[int, ...]) -> int:
    """Centralizer factor prod_k k^(m_k) * m_k! of a cycle-length multiset."""
    weight = 1
    for length, mult in Counter(lengths).items():
        weight *= length**mult * factorial(mult)
    return weight


def symmetric_conjugacy_classes(n: int) -> Iterator[tuple[CycleData, int]]:
    """Cycle types of the symmetric group with their class sizes."""
    n_fact = factorial(n)
    for shape in partitions(n):
        yield CycleData(shape), n_fact // _cycle_type_weight(shape)


def signed_conjugacy_classes(n: int) -> Iterator[tuple[CycleData, int]]:
    """Signed cycle types (pairs of partitions) with their class sizes.

    The centralizer of a class with positive type lam+ and negative type
    lam- has order prod (2k)^(m_k) m_k! taken over both types.
    """
    order = 2**n * factorial(n)
    for pos_size in range(n + 1):
        for pos in partitions(pos_size):
            for neg in partitions(n - pos_size):
                centralizer = (
                    _cycle_type_weight(pos)
                    * _cycle_type_weight(neg)
                    * 2 ** (len(pos) + len(neg))
                )
                yield CycleData(pos, neg), order // centralizer


def conjugacy_classes(group: GroupSpec) -> Iterator[tuple[CycleData, int]]:
    if group.weyl_kind == "sym":
        return symmetric_conjugacy_classes(group.n)
    return signed_conjugacy_classes(group.n)


def invariant_degrees(group: GroupSpec) -> tuple[int, ...]:
    """Degrees d_i of the basic invariants, in the s = t^2 grading."""
    n = group.n
    if group.family == "U":
        return tuple(range(1, n + 1))
    if group.family == "SU":
        return tuple(range(2, n + 1))
    return tuple(2 * i for i in range(1, n + 1))


def _check_consistent(group: GroupSpec, cycles: CycleData) -> None:
    if cycles.size != group.n:
        raise ValueError(
            f"cycle data of size {cycles.size} for a rank-{group.n} group"
        )
    if group.weyl_kind == "sym" and cycles.negative_cycles:
        raise ValueError(f"{group.label} has no negative cycles")


def _numerator(group: GroupSpec, trunc: int, dets: int) -> list[int]:
    """Coefficients through ``trunc`` of the class-independent numerator of
    prod_i (1 - s^(d_i)) / det(1 - s*w)^dets on the reflection representation.
    For SU, whose trivial summand is split off, that determinant is the one on
    the permutation representation (``_over_det``) over (1 - s)."""
    degrees = invariant_degrees(group)
    if group.family == "SU":
        degrees += (1,) * dets
    poly = QPoly.one()
    for d in degrees:
        poly = poly * QPoly({0: 1, d: -1})
    return poly.coefficients_through(trunc)


def _over_det(numerator: list[int], cycles: CycleData, dets: int) -> list[int]:
    """The numerator divided ``dets`` times by det(1 - s*w) on the
    permutation representation: the product of (1 - s^c) over positive and
    (1 + s^c) over negative cycles."""
    coeffs = numerator.copy()
    signed = [(c, 1) for c in cycles.positive_cycles]
    signed += [(c, -1) for c in cycles.negative_cycles]
    for c, sign in signed * dets:
        _divide_by_factor(coeffs, c, sign)
    return coeffs


def coinvariant_char(
    group: GroupSpec, cycles: CycleData, trunc: int
) -> TruncatedSeries:
    """Graded trace of a class on the coinvariant algebra, in s = t^2,
    through degree ``trunc``."""
    _check_consistent(group, cycles)
    return TruncatedSeries(tuple(_over_det(_numerator(group, trunc, 1), cycles, 1)))


def _exact_average(acc: list[int], order: int) -> list[int]:
    out = []
    for k, value in enumerate(acc):
        q, r = divmod(value, order)
        if r != 0:
            raise IntegralityError(
                f"class average is not an integer at degree {k}: {value}/{order}"
            )
        out.append(q)
    return out


def _class_average(
    group: GroupSpec, trunc: int, dets: int, square: bool
) -> TruncatedSeries:
    """Class-size weighted average, through t-degree ``trunc``, of
    prod_i (1 - s^(d_i)) / det(1 - s*w)^dets, squared first when ``square``."""
    s_trunc = trunc // 2
    numerator = _numerator(group, s_trunc, dets)
    acc = [0] * (s_trunc + 1)
    for cycles, size in conjugacy_classes(group):
        ch = _over_det(numerator, cycles, dets)
        if square:
            ch = _convolve(ch, ch, s_trunc)
        for k, c in enumerate(ch):
            acc[k] += size * c
    t_coeffs = [0] * (trunc + 1)
    t_coeffs[::2] = _exact_average(acc, group.weyl_order)
    return TruncatedSeries(tuple(t_coeffs))


def oracle_ecom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Fiber-space series through t-degree ``trunc`` via the class-sum of
    squared coinvariant characters."""
    return _class_average(group, trunc, dets=1, square=True)


def oracle_bcom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Commuting-classifying-space series through t-degree ``trunc`` via the
    class-sum of character over reflection determinant."""
    return _class_average(group, trunc, dets=2, square=False)
