"""Molien-type oracle for every Poincare series in the library.

The graded trace of a Weyl group element w on the coinvariant algebra of the
flag manifold is

    prod_i (1 - s^(d_i)) / det(1 - s*w),

with d_i the invariant degrees and the determinant taken on the reflection
representation (the Lie algebra of the maximal torus).  Write N for the
numerator.  The fiber-space series is N^2 times the class average of
1/det(1 - s*w)^2, the square of the trace averaged over the group; the series
of the commuting classifying space is N times that same average.

Both averages run over conjugacy classes weighted by class size.  On the
permutation representation det(1 - s*w) is a product of factors
(1 - sign*s^c)^m, one per distinct cycle length c and sign, and classes
listed in order share long prefixes of these factors.  A stack keeps
1/det^2 of each prefix of the previous class, so a class divides only the
factors past the prefix it shares, each (1 - sign*s^c)^(2m) in one call of
the factor recurrence.  The weighted sum of these N-free series is
multiplied by N once at the end, so the oracle scales with the number of
cycle types, not with the group order.

Everything stays in exact integers; the final division by the group order is
checked for exactness and never rounded.
"""

from __future__ import annotations

from math import factorial
from operator import add
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
    for length in dict.fromkeys(lengths):
        mult = lengths.count(length)
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


def _numerator(group: GroupSpec, dets: int) -> QPoly:
    """Class-independent numerator of prod_i (1 - s^(d_i)) / det(1 - s*w)^dets
    on the reflection representation.  For SU, whose trivial summand is split
    off, that determinant is the one on the permutation representation
    (``_over_det``) over (1 - s)."""
    degrees = invariant_degrees(group)
    if group.family == "SU":
        degrees += (1,) * dets
    poly = QPoly.one()
    for d in degrees:
        poly = poly * QPoly({0: 1, d: -1})
    return poly


def _over_det(numerator: list[int], cycles: CycleData, dets: int) -> list[int]:
    """The numerator divided ``dets`` times by det(1 - s*w) on the
    permutation representation: the product of (1 - s^c) over positive and
    (1 + s^c) over negative cycles."""
    coeffs = numerator.copy()
    for c, sign, m in _factors(cycles):
        _divide_by_factor(coeffs, c, sign, dets * m)
    return coeffs


def coinvariant_char(
    group: GroupSpec, cycles: CycleData, trunc: int
) -> TruncatedSeries:
    """Graded trace of a class on the coinvariant algebra, in s = t^2,
    through degree ``trunc``."""
    _check_consistent(group, cycles)
    numerator = _numerator(group, 1).coefficients_through(trunc)
    return TruncatedSeries(tuple(_over_det(numerator, cycles, 1)))


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


def _factors(cycles: CycleData) -> list[tuple[int, int, int]]:
    """Run-length factors (c, sign, m) of det(1 - s*w) on the permutation
    representation: (1 - sign*s^c)^m for each distinct cycle length c,
    positive cycles first."""
    return [
        (c, sign, lengths.count(c))
        for lengths, sign in ((cycles.positive_cycles, 1), (cycles.negative_cycles, -1))
        for c in dict.fromkeys(lengths)
    ]


def _class_average(
    group: GroupSpec, trunc: int, numerator: list[int]
) -> TruncatedSeries:
    """Class-size weighted average, through t-degree ``trunc``, of the
    series with coefficients ``numerator`` (through s-degree trunc // 2)
    over det(1 - s*w)^2 on the permutation representation.

    ``stack[i]`` is 1 / (first i factors of the previous class)^2, so a class
    divides only the factors past the prefix it shares with the previous
    one; the numerator multiplies the weighted sum once at the end."""
    s_trunc = trunc // 2
    acc = [0] * (s_trunc + 1)
    stack = [[1] + [0] * s_trunc]
    previous: list[tuple[int, int, int]] = []
    for cycles, size in conjugacy_classes(group):
        factors = _factors(cycles)
        shared = 0
        for old, new in zip(previous, factors):
            if old != new:
                break
            shared += 1
        del stack[shared + 1 :]
        for c, sign, m in factors[shared:]:
            series = stack[-1]
            if c <= s_trunc:
                series = series.copy()
                _divide_by_factor(series, c, sign, 2 * m)
            stack.append(series)
        previous = factors
        acc[:] = map(add, acc, map(size.__mul__, stack[-1]))
    acc = _convolve(numerator, acc, s_trunc)
    t_coeffs = [0] * (trunc + 1)
    t_coeffs[::2] = _exact_average(acc, group.weyl_order)
    return TruncatedSeries(tuple(t_coeffs))


def oracle_ecom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Fiber-space series through t-degree ``trunc`` via the class-sum of
    squared coinvariant characters, (N / det)^2 = N^2 / det^2; N^2 is
    squared only through the truncation."""
    numerator = _numerator(group, 1).coefficients_through(trunc // 2)
    return _class_average(
        group, trunc, _convolve(numerator, numerator, trunc // 2)
    )


def oracle_bcom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Commuting-classifying-space series through t-degree ``trunc`` via the
    class-sum of character over reflection determinant."""
    return _class_average(
        group, trunc, _numerator(group, 2).coefficients_through(trunc // 2)
    )
