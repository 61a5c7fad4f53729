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
(1 - sign*s^c)^m, one per distinct cycle length c and sign.  Listed shortest
cycle first and sorted, the classes share long prefixes of these factors,
so the factor lists form a trie.  The sum runs bottom-up over it: each open
inner node keeps the size-weighted sum of the classes below it, not yet
divided by its own factor, and divides that sum once by (1 - sign*s^c)^(2m)
when the last class below it has been added, in one call of the factor
recurrence.  A class adds its size times the expansion of its last factor
alone, a series in s^c for its longest cycle c, so the last factor never
divides and touches only every c-th coefficient.  The weighted sum of these
N-free series is multiplied by N at the end, one factor (1 - s^d) at a
time, so the oracle scales with the number of cycle types, not with the
group order.

Everything stays in exact integers; the final division by the group order is
checked for exactness and never rounded.
"""

from __future__ import annotations

from math import factorial
from operator import add
from typing import Iterator

from .poincare import GroupSpec
from .qseries import TruncatedSeries, _divide_by_factor, _multiply_by_factor
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
    return group._invariant_degrees


def _check_consistent(group: GroupSpec, cycles: CycleData) -> None:
    if cycles.size != group.n:
        raise ValueError(
            f"cycle data of size {cycles.size} for a rank-{group.n} group"
        )
    if group.weyl_kind == "sym" and cycles.negative_cycles:
        raise ValueError(f"{group.label} has no negative cycles")


def _numerator_degrees(group: GroupSpec, dets: int) -> tuple[int, ...]:
    """Degrees d of the factors (1 - s^d) of the class-independent numerator
    of prod_i (1 - s^(d_i)) / det(1 - s*w)^dets on the reflection
    representation.  For SU, whose trivial summand is split off, that
    determinant is the one on the permutation representation over (1 - s),
    so each det adds the degree 1."""
    degrees = invariant_degrees(group)
    if group.family == "SU":
        degrees += (1,) * dets
    return degrees


def coinvariant_char(
    group: GroupSpec, cycles: CycleData, trunc: int
) -> TruncatedSeries:
    """Graded trace of a class on the coinvariant algebra, in s = t^2,
    through degree ``trunc``: the numerator divided by det(1 - s*w) on the
    permutation representation, the product of (1 - s^c) over positive and
    (1 + s^c) over negative cycles."""
    _check_consistent(group, cycles)
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    coeffs = [1] + [0] * trunc
    for d in _numerator_degrees(group, 1):
        _multiply_by_factor(coeffs, d)
    for c, sign, m in _factors(cycles):
        _divide_by_factor(coeffs, c, sign, m)
    return TruncatedSeries(tuple(coeffs))


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
    representation: (1 - sign*s^c)^m for each distinct cycle length c and
    sign, sorted ascending, so the longest cycle comes last."""
    return sorted(
        (c, sign, lengths.count(c))
        for lengths, sign in ((cycles.positive_cycles, 1), (cycles.negative_cycles, -1))
        for c in dict.fromkeys(lengths)
    )


def _class_average(
    group: GroupSpec, trunc: int, degrees: tuple[int, ...]
) -> TruncatedSeries:
    """Class-size weighted average, through t-degree ``trunc``, of the
    product over ``degrees`` of (1 - s^d) over det(1 - s*w)^2 on the
    permutation representation.

    The factor runs of each class, in ``_factors`` order, are a path in a
    trie, and the classes are taken in sorted order of their runs, so each
    node opens once.  ``path`` holds the inner runs of the open nodes and
    ``pending[i]`` the weighted sum of the classes below ``path[i - 1]``
    (the root at ``pending[0]``), not yet divided by that run.  A class
    closes the nodes past the prefix its inner runs share with ``path``
    (divide, then add into the parent), opens the rest, and adds size times
    the expansion of its last run, its longest cycle c, on the exponents
    that are multiples of c; the root is multiplied by the numerator one
    factor at a time at the end.  The order only saves work: a node closed
    early and opened again divides twice, and the sum is the same."""
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    s_trunc = trunc // 2
    path: list[tuple[int, int, int]] = []
    pending = [[0] * (s_trunc + 1)]
    last_runs: dict[tuple[int, int, int], list[int]] = {}

    def close() -> None:
        c, sign, m = path.pop()
        below = pending.pop()
        if c <= s_trunc:
            _divide_by_factor(below, c, sign, 2 * m)
        # past the truncation the factor is 1, but the whole sum moves up
        pending[-1][:] = map(add, pending[-1], below)

    classes = sorted(
        (_factors(cycles), size) for cycles, size in conjugacy_classes(group)
    )
    for runs, size in classes:
        *inner, last = runs
        shared = 0
        for old, new in zip(path, inner):
            if old != new:
                break
            shared += 1
        while len(path) > shared:
            close()
        for run in inner[shared:]:
            path.append(run)
            pending.append([0] * (s_trunc + 1))
        series = last_runs.get(last)
        if series is None:
            # 1 / (1 - sign*y)^(2m) in y = s^c, through s-degree s_trunc
            c, sign, m = last
            series = [1] + [0] * (s_trunc // c)
            _divide_by_factor(series, 1, sign, 2 * m)
            last_runs[last] = series
        target, c = pending[-1], last[0]
        target[::c] = map(add, target[::c], map(size.__mul__, series))
    while path:
        close()
    acc = pending[0]
    for d in degrees:
        _multiply_by_factor(acc, d)
    t_coeffs = [0] * (trunc + 1)
    t_coeffs[::2] = _exact_average(acc, group.weyl_order)
    return TruncatedSeries(tuple(t_coeffs))


def oracle_ecom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Fiber-space series through t-degree ``trunc`` via the class-sum of
    squared coinvariant characters, (N / det)^2 = N^2 / det^2: each factor
    of N twice."""
    return _class_average(group, trunc, _numerator_degrees(group, 1) * 2)


def oracle_bcom(group: GroupSpec, trunc: int) -> TruncatedSeries:
    """Commuting-classifying-space series through t-degree ``trunc`` via the
    class-sum of character over reflection determinant."""
    return _class_average(group, trunc, _numerator_degrees(group, 2))
