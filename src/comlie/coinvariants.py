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
(1 - sign*s^c)^m, one per distinct cycle length c and sign, and
``conjugacy_classes`` gives each class as these factor runs, shortest cycle
first, with its size.  Sorted, the run tuples form a trie, which
``_class_average`` sums bottom-up: each inner node divides the size-weighted
sum of the classes below it once by its own factor, or, Horner style, only
by the quotient power when a same-cycle sibling of smaller multiplicity
takes its sum on; a class adds its size times the expansion of its
longest-cycle factor alone, without dividing.  The weighted sum is
multiplied by N at the end, one factor (1 - s^d) at a time, so the oracle
scales with the number of cycle types, not with the group order.

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


class IntegralityError(ArithmeticError):
    """A class-weighted average failed to be an integer; the class data or
    the character formula is inconsistent."""


Run = tuple[int, int, int]

#: Largest estimated cost of the class sum that ``series --oracle`` runs:
#: the classes times (maxdeg // 2 + 200), about 0.1 us each on a 2-core
#: host.  Near the bound, U(51) at degree 2 took 4.4 s and 188 MB (0.8 KB
#: per class held for the sort), U(25) at degree 50000 6.5 s and 52 MB.
MAX_ORACLE_COST = 50_000_000


def _runs(lengths: tuple[int, ...], sign: int = 1) -> tuple[Run, ...]:
    """Runs (c, sign, -m) of a nonincreasing tuple of cycle lengths, one per
    distinct length c of multiplicity m, ascending in c.  The walk starts
    at the end of the tuple, where the shortest cycles are, and each run
    begins at the first index of its length."""
    runs = []
    end = len(lengths)
    while end:
        c = lengths[end - 1]
        start = lengths.index(c)
        runs.append((c, sign, start - end))
        end = start
    return tuple(runs)


def _centralizer(runs: tuple[Run, ...], cycle_factor: int = 1) -> int:
    """Centralizer order prod (cycle_factor*c)^m * m! over the runs."""
    order = 1
    for c, _, neg_m in runs:
        order *= (cycle_factor * c) ** -neg_m * factorial(-neg_m)
    return order


def conjugacy_classes(group: GroupSpec) -> Iterator[tuple[tuple[Run, ...], int]]:
    """Each conjugacy class of the Weyl group once, as its factor runs and
    its size.  The runs (c, sign, -m) stand for the factors
    (1 - sign*s^c)^m of det(1 - s*w) on the permutation representation,
    one per distinct cycle length c and sign, ascending in (c, sign), so
    the longest cycle comes last.  Keyed by -m, sorted classes meet the
    runs of one (c, sign) largest m first.

    A signed class pairs a positive cycle type of size k with a negative
    one of size n - k; its centralizer has order prod (2c)^m * m! over
    both, so each type's runs and centralizer are made once."""
    n, order = group.n, group.weyl_order
    if group.weyl_kind == "sym":
        for shape in partitions(n):
            runs = _runs(shape)
            yield runs, order // _centralizer(runs)
        return
    cycle_types = {}
    for k in range(n + 1):
        shapes = partitions(k)
        for sign in (1, -1):
            cycle_types[k, sign] = [(runs, _centralizer(runs, 2))
                                    for runs in (_runs(s, sign) for s in shapes)]
    for k in range(n + 1):
        for pos, pos_order in cycle_types[k, 1]:
            for neg, neg_order in cycle_types[n - k, -1]:
                # merges the two ascending run tuples
                yield tuple(sorted(pos + neg)), order // (pos_order * neg_order)


def invariant_degrees(group: GroupSpec) -> tuple[int, ...]:
    """Degrees d_i of the basic invariants, in the s = t^2 grading."""
    return group._invariant_degrees


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


def _oracle_cost(group: GroupSpec, trunc: int) -> int:
    """The class count of the group times (trunc // 2 + 200): a class costs
    about as much to make and sort as 200 coefficient steps.  The classes
    are counted by the partition-number recurrence, rank by rank, and the
    count stops once the product passes MAX_ORACLE_COST, so a huge rank
    costs nothing to refuse."""
    per_class = trunc // 2 + 200
    p, m = [1], 0  # the partition numbers p(0..m)
    while True:
        classes = (p[m] if group.weyl_kind == "sym"
                   else sum(p[k] * p[m - k] for k in range(m + 1)))
        if m == group.n or classes * per_class > MAX_ORACLE_COST:
            return classes * per_class
        m, k, total = m + 1, 1, 0
        while (g := k * (3 * k - 1) // 2) <= m:  # Euler's pentagonal numbers
            total -= (-1) ** k * (p[m - g] + (p[m - g - k] if g + k <= m else 0))
            k += 1
        p.append(total)


def _class_average(
    group: GroupSpec, trunc: int, degrees: tuple[int, ...]
) -> TruncatedSeries:
    """Class-size weighted average, through t-degree ``trunc``, of the
    product over ``degrees`` of (1 - s^d) over det(1 - s*w)^2 on the
    permutation representation.

    The factor runs of each class, as ``conjugacy_classes`` gives them, are
    a path in a trie, and the classes are taken in sorted order of their
    runs, so each node opens once.  ``path`` holds the inner runs of the
    open nodes and ``pending[i]`` the weighted sum of the classes below
    ``path[i - 1]`` (the root at ``pending[0]``), not yet divided by that
    run, or None while nothing has been added to it.  A class closes the nodes past the
    prefix its inner runs share with ``path`` (divide, then add into the
    parent) and opens the rest.  When the deepest node it leaves is
    (c, sign, m) and its own run there is (c, sign, m') with m' < m, that
    node is not closed but carried over, Horner style: its sum is divided
    by the quotient (1 - sign*s^c)^(2(m - m')) only and becomes the pending
    sum of the new node, whose own division supplies the rest.  The class
    then adds size times the expansion of its last run, its longest cycle
    c, on the exponents that are multiples of c, into a fresh list if the
    node has none.  A closing node always finds its parent's list: a node
    that no sibling carries into is the first of its (c, sign) under its
    parent, with the largest m, so at most 2c cycle cells remain below it,
    fewer than two later runs need (c + (c + 1)), and every class below it
    adds a leaf.  The root is multiplied by the numerator one factor at a
    time at the end.  The sort is what makes the carries valid, so the sum
    does not depend on the order ``conjugacy_classes`` yields."""
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    s_trunc = trunc // 2
    path: list[Run] = []
    pending: list[list[int] | None] = [None]
    last_runs: dict[Run, list[int]] = {}

    def close() -> None:
        c, sign, neg_m = path.pop()
        below = pending.pop()
        if c <= s_trunc:
            _divide_by_factor(below, c, sign, -2 * neg_m)
        # past the truncation the factor is 1, but the whole sum moves up
        pending[-1][:] = map(add, pending[-1], below)

    for runs, size in sorted(conjugacy_classes(group)):
        runs, last = runs[:-1], runs[-1]
        shared = 0
        for old, new in zip(path, runs):
            if old != new:
                break
            shared += 1
        while len(path) > shared + 1:
            close()
        if len(path) > shared:
            c, sign, neg_m = path[-1]
            new = runs[shared] if shared < len(runs) else None
            if new and new[0] == c and new[1] == sign:
                # sorted, so m' < m: new[2] - neg_m = m - m' > 0
                if c <= s_trunc:
                    _divide_by_factor(pending[-1], c, sign, 2 * (new[2] - neg_m))
                path[-1] = new
                shared += 1
            else:
                close()
        for run in runs[shared:]:
            path.append(run)
            pending.append(None)
        c = last[0]
        series = last_runs.get(last)
        if series is None:
            # 1 / (1 - sign*y)^(2m) in y = s^c, through s-degree s_trunc
            series = [1] + [0] * (s_trunc // c)
            _divide_by_factor(series, 1, last[1], -2 * last[2])
            last_runs[last] = series
        target = pending[-1]
        if target is None:
            target = pending[-1] = [0] * (s_trunc + 1)
            target[::c] = map(size.__mul__, series)
        else:
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
