"""Test-side references: code that only the tests call.

The per-class coinvariant character is what the oracles' class sum adds up
without ever forming it; the product combinators multiply the closed forms
of a cartesian product of groups; the diagonal action and the enumerated
group average are what the orbit-sum coordinates of ``multisym`` replace;
Gaussian elimination over Fraction is the oracle of ``multisym.exact_rank``;
the descent-loop monomial is what the flag-vector exponents of
``multisym.descent_monomial`` replace; the tableau count is independent of
the hook formula; keying every labelled chain is what the least-prefix
build of ``toriposet.chain_classes`` replaces.  None is on a library or CLI
path.
"""

from __future__ import annotations

from fractions import Fraction

from comlie.coinvariants import _numerator_degrees
from comlie.multisym import Coeff, ExpKey, MultiPoly, monomial_orbit_reps
from comlie.poincare import GroupSpec, bcom_series, bg_series, ecom_numerator
from comlie.qseries import (
    QPoly,
    RationalSeries,
    TruncatedSeries,
    _divide_by_factor,
    _multiply_by_factor,
)
from comlie.toriposet import ChainClass, _chains, chain_orbit_key
from comlie.weylcomb import (
    CycleData,
    Permutation,
    SignedPermutation,
    elements,
    group_order,
)


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


def cycles_of_runs(runs: tuple[tuple[int, int, int], ...]) -> CycleData:
    """The cycle multisets of a class given as its factor runs (c, sign, -m),
    the form ``coinvariants.conjugacy_classes`` yields."""
    cycles = {1: [], -1: []}
    for c, sign, neg_m in runs:
        cycles[sign] += [c] * -neg_m
    return CycleData(tuple(cycles[1]), tuple(cycles[-1]))


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


def act(w: SignedPermutation, poly: MultiPoly) -> MultiPoly:
    """Diagonal substitution x_i -> (sign) x_|w(i)|, y_i -> (sign) y_|w(i)|."""
    if w.n != poly.n:
        raise ValueError("size mismatch between element and polynomial")
    n = poly.n
    word = w.word
    out: dict[ExpKey, Coeff] = {}
    for (xexp, yexp), coeff in poly.terms.items():
        new_x = [0] * n
        new_y = [0] * n
        sign = 1
        for i in range(n):
            v = word[i]
            j = abs(v) - 1
            new_x[j] = xexp[i]
            new_y[j] = yexp[i]
            if v < 0 and (xexp[i] + yexp[i]) % 2:
                sign = -sign
        key = (tuple(new_x), tuple(new_y))
        v2 = out.get(key, 0) + sign * coeff
        if v2:
            out[key] = v2
        else:
            del out[key]
    result = MultiPoly(n)
    result.terms = out
    return result


def average(kind: str, poly: MultiPoly) -> MultiPoly:
    """Group average (1/|W|) sum_w w . poly; idempotent on invariants."""
    total = MultiPoly.zero(poly.n)
    for w in elements(kind, poly.n):
        total = total + act(w, poly)
    return total * Fraction(1, group_order(kind, poly.n))


def descent_monomial_by_descents(w: Permutation) -> MultiPoly:
    """Product over descents i of w^-1 of x_1..x_i, times the product over
    descents j of w of y_w(1)..y_w(j), one descent at a time."""
    n = w.n
    xexp = [0] * n
    yexp = [0] * n
    for i in w.inverse().descent_set():
        for k in range(i):
            xexp[k] += 1
    for j in w.descent_set():
        for k in range(1, j + 1):
            yexp[w(k) - 1] += 1
    return MultiPoly.monomial(n, tuple(xexp), tuple(yexp))


def invariant_graded_dim(kind: str, n: int, degree: int) -> int:
    """Dimension of the degree-``degree`` piece of the invariant ring."""
    return len(monomial_orbit_reps(kind, n, degree))


def fraction_rank(rows: list[list[Coeff]]) -> int:
    """Rank over Q of dense rows by Gaussian elimination over Fraction: the
    oracle the tests compare ``exact_rank`` with."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        work = list(row)
        for col, pivot_row in pivots:
            c = work[col]
            if c:
                work = [a - c * b for a, b in zip(work, pivot_row)]
        for col, value in enumerate(work):
            if value:
                work = [Fraction(a, value) for a in work]
                pivots.append((col, work))
                break
    return len(pivots)


def chain_classes_by_enumeration(n: int, ivals: tuple[int, ...]) -> list[ChainClass]:
    """``toriposet.chain_classes`` by keying every labelled chain and keeping
    the least chain per key."""
    block_counts = tuple(i + 1 for i in ivals)
    best: dict = {}
    for chain in _chains(n, block_counts):
        key = chain_orbit_key(chain)
        if key not in best or chain < best[key]:
            best[key] = chain
    classes = [
        ChainClass(representative=chain, block_counts=block_counts)
        for chain in best.values()
    ]
    classes.sort(key=lambda c: c.representative)
    return classes


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Backtracking enumerator of standard fillings; independent of the hook
    formula on purpose."""
    n = sum(shape)
    if n == 0:
        return 1
    heights = [0] * len(shape)

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for row, width in enumerate(shape):
            if heights[row] < width and (row == 0 or heights[row - 1] > heights[row]):
                heights[row] += 1
                total += place(value + 1)
                heights[row] -= 1
        return total

    return place(1)
