"""Diagonal invariants of the symmetric and hyperoctahedral groups in two
sets of variables, with exact graded linear algebra.

The group acts on Q[x_1..x_n, y_1..y_n] by x_i -> (+/-) x_|w(i)|,
y_i -> (+/-) y_|w(i)| simultaneously.  Graded pieces of the invariant ring
are coordinatized by orbit sums of monomials: a monomial is recorded as the
multiset of its per-slot exponent pairs (a_i, b_i), and for the signed group
only multisets with every a_i + b_i even survive averaging.

Rows that are an orbit sum times power sums are built in these coordinates
without expanding a polynomial: for the orbit sum m_A and a distinct pair v
of A, let C be A with one copy of v raised by (a, b); then
m_A * p_(a,b) = sum over v of mult_C(v + (a, b)) * m_C.  Ideal quotients
and power-sum generation use this rule alone.  The group average of a
monomial is its orbit sum over the orbit size, or zero for the signed group
when some pair degree is odd, so the descent basis needs no enumeration of
the group per monomial; the tests keep the enumerated average as the
reference.
Free-basis products of three orbit sums are still ``MultiPoly`` products.
Every check reduces to exact rank computations in orbit-sum coordinates,
on one row format from the row builders to ``exact_rank``: a sparse row
{column: nonzero int}, which structure constants and products of primitive
orbit sums always give.  ``exact_rank`` eliminates these rows over the
integers, fraction-free, so each rank is exact integer arithmetic.
Each graded check is a loop over per-degree answers memoised for the
process, each keyed by exactly the inputs that determine it, so a degree
already ranked is never ranked again.

All polynomial degrees here are plain degrees of polynomials; the doubling
to cohomological degree happens in callers.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .families import canonical_family
from .repa import partitions_max_parts
from .reports import CheckReport
from .weylcomb import (
    GroupSizeError,
    Permutation,
    SignedPermutation,
    _check_kind,
    _degrees,
    elements,
)

#: Documented feasibility range for the graded linear algebra.
QUOTIENT_CAPS = {"sym": 4, "signed": 3}
MAX_QUOTIENT_DEGREE = 12

ExpKey = tuple[tuple[int, ...], tuple[int, ...]]
Pair = tuple[int, int]
OrbitRep = tuple[Pair, ...]
GradedDims = dict[int, int]
Coeff = int | Fraction
Row = dict[int, int]


def _coeff(value: Coeff) -> Coeff:
    """An exact coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _wrap_terms(n: int, terms: dict[ExpKey, Coeff]) -> "MultiPoly":
    """A polynomial on a term dict built by an operation; integral
    Fractions become ints."""
    for key, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[key] = c.numerator
    result = MultiPoly(n)
    result.terms = terms
    return result


class MultiPoly:
    """Sparse polynomial in x_1..x_n, y_1..y_n with integer or rational
    coefficients.

    Terms map ((a_1..a_n), (b_1..b_n)) to a nonzero coefficient: an int when
    it is integral, a Fraction otherwise.  Instances are treated as
    immutable; every operation returns a fresh polynomial.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[ExpKey, Coeff] | None = None):
        if n < 1:
            raise ValueError("need at least one variable pair")
        self.n = n
        data: dict[ExpKey, Coeff] = {}
        if terms:
            for (xexp, yexp), coeff in terms.items():
                if len(xexp) != n or len(yexp) != n:
                    raise ValueError("exponent vector length mismatch")
                if any(e < 0 for e in xexp) or any(e < 0 for e in yexp):
                    raise ValueError("negative exponent")
                c = _coeff(coeff)
                if c:
                    key = (tuple(xexp), tuple(yexp))
                    c = _coeff(data.get(key, 0) + c)
                    if c:
                        data[key] = c
                    else:
                        del data[key]
        self.terms = data

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "MultiPoly":
        return cls(n, {((0,) * n, (0,) * n): 1})

    @classmethod
    def monomial(
        cls,
        n: int,
        xexp: tuple[int, ...],
        yexp: tuple[int, ...],
        coeff: Coeff = 1,
    ) -> "MultiPoly":
        return cls(n, {(tuple(xexp), tuple(yexp)): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, xexp: tuple[int, ...], yexp: tuple[int, ...]) -> Coeff:
        return self.terms.get((tuple(xexp), tuple(yexp)), 0)

    def total_degree(self) -> int:
        """Largest total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(x) + sum(y) for x, y in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.n != other.n:
            raise ValueError("size mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return _wrap_terms(self.n, out)

    def __neg__(self) -> "MultiPoly":
        result = MultiPoly(self.n)
        result.terms = {key: -c for key, c in self.terms.items()}
        return result

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return MultiPoly(self.n)
            return _wrap_terms(
                self.n, {key: v * c for key, v in self.terms.items()})
        if self.n != other.n:
            raise ValueError("size mismatch")
        out: dict[ExpKey, Coeff] = {}
        get = out.get
        right = other.terms.items()
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in right:
                key = (tuple(map(add, x1, x2)), tuple(map(add, y1, y2)))
                v = get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return _wrap_terms(self.n, out)

    __rmul__ = __mul__

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (xexp, yexp), c in sorted(self.terms.items()):
            factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                       for i, e in enumerate(xexp) if e]
            factors += [f"y{i + 1}^{e}" if e > 1 else f"y{i + 1}"
                        for i, e in enumerate(yexp) if e]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{body}" if c != 1 or not factors else body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_str()})"


def power_sum(n: int, a: int, b: int) -> MultiPoly:
    """The invariant x_1^a y_1^b + ... + x_n^a y_n^b."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("power sum needs a, b >= 0 with a + b >= 1")
    terms: dict[ExpKey, Coeff] = {}
    for i in range(n):
        xexp = [0] * n
        yexp = [0] * n
        xexp[i] = a
        yexp[i] = b
        terms[(tuple(xexp), tuple(yexp))] = 1
    return MultiPoly(n, terms)


def _flag_exponents(w: SignedPermutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x- and y-exponent vectors of the signed descent monomial of w."""
    yexp = [0] * w.n
    for v, f in zip(w.word, w.flag_vector()):
        yexp[abs(v) - 1] = f
    return w.inverse().flag_vector(), tuple(yexp)


def descent_monomial(w: Permutation) -> MultiPoly:
    """Product over descents i of w^-1 of x_1..x_i, times the product over
    descents j of w of y_w(1)..y_w(j).

    The x-degree is the major index of w^-1 and the y-degree that of w.
    The exponents are the halved flag exponents: on a positive word each
    flag-vector entry is twice the number of descents at or after its
    position.
    """
    xexp, yexp = _flag_exponents(w)
    return MultiPoly.monomial(w.n, tuple(e // 2 for e in xexp),
                              tuple(e // 2 for e in yexp))


def signed_descent_monomial(w: SignedPermutation) -> MultiPoly:
    """Monomial with x_i-exponent the i-th flag-vector entry of w^-1 and
    y_|w(i)|-exponent the i-th flag-vector entry of w; its total degree is
    fmaj(w^-1) + fmaj(w)."""
    return MultiPoly.monomial(w.n, *_flag_exponents(w))


@lru_cache(maxsize=None)
def monomial_orbit_reps(kind: str, n: int, degree: int) -> tuple[OrbitRep, ...]:
    """Canonical representatives of monomial orbits in degree ``degree``.

    A representative lists the n exponent pairs sorted by (a+b, a)
    descending.  For 'signed', only all-even pair degrees appear, since the
    other orbits average to zero.
    """
    _check_kind(kind)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    even_only = kind == "signed"
    out: list[OrbitRep] = []

    def rec(slots_left: int, remaining: int, bound: Pair, acc: tuple[Pair, ...]) -> None:
        if remaining == 0:
            out.append(acc + ((0, 0),) * slots_left)
            return
        bound_deg, bound_a = bound
        for d in range(min(bound_deg, remaining), 0, -1):
            if d * slots_left < remaining:
                break
            if even_only and d % 2:
                continue
            a_max = bound_a if d == bound_deg else d
            for a in range(a_max, -1, -1):
                rec(slots_left - 1, remaining - d, (d, a), acc + ((a, d - a),))

    rec(n, degree, (degree, degree), ())
    return tuple(out)


@lru_cache(maxsize=None)
def orbit_sum(n: int, rep: OrbitRep) -> MultiPoly:
    """Sum of the distinct monomials in the orbit of the representative."""
    terms: dict[ExpKey, Coeff] = {}
    for arrangement in set(itertools.permutations(rep)):
        xexp = tuple(p[0] for p in arrangement)
        yexp = tuple(p[1] for p in arrangement)
        terms[(xexp, yexp)] = 1
    return MultiPoly(n, terms)


def _pair_order(pair: Pair) -> Pair:
    """Sort key of exponent pairs; representatives list their pairs by
    (a + b, a) descending."""
    return (pair[0] + pair[1], pair[0])


def _times_power_sum(rep: OrbitRep, gen: Pair) -> list[tuple[OrbitRep, int]]:
    """The orbit sum of ``rep`` times the power sum p_gen, in orbit-sum
    coordinates: for each distinct pair v of the representative, the
    representative C with one copy of v raised by ``gen``, with the
    multiplicity of the raised pair in C as its coefficient."""
    a, b = gen
    out = []
    for i, v in enumerate(rep):
        if i and rep[i - 1] == v:  # equal pairs are adjacent
            continue
        raised = (v[0] + a, v[1] + b)
        # the raised pair sorts before v, so it only moves left
        key = _pair_order(raised)
        j = i
        while j and _pair_order(rep[j - 1]) < key:
            j -= 1
        c = rep[:j] + (raised,) + rep[j:i] + rep[i + 1:]
        out.append((c, c.count(raised)))
    return out


@lru_cache(maxsize=64)
def _rep_index(reps: tuple[OrbitRep, ...]) -> dict[ExpKey, int]:
    """The index of each representative, by its monomial's term key."""
    return {
        (tuple(a for a, _ in rep), tuple(b for _, b in rep)): j
        for j, rep in enumerate(reps)
    }


def invariant_coordinates(
    poly: MultiPoly, reps: tuple[OrbitRep, ...]
) -> dict[int, Coeff]:
    """Coordinates of an invariant polynomial in the orbit-sum basis, as a
    sparse row: the index j of each representative monomial among the
    terms, mapped to its coefficient."""
    index = _rep_index(reps)
    return {j: c for key, c in poly.terms.items()
            if (j := index.get(key)) is not None}


@lru_cache(maxsize=64)
def _columns(kind: str, n: int, degree: int) -> dict[OrbitRep, int]:
    """Column index of each orbit representative in a degree."""
    return {r: j for j, r in enumerate(monomial_orbit_reps(kind, n, degree))}


def exact_rank(rows: list[Row]) -> int:
    """Rank over Q of sparse integer rows {column: entry}, exactly, by
    fraction-free elimination over the integers.

    Each row is reduced by the stored pivot rows, always at its leftmost
    entry, until it vanishes or starts in a new pivot column.  Where the
    pivot's leading entry does not divide the row's entry, the row is first
    multiplied by lead / gcd(lead, entry), so that the reduction divides
    exactly.
    Each new pivot row is divided by the gcd of its entries, which keeps
    the entries small.  The input rows are not modified.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        work = {j: v for j, v in row.items() if v}
        while work:
            col = min(work)
            pivot = pivots.get(col)
            if pivot is None:
                g = math.gcd(*work.values())
                pivots[col] = {j: v // g for j, v in work.items()}
                break
            lead, f = pivot[col], work[col]
            if f % lead:
                scale = lead // math.gcd(lead, f)
                work = {j: v * scale for j, v in work.items()}
                f *= scale
            q = f // lead
            for j, v in pivot.items():
                x = work.get(j, 0) - q * v
                if x:
                    work[j] = x
                else:
                    del work[j]
    return len(pivots)


class IdealSpec(namedtuple("IdealSpec", "generators")):
    """An ideal of the invariant ring given by power-sum generators."""

    __slots__ = ()

    def __new__(cls, generators: tuple[Pair, ...]) -> IdealSpec:
        generators = tuple(map(tuple, generators))
        for a, b in generators:
            if a < 0 or b < 0 or a + b < 1:
                raise ValueError(f"invalid power-sum index ({a}, {b})")
        return tuple.__new__(cls, (generators,))


def _x_power_sums(family: str, n: int) -> tuple[Pair, ...]:
    """The pure-x power sums p_(d, 0) in the basic degrees d of the
    family's Weyl group (S_n for U and SU), for a canonical family name."""
    kind = "signed" if family == "Sp" else "sym"
    return tuple((d, 0) for d in _degrees(kind, n))


def bcom_ideal(family: str, n: int) -> IdealSpec:
    """Generators of the ideal presenting the commuting classifying space:
    the pure-x power sums of BG, plus the trace class for SU."""
    family = canonical_family(family)
    trace = ((0, 1),) if family == "SU" else ()
    return IdealSpec(_x_power_sums(family, n) + trace)


def ecom_ideal(family: str, n: int) -> IdealSpec:
    """Generators for the fiber-space quotient: the x power sums and their
    y mirrors."""
    family = canonical_family(family)
    if family == "SU":
        raise ValueError(
            "the fiber space of SU(n) shares the U(n) numerator; "
            "quotient against ecom_ideal('U', n) instead"
        )
    pairs = _x_power_sums(family, n)
    return IdealSpec(pairs + tuple((b, a) for a, b in pairs))


def _check_feasible(kind: str, n: int, max_degree: int) -> None:
    _check_kind(kind)
    if n < 1 or max_degree < 0:
        raise ValueError(
            f"graded linear algebra needs n >= 1 and degree >= 0; "
            f"got n={n}, degree={max_degree}"
        )
    if n > QUOTIENT_CAPS[kind] or max_degree > MAX_QUOTIENT_DEGREE:
        raise GroupSizeError(
            f"graded linear algebra supports n <= {QUOTIENT_CAPS[kind]} for "
            f"{kind!r} and degree <= {MAX_QUOTIENT_DEGREE}; "
            f"got n={n}, degree={max_degree}"
        )


def quotient_graded_dims(
    kind: str, n: int, ideal: IdealSpec, max_degree: int
) -> GradedDims:
    """Graded dimensions of (invariant ring)/(ideal) through ``max_degree``.

    In each degree the ideal's piece is spanned by invariant-basis multiples
    of the generators; its exact rank is subtracted from the invariant
    dimension.
    """
    _check_feasible(kind, n, max_degree)
    if kind == "signed" and any((a + b) % 2 for a, b in ideal.generators):
        raise ValueError("signed quotients need even-degree generators")
    dims: GradedDims = {}
    for d in range(max_degree + 1):
        # generators above degree d take no part in its rows
        _, rank = _span(_quotient_rows, kind, n,
                        tuple(g for g in ideal.generators if g[0] + g[1] <= d), d)
        dims[d] = len(_columns(kind, n, d)) - rank
    return dims


@lru_cache(maxsize=None)
def _span(
    build: Callable[[str, int, tuple, int], list[Row]],
    kind: str, n: int, spec: tuple, degree: int,
) -> tuple[int, int]:
    """The number of rows ``build(kind, n, spec, degree)`` gives and their
    rank: one degree of a graded check, memoised for the process by the
    row builder and exactly the inputs that determine its rows."""
    rows = build(kind, n, spec, degree)
    return len(rows), exact_rank(rows)


def _quotient_rows(
    kind: str, n: int, generators: tuple[Pair, ...], degree: int
) -> list[Row]:
    """The degree-``degree`` multiples m_A * p_gen of the generators, as
    sparse rows in orbit-sum coordinates: for each generator, one row per
    representative A of the complementary degree."""
    column = _columns(kind, n, degree)
    rows = []
    for gen in generators:
        e = gen[0] + gen[1]
        if e > degree:
            continue
        for rep in monomial_orbit_reps(kind, n, degree - e):
            rows.append({column[c]: mult
                         for c, mult in _times_power_sum(rep, gen)})
    return rows


class BasisReport(NamedTuple):
    """Result of the free-basis verification, with the basis degrees."""

    kind: str
    n: int
    passed: bool
    basis_size: int
    degrees: tuple[int, ...]
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _block_exponents(kind: str, n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent partitions of the one-variable-block invariants in a degree:
    monomial symmetric functions of x (resp. of the squares of x)."""
    if kind == "sym":
        return partitions_max_parts(degree, n)
    if degree % 2:
        return ()
    return tuple(
        tuple(2 * p for p in mu) for mu in partitions_max_parts(degree // 2, n)
    )


def _block_poly(n: int, lam: tuple[int, ...], block: str) -> MultiPoly:
    pairs = tuple((p, 0) if block == "x" else (0, p) for p in lam)
    pairs += ((0, 0),) * (n - len(lam))
    return orbit_sum(n, pairs)


def _monomial_rep(kind: str, mono: MultiPoly) -> OrbitRep | None:
    """The orbit representative of a monomial, or None when its group
    average vanishes: a signed monomial with an odd pair degree, which a
    sign flip negates."""
    ((xexp, yexp),) = mono.terms
    pairs = tuple(zip(xexp, yexp))
    if kind == "signed" and any((a + b) % 2 for a, b in pairs):
        return None
    return tuple(sorted(pairs, key=_pair_order, reverse=True))


@lru_cache(maxsize=None)
def _descent_reps(
    kind: str, n: int
) -> tuple[tuple[SignedPermutation, OrbitRep | None], ...]:
    """Each element with the orbit representative of its (signed) descent
    monomial, None where the monomial averages to zero."""
    monomial = descent_monomial if kind == "sym" else signed_descent_monomial
    return tuple((w, _monomial_rep(kind, monomial(w)))
                 for w in elements(kind, n))


def averaged_descent_basis(
    kind: str, n: int
) -> list[tuple[SignedPermutation, MultiPoly]]:
    """The group-averaged (signed) descent monomials, one per element.

    The average of a monomial is its orbit sum divided by the orbit size,
    except that a signed monomial with an odd pair degree averages to zero.
    """
    out = []
    for w, rep in _descent_reps(kind, n):
        if rep is None:
            out.append((w, MultiPoly.zero(n)))
            continue
        terms = orbit_sum(n, rep).terms
        out.append((w, _wrap_terms(n, dict.fromkeys(
            terms, _coeff(Fraction(1, len(terms)))))))
    return out


def verify_free_basis(kind: str, n: int, max_degree: int) -> BasisReport:
    """Check that the averaged descent monomials freely generate the
    invariant ring over the two-block invariants, degree by degree.

    Verified through ``max_degree``: every averaged monomial is nonzero,
    and in each degree the products basis x (block invariants) are as many
    as the dimension, which is the Hilbert series identity, and have full
    rank, so they are independent and span the graded piece.
    """
    _check_feasible(kind, n, max_degree)
    reps = tuple(rep for _, rep in _descent_reps(kind, n))
    degrees = tuple(sorted(-1 if rep is None else sum(map(sum, rep))
                           for rep in reps))
    if None in reps:
        return BasisReport(kind, n, False, len(reps), degrees,
                           "an averaged descent monomial vanished")
    for d in range(max_degree + 1):
        dim = len(_columns(kind, n, d))
        count, rank = _span(_basis_rows, kind, n, reps, d)
        if count != dim:
            return BasisReport(
                kind, n, False, len(reps), degrees,
                f"Hilbert series mismatch in degree {d}: "
                f"{count} products, dimension {dim}",
            )
        if rank != dim:
            return BasisReport(
                kind, n, False, len(reps), degrees,
                f"products only span rank {rank} of {dim} in degree {d}",
            )
    return BasisReport(kind, n, True, len(reps), degrees,
                       f"free basis verified through degree {max_degree}")


def _basis_rows(
    kind: str, n: int, reps: tuple[OrbitRep, ...], degree: int
) -> list[Row]:
    """The degree-``degree`` products basis x (block invariants), for the
    basis of orbit representatives ``reps``, as sparse rows in orbit-sum
    coordinates."""
    # the primitive orbit sums: each averaged monomial times its orbit size,
    # which scales rows by nonzero constants and leaves every rank as it is
    reps_d = monomial_orbit_reps(kind, n, degree)
    products = []
    for rep in reps:
        bdeg = sum(map(sum, rep))
        if bdeg > degree:
            continue
        bpoly = orbit_sum(n, rep)
        for ex in range(degree - bdeg + 1):
            lam_ys = _block_exponents(kind, n, degree - bdeg - ex)
            if not lam_ys:
                continue
            for lam_x in _block_exponents(kind, n, ex):
                bx = bpoly * _block_poly(n, lam_x, "x")
                for lam_y in lam_ys:
                    products.append(bx * _block_poly(n, lam_y, "y"))
    return [invariant_coordinates(p, reps_d) for p in products]


def generation_generators(kind: str, n: int, max_degree: int) -> tuple[Pair, ...]:
    """The power-sum family expected to generate the invariant ring: total
    degree up to n for 'sym'; every even total degree up to the working
    degree for 'signed', where no uniform bound is assumed."""
    _check_kind(kind)
    if kind == "sym":
        return tuple(
            (a, tot - a) for tot in range(1, n + 1) for a in range(tot + 1)
        )
    return tuple(
        (a, tot - a) for tot in range(2, max_degree + 1, 2) for a in range(tot + 1)
    )


def verify_power_sum_generation(kind: str, n: int, max_degree: int) -> CheckReport:
    """Check degree by degree that monomials in the designated power sums
    span the invariant ring.

    By graded Nakayama, homogeneous elements of positive degree generate
    the connected graded invariant ring R exactly when their ideal is all
    of R_+, so this reads the quotient by the power-sum ideal, which must
    vanish in every positive degree.  At the first degree where it does not,
    every lower degree is generated, so the ideal's piece there is the span
    of the power-sum monomials, of rank the dimension minus the quotient's.
    """
    _check_feasible(kind, n, max_degree)
    gens = generation_generators(kind, n, max_degree)
    left = quotient_graded_dims(kind, n, IdealSpec(gens), max_degree)
    name = f"power sum generation kind={kind} n={n}"
    for d in range(1, max_degree + 1):
        if left[d]:
            dim = len(_columns(kind, n, d))
            return CheckReport(
                name=name,
                passed=False,
                detail=f"degree {d}: span has rank {dim - left[d]} of {dim}",
                first_mismatch=d,
            )
    return CheckReport(
        name=name,
        passed=True,
        detail=f"spans every degree through {max_degree}",
    )
