"""Closed-form Poincare series for the commuting-element spaces of the
classical groups U(n), SU(n) and Sp(n).

The homotopy-fiber space over the classifying space of such a group has
Poincare series given by a Weyl-group sum: over the symmetric group the
exponent of t is 2*(maj(w) + maj(w^-1)), over the hyperoctahedral group it is
2*(fmaj(w) + fmaj(w^-1)).  The sum is computed as the sum of squared fake
degrees from ``repa``, in time polynomial in the number of (bi)partitions;
enumerating the group (``weylcomb.pair_statistic_counts``) is the reference
the tests compare it with.  Dividing by the Poincare series denominator of BG
gives the series of the commuting classifying space itself.  The stable
(rank -> infinity) answer is a free graded algebra on an explicit catalog of
bidegree generators.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

# FAMILIES is re-exported: the family table lives in ``families``
from .families import FAMILIES, canonical_family  # noqa: F401
from .qseries import QPoly, RationalSeries, TruncatedSeries, product_series
from .repa import fiber_numerator_series, signed_fiber_numerator_series
from .reports import CheckReport
from .weylcomb import _check_enumerable, _degrees, group_order


class GroupSpec(namedtuple("GroupSpec", "family n")):
    """One of the classical groups U(n), SU(n), Sp(n)."""

    __slots__ = ()

    def __new__(cls, family: str, n: int) -> GroupSpec:
        family = canonical_family(family)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"rank must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        return tuple.__new__(cls, (family, n))

    @property
    def weyl_kind(self) -> str:
        return "signed" if self.family == "Sp" else "sym"

    @property
    def weyl_order(self) -> int:
        return group_order(self.weyl_kind, self.n)

    @property
    def _invariant_degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants; SU has none of degree 1."""
        degrees = _degrees(self.weyl_kind, self.n)
        return degrees[1:] if self.family == "SU" else degrees

    @property
    def bg_denominator_factors(self) -> tuple[tuple[int, int], ...]:
        """Factors (1 - t^e) of the Poincare series denominator of BG."""
        return tuple((2 * d, 1) for d in self._invariant_degrees)

    @property
    def top_ecom_degree(self) -> int:
        """Top cohomological degree of the fiber-space series."""
        return 4 * sum(d - 1 for d in self._invariant_degrees)

    @property
    def label(self) -> str:
        return f"{self.family}({self.n})"


def ecom_numerator(group: GroupSpec) -> QPoly:
    """Weyl sum of t^(2*(stat(w) + stat(w^-1))) with stat = maj or fmaj.

    This polynomial is the Poincare series of the homotopy fiber of the
    inclusion of the commuting classifying space into BG; its value at 1 is
    the Weyl group order.  It is built from fake degrees, without
    enumerating the group, as the squared-character sum of
    ``repa.fiber_numerator_series`` or ``repa.signed_fiber_numerator_series``
    in q = t^2; ``weylcomb.pair_statistic_counts`` is the enumeration it is
    checked against.  Ranks above the enumeration caps still raise
    GroupSizeError, which the CLI reports with exit code 3.
    """
    _check_enumerable(group.weyl_kind, group.n)
    return _ecom_numerator(group.weyl_kind, group.n)


@lru_cache(maxsize=None)
def _ecom_numerator(kind: str, n: int) -> QPoly:
    if kind == "sym":
        pair_series = fiber_numerator_series(n)
    else:
        pair_series = signed_fiber_numerator_series(n)
    return QPoly({2 * e: c for e, c in pair_series.items()})


def bg_series(group: GroupSpec) -> RationalSeries:
    return RationalSeries(QPoly.one(), group.bg_denominator_factors)


def bcom_series(group: GroupSpec) -> RationalSeries:
    """Poincare series of the commuting classifying space of the group."""
    return RationalSeries(ecom_numerator(group), group.bg_denominator_factors)


class GeneratorCatalog(NamedTuple):
    """Bidegree pairs (a, b) of the stable polynomial generators; the
    generator z_(a,b) sits in cohomological degree 2*(a+b)."""

    family: str
    pairs: tuple[tuple[int, int], ...]

    def weights(self) -> dict[int, int]:
        """Number of generators per cohomological degree."""
        out: dict[int, int] = {}
        for a, b in self.pairs:
            d = 2 * (a + b)
            out[d] = out.get(d, 0) + 1
        return out


def _catalog_member(family: str, a: int, b: int) -> bool:
    if b <= 0:
        return False
    if family == "SU" and (a, b) == (0, 1):
        return False
    if family == "Sp" and (a + b) % 2 == 1:
        return False
    return True


def generator_catalog(family: str, max_degree: int) -> GeneratorCatalog:
    """All stable generators of cohomological degree <= max_degree, in
    (a + b, a) order."""
    family = canonical_family(family)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    pairs = tuple(
        (a, total - a)
        for total in range(1, max_degree // 2 + 1)
        for a in range(total + 1)
        if _catalog_member(family, a, total - a)
    )
    return GeneratorCatalog(family, pairs)


def stable_weights(family: str, max_degree: int) -> dict[int, int]:
    return generator_catalog(family, max_degree).weights()


def stable_bcom(family: str, trunc: int) -> TruncatedSeries:
    """Series of the stable commuting classifying space: the free graded
    algebra on the generator catalog, through degree ``trunc``."""
    return product_series(stable_weights(family, trunc), trunc)


def verify_product_relation(group: GroupSpec, trunc: int) -> CheckReport:
    """Check expand(bcom) == expand(bg) * (fiber numerator) through ``trunc``."""
    lhs = bcom_series(group).expand(trunc)
    rhs = bg_series(group).expand(trunc) * ecom_numerator(group).truncated(trunc)
    mismatch = lhs.first_mismatch(rhs)
    return CheckReport(
        name=f"product relation {group.label}",
        passed=mismatch is None,
        detail=f"through degree {trunc}",
        first_mismatch=mismatch,
    )


def verify_stabilization(
    family: str, ranks: list[int], trunc: int
) -> CheckReport:
    """Check that the finite-rank series all agree with the stable one
    through degree ``trunc``."""
    family = canonical_family(family)
    stable = stable_bcom(family, trunc)
    for n in sorted(ranks):
        finite = bcom_series(GroupSpec(family, n)).expand(trunc)
        mismatch = finite.first_mismatch(stable)
        if mismatch is not None:
            return CheckReport(
                name=f"stabilization {family} ranks {ranks}",
                passed=False,
                detail=f"{family}({n}) differs from the stable series",
                first_mismatch=mismatch,
            )
    return CheckReport(
        name=f"stabilization {family} ranks {ranks}",
        passed=True,
        detail=f"agree with the stable series through degree {trunc}",
    )
