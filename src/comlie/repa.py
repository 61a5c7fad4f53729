"""Partitions, graded tableau counts and the character series of the
symmetric and hyperoctahedral groups.

The graded multiplicity polynomial of an irreducible symmetric-group
character inside the coinvariant algebra is computed by the q-analogue of
the hook length formula,

    q^(sum_i (i-1)*lam_i) * [n]_q! / prod_cells [hook]_q
      = q^(sum_i (i-1)*lam_i) * prod_(i<=n) (1 - q^i) / prod_cells (1 - q^hook),

a polynomial with nonnegative integer coefficients whose value at 1 counts
the standard Young tableaux of the shape.  Summed appropriately over all
shapes, these polynomials reproduce both the flag-manifold series and the
fiber-space numerator, which is the identity verified here.  The type-B/C
fiber-space numerator follows from the type-A ones and q-binomials, so
neither numerator needs the Weyl group enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# ``exact_div`` is unused here; perfbench/test_perfbench.py asserts that the
# span wrappers patch this by-name binding, so it stays until that test changes.
from .qseries import QPoly, _divide_by_factor, exact_div  # noqa: F401
from .reports import CheckReport
# ``elements`` is unused here; perfbench/test_perfbench.py asserts that the
# span wrappers patch this by-name binding, so it stays until that test changes.
from .weylcomb import elements, pair_statistic_counts  # noqa: F401


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts nonincreasing, largest first part first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def partitions_max_parts(n: int, max_parts: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with at most ``max_parts`` parts."""
    return tuple(p for p in partitions(n) if len(p) <= max_parts)


def hook_lengths(shape: tuple[int, ...]) -> list[int]:
    hooks = []
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for lower in shape[i + 1 :] if lower > j)
            hooks.append(arm + leg + 1)
    return hooks


def q_int(k: int) -> QPoly:
    """The q-analogue 1 + q + ... + q^(k-1)."""
    return QPoly({e: 1 for e in range(k)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    out = QPoly.one()
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out


@lru_cache(maxsize=None)
def _q_pochhammer(n: int) -> QPoly:
    """prod_(i<=n) (1 - q^i), of degree n(n+1)/2."""
    out = QPoly.one()
    for i in range(1, n + 1):
        out = out * QPoly({0: 1, i: -1})
    return out


@dataclass(frozen=True)
class FakeDegree:
    """Graded multiplicity polynomial of a shape in the coinvariant algebra;
    the exponent of q tracks half the cohomological degree."""

    shape: tuple[int, ...]
    poly: QPoly


def _pochhammer_quotient(n: int, exps: list[int], what: str) -> list[int]:
    """Coefficients of prod_(i<=n) (1 - q^i) / prod_(e in exps) (1 - q^e).

    The series quotient through the numerator's degree is a polynomial of
    degree <= n(n+1)/2 - sum(exps) exactly when the division is exact, so a
    nonzero coefficient past that degree raises ValueError naming ``what``.
    """
    numerator = _q_pochhammer(n)
    coeffs = numerator.coefficients_through(numerator.degree)
    for e in exps:
        _divide_by_factor(coeffs, e)
    degree = numerator.degree - sum(exps)
    if any(coeffs[degree + 1 :]):
        raise ValueError(f"{what} is not a polynomial")
    return coeffs[: degree + 1]


def fake_degree(shape: tuple[int, ...]) -> FakeDegree:
    shape = tuple(shape)
    if list(shape) != sorted(shape, reverse=True) or any(p < 1 for p in shape):
        raise ValueError(f"not a partition: {shape!r}")
    shift = sum(i * part for i, part in enumerate(shape))
    coeffs = _pochhammer_quotient(
        sum(shape), hook_lengths(shape), f"hook quotient of {shape!r}"
    )
    return FakeDegree(shape, QPoly.from_coeffs([0] * shift + coeffs))


def gaussian_multinomial(parts: tuple[int, ...]) -> QPoly:
    """The q-multinomial [n; parts]_q, n = sum(parts), as
    prod_(i<=n) (1 - q^i) / prod_parts prod_(j<=part) (1 - q^j)."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts!r}")
    exps = [j for part in parts for j in range(1, part + 1)]
    return QPoly.from_coeffs(
        _pochhammer_quotient(sum(parts), exps, f"multinomial {parts!r}")
    )


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


def flag_series(n: int) -> QPoly:
    """Sum over shapes of (tableau count) * (fake degree polynomial); equals
    the q-factorial, the graded dimension of the coinvariant algebra."""
    out = QPoly.zero()
    for shape in partitions(n):
        fd = fake_degree(shape)
        out = out + fd.poly.value_at_one() * fd.poly
    return out


def fiber_numerator_series(n: int) -> QPoly:
    """Sum over shapes of the squared fake degree polynomial.

    Symmetric-group characters are rational, so no conjugation enters the
    pairing of a shape with itself.
    """
    out = QPoly.zero()
    for shape in partitions(n):
        fd = fake_degree(shape)
        out = out + fd.poly * fd.poly
    return out


def signed_fiber_numerator_series(n: int) -> QPoly:
    """Sum over bipartitions (lam, mu) of n of the squared type-B/C fake
    degree; equals the sum of q^(fmaj(w) + fmaj(w^-1)) over the
    hyperoctahedral group.

    The fake degree of (lam, mu) with |lam| = k factors as
    q^|mu| * [n choose k]_(q^2) * f_lam(q^2) * f_mu(q^2), so in x = q^2 the
    sum is sum_k x^(n-k) * [n choose k]_x^2 * A_k(x) * A_(n-k)(x), with A_k
    the type-A sum ``fiber_numerator_series(k)``.
    """
    type_a = [fiber_numerator_series(k) for k in range(n + 1)]
    out = QPoly.zero()
    for k in range(n + 1):
        binomial = gaussian_multinomial((k, n - k))
        out = out + (
            QPoly.monomial(n - k) * binomial * binomial * type_a[k] * type_a[n - k]
        )
    return QPoly({2 * e: c for e, c in out.items()})


def major_index_pair_series(n: int) -> QPoly:
    """Sum of q^(maj(w) + maj(w^-1)) over the symmetric group."""
    return QPoly(dict(pair_statistic_counts("sym", n)))


def verify_fake_degree_identities(n: int) -> CheckReport:
    """Exact polynomial checks of the two character-series identities:

    (i)  sum_shapes count * fake = [n]_q!
    (ii) sum_shapes fake^2 = sum_w q^(maj(w) + maj(w^-1))
    """
    failures = []
    if flag_series(n) != q_factorial(n):
        failures.append("flag series != q-factorial")
    if fiber_numerator_series(n) != major_index_pair_series(n):
        failures.append("squared-character sum != major index pair sum")
    return CheckReport(
        name=f"fake degree identities n={n}",
        passed=not failures,
        detail="; ".join(failures) if failures else "both identities exact",
    )
