"""Exact polynomial and truncated power-series arithmetic over the integers.

Rational series keep their denominator as an unexpanded product of factors
(1 - t^e)^m, the only denominator shape needed here.  Expansion runs the
forward recurrence c[k] += c[k-e] m times per factor, so every coefficient
is an exact integer and no polynomial division ever happens.  The
recurrence is a running sum along each residue class of exponents mod e,
so long classes are summed whole at C speed.

Coefficients are dense, constant term first; ``_convolve`` multiplies them
and ``_divide_by_factor`` runs that recurrence, for the whole library.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from operator import mul, neg
from typing import Iterable, Mapping, Sequence

from .polytext import poly_text


def _used_length(coeffs: Sequence[int]) -> int:
    """Length of ``coeffs`` without its trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return end


def _convolve(a: Sequence[int], b: Sequence[int], trunc: int) -> list[int]:
    """Coefficients 0..``trunc`` of the product of two nonempty coefficient
    sequences, constant term first; the one convolution of the library."""
    if len(a) > len(b):
        a, b = b, a
    top = min(trunc, len(a) + len(b) - 2)
    used = _used_length(a)
    # window[top - k + i] == b[k - i], zero outside b, so that each output
    # coefficient is one dot product of ``a`` with a slice of the window
    window = [0] * (top + 1 - len(b)) + [*b[top::-1]] + [0] * (used - 1)
    return [sum(map(mul, a, window[p : p + used])) for p in range(top, -1, -1)]


class QPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients,
    stored densely from the constant term up, with no trailing zeros."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        if min(coeffs, default=0) < 0:
            raise ValueError(f"negative exponent {min(coeffs)}")
        dense = [0] * (int(max(coeffs, default=-1)) + 1)
        for exp, c in coeffs.items():
            dense[int(exp)] += int(c)
        self._coeffs = tuple(dense[: _used_length(dense)])

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "QPoly":
        return cls({exp: coeff})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "QPoly":
        dense = list(map(int, coeffs))
        poly = cls.__new__(cls)
        poly._coeffs = tuple(dense[: _used_length(dense)])
        return poly

    def items(self) -> list[tuple[int, int]]:
        return [(e, c) for e, c in enumerate(self._coeffs) if c]

    def coefficient(self, exp: int) -> int:
        return self._coeffs[exp] if 0 <= exp < len(self._coeffs) else 0

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def value_at_one(self) -> int:
        return sum(self._coeffs)

    def coefficients_through(self, trunc: int) -> list[int]:
        if trunc < 0:
            raise ValueError("trunc must be >= 0")
        return list(self._coeffs[: trunc + 1]) + [0] * (trunc - self.degree)

    def truncated(self, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(self.coefficients_through(trunc)))

    def is_palindromic(self, top: int | None = None) -> bool:
        """True when coefficients read the same from both ends of degree ``top``."""
        if self.is_zero():
            return True
        top = self.degree if top is None else top
        padded = self._coeffs + (0,) * (top - self.degree)
        return self.degree <= top and padded == padded[::-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=0)
        return QPoly.from_coeffs([x + y for x, y in pairs])

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly.from_coeffs([-c for c in self._coeffs])

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly.from_coeffs([c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        product = _convolve(a, b, len(a) + len(b) - 2) if a and b else []
        return QPoly.from_coeffs(product)

    __rmul__ = __mul__

    def to_str(self, var: str = "t") -> str:
        return poly_text(self._coeffs, var)

    def __repr__(self) -> str:
        return f"QPoly({self.to_str()})"


def exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact polynomial quotient; raises ValueError when the remainder is nonzero."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    *low, lead = den._coeffs
    dd = len(low)
    rem = list(num._coeffs)
    quot = [0] * max(0, len(rem) - dd)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + dd], lead)
        if r != 0:
            raise ValueError("inexact polynomial division")
        if q:
            quot[k] = q
            rem[k : k + dd] = [x - q * y for x, y in zip(rem[k : k + dd], low)]
    if any(rem[:dd]):
        raise ValueError("inexact polynomial division")
    return QPoly.from_coeffs(quot)


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series known exactly through degree ``trunc`` = len(coeffs) - 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series stores at least the constant term")

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, exp: int) -> int:
        return self.coeffs[exp]

    def first_mismatch(self, other: "TruncatedSeries") -> int | None:
        """Smallest degree through ``self.trunc`` where the two series differ,
        or None when they agree there."""
        return next(
            (k for k in range(self.trunc + 1) if self.coeffs[k] != other.coeffs[k]),
            None,
        )

    def _check_trunc(self, other: "TruncatedSeries") -> None:
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} != {other.trunc}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_trunc(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_trunc(other)
        return TruncatedSeries(tuple(_convolve(self.coeffs, other.coeffs, self.trunc)))

    def __repr__(self) -> str:
        return f"TruncatedSeries(trunc={self.trunc}, coeffs={list(self.coeffs)})"


#: Crossover of ``_divide_by_factor`` against the one-coefficient loop,
#: measured on 40-400 coefficients of 6 and of 25 digits and set for the
#: small ones, where the loop is fastest.  A residue lane costs a fixed
#: overhead per call and per pass, so whole lanes win once a lane holds at
#: least _LANE_PER_PASS + _LANE_PER_CALL / times coefficients.
_LANE_PER_PASS = 8
_LANE_PER_CALL = 16


def _divide_by_factor(
    coeffs: list[int], exp: int, sign: int = 1, times: int = 1
) -> None:
    """In place, divide the series by (1 - sign*t^exp)^times via the forward
    recurrence c[k] += sign*c[k - exp], run ``times`` times.

    The recurrence is a running sum along each residue lane
    ``coeffs[r::exp]``; for sign -1 it is one on the lane with its odd
    entries negated.  Long lanes are summed whole with ``accumulate``; short
    lanes keep the one-coefficient loop."""
    size = len(coeffs)
    if size * times >= exp * (_LANE_PER_PASS * times + _LANE_PER_CALL):
        for r in range(exp):
            lane = coeffs[r::exp]
            if sign < 0:
                lane[1::2] = map(neg, lane[1::2])
            for _ in range(times):
                lane = accumulate(lane)
            lane = list(lane)
            if sign < 0:
                lane[1::2] = map(neg, lane[1::2])
            coeffs[r::exp] = lane
    else:
        # a while loop: a range object per call costs 5% of a short series
        while times:
            for k in range(exp, size):
                coeffs[k] += sign * coeffs[k - exp]
            times -= 1


def _normalize_factors(
    factors: Mapping[int, int] | Iterable[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    counted: dict[int, int] = {}
    pairs = factors.items() if isinstance(factors, Mapping) else factors
    for exp, mult in pairs:
        if exp < 1:
            raise ValueError(f"factor exponent must be >= 1, got {exp}")
        if mult < 1:
            raise ValueError(f"factor multiplicity must be >= 1, got {mult}")
        counted[exp] = counted.get(exp, 0) + mult
    return tuple(sorted(counted.items()))


@dataclass(frozen=True)
class RationalSeries:
    """QPoly numerator over a product of factors (1 - t^e)^m."""

    numerator: QPoly
    denominator_factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "denominator_factors", _normalize_factors(self.denominator_factors)
        )

    def expand(self, trunc: int) -> TruncatedSeries:
        """Exact coefficients through degree ``trunc``."""
        coeffs = self.numerator.coefficients_through(trunc)
        for exp, mult in self.denominator_factors:
            _divide_by_factor(coeffs, exp, 1, mult)
        return TruncatedSeries(tuple(coeffs))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(
            self.numerator * other.numerator,
            self.denominator_factors + other.denominator_factors,
        )

    def to_str(self, var: str = "t") -> str:
        num = self.numerator.to_str(var)
        if not self.denominator_factors:
            return num
        factors = []
        for exp, mult in self.denominator_factors:
            base = f"(1 - {var}^{exp})" if exp != 1 else f"(1 - {var})"
            factors.append(base if mult == 1 else f"{base}^{mult}")
        return f"({num}) / ({' '.join(factors)})"

    def __repr__(self) -> str:
        return f"RationalSeries({self.to_str()})"


def product_series(
    weights: Mapping[int, int], trunc: int
) -> TruncatedSeries:
    """Expansion of the product over degrees d of (1 - t^d)^(-m_d).

    This is the Poincare series of a free commutative algebra with m_d
    generators in degree d.  A weight in degree 0 is rejected because the
    grading would not be locally finite.
    """
    factors = {degree: mult for degree, mult in weights.items() if mult != 0}
    if min(factors, default=1) < 1:
        raise ValueError("generator degrees must be >= 1")
    if min(factors.values(), default=0) < 0:
        raise ValueError("multiplicities must be >= 0")
    return RationalSeries(QPoly.one(), factors).expand(trunc)
