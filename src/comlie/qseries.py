"""Exact polynomial and truncated power-series arithmetic over the integers.

Rational series keep their denominator as an unexpanded product of factors
(1 - t^e)^m, the only denominator shape needed here.  Expansion runs the
forward recurrence c[k] += c[k-e] once per factor, so every coefficient is
an exact integer and no polynomial division ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


class QPoly:
    """Sparse univariate polynomial with arbitrary-precision integer
    coefficients, keyed by exponent."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if exp < 0:
                    raise ValueError(f"negative exponent {exp}")
                if c != 0:
                    data[int(exp)] = data.get(int(exp), 0) + int(c)
        self._coeffs = {e: c for e, c in data.items() if c != 0}

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
        return cls({e: c for e, c in enumerate(coeffs)})

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def is_zero(self) -> bool:
        return not self._coeffs

    def value_at_one(self) -> int:
        return sum(self._coeffs.values())

    def coefficients_through(self, trunc: int) -> list[int]:
        if trunc < 0:
            raise ValueError("trunc must be >= 0")
        return [self._coeffs.get(e, 0) for e in range(trunc + 1)]

    def truncated(self, trunc: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(self.coefficients_through(trunc)))

    def is_palindromic(self, top: int | None = None) -> bool:
        """True when coefficients read the same from both ends of degree ``top``."""
        if self.is_zero():
            return True
        top = self.degree if top is None else top
        return all(
            c == self._coeffs.get(top - e, 0) for e, c in self._coeffs.items()
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def to_str(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                pow_ = var if e == 1 else f"{var}^{e}"
                term = f"{sign}{mag}{pow_}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({self.to_str()})"


def exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact polynomial quotient; raises ValueError when the remainder is nonzero."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = {e: c for e, c in num.items()}
    out: dict[int, int] = {}
    dd = den.degree
    lead = den.coefficient(dd)
    den_items = den.items()
    while rem:
        e = max(rem)
        if e < dd:
            raise ValueError("inexact polynomial division")
        q, r = divmod(rem[e], lead)
        if r != 0:
            raise ValueError("inexact polynomial division")
        out[e - dd] = q
        for de, dc in den_items:
            k = e - dd + de
            v = rem.get(k, 0) - q * dc
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return QPoly(out)


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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation mismatch: {self.trunc} != {other.trunc}"
            )
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation mismatch: {self.trunc} != {other.trunc}"
            )
        n = self.trunc
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def to_json(self, var: str = "t") -> dict:
        return {"var": var, "trunc": self.trunc, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, payload: Mapping) -> "TruncatedSeries":
        coeffs = payload["coeffs"]
        if payload.get("trunc") != len(coeffs) - 1:
            raise ValueError("inconsistent trunc/coeffs in serialized series")
        return cls(tuple(int(c) for c in coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(trunc={self.trunc}, coeffs={list(self.coeffs)})"


def _divide_by_factor(coeffs: list[int], exp: int, sign: int = 1) -> None:
    """In place, divide the series by (1 - sign*t^exp) via the forward recurrence."""
    for k in range(exp, len(coeffs)):
        coeffs[k] += sign * coeffs[k - exp]


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
            for _ in range(mult):
                _divide_by_factor(coeffs, exp)
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
    coeffs = [0] * (trunc + 1)
    coeffs[0] = 1
    for degree in sorted(weights):
        mult = weights[degree]
        if mult == 0:
            continue
        if degree < 1:
            raise ValueError("generator degrees must be >= 1")
        if mult < 0:
            raise ValueError("multiplicities must be >= 0")
        for _ in range(mult):
            _divide_by_factor(coeffs, degree)
    return TruncatedSeries(tuple(coeffs))
