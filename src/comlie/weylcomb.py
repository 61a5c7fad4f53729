"""One-line-notation elements of the symmetric and hyperoctahedral groups.

A signed permutation is a bijection w of {-n, ..., -1, 1, ..., n} satisfying
w(-k) = -w(k); only the values on positive positions are stored.  Descent
statistics compare entries in the natural integer order, so the word (1, -2)
has a descent at position 1 because 1 > -2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, Union

#: Largest rank accepted by :func:`elements` for plain permutations.
SYM_ENUMERATION_CAP = 9
#: Largest rank accepted by :func:`elements` for signed permutations.
SIGNED_ENUMERATION_CAP = 5

KINDS = ("sym", "signed")


class GroupSizeError(ValueError):
    """Rank outside the range supported by exhaustive enumeration."""


@dataclass(frozen=True)
class CycleData:
    """Multisets of cycle lengths, split by cycle sign.

    The sign of a cycle of a signed permutation is the product of the signs
    of the entries met along it; plain permutations have positive cycles
    only.  Lengths are stored sorted nonincreasing, partition style.
    """

    positive_cycles: tuple[int, ...]
    negative_cycles: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "positive_cycles", tuple(sorted(self.positive_cycles, reverse=True))
        )
        object.__setattr__(
            self, "negative_cycles", tuple(sorted(self.negative_cycles, reverse=True))
        )
        if any(c < 1 for c in self.positive_cycles + self.negative_cycles):
            raise ValueError("cycle lengths must be positive")

    @property
    def size(self) -> int:
        return sum(self.positive_cycles) + sum(self.negative_cycles)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation w(1), ..., w(n)."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(self * other)(i) = self(other(i))``."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.word[v - 1] for v in other.word))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def descent_set(self) -> tuple[int, ...]:
        """Positions 1 <= i <= n-1 with w(i) > w(i+1)."""
        w = self.word
        return tuple(i for i in range(1, self.n) if w[i - 1] > w[i])

    def major_index(self) -> int:
        return sum(self.descent_set())

    def cycle_data(self) -> CycleData:
        lengths = []
        seen = [False] * self.n
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length = 0
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                i = self.word[i - 1]
                length += 1
            lengths.append(length)
        return CycleData(tuple(lengths))


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation, stored by its values on positive positions."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if sorted(abs(v) for v in word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a signed permutation word: {word!r}")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if i < 0:
            return -self.word[-i - 1]
        return self.word[i - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: ``(self * other)(i) = self(other(i))``."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SignedPermutation(tuple(self(v) for v in other.word))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return SignedPermutation(tuple(inv))

    def descent_set(self) -> tuple[int, ...]:
        """Positions 1 <= i <= n-1 with w(i) > w(i+1) in the integer order."""
        w = self.word
        return tuple(i for i in range(1, self.n) if w[i - 1] > w[i])

    def major_index(self) -> int:
        return sum(self.descent_set())

    def negative_count(self) -> int:
        return sum(1 for v in self.word if v < 0)

    def flag_vector(self) -> tuple[int, ...]:
        """The vector whose i-th entry doubles the number of descents at
        positions >= i and adds 1 when w(i) is negative."""
        des = self.descent_set()
        fv = []
        for i in range(1, self.n + 1):
            tail_descents = sum(1 for j in des if j >= i)
            eps = 1 if self.word[i - 1] < 0 else 0
            fv.append(2 * tail_descents + eps)
        return tuple(fv)

    def flag_major_index(self) -> int:
        """Sum of the flag vector; equals 2*major_index + negative_count."""
        return sum(self.flag_vector())

    def cycle_data(self) -> CycleData:
        positive, negative = [], []
        seen = [False] * self.n
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length = 0
            sign = 1
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                v = self.word[i - 1]
                if v < 0:
                    sign = -sign
                i = abs(v)
                length += 1
            (positive if sign == 1 else negative).append(length)
        return CycleData(tuple(positive), tuple(negative))


WeylElement = Union[Permutation, SignedPermutation]


def enumeration_cap(kind: str) -> int:
    if kind == "sym":
        return SYM_ENUMERATION_CAP
    if kind == "signed":
        return SIGNED_ENUMERATION_CAP
    raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")


def group_order(kind: str, n: int) -> int:
    if kind == "sym":
        return factorial(n)
    if kind == "signed":
        return 2**n * factorial(n)
    raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")


def _check_enumerable(kind: str, n: int) -> None:
    cap = enumeration_cap(kind)
    if not 1 <= n <= cap:
        raise GroupSizeError(
            f"{kind!r} enumeration supports 1 <= n <= {cap}, got n={n}; "
            "the coinvariants oracle covers larger ranks"
        )


def elements(kind: str, n: int) -> Iterator[WeylElement]:
    """Stream every element of the group exactly once.

    The order is deterministic: underlying words lexicographically, and for
    'signed' the 2^n sign choices of each word iterated innermost.  Raises
    GroupSizeError above the enumeration cap (9 for 'sym', 5 for 'signed').
    """
    _check_enumerable(kind, n)
    if kind == "sym":
        for word in itertools.permutations(range(1, n + 1)):
            yield Permutation(word)
    else:
        for base in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield SignedPermutation(tuple(s * v for s, v in zip(signs, base)))


@lru_cache(maxsize=None)
def pair_statistic_counts(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    """Distribution of stat(w) + stat(w^-1) over the whole group, as sorted
    (value, multiplicity) pairs, with stat the major index for 'sym' and the
    flag major index for 'signed'.

    Raw-word loops keep rank 9 enumeration in seconds; the element methods
    (``major_index``, ``flag_major_index``, ``inverse``) compute the same
    statistics one object at a time and are the reference for this kernel.
    Raises GroupSizeError above the enumeration cap.
    """
    _check_enumerable(kind, n)
    counts: dict[int, int] = {}
    if kind == "sym":
        for word in itertools.permutations(range(1, n + 1)):
            inv = [0] * n
            maj = 0
            prev = word[0]
            inv[prev - 1] = 1
            for i in range(1, n):
                v = word[i]
                inv[v - 1] = i + 1
                if prev > v:
                    maj += i
                prev = v
            maj_inv = sum(i for i in range(1, n) if inv[i - 1] > inv[i])
            stat = maj + maj_inv
            counts[stat] = counts.get(stat, 0) + 1
    else:
        signs = list(itertools.product((1, -1), repeat=n))
        for base in itertools.permutations(range(1, n + 1)):
            for mask in signs:
                word = tuple(s * v for s, v in zip(mask, base))
                inv = [0] * n
                neg = 0
                for i, v in enumerate(word, start=1):
                    if v > 0:
                        inv[v - 1] = i
                    else:
                        inv[-v - 1] = -i
                        neg += 1
                maj = sum(i for i in range(1, n) if word[i - 1] > word[i])
                maj_inv = sum(i for i in range(1, n) if inv[i - 1] > inv[i])
                neg_inv = sum(1 for v in inv if v < 0)
                stat = (2 * maj + neg) + (2 * maj_inv + neg_inv)
                counts[stat] = counts.get(stat, 0) + 1
    return tuple(sorted(counts.items()))
