"""One-line-notation elements of the symmetric and hyperoctahedral groups.

A signed permutation is a bijection w of {-n, ..., -1, 1, ..., n} satisfying
w(-k) = -w(k); only the values on positive positions are stored.  Descent
statistics compare entries in the natural integer order, so the word (1, -2)
has a descent at position 1 because 1 > -2.

``SignedPermutation`` carries every element method; ``Permutation`` is its
subclass of positive words, the symmetric group inside the hyperoctahedral
one, and only narrows the word check.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Iterator, TypeVar

#: Largest rank accepted by :func:`elements` for plain permutations.
SYM_ENUMERATION_CAP = 9
#: Largest rank accepted by :func:`elements` for signed permutations.
SIGNED_ENUMERATION_CAP = 5

KINDS = ("sym", "signed")

_W = TypeVar("_W", bound="SignedPermutation")


class GroupSizeError(ValueError):
    """Rank outside the range supported by exhaustive enumeration."""


class CycleData(namedtuple("CycleData", "positive_cycles negative_cycles")):
    """Multisets of cycle lengths, split by cycle sign.

    The sign of a cycle of a signed permutation is the product of the signs
    of the entries met along it; plain permutations have positive cycles
    only.  Lengths are stored sorted nonincreasing, partition style.
    """

    __slots__ = ()

    def __new__(cls, positive_cycles: tuple[int, ...],
                negative_cycles: tuple[int, ...] = ()) -> CycleData:
        pos = tuple(sorted(positive_cycles, reverse=True))
        neg = tuple(sorted(negative_cycles, reverse=True))
        # sorted nonincreasing, so the last entry is the smallest
        if (pos and pos[-1] < 1) or (neg and neg[-1] < 1):
            raise ValueError("cycle lengths must be positive")
        return tuple.__new__(cls, (pos, neg))

    @property
    def size(self) -> int:
        return sum(self.positive_cycles) + sum(self.negative_cycles)


class SignedPermutation(namedtuple("SignedPermutation", "word")):
    """A signed permutation, stored by its values on positive positions.

    ``identity``, ``*`` and ``inverse`` build the class of their left (or
    only) operand, so products of plain permutations stay plain.
    """

    __slots__ = ()

    def __new__(cls: type[_W], word: tuple[int, ...]) -> _W:
        word = tuple(word)
        if sorted(map(abs, word)) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a signed permutation word: {word!r}")
        return tuple.__new__(cls, (word,))

    @classmethod
    def identity(cls: type[_W], n: int) -> _W:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if i < 0:
            return -self.word[-i - 1]
        return self.word[i - 1]

    def __mul__(self: _W, other: SignedPermutation) -> _W:
        """Composition: ``(self * other)(i) = self(other(i))``."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return type(self)(tuple(self(v) for v in other.word))

    def inverse(self: _W) -> _W:
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            if v > 0:
                inv[v - 1] = i
            else:
                inv[-v - 1] = -i
        return type(self)(tuple(inv))

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


class Permutation(SignedPermutation):
    """A permutation of {1..n} in one-line notation w(1), ..., w(n): a signed
    permutation with no negative entry."""

    __slots__ = ()

    def __new__(cls, word: tuple[int, ...]) -> Permutation:
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")
        return tuple.__new__(cls, (word,))


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")


def enumeration_cap(kind: str) -> int:
    _check_kind(kind)
    return SYM_ENUMERATION_CAP if kind == "sym" else SIGNED_ENUMERATION_CAP


def group_order(kind: str, n: int) -> int:
    _check_kind(kind)
    return factorial(n) if kind == "sym" else 2**n * factorial(n)


def _degrees(kind: str, n: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of the reflection representation:
    1..n for the symmetric group, 2, 4, ..., 2n for the signed one."""
    _check_kind(kind)
    step = 1 if kind == "sym" else 2
    return tuple(range(step, step * n + 1, step))


def _check_enumerable(kind: str, n: int) -> None:
    cap = enumeration_cap(kind)
    if not 1 <= n <= cap:
        raise GroupSizeError(
            f"{kind!r} enumeration supports 1 <= n <= {cap}, got n={n}; "
            "the coinvariants oracle covers larger ranks"
        )


def _words(kind: str, n: int) -> Iterator[tuple[int, ...]]:
    """The raw words of the group: permutations in lexicographic order, and
    for 'signed' the 2^n sign choices of each iterated innermost.  Raises
    GroupSizeError above the enumeration cap."""
    _check_enumerable(kind, n)
    words = itertools.permutations(range(1, n + 1))
    if kind == "sym":
        return words
    signs = list(itertools.product((1, -1), repeat=n))
    return (tuple(map(mul, mask, base)) for base in words for mask in signs)


def elements(kind: str, n: int) -> Iterator[SignedPermutation]:
    """Stream every element of the group exactly once.

    The order is deterministic: underlying words lexicographically, and for
    'signed' the 2^n sign choices of each word iterated innermost.  Raises
    GroupSizeError above the enumeration cap (9 for 'sym', 5 for 'signed').
    """
    yield from map(Permutation if kind == "sym" else SignedPermutation,
                   _words(kind, n))


@lru_cache(maxsize=None)
def pair_statistic_counts(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    """Distribution of stat(w) + stat(w^-1) over the whole group, as sorted
    (value, multiplicity) pairs, with stat the major index for 'sym' and the
    flag major index for 'signed'.

    One raw-word loop serves both kinds: it counts
    h(w) = maj(w) + maj(w^-1) + neg(w), which is the 'sym' statistic, and
    the 'signed' one is 2h, since fmaj = 2 maj + neg and w^-1 has as many
    negative entries as w.  The loop keeps rank 9 enumeration in seconds;
    the element methods (``major_index``, ``flag_major_index``,
    ``inverse``) compute the same statistics one object at a time and are
    the reference for this kernel.  Raises GroupSizeError above the
    enumeration cap.
    """
    counts: dict[int, int] = {}
    positions = range(1, n)
    for word in _words(kind, n):
        inv = [0] * n
        prev = word[0]
        h = 0 if prev > 0 else 1
        inv[abs(prev) - 1] = 1 if prev > 0 else -1
        for i in positions:
            v = word[i]
            if v > 0:
                inv[v - 1] = i + 1
            else:
                inv[-v - 1] = -i - 1
                h += 1
            if prev > v:
                h += i
            prev = v
        h += sum(i for i in positions if inv[i - 1] > inv[i])
        counts[h] = counts.get(h, 0) + 1
    scale = 1 if kind == "sym" else 2
    return tuple((scale * h, count) for h, count in sorted(counts.items()))
