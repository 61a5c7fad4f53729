"""Combinatorics of the intersections-of-maximal-tori poset of U(n).

A subtorus cut out by equalities among diagonal entries corresponds to a set
partition of the coordinates; conjugacy classes of such subtori correspond
to integer partitions of n, and each class is a flag manifold modulo the
permutations of its equal-size stages.  Chains of subtori, up to simultaneous
conjugation, become refinement chains of set partitions up to relabeling.
``chain_classes`` lists them one level at a time, keeping only the least
chain of each prefix class (keyed by a canonical nested multiset of block
sizes) and refining only those; this is exact because chains compare prefix
first, so every prefix of a class's least chain is least in its own class.
``chain_class_count_bruteforce`` still enumerates every labelled chain, as
the independent check.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import factorial
from typing import NamedTuple

# ``exact_div`` is unused here; perfbench/test_perfbench.py asserts that the
# span wrappers patch this by-name binding, so it stays until that test changes.
from .qseries import QPoly, exact_div  # noqa: F401
from .repa import gaussian_multinomial, partitions

SetPartition = tuple[tuple[int, ...], ...]
Chain = tuple[SetPartition, ...]


class ToriComponent(NamedTuple):
    """One conjugacy class of subtori: the flag manifold of the shape,
    divided by the permutations of equal stages."""

    shape: tuple[int, ...]
    flag_poincare: QPoly
    real_dimension: int
    stabilizer_order: int


def flag_poincare(shape: tuple[int, ...]) -> QPoly:
    """Gaussian multinomial: Poincare polynomial (in q = t^2) of the flag
    manifold with stage sizes given by the shape."""
    return gaussian_multinomial(shape)


def components(n: int) -> list[ToriComponent]:
    """One component per partition of n, in partition order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for shape in partitions(n):
        stabilizer = 1
        for mult in Counter(shape).values():
            stabilizer *= factorial(mult)
        out.append(
            ToriComponent(
                shape=shape,
                flag_poincare=flag_poincare(shape),
                real_dimension=n**2 - sum(p**2 for p in shape),
                stabilizer_order=stabilizer,
            )
        )
    return out


class ChainClass(NamedTuple):
    """A relabeling class of refinement chains of set partitions, with the
    lexicographically least canonical chain as representative."""

    representative: Chain
    block_counts: tuple[int, ...]


def _canonical(blocks: list[list[int]]) -> SetPartition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def set_partitions_with_blocks(items: tuple[int, ...], num_blocks: int):
    """All set partitions of ``items`` into exactly ``num_blocks`` blocks,
    in canonical form."""
    if num_blocks < 1 or num_blocks > len(items):
        return
    first, rest = items[0], items[1:]

    def rec(blocks: list[list[int]], remaining: tuple[int, ...]):
        open_slots = num_blocks - len(blocks)
        if not remaining:
            if open_slots == 0:
                yield _canonical(blocks)
            return
        if open_slots > len(remaining):
            return
        item, tail = remaining[0], remaining[1:]
        for block in blocks:
            block.append(item)
            yield from rec(blocks, tail)
            block.pop()
        if open_slots > 0:
            blocks.append([item])
            yield from rec(blocks, tail)
            blocks.pop()

    yield from rec([[first]], rest)


def refinements_with_blocks(partition: SetPartition, num_blocks: int):
    """Set partitions with ``num_blocks`` blocks refining ``partition``,
    obtained by splitting each block independently.

    Each block's splits into k parts are listed once per call and reused for
    every split of the blocks before it."""
    blocks = list(partition)
    # the most parts the blocks after each index can be split into
    room = [sum(map(len, blocks[idx:])) for idx in range(1, len(blocks) + 1)]
    splits: dict[tuple[int, int], list[SetPartition]] = {}

    def rec(idx: int, needed: int, acc: list[tuple[int, ...]]):
        if idx == len(blocks):
            if needed == 0:
                yield tuple(sorted(acc))
            return
        remaining_blocks = len(blocks) - idx - 1
        block = blocks[idx]
        low = max(1, needed - room[idx])
        for k in range(low, min(needed - remaining_blocks, len(block)) + 1):
            if (idx, k) not in splits:
                splits[idx, k] = list(set_partitions_with_blocks(block, k))
            for sub in splits[idx, k]:
                yield from rec(idx + 1, needed - k, acc + list(sub))

    yield from rec(0, num_blocks, [])


def _chains(n: int, block_counts: tuple[int, ...]):
    whole = (tuple(range(1, n + 1)),)

    def rec(level: int, chain: list[SetPartition]):
        if level == len(block_counts):
            yield tuple(chain)
            return
        # level 0 refines the one-block partition
        for part in refinements_with_blocks(
                chain[-1] if chain else whole, block_counts[level]):
            chain.append(part)
            yield from rec(level + 1, chain)
            chain.pop()

    yield from rec(0, [])


def chain_orbit_key(chain: Chain):
    """Canonical invariant of a chain under relabeling: the nested multiset
    of block sizes, recorded coarsest level outward.  Two chains are
    conjugate exactly when their keys agree.

    Keys are built from the finest level up: each block of the level above
    collects the keys of the blocks that refine it, found through a map from
    each element to the block that owns it."""
    keys = [(len(block),) for block in chain[-1]]
    for level in range(len(chain) - 2, -1, -1):
        parts = chain[level]
        owner = {x: i for i, block in enumerate(parts) for x in block}
        children: list[list] = [[] for _ in parts]
        for block, key in zip(chain[level + 1], keys):
            children[owner[block[0]]].append(key)
        keys = [
            (len(block), tuple(sorted(kids)))
            for block, kids in zip(parts, children)
        ]
    return tuple(sorted(keys))


def _validate_ivals(n: int, ivals: tuple[int, ...]) -> tuple[int, ...]:
    try:
        operator.index(n)
    except TypeError:
        raise TypeError(f"n must be an integer, not {n!r}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        ivals = tuple(map(operator.index, ivals))
    except TypeError:
        raise TypeError(f"ivals must be integers, not {ivals!r}") from None
    if not ivals:
        raise ValueError("ivals must be nonempty")
    if list(ivals) != sorted(set(ivals)):
        raise ValueError("ivals must be strictly increasing")
    if ivals[0] < 0 or ivals[-1] > n - 1:
        raise ValueError(f"ivals must lie in 0..{n - 1}")
    return ivals


def chain_classes(n: int, ivals: tuple[int, ...]) -> list[ChainClass]:
    """Relabeling classes of chains whose r-th member has ivals[r] + 1
    blocks (the rank of the corresponding subtorus above the center).

    Built one level at a time: of each class of prefixes only the least is
    kept and refined.  Chains compare prefix first, so a relabeling that
    lowered a prefix of a class's least chain would lower the chain itself;
    every prefix of that chain is therefore kept, and the result is the
    least chain of every class, as full enumeration gives."""
    ivals = _validate_ivals(n, ivals)
    block_counts = tuple(i + 1 for i in ivals)
    whole = (tuple(range(1, n + 1)),)
    prefixes: list[Chain] = [()]
    for num_blocks in block_counts:
        best: dict = {}
        for prefix in prefixes:
            # level 0 refines the one-block partition
            for part in refinements_with_blocks(
                    prefix[-1] if prefix else whole, num_blocks):
                chain = prefix + (part,)
                key = chain_orbit_key(chain)
                if key not in best or chain < best[key]:
                    best[key] = chain
        prefixes = list(best.values())
    classes = [
        ChainClass(representative=chain, block_counts=block_counts)
        for chain in prefixes
    ]
    classes.sort(key=lambda c: c.representative)
    return classes


def _apply_to_chain(perm: tuple[int, ...], chain: Chain) -> Chain:
    return tuple(
        _canonical([[perm[i - 1] for i in block] for block in part])
        for part in chain
    )


def chain_class_count_bruteforce(n: int, ivals: tuple[int, ...]) -> int:
    """Count classes by splitting the raw chain set into explicit orbits; an
    independent check of the canonical form.

    Each orbit is the closure of one chain under the transposition (1 2) and
    the n-cycle (1 2 ... n), which generate S_n, so every chain is relabeled
    exactly twice."""
    ivals = _validate_ivals(n, ivals)
    block_counts = tuple(i + 1 for i in ivals)
    unseen = set(_chains(n, block_counts))
    # S_1 is trivial: its one chain is its own orbit and needs no generator
    generators = (
        [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)] if n > 1 else []
    )
    orbits = 0
    while unseen:
        frontier = [unseen.pop()]
        orbits += 1
        while frontier:
            chain = frontier.pop()
            for perm in generators:
                image = _apply_to_chain(perm, chain)
                if image in unseen:
                    unseen.remove(image)
                    frontier.append(image)
    return orbits
