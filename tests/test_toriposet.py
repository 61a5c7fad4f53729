import itertools
from math import factorial

import pytest

from comlie import toriposet
from comlie.qseries import QPoly
from comlie.repa import partitions
from comlie.toriposet import (
    ChainClass,
    chain_class_count_bruteforce,
    chain_classes,
    chain_orbit_key,
    components,
    flag_poincare,
    refinements_with_blocks,
    set_partitions_with_blocks,
)


@pytest.mark.parametrize("n", range(1, 11))
def test_component_count_is_partition_count(n):
    assert len(components(n)) == len(partitions(n))


def test_components_rank_two_table():
    point, flag = components(2)
    assert point.shape == (2,)
    assert point.flag_poincare == QPoly.one()
    assert point.real_dimension == 0
    assert point.stabilizer_order == 1
    # the nontrivial component is a 2-sphere worth of tori modulo the swap
    assert flag.shape == (1, 1)
    assert flag.flag_poincare == QPoly({0: 1, 1: 1})
    assert flag.real_dimension == 2
    assert flag.stabilizer_order == 2


def test_components_rank_three():
    comps = components(3)
    assert len(comps) == 3
    by_shape = {c.shape: c for c in comps}
    assert by_shape[(3,)].real_dimension == 0
    assert by_shape[(2, 1)].real_dimension == 4
    assert by_shape[(1, 1, 1)].real_dimension == 6
    assert by_shape[(1, 1, 1)].stabilizer_order == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_flag_poincare_value_at_one_is_euler_characteristic(n):
    for c in components(n):
        multinomial = factorial(n)
        for part in c.shape:
            multinomial //= factorial(part)
        assert c.flag_poincare.value_at_one() == multinomial


def test_set_partitions_with_blocks():
    parts = list(set_partitions_with_blocks((1, 2, 3), 2))
    assert len(parts) == 3
    assert ((1, 2), (3,)) in parts
    assert list(set_partitions_with_blocks((1, 2), 3)) == []


def test_refinements_with_blocks():
    coarse = ((1, 2, 3),)
    refs = list(refinements_with_blocks(coarse, 2))
    assert len(refs) == 3
    chained = list(refinements_with_blocks(((1, 2), (3,)), 3))
    assert chained == [((1,), (2,), (3,))]


def _refinements_by_resplitting(partition, num_blocks):
    """Reference: split the first block, then list the refinements of the
    rest again for each of its splits."""
    if not partition:
        if num_blocks == 0:
            yield ()
        return
    first, rest = partition[0], partition[1:]
    for k in range(1, min(num_blocks - len(rest), len(first)) + 1):
        for sub in set_partitions_with_blocks(first, k):
            for tail in _refinements_by_resplitting(rest, num_blocks - k):
                yield tuple(sorted(sub + tail))


@pytest.mark.parametrize("n", range(1, 7))
def test_refinements_match_resplitting_in_order(n):
    items = tuple(range(1, n + 1))
    for size in range(1, n + 1):
        for partition in set_partitions_with_blocks(items, size):
            for num_blocks in range(size, n + 1):
                assert list(refinements_with_blocks(partition, num_blocks)) == list(
                    _refinements_by_resplitting(partition, num_blocks))


def test_refinements_split_each_block_once_per_block_count(monkeypatch):
    split = toriposet.set_partitions_with_blocks
    refine = toriposet.refinements_with_blocks
    calls = []
    visited = bound = 0

    def counted_split(items, k):
        calls.append((items, k))
        return split(items, k)

    def listed_refine(partition, num_blocks):
        nonlocal visited, bound
        start = len(calls)
        out = list(refine(partition, num_blocks))
        pairs = calls[start:]
        assert len(pairs) == len(set(pairs)), partition
        visited += len(pairs)
        bound += sum(min(len(block), num_blocks) for block in partition)
        return iter(out)

    monkeypatch.setattr(toriposet, "set_partitions_with_blocks", counted_split)
    monkeypatch.setattr(toriposet, "refinements_with_blocks", listed_refine)
    chains = list(toriposet._chains(6, (1, 2, 3, 4, 5, 6)))
    assert len(chains) == 2700
    # one call lists the first level; every other one splits a (block, k)
    # pair that some refinements_with_blocks call visited, and only once
    assert len(calls) == 1 + visited <= 1 + bound


# the ivals of the benchmark's chain requests
CHAIN_IVALS = ((0, 1), (1, 2), (0, 2), (1, 3), (0, 1, 2))


def _chains_by_resplitting(n, block_counts):
    """Reference enumeration: every level re-split from scratch, in the
    order ``_chains`` promises."""
    chains = [(part,) for part in set_partitions_with_blocks(
        tuple(range(1, n + 1)), block_counts[0])]
    for num_blocks in block_counts[1:]:
        chains = [chain + (part,) for chain in chains
                  for part in _refinements_by_resplitting(chain[-1], num_blocks)]
    return chains


@pytest.mark.parametrize("n", range(1, 8))
def test_chains_match_resplitting_and_bruteforce(n):
    maximal = (tuple(range(n)),) if n <= 6 else ()
    for ivals in CHAIN_IVALS + maximal:
        if ivals[-1] > n - 1:
            continue
        block_counts = tuple(i + 1 for i in ivals)
        reference = _chains_by_resplitting(n, block_counts)
        assert list(toriposet._chains(n, block_counts)) == reference
        classes = chain_classes(n, ivals)
        assert len(classes) == chain_class_count_bruteforce(n, ivals)
        assert len({chain_orbit_key(c) for c in reference}) == len(classes)


def test_chain_classes_examples():
    assert len(chain_classes(2, (0, 1))) == 1
    assert len(chain_classes(4, (1,))) == 2
    assert len(chain_classes(3, (0, 1, 2))) == 1
    rep = chain_classes(2, (0, 1))[0]
    assert rep.representative == (((1, 2),), ((1,), (2,)))
    assert rep.block_counts == (1, 2)


def test_chain_classes_validation():
    with pytest.raises(ValueError):
        chain_classes(3, ())
    with pytest.raises(ValueError):
        chain_classes(3, (1, 1))
    with pytest.raises(ValueError):
        chain_classes(3, (0, 3))
    for call in (chain_classes, chain_class_count_bruteforce):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call(0, (0,))
        with pytest.raises(ValueError, match="n must be >= 1"):
            call(-2, (0,))


@pytest.mark.parametrize("n", range(2, 8))
def test_single_level_counts_are_partition_counts(n):
    for k in range(n):
        expected = sum(1 for p in partitions(n) if len(p) == k + 1)
        assert len(chain_classes(n, (k,))) == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_canonical_and_bruteforce_counts_agree(n):
    ivals_list = [
        ivals
        for size in range(1, n + 1)
        for ivals in __import__("itertools").combinations(range(n), size)
    ]
    for ivals in ivals_list:
        assert len(chain_classes(n, ivals)) == chain_class_count_bruteforce(n, ivals)


def test_orbit_key_separates_shapes():
    chain_a = (((1, 2, 3), (4,)),)
    chain_b = (((1, 2), (3, 4)),)
    assert chain_orbit_key(chain_a) != chain_orbit_key(chain_b)
    relabeled = (((1, 4), (2, 3)),)
    assert chain_orbit_key(chain_b) == chain_orbit_key(relabeled)


def test_chain_class_type():
    cls = chain_classes(3, (1, 2))[0]
    assert isinstance(cls, ChainClass)
    assert [len(p) for p in cls.representative] == [2, 3]


def _all_ivals(n):
    return [
        ivals
        for size in range(1, n + 1)
        for ivals in itertools.combinations(range(n), size)
    ]


def _orbit_count_by_full_sweep(n, ivals):
    """Reference count: remove the images of one seed chain under all n!
    relabelings per orbit."""
    block_counts = tuple(i + 1 for i in ivals)
    unseen = set(toriposet._chains(n, block_counts))
    perms = list(itertools.permutations(range(1, n + 1)))
    orbits = 0
    while unseen:
        seed = unseen.pop()
        orbits += 1
        for perm in perms:
            unseen.discard(toriposet._apply_to_chain(perm, seed))
    return orbits


@pytest.mark.parametrize("n", range(1, 7))
def test_bruteforce_matches_full_permutation_sweep(n):
    for ivals in _all_ivals(n):
        assert chain_class_count_bruteforce(n, ivals) == _orbit_count_by_full_sweep(
            n, ivals
        )


def test_bruteforce_relabels_each_chain_twice(monkeypatch):
    calls = []
    apply = toriposet._apply_to_chain

    def counted(perm, chain):
        calls.append(perm)
        return apply(perm, chain)

    monkeypatch.setattr(toriposet, "_apply_to_chain", counted)
    chains = list(toriposet._chains(7, (1, 2)))
    assert len(chains) == 63
    assert chain_class_count_bruteforce(7, (0, 1)) == 3
    assert len(calls) == 2 * len(chains)
    calls.clear()
    assert chain_class_count_bruteforce(1, (0,)) == 1
    assert calls == []


def _orbit_key_by_subset_scan(chain):
    """Reference key: find each block's children by a subset test against
    every block of the next level."""

    def key_of(block, level):
        if level == len(chain) - 1:
            return (len(block),)
        children = [
            frozenset(b) for b in chain[level + 1] if frozenset(b) <= block
        ]
        return (len(block), tuple(sorted(key_of(c, level + 1) for c in children)))

    return tuple(sorted(key_of(frozenset(b), 0) for b in chain[0]))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_key_matches_subset_scan(n):
    for ivals in _all_ivals(n):
        for chain in toriposet._chains(n, tuple(i + 1 for i in ivals)):
            assert chain_orbit_key(chain) == _orbit_key_by_subset_scan(chain)
