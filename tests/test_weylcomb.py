import pytest
from hypothesis import given, strategies as st

from comlie.qseries import QPoly
from comlie.repa import q_factorial
from comlie.weylcomb import (
    CycleData,
    GroupSizeError,
    Permutation,
    SignedPermutation,
    _words,
    elements,
    group_order,
    pair_statistic_counts,
)


@st.composite
def permutation_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    word = draw(st.permutations(range(1, n + 1)))
    return Permutation(tuple(word))


@st.composite
def signed_permutation_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    word = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(tuple(s * v for s, v in zip(signs, word)))


def test_enumeration_counts():
    assert [w.word for w in elements("sym", 1)] == [(1,)]
    assert len(list(elements("sym", 3))) == 6
    assert len(list(elements("signed", 2))) == 8
    for n in range(1, 6):
        assert len(list(elements("sym", n))) == group_order("sym", n)
    for n in range(1, 4):
        assert len(list(elements("signed", n))) == group_order("signed", n)


@pytest.mark.parametrize("kind, n", [
    *(("sym", n) for n in range(1, 6)),
    *(("signed", n) for n in range(1, 4)),
])
def test_elements_follow_the_raw_words(kind, n):
    assert [w.word for w in elements(kind, n)] == list(_words(kind, n))


def test_enumeration_is_duplicate_free():
    seen = set(w.word for w in elements("signed", 3))
    assert len(seen) == group_order("signed", 3)


def test_enumeration_size_errors():
    with pytest.raises(GroupSizeError):
        list(elements("sym", 0))
    with pytest.raises(GroupSizeError):
        list(elements("sym", 10))
    with pytest.raises(GroupSizeError):
        list(elements("signed", 6))
    with pytest.raises(ValueError):
        list(elements("weird", 2))


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        SignedPermutation((1, -1))


def test_inverse_examples():
    assert Permutation((1, 2, 3)).inverse().word == (1, 2, 3)
    assert Permutation((2, 3, 1)).inverse().word == (3, 1, 2)
    assert SignedPermutation((-2, 1)).inverse().word == (2, -1)


def test_descents_and_major_index():
    assert Permutation.identity(4).major_index() == 0
    w = Permutation((2, 3, 1))
    assert w.descent_set() == (2,)
    assert w.major_index() == 2
    s = SignedPermutation((1, -2))
    assert s.descent_set() == (1,)
    assert s.major_index() == 1


def test_flag_statistics_examples():
    assert SignedPermutation.identity(3).flag_major_index() == 0
    assert SignedPermutation.identity(3).flag_vector() == (0, 0, 0)
    assert SignedPermutation((-1, 2)).flag_major_index() == 1
    assert SignedPermutation((1, -2)).flag_major_index() == 3


def test_cycle_data_examples():
    assert Permutation.identity(3).cycle_data() == CycleData((1, 1, 1))
    assert Permutation((2, 3, 1)).cycle_data() == CycleData((3,))
    assert SignedPermutation((-1, 2)).cycle_data() == CycleData((1,), (1,))
    # one signed 2-cycle with a single sign flip is negative
    assert SignedPermutation((-2, 1)).cycle_data() == CycleData((), (2,))


@given(permutation_strategy())
def test_inverse_is_involution_and_composes_to_identity(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).word == Permutation.identity(w.n).word


@given(st.one_of(permutation_strategy(), signed_permutation_strategy()))
def test_signed_inverse_composes_to_identity(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).word == SignedPermutation.identity(w.n).word
    assert w * w.inverse() == w.inverse() * w == type(w).identity(w.n)


@given(st.one_of(permutation_strategy(), signed_permutation_strategy()))
def test_flag_major_index_two_ways(w):
    assert w.flag_major_index() == 2 * w.major_index() + w.negative_count()
    assert sum(w.flag_vector()) == w.flag_major_index()


@pytest.mark.parametrize("n", range(1, 6))
def test_permutations_are_positive_signed_permutations(n):
    assert type(Permutation.identity(n)) is Permutation
    for w in elements("sym", n):
        assert isinstance(w, SignedPermutation)
        assert w.flag_major_index() == 2 * w.major_index()
        assert w.cycle_data().negative_cycles == ()
        assert type(w.inverse()) is Permutation
        assert type(w * w) is Permutation


def test_composition_across_the_two_classes():
    # the product takes the class of its left factor, so a negative entry
    # in a plain permutation's product is refused, not dropped
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 2)) * SignedPermutation((-1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((2, 1, 3)) * SignedPermutation((1, -3, 2))
    assert Permutation((2, 1)) * SignedPermutation((2, 1)) == Permutation((1, 2))
    assert SignedPermutation((1, 2)) * Permutation((2, 1)) == SignedPermutation((2, 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_major_index_is_mahonian(n):
    distribution = QPoly.zero()
    for w in elements("sym", n):
        distribution = distribution + QPoly.monomial(w.major_index())
    assert distribution == q_factorial(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_flag_major_index_generating_function(n):
    # the fmaj distribution over the signed group factors as prod [2i]_q
    distribution = QPoly.zero()
    for w in elements("signed", n):
        distribution = distribution + QPoly.monomial(w.flag_major_index())
    expected = QPoly.one()
    for i in range(1, n + 1):
        expected = expected * QPoly({e: 1 for e in range(2 * i)})
    assert distribution == expected


@pytest.mark.parametrize("kind, n", [
    *(("sym", n) for n in range(1, 8)),
    *(("signed", n) for n in range(1, 6)),
])
def test_pair_statistic_kernel_matches_element_methods(kind, n):
    def stat(w):
        return w.major_index() if kind == "sym" else w.flag_major_index()

    expected: dict[int, int] = {}
    for w in elements(kind, n):
        value = stat(w) + stat(w.inverse())
        expected[value] = expected.get(value, 0) + 1
    assert pair_statistic_counts(kind, n) == tuple(sorted(expected.items()))


def test_pair_statistic_kernel_cap():
    with pytest.raises(GroupSizeError, match="oracle"):
        pair_statistic_counts("signed", 6)
    with pytest.raises(GroupSizeError, match="oracle"):
        list(elements("sym", 10))


@pytest.mark.parametrize("positive,negative", [
    ((0,), ()), ((), (0,)), ((-1,), ()), ((), (-3,)),
    ((1, 0, 3), ()), ((0, 2), ()), ((2, -1, 1), (1,)),
    ((), (2, -1)), ((1,), (0, 4)), ((3,), (-2, 5, 1)),
])
def test_cycle_data_rejects_nonpositive_lengths(positive, negative):
    # unsorted input too: the check reads the smallest entry after sorting
    with pytest.raises(ValueError, match="cycle lengths must be positive"):
        CycleData(positive, negative)


def test_cycle_data_sorts_each_tuple_nonincreasing():
    cycles = CycleData((1, 3, 2, 3), (1, 2))
    assert cycles.positive_cycles == (3, 3, 2, 1)
    assert cycles.negative_cycles == (2, 1)
    assert CycleData(()) == CycleData((), ())
