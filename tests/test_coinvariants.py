import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from comlie import coinvariants, qseries
from comlie.coinvariants import (
    IntegralityError,
    _exact_average,
    conjugacy_classes,
    invariant_degrees,
    oracle_bcom,
    oracle_ecom,
)
from comlie.poincare import GroupSpec, bcom_series, ecom_numerator
from comlie.qseries import TruncatedSeries
from comlie.repa import q_factorial
from comlie.weylcomb import CycleData, elements, group_order
from reference import coinvariant_char, cycles_of_runs


def _reference_class_size(cycles: CycleData, signed: bool) -> int:
    """|W| / z with z = prod_k k^(m_k) m_k! per cycle type, times 2 per
    cycle for a signed class, the multiplicities counted by ``Counter``."""
    n = cycles.size
    z = 1
    for lengths in (cycles.positive_cycles, cycles.negative_cycles):
        for c, m in Counter(lengths).items():
            z *= c**m * factorial(m) * (2**m if signed else 1)
    return (2**n if signed else 1) * factorial(n) // z


@pytest.mark.parametrize("n", range(1, 23))
def test_symmetric_class_sizes_sum_to_group_order(n):
    classes = list(conjugacy_classes(GroupSpec("u", n)))
    assert all(size == _reference_class_size(cycles_of_runs(runs), False)
               for runs, size in classes)
    assert sum(size for _, size in classes) == group_order("sym", n)


@pytest.mark.parametrize("n", range(1, 12))
def test_signed_class_sizes_sum_to_group_order(n):
    classes = list(conjugacy_classes(GroupSpec("sp", n)))
    assert all(size == _reference_class_size(cycles_of_runs(runs), True)
               for runs, size in classes)
    assert sum(size for _, size in classes) == group_order("signed", n)


@pytest.mark.parametrize("kind,n", [("sym", 3), ("sym", 4), ("signed", 2), ("signed", 3)])
def test_class_sizes_match_enumeration(kind, n):
    counts = {}
    for w in elements(kind, n):
        counts[w.cycle_data()] = counts.get(w.cycle_data(), 0) + 1
    group = GroupSpec("u" if kind == "sym" else "sp", n)
    assert {cycles_of_runs(runs): size
            for runs, size in conjugacy_classes(group)} == counts


def test_invariant_degrees():
    assert invariant_degrees(GroupSpec("u", 4)) == (1, 2, 3, 4)
    assert invariant_degrees(GroupSpec("su", 4)) == (2, 3, 4)
    assert invariant_degrees(GroupSpec("sp", 3)) == (2, 4, 6)


def test_char_at_identity_is_flag_poincare_polynomial():
    for n in range(1, 6):
        char = coinvariant_char(GroupSpec("u", n), CycleData((1,) * n), 30)
        expected = q_factorial(n).truncated(30)
        assert char == expected
        # value at s=1 of the polynomial: the Weyl group order
        assert sum(char.coeffs) == group_order("sym", n)


def test_char_examples():
    char = coinvariant_char(GroupSpec("u", 2), CycleData((2,)), 8)
    assert char.coeffs == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    char = coinvariant_char(GroupSpec("sp", 1), CycleData((), (1,)), 8)
    assert char.coeffs == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    char = coinvariant_char(GroupSpec("su", 2), CycleData((1, 1)), 8)
    assert char.coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 0)


def test_char_rejects_inconsistent_cycle_data():
    with pytest.raises(ValueError):
        coinvariant_char(GroupSpec("u", 2), CycleData((1,), (1,)), 8)
    with pytest.raises(ValueError):
        coinvariant_char(GroupSpec("u", 2), CycleData((3,)), 8)


def test_oracle_examples():
    assert oracle_ecom(GroupSpec("u", 2), 12).coeffs == (
        1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0,
    )
    assert oracle_ecom(GroupSpec("u", 3), 12).coeffs == (
        1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 1,
    )
    assert oracle_bcom(GroupSpec("su", 2), 8).coeffs == (
        1, 0, 0, 0, 2, 0, 0, 0, 2,
    )


@pytest.mark.parametrize(
    "group",
    [GroupSpec("u", n) for n in range(1, 6)]
    + [GroupSpec("su", n) for n in range(2, 6)]
    + [GroupSpec("sp", n) for n in range(1, 5)],
    ids=lambda g: g.label,
)
def test_oracles_match_closed_forms(group):
    trunc = 40
    assert oracle_ecom(group, trunc) == ecom_numerator(group).truncated(trunc)
    assert oracle_bcom(group, trunc) == bcom_series(group).expand(trunc)


@pytest.mark.parametrize(
    "group",
    [GroupSpec("u", 3), GroupSpec("u", 4), GroupSpec("sp", 2), GroupSpec("su", 3)],
    ids=lambda g: g.label,
)
def test_class_sum_equals_element_sum(group):
    s_trunc = 8
    order = group.weyl_order
    acc = [Fraction(0)] * (s_trunc + 1)
    for w in elements(group.weyl_kind, group.n):
        char = coinvariant_char(group, w.cycle_data(), s_trunc)
        for k in range(s_trunc + 1):
            acc[k] += Fraction(
                sum(char.coeffs[i] * char.coeffs[k - i] for i in range(k + 1)), order
            )
    by_elements = [int(v) for v in acc]
    assert all(v == int(v) for v in acc)
    by_classes = oracle_ecom(group, 2 * s_trunc)
    assert by_classes.coeffs[::2] == tuple(by_elements)


def _reference_ecom(group, trunc):
    """Class-size weighted sum of squared coinvariant characters, multiplied
    as truncated series and divided by the group order."""
    s_trunc = trunc // 2
    acc = TruncatedSeries((0,) * (s_trunc + 1))
    for runs, size in conjugacy_classes(group):
        char = coinvariant_char(group, cycles_of_runs(runs), s_trunc)
        acc = acc + TruncatedSeries(tuple(size * c for c in (char * char).coeffs))
    coeffs = [0] * (trunc + 1)
    coeffs[::2] = [c // group.weyl_order for c in acc.coeffs]
    assert [c * group.weyl_order for c in coeffs[::2]] == list(acc.coeffs)
    return TruncatedSeries(tuple(coeffs))


def _reference_bcom(group, trunc):
    """Class-size weighted sum of N / det(1 - s*w)^2, each class divided
    from the numerator afresh one cycle and one coefficient at a time, with
    N = prod_i (1 - s^(d_i)), times (1 - s)^2 for SU, and det taken on the
    permutation representation."""
    s_trunc = trunc // 2
    numerator = [1] + [0] * s_trunc
    degrees = invariant_degrees(group) + ((1, 1) if group.family == "SU" else ())
    for d in degrees:
        for k in range(s_trunc, d - 1, -1):
            numerator[k] -= numerator[k - d]
    acc = [0] * (s_trunc + 1)
    for runs, size in conjugacy_classes(group):
        cycles = cycles_of_runs(runs)
        coeffs = numerator.copy()
        signed = [(c, 1) for c in cycles.positive_cycles]
        signed += [(c, -1) for c in cycles.negative_cycles]
        for c, sign in signed * 2:
            for k in range(c, s_trunc + 1):
                coeffs[k] += sign * coeffs[k - c]
        acc = [a + size * c for a, c in zip(acc, coeffs)]
    coeffs = [0] * (trunc + 1)
    coeffs[::2] = [c // group.weyl_order for c in acc]
    assert [c * group.weyl_order for c in coeffs[::2]] == acc
    return TruncatedSeries(tuple(coeffs))


ORACLE_REFERENCE_GROUPS = (
    [GroupSpec(family, n) for family in ("u", "su") for n in range(1, 13)]
    + [GroupSpec("sp", n) for n in range(1, 8)])


@pytest.mark.parametrize("group", ORACLE_REFERENCE_GROUPS, ids=lambda g: g.label)
def test_oracle_ecom_equals_squared_character_sum(group):
    for trunc in sorted({0, 1, 7, 20, min(group.top_ecom_degree, 80)}):
        assert oracle_ecom(group, trunc) == _reference_ecom(group, trunc)


@pytest.mark.parametrize("group", ORACLE_REFERENCE_GROUPS, ids=lambda g: g.label)
def test_oracle_bcom_equals_per_class_sum(group):
    for trunc in sorted({0, 1, 7, 20, min(group.top_ecom_degree, 80)}):
        assert oracle_bcom(group, trunc) == _reference_bcom(group, trunc)


SMALL_GROUPS = (
    [GroupSpec("u", n) for n in range(1, 8)]
    + [GroupSpec("su", n) for n in range(2, 8)]
    + [GroupSpec("sp", n) for n in range(1, 6)])
#: Long chains of same-cycle siblings that carry their sums on, chains
#: with c > s_trunc, and leaves between inner siblings; up to degree 30.
CHAIN_GROUPS = (
    [GroupSpec(family, n) for family in ("u", "su") for n in range(8, 11)]
    + [GroupSpec("sp", 6)])


@pytest.mark.parametrize("group", SMALL_GROUPS + CHAIN_GROUPS,
                         ids=lambda g: g.label)
def test_oracles_equal_references_at_every_small_truncation(group):
    # below the longest cycle, inner nodes and last runs lie past the
    # truncation and must still carry their whole sums
    top = 30 if group in CHAIN_GROUPS else 40
    for trunc in range(min(group.top_ecom_degree, top) + 1):
        assert oracle_ecom(group, trunc) == _reference_ecom(group, trunc), trunc
        assert oracle_bcom(group, trunc) == _reference_bcom(group, trunc), trunc


@pytest.mark.parametrize("group", [GroupSpec("u", 9), GroupSpec("su", 7),
                                   GroupSpec("sp", 5)], ids=lambda g: g.label)
@pytest.mark.parametrize("oracle", [oracle_ecom, oracle_bcom])
def test_oracle_sums_every_class_in_one_pass(monkeypatch, group, oracle):
    classes = list(conjugacy_classes(group))
    calls = []

    def spied(g):
        calls.append([])
        for item in conjugacy_classes(g):
            calls[-1].append(item)
            yield item

    monkeypatch.setattr(coinvariants, "conjugacy_classes", spied)
    oracle(group, 30)
    assert calls == [classes]


@pytest.mark.parametrize("group", [GroupSpec("u", 9), GroupSpec("su", 7),
                                   GroupSpec("sp", 5)], ids=lambda g: g.label)
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_oracles_do_not_depend_on_class_order(monkeypatch, group, order):
    truncs = (0, 1, 9, 30, group.top_ecom_degree)
    expected = [(oracle_ecom(group, t), oracle_bcom(group, t)) for t in truncs]
    classes = list(conjugacy_classes(group))
    if order == "reversed":
        classes.reverse()
    else:
        random.Random(7).shuffle(classes)
    monkeypatch.setattr(coinvariants, "conjugacy_classes",
                        lambda g: iter(classes))
    assert [(oracle_ecom(group, t), oracle_bcom(group, t))
            for t in truncs] == expected


@pytest.mark.parametrize("oracle", [oracle_ecom, oracle_bcom])
def test_oracle_refuses_negative_truncation_before_any_class(monkeypatch,
                                                             oracle):
    yielded = []

    def spied(g):
        for item in conjugacy_classes(g):
            yielded.append(item)
            yield item

    monkeypatch.setattr(coinvariants, "conjugacy_classes", spied)
    with pytest.raises(ValueError, match="trunc must be >= 0"):
        oracle(GroupSpec("u", 5), -1)
    assert yielded == []


def test_same_cycle_siblings_carry_their_sum_on(monkeypatch):
    # U(4), s-degree 8, classes in run order: 1111, 211, 31, 22, 4.  The
    # node (1 - s)^2 of 211 divides by (1 - s)^2 only and carries its sum
    # on as the node (1 - s)^1 of 31, which 22 closes by (1 - s)^2; a leaf
    # divides its own short expansion once per distinct last run.
    divide = coinvariants._divide_by_factor
    calls = []

    def spied(coeffs, exp, sign=1, times=1):
        calls.append((len(coeffs), exp, sign, times))
        divide(coeffs, exp, sign, times)

    monkeypatch.setattr(coinvariants, "_divide_by_factor", spied)
    assert oracle_bcom(GroupSpec("u", 4), 16) == bcom_series(
        GroupSpec("u", 4)).expand(16)
    assert calls == [(9, 1, 1, 8), (5, 1, 1, 2), (9, 1, 1, 2), (3, 1, 1, 2),
                     (9, 1, 1, 2), (5, 1, 1, 4), (3, 1, 1, 2)]


def test_factors_are_ascending_runs_of_both_signs():
    assert dict(conjugacy_classes(GroupSpec("sp", 1))) == {
        ((1, -1, -1),): 1, ((1, 1, -1),): 1}
    sp4 = dict(conjugacy_classes(GroupSpec("sp", 4)))
    assert sp4[(1, -1, -1), (1, 1, -1), (2, -1, -1)] == 24
    assert sp4[(1, 1, -2), (2, -1, -1)] == 12
    groups = ([GroupSpec("u", n) for n in range(1, 13)]
              + [GroupSpec("sp", n) for n in range(1, 12)])
    for group in groups:
        for runs, _ in conjugacy_classes(group):
            assert type(runs) is tuple
            # strictly ascending in (c, sign): one run per cycle and sign
            assert all(a[:2] < b[:2] for a, b in zip(runs, runs[1:]))
            assert all(c >= 1 and neg_m <= -1 for c, _, neg_m in runs)
            assert sum(c * -neg_m for c, _, neg_m in runs) == group.n
    for kind, family, top in (("sym", "u", 6), ("signed", "sp", 4)):
        for n in range(1, top + 1):
            classes = [cycles_of_runs(runs) for runs, _ in
                       conjugacy_classes(GroupSpec(family, n))]
            assert len(set(classes)) == len(classes)
            assert set(classes) == {w.cycle_data() for w in elements(kind, n)}


def test_oracles_call_no_convolution(monkeypatch):
    convolve = qseries._convolve
    calls = []

    def counted(a, b, trunc):
        calls.append(trunc)
        return convolve(a, b, trunc)

    monkeypatch.setattr(qseries, "_convolve", counted)
    monkeypatch.setattr(coinvariants, "_convolve", counted, raising=False)
    # the numerator is applied one factor at a time, never as a product
    for group in (GroupSpec("u", 12), GroupSpec("su", 9), GroupSpec("sp", 6)):
        oracle_bcom(group, 60)
        oracle_ecom(group, 60)
    assert calls == []


def test_exact_average_raises_on_non_integer():
    with pytest.raises(IntegralityError):
        _exact_average([3], 2)


def test_oracle_scales_past_enumeration_caps():
    # ranks far beyond the enumeration caps stay cheap through the class sum
    series = oracle_bcom(GroupSpec("u", 12), 20)
    assert series.coeffs[0] == 1
    assert all(c >= 0 for c in series.coeffs)
    assert isinstance(series, TruncatedSeries)
