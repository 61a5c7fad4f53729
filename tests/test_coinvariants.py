from fractions import Fraction

import pytest

from comlie import coinvariants, qseries
from comlie.coinvariants import (
    IntegralityError,
    _exact_average,
    coinvariant_char,
    conjugacy_classes,
    invariant_degrees,
    oracle_bcom,
    oracle_ecom,
    signed_conjugacy_classes,
    symmetric_conjugacy_classes,
)
from comlie.poincare import GroupSpec, bcom_series, ecom_numerator
from comlie.qseries import TruncatedSeries
from comlie.repa import q_factorial
from comlie.weylcomb import CycleData, elements, group_order


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_class_sizes_sum_to_group_order(n):
    assert sum(size for _, size in symmetric_conjugacy_classes(n)) == group_order(
        "sym", n
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_signed_class_sizes_sum_to_group_order(n):
    assert sum(size for _, size in signed_conjugacy_classes(n)) == group_order(
        "signed", n
    )


@pytest.mark.parametrize("kind,n", [("sym", 3), ("sym", 4), ("signed", 2), ("signed", 3)])
def test_class_sizes_match_enumeration(kind, n):
    counts = {}
    for w in elements(kind, n):
        counts[w.cycle_data()] = counts.get(w.cycle_data(), 0) + 1
    classes = (
        symmetric_conjugacy_classes(n) if kind == "sym" else signed_conjugacy_classes(n)
    )
    assert dict(classes) == counts


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
    for cycles, size in conjugacy_classes(group):
        char = coinvariant_char(group, cycles, s_trunc)
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
    for cycles, size in conjugacy_classes(group):
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


def test_oracle_ecom_squares_once_per_call(monkeypatch):
    convolve = qseries._convolve
    calls = []

    def counted(a, b, trunc):
        calls.append(trunc)
        return convolve(a, b, trunc)

    group = GroupSpec("u", 12)
    classes = sum(1 for _ in conjugacy_classes(group))
    monkeypatch.setattr(qseries, "_convolve", counted)
    monkeypatch.setattr(coinvariants, "_convolve", counted, raising=False)
    oracle_bcom(group, 60)
    bcom_calls = len(calls)
    calls.clear()
    oracle_ecom(group, 60)
    # the numerator's factors and one square, however many classes there are
    assert classes == 77
    assert len(calls) <= bcom_calls + 1
    assert len(calls) < classes


def test_exact_average_raises_on_non_integer():
    with pytest.raises(IntegralityError):
        _exact_average([3], 2)


def test_oracle_scales_past_enumeration_caps():
    # ranks far beyond the enumeration caps stay cheap through the class sum
    series = oracle_bcom(GroupSpec("u", 12), 20)
    assert series.coeffs[0] == 1
    assert all(c >= 0 for c in series.coeffs)
    assert isinstance(series, TruncatedSeries)
