from math import factorial

import pytest

from comlie import repa
from comlie.qseries import QPoly, exact_div
from comlie.repa import (
    fake_degree,
    fiber_numerator_series,
    flag_series,
    gaussian_multinomial,
    hook_lengths,
    partitions,
    partitions_max_parts,
    q_factorial,
    q_int,
    verify_fake_degree_identities,
)
from comlie.poincare import GroupSpec, ecom_numerator
from comlie.weylcomb import GroupSizeError, pair_statistic_counts
from reference import count_standard_tableaux


def test_partitions_counts_and_order():
    assert partitions(0) == ((),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(5)) == 7
    assert len(partitions(10)) == 42
    with pytest.raises(ValueError):
        partitions(-1)


def test_partitions_max_parts():
    assert partitions_max_parts(4, 2) == ((4,), (3, 1), (2, 2))
    assert partitions_max_parts(3, 1) == ((3,),)


def test_hook_lengths():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert sorted(hook_lengths((3, 2))) == [1, 1, 2, 3, 4]


def test_fake_degree_examples():
    assert fake_degree((4,)).poly == QPoly.one()
    assert fake_degree((1, 1)).poly == QPoly.monomial(1)
    assert fake_degree((2, 1)).poly == QPoly({1: 1, 2: 1})
    assert fake_degree((1, 1, 1)).poly == QPoly.monomial(3)
    for not_a_partition in [(1, 2), (2, 3, 1), (1, 1, 2), (0,), (2, 0), (-1,)]:
        with pytest.raises(ValueError):
            fake_degree(not_a_partition)


@pytest.mark.parametrize("n", range(13))
def test_fake_degree_is_hook_formula_quotient(n):
    for shape in partitions(n):
        hooks = QPoly.one()
        for h in hook_lengths(shape):
            hooks = hooks * q_int(h)
        shift = sum(i * part for i, part in enumerate(shape))
        expected = QPoly.monomial(shift) * exact_div(q_factorial(n), hooks)
        assert fake_degree(shape).poly == expected


def test_count_standard_tableaux():
    assert count_standard_tableaux((2, 1)) == 2
    assert count_standard_tableaux((2, 2)) == 2
    assert count_standard_tableaux((3, 2)) == 5
    assert count_standard_tableaux((5,)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_fake_degree_value_at_one_counts_tableaux(n):
    for shape in partitions(n):
        assert fake_degree(shape).poly.value_at_one() == count_standard_tableaux(
            shape
        )


@pytest.mark.parametrize("n", range(1, 8))
def test_sum_of_squared_dimensions_is_group_order(n):
    assert (
        sum(fake_degree(shape).poly.value_at_one() ** 2 for shape in partitions(n))
        == factorial(n)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_identities(n):
    report = verify_fake_degree_identities(n)
    assert report.passed, report.summary()


def test_identities_above_the_cap_build_no_fake_degree(monkeypatch):
    built = []
    monkeypatch.setattr(repa, "fake_degree",
                        lambda shape: built.append(shape))
    with pytest.raises(GroupSizeError, match="got n=30"):
        verify_fake_degree_identities(30)
    assert built == []


def test_flag_series_small():
    assert flag_series(2) == q_factorial(2)
    assert fiber_numerator_series(3) == QPoly({0: 1, 2: 1, 3: 2, 4: 1, 6: 1})


@pytest.mark.parametrize("n", range(1, 9))
def test_fiber_numerator_matches_weyl_sum(n):
    # the squared-character sum against the enumerated maj pair distribution
    assert fiber_numerator_series(n) == QPoly(dict(pair_statistic_counts("sym", n)))


@pytest.mark.parametrize("n", range(1, 6))
def test_signed_fiber_numerator_matches_weyl_sum(n):
    expected = {2 * stat: mult for stat, mult in pair_statistic_counts("signed", n)}
    assert ecom_numerator(GroupSpec("sp", n)) == QPoly(expected)


@pytest.mark.parametrize("n", range(11))
def test_gaussian_multinomial_is_factorial_quotient(n):
    for shape in partitions(n):
        expected = q_factorial(n)
        for part in shape:
            expected = exact_div(expected, q_factorial(part))
        assert gaussian_multinomial(shape) == expected
    assert gaussian_multinomial((n, 0)) == QPoly.one()
    with pytest.raises(ValueError):
        gaussian_multinomial((n, -1))


@pytest.mark.parametrize("n", range(0, 15))
def test_fiber_numerator_matches_full_squares(n):
    full = QPoly.zero()
    for shape in partitions(n):
        poly = fake_degree(shape).poly
        full = full + poly * poly
    assert fiber_numerator_series(n) == full
    assert full.is_palindromic(n * (n - 1))
