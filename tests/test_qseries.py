import pytest
from hypothesis import assume, given, settings, strategies as st

from comlie.qseries import (
    QPoly,
    RationalSeries,
    TruncatedSeries,
    _divide_by_factor,
    exact_div,
    product_series,
)


def qpoly_strategy(max_degree=8, max_coeff=30):
    return st.builds(
        QPoly.from_coeffs,
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            min_size=0,
            max_size=max_degree + 1,
        ),
    )


factors_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=2),
    max_size=3,
)


def test_expand_geometric():
    series = RationalSeries(QPoly.one(), ((2, 1),))
    assert series.expand(6).coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_expand_two_generator_example():
    series = RationalSeries(QPoly.one(), ((2, 1), (4, 1)))
    assert series.expand(4).coeffs == (1, 0, 1, 0, 2)


def test_expand_betti_pattern_numerator():
    series = RationalSeries(QPoly({0: 1, 4: 1}), ((4, 1),))
    expanded = series.expand(12)
    assert expanded.coeffs == (1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2)


def test_qpoly_product_difference_of_squares():
    assert QPoly({0: 1, 1: 1}) * QPoly({0: 1, 1: -1}) == QPoly({0: 1, 2: -1})


def test_add_zero_is_identity():
    p = QPoly({0: 3, 5: -2})
    assert QPoly.zero() + p == p


def test_value_at_one_counts_basis():
    p = QPoly({0: 1, 4: 1, 6: 2, 8: 1, 12: 1})
    assert p.value_at_one() == 6


def test_coefficients_outside_the_stored_range():
    p = QPoly({0: 3, 5: -2, 7: 0})
    assert p.degree == 5 and p.items() == [(0, 3), (5, -2)]
    assert p.coefficient(-1) == 0 and p.coefficient(p.degree + 1) == 0
    assert p.coefficient(5) == -2 and p.coefficient(2) == 0
    assert p.coefficients_through(7) == [3, 0, 0, 0, 0, -2, 0, 0]
    assert QPoly.from_coeffs([0, 1, 0, 0]) == QPoly({1: 1})
    assert QPoly.zero().degree == -1 and QPoly({4: 0}).is_zero()
    with pytest.raises(ValueError):
        QPoly({-1: 1})


def test_palindromic():
    assert QPoly({0: 1, 4: 1, 6: 2, 8: 1, 12: 1}).is_palindromic(12)
    assert not QPoly({0: 1, 2: 1}).is_palindromic(4)
    assert QPoly({1: 1, 3: 1}).is_palindromic(4)
    assert not QPoly({0: 1, 6: 1}).is_palindromic(4)
    assert QPoly.zero().is_palindromic()


def test_truncated_series_mismatch_raises():
    a = TruncatedSeries((1, 2, 3))
    b = TruncatedSeries((1, 2))
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_first_mismatch():
    a = TruncatedSeries((1, 2, 3, 4))
    assert a.first_mismatch(TruncatedSeries((1, 2, 3, 4))) is None
    assert a.first_mismatch(TruncatedSeries((1, 2, 0, 0))) == 2
    assert a.first_mismatch(TruncatedSeries((0, 2, 3, 4))) == 0


def test_product_series_examples():
    assert product_series({2: 1}, 4).coeffs == (1, 0, 1, 0, 1)
    assert product_series({2: 1, 4: 2, 6: 3}, 4).coeffs[4] == 3
    assert product_series({}, 3).coeffs == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        product_series({0: 1}, 3)


def test_rational_series_product_merges_factors():
    a = RationalSeries(QPoly.one(), ((2, 1),))
    b = RationalSeries(QPoly({0: 1, 2: 1}), ((2, 1), (4, 1)))
    ab = a * b
    assert ab.denominator_factors == ((2, 2), (4, 1))
    assert ab.numerator == QPoly({0: 1, 2: 1})


def test_factor_validation():
    with pytest.raises(ValueError):
        RationalSeries(QPoly.one(), ((0, 1),))
    with pytest.raises(ValueError):
        RationalSeries(QPoly.one(), ((2, 0),))


def test_exact_div():
    num = QPoly({0: 1, 2: -1})
    assert exact_div(num, QPoly({0: 1, 1: 1})) == QPoly({0: 1, 1: -1})
    with pytest.raises(ValueError):
        exact_div(QPoly({0: 1, 1: 1}), QPoly({0: 1, 1: -1, 2: 5}))
    # non-monic divisor 2 + 3t
    assert exact_div(QPoly({0: 2, 1: 5, 2: 3}), QPoly({0: 2, 1: 3})) == QPoly(
        {0: 1, 1: 1})
    with pytest.raises(ValueError):
        exact_div(QPoly({0: 1, 1: 1}), QPoly({0: 1, 1: 2}))
    # (1 + t)(1 + t^2) + 1: the remainder 1 sits below the divisor's degree
    with pytest.raises(ValueError):
        exact_div(QPoly({0: 2, 1: 1, 2: 1, 3: 1}), QPoly({0: 1, 2: 1}))
    with pytest.raises(ValueError):
        exact_div(QPoly({0: 1}), QPoly({0: 1, 1: 1}))
    assert exact_div(QPoly.zero(), QPoly({0: 1, 1: 1})).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_div(QPoly.one(), QPoly.zero())


@given(qpoly_strategy(), qpoly_strategy(), qpoly_strategy())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(qpoly_strategy(), qpoly_strategy())
def test_exact_div_undoes_multiplication(p, q):
    assume(not q.is_zero())
    assert exact_div(p * q, q) == p


@given(qpoly_strategy(), qpoly_strategy(), st.integers(0, 20))
def test_truncated_product_is_the_truncated_polynomial_product(p, q, trunc):
    product = p.truncated(trunc) * q.truncated(trunc)
    assert product == (p * q).truncated(trunc)


@given(qpoly_strategy(max_degree=6), factors_strategy, st.integers(8, 14))
def test_expand_times_denominator_recovers_numerator(numerator, factors, trunc):
    series = RationalSeries(numerator, tuple(factors.items()))
    expansion = series.expand(trunc)
    denominator = QPoly.one()
    for exp, mult in series.denominator_factors:
        for _ in range(mult):
            denominator = denominator * QPoly({0: 1, exp: -1})
    product = expansion * denominator.truncated(trunc)
    assert product.coeffs == numerator.truncated(trunc).coeffs


def _divide_by_loop(coeffs, exp, sign):
    """Reference: one pass of the forward recurrence, one coefficient at a
    time."""
    for k in range(exp, len(coeffs)):
        coeffs[k] += sign * coeffs[k - exp]


def _check_divide_by_factor(coeffs, exp, sign, times):
    expected = list(coeffs)
    for _ in range(times):
        _divide_by_loop(expected, exp, sign)
    got = list(coeffs)
    assert _divide_by_factor(got, exp, sign, times) is None
    assert got == expected


# long and short lanes, and exponents past the length
@settings(max_examples=300)
@given(
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30)),
             max_size=220),
    st.one_of(st.integers(1, 6), st.integers(1, 260)),
    st.sampled_from((1, -1)),
    st.integers(1, 4),
)
def test_divide_by_factor_equals_repeated_loop(coeffs, exp, sign, times):
    _check_divide_by_factor(coeffs, exp, sign, times)


@pytest.mark.parametrize("size, exp", [
    (0, 1), (1, 1), (5, 9), (9, 9), (200, 1), (200, 3), (71, 3), (72, 3),
    (60, 7),
])
@pytest.mark.parametrize("sign", (1, -1))
def test_divide_by_factor_on_every_route(size, exp, sign):
    coeffs = [(7 * k * k + 3) % 23 - 11 for k in range(size)]
    for times in (1, 2, 3, 4):
        _check_divide_by_factor(coeffs, exp, sign, times)
