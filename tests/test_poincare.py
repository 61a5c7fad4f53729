import sys

import pytest

from comlie import cli, poincare, repa, weylcomb
from comlie.coinvariants import oracle_bcom
from comlie.poincare import (
    GroupSpec,
    bcom_series,
    bg_series,
    ecom_numerator,
    generator_catalog,
    stable_bcom,
    stable_weights,
    verify_product_relation,
    verify_stabilization,
)
from comlie.qseries import QPoly
from comlie.weylcomb import GroupSizeError
from reference import product_bcom_series, product_bg_series, product_ecom_numerator

ALL_GROUPS = (
    [GroupSpec("U", n) for n in range(1, 6)]
    + [GroupSpec("SU", n) for n in range(2, 6)]
    + [GroupSpec("Sp", n) for n in range(1, 5)]
)


def test_group_spec_derived_data():
    u3 = GroupSpec("u", 3)
    assert u3.family == "U" and u3.weyl_order == 6
    assert u3.bg_denominator_factors == ((2, 1), (4, 1), (6, 1))
    assert u3.top_ecom_degree == 12
    su3 = GroupSpec("su", 3)
    assert su3.bg_denominator_factors == ((4, 1), (6, 1))
    sp2 = GroupSpec("sp", 2)
    assert sp2.weyl_order == 8
    assert sp2.bg_denominator_factors == ((4, 1), (8, 1))
    assert sp2.top_ecom_degree == 16
    with pytest.raises(ValueError):
        GroupSpec("so", 3)
    for rank in (0, True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match="rank"):
            GroupSpec("u", rank)


def test_ecom_numerator_examples():
    assert ecom_numerator(GroupSpec("u", 2)) == QPoly({0: 1, 4: 1})
    assert ecom_numerator(GroupSpec("u", 3)) == QPoly(
        {0: 1, 4: 1, 6: 2, 8: 1, 12: 1}
    )
    assert ecom_numerator(GroupSpec("sp", 2)) == QPoly(
        {0: 1, 4: 1, 8: 4, 12: 1, 16: 1}
    )
    assert ecom_numerator(GroupSpec("sp", 1)) == QPoly({0: 1, 4: 1})


def test_ecom_numerator_cap_error_mentions_oracle():
    with pytest.raises(GroupSizeError, match="oracle"):
        ecom_numerator(GroupSpec("u", 10))


def test_ecom_numerator_does_not_enumerate_the_weyl_group(monkeypatch):
    calls = []
    original = weylcomb.pair_statistic_counts

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("comlie") and vars(module).get(
            "pair_statistic_counts"
        ) is original:
            monkeypatch.setattr(module, "pair_statistic_counts", spy)
    for module in (poincare, repa):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    assert ecom_numerator(GroupSpec("u", 9)).value_at_one() == 362880
    assert ecom_numerator(GroupSpec("sp", 5)).value_at_one() == 3840
    assert calls == []


def test_bg_series_examples():
    assert bg_series(GroupSpec("u", 1)).denominator_factors == ((2, 1),)
    assert bg_series(GroupSpec("su", 2)).denominator_factors == ((4, 1),)
    assert bg_series(GroupSpec("sp", 2)).denominator_factors == ((4, 1), (8, 1))


def test_bcom_series_examples():
    su2 = bcom_series(GroupSpec("su", 2))
    assert su2.numerator == QPoly({0: 1, 4: 1})
    assert su2.expand(12).coeffs == (1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2)
    u2 = bcom_series(GroupSpec("u", 2))
    assert u2.denominator_factors == ((2, 1), (4, 1))
    # the rank-one symplectic group is the same group as SU(2)
    assert bcom_series(GroupSpec("sp", 1)) == su2


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_freeness_rank_and_duality(group):
    numerator = ecom_numerator(group)
    assert numerator.value_at_one() == group.weyl_order
    assert numerator.degree == group.top_ecom_degree
    assert numerator.coefficient(group.top_ecom_degree) == 1
    assert numerator.is_palindromic(group.top_ecom_degree)


@pytest.mark.parametrize("n", range(1, 7))
def test_u_and_su_share_the_fiber_numerator(n):
    assert ecom_numerator(GroupSpec("u", n)) == ecom_numerator(GroupSpec("su", n))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_expansions_are_nonnegative(group):
    assert all(c >= 0 for c in bcom_series(group).expand(40).coeffs)
    assert all(c >= 0 for c in bg_series(group).expand(40).coeffs)


def test_generator_catalog_examples():
    assert generator_catalog("u", 2).pairs == ((0, 1),)
    assert generator_catalog("su", 2).pairs == ()
    assert generator_catalog("sp", 4).pairs == ((0, 2), (1, 1))
    assert generator_catalog("sp", 8).pairs == (
        (0, 2), (1, 1), (0, 4), (1, 3), (2, 2), (3, 1),
    )


@pytest.mark.parametrize("family", ["u", "su", "sp"])
def test_generator_catalog_pairs_ascend_in_degree_then_a(family):
    for max_degree in range(61):
        keys = [(a + b, a) for a, b in generator_catalog(family, max_degree).pairs]
        assert all(k < k_next for k, k_next in zip(keys, keys[1:]))


@pytest.mark.parametrize("max_degree", [0, 2, 8, 16])
def test_stable_weights_closed_form(max_degree):
    u = stable_weights("U", max_degree)
    su = stable_weights("SU", max_degree)
    sp = stable_weights("Sp", max_degree)
    for d in range(1, max_degree // 2 + 1):
        assert u.get(2 * d, 0) == d
        assert su.get(2 * d, 0) == (0 if d == 1 else d)
        assert sp.get(2 * d, 0) == (d if d % 2 == 0 else 0)


def test_stable_bcom_low_degrees():
    # one degree-2 generator, then 1 + 2 independent degree-4 choices
    assert stable_bcom("U", 4).coeffs == (1, 0, 1, 0, 3)
    assert stable_bcom("SU", 4).coeffs == (1, 0, 0, 0, 2)
    assert stable_bcom("Sp", 4).coeffs == (1, 0, 0, 0, 2)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.label)
def test_product_relation(group):
    report = verify_product_relation(group, 40)
    assert report.passed, report.summary()


def test_stabilization_rank_two_hand_example():
    report = verify_stabilization("U", [2], 4)
    assert report.passed
    assert bcom_series(GroupSpec("u", 2)).expand(4).coeffs[4] == 3
    assert stable_bcom("U", 4).coeffs[4] == 3


def test_stabilization_detects_unstable_range():
    # rank 2 cannot agree with the stable series in high degrees
    report = verify_stabilization("U", [2], 16)
    assert not report.passed
    assert report.first_mismatch is not None


def _stable_edge(group: GroupSpec) -> int:
    """Last degree where the group's series agrees with the stable one."""
    return 4 * group.n + 3 if group.family == "Sp" else 2 * group.n + 1


#: Closed forms up to the enumeration caps, the class-sum oracle past them.
STABLE_RANGE_GROUPS = (
    [(GroupSpec(f, n), False) for f in ("u", "su") for n in range(1, 10)]
    + [(GroupSpec("sp", n), False) for n in range(1, 6)]
    + [(GroupSpec(f, n), True) for f in ("u", "su") for n in range(10, 15)]
    + [(GroupSpec("sp", n), True) for n in range(6, 9)])


@pytest.mark.parametrize("group, oracle", STABLE_RANGE_GROUPS,
                         ids=lambda v: v.label if isinstance(v, GroupSpec)
                         else ("oracle" if v else "closed"))
def test_series_first_leaves_the_stable_series_past_the_stable_range(group,
                                                                      oracle):
    trunc = _stable_edge(group) + 1
    series = (oracle_bcom(group, trunc) if oracle
              else bcom_series(group).expand(trunc))
    assert series.first_mismatch(stable_bcom(group.family, trunc)) == trunc


def test_stable_suite_limits_are_the_stable_range_of_the_smaller_rank():
    for family, (ranks, default, limit) in cli._STABLE_RANKS.items():
        assert limit == _stable_edge(GroupSpec(family, min(ranks)))
        assert default <= limit


def test_cartesian_product_combinators():
    u1 = GroupSpec("u", 1)
    pair = [u1, u1]
    assert product_ecom_numerator(pair) == QPoly.one()
    series = product_bcom_series(pair)
    assert series.denominator_factors == ((2, 2),)
    assert product_bg_series(pair).expand(6).coeffs == (1, 0, 2, 0, 3, 0, 4)
    # a product with SU(2) matches multiplying the expansions
    su2 = GroupSpec("su", 2)
    combined = product_bcom_series([u1, su2]).expand(12)
    by_hand = bcom_series(u1).expand(12) * bcom_series(su2).expand(12)
    assert combined == by_hand
