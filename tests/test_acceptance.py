"""Acceptance suite: one test per criterion, every check exact equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import time

import pytest

from comlie.coinvariants import oracle_bcom, oracle_ecom
from comlie.multisym import (
    MultiPoly,
    averaged_descent_basis,
    ecom_ideal,
    quotient_graded_dims,
    verify_free_basis,
    verify_power_sum_generation,
)
from comlie.poincare import (
    GroupSpec,
    bcom_series,
    ecom_numerator,
    generator_catalog,
    stable_bcom,
    stable_weights,
)
from comlie.repa import partitions, verify_fake_degree_identities
from comlie.toriposet import (
    chain_class_count_bruteforce,
    chain_classes,
    components,
)
from comlie.qseries import QPoly
from reference import average


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_01_su2_betti_pattern():
    start = time.time()
    expansion = bcom_series(GroupSpec("su", 2)).expand(40)
    for degree, coeff in enumerate(expansion.coeffs):
        if degree == 0:
            assert coeff == 1
        elif degree % 4 == 0:
            assert coeff == 2
        else:
            assert coeff == 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(f"1 PASS su(2) betti pattern through degree 40 ({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence_type_a():
    start = time.time()
    for n in range(2, 8):
        group = GroupSpec("u", n)
        assert ecom_numerator(group).truncated(60) == oracle_ecom(group, 60)
        assert bcom_series(group).expand(60) == oracle_bcom(group, 60)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(f"2 PASS oracle equivalence U(2..7) through degree 60 ({elapsed:.2f}s)")


def test_criterion_03_oracle_equivalence_type_c():
    start = time.time()
    for n in range(2, 6):
        group = GroupSpec("sp", n)
        assert ecom_numerator(group).truncated(60) == oracle_ecom(group, 60)
        assert bcom_series(group).expand(60) == oracle_bcom(group, 60)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(f"3 PASS oracle equivalence Sp(2..5) through degree 60 ({elapsed:.2f}s)")


def test_criterion_04_freeness_rank_and_duality():
    groups = (
        [GroupSpec("u", n) for n in range(2, 8)]
        + [GroupSpec("su", n) for n in range(2, 8)]
        + [GroupSpec("sp", n) for n in range(1, 6)]
    )
    for group in groups:
        numerator = ecom_numerator(group)
        assert numerator.value_at_one() == group.weyl_order
        assert numerator.is_palindromic(group.top_ecom_degree)
        assert numerator.coefficient(group.top_ecom_degree) == 1
        if group.family == "Sp":
            assert numerator.degree == 4 * group.n**2
        else:
            assert numerator.degree == 2 * group.n * (group.n - 1)
    _report(f"4 PASS freeness rank and duality for {len(groups)} groups")


def test_criterion_05_three_letter_basis():
    start = time.time()
    basis = averaged_descent_basis("sym", 3)
    polys = [poly for _, poly in basis]
    assert all(not poly.is_zero() for poly in polys)
    assert sorted(2 * poly.total_degree() for poly in polys) == [0, 4, 6, 6, 8, 12]
    first = average("sym", MultiPoly.monomial(3, (1, 0, 0), (0, 1, 0)))
    second = average("sym", MultiPoly.monomial(3, (1, 1, 0), (1, 0, 1)))
    assert any(poly == first for poly in polys)
    assert any(poly == second for poly in polys)
    report = verify_free_basis("sym", 3, 6)
    assert report.passed, report.detail
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(f"5 PASS three-letter diagonal descent basis ({elapsed:.2f}s)")


def test_criterion_06_signed_two_letter_basis():
    start = time.time()
    basis = averaged_descent_basis("signed", 2)
    polys = [poly for _, poly in basis]
    assert sorted(2 * poly.total_degree() for poly in polys) == [
        0, 4, 8, 8, 8, 8, 12, 16,
    ]
    first = average("signed", MultiPoly.monomial(2, (1, 0), (1, 0)))
    last = average("signed", MultiPoly.monomial(2, (3, 1), (3, 1)))
    assert any(poly == first for poly in polys)
    assert any(poly == last for poly in polys)
    report = verify_free_basis("signed", 2, 8)
    assert report.passed, report.detail
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"6 PASS signed two-letter descent basis ({elapsed:.2f}s)")


def test_criterion_07_bruteforce_quotient_equivalence():
    start = time.time()
    cases = [("u", 2, 8), ("u", 3, 6), ("sp", 1, 4), ("sp", 2, 8)]
    for family, n, max_degree in cases:
        kind = "signed" if family == "sp" else "sym"
        group = GroupSpec(family, n)
        dims = quotient_graded_dims(kind, n, ecom_ideal(family, n), max_degree)
        numerator = ecom_numerator(group)
        for d in range(max_degree + 1):
            assert dims[d] == numerator.coefficient(2 * d), (family, n, d)
        assert sum(dims.values()) == group.weyl_order
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(f"7 PASS brute-force quotient equivalence ({elapsed:.2f}s)")


def test_criterion_08_fake_degree_identities():
    start = time.time()
    for n in range(1, 8):
        report = verify_fake_degree_identities(n)
        assert report.passed, report.summary()
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(f"8 PASS fake degree identities n=1..7 ({elapsed:.2f}s)")


def test_criterion_09_stabilization():
    start = time.time()
    stable_u = stable_bcom("U", 16)
    for n in (8, 9):
        finite = bcom_series(GroupSpec("u", n)).expand(16)
        assert finite == stable_u
    stable_sp = stable_bcom("Sp", 12)
    for n in (4, 5):
        finite = bcom_series(GroupSpec("sp", n)).expand(12)
        assert finite == stable_sp
    # weights derived from the catalogs match the closed-form counts
    for max_degree in (12, 16):
        weights_u = stable_weights("U", max_degree)
        weights_su = stable_weights("SU", max_degree)
        weights_sp = stable_weights("Sp", max_degree)
        for d in range(1, max_degree // 2 + 1):
            assert weights_u.get(2 * d, 0) == d
            assert weights_su.get(2 * d, 0) == (0 if d == 1 else d)
            assert weights_sp.get(2 * d, 0) == (d if d % 2 == 0 else 0)
        for family, weights in (
            ("U", weights_u), ("SU", weights_su), ("Sp", weights_sp),
        ):
            catalog = generator_catalog(family, max_degree)
            assert catalog.weights() == weights
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(f"9 PASS stabilization U(8,9)@16, Sp(4,5)@12 ({elapsed:.2f}s)")


def test_criterion_10_poset_counts():
    start = time.time()
    for n in range(1, 11):
        assert len(components(n)) == len(partitions(n))
    for n in range(2, 6):
        for size in range(1, n + 1):
            for ivals in itertools.combinations(range(n), size):
                assert len(chain_classes(n, ivals)) == chain_class_count_bruteforce(
                    n, ivals
                )
    point, flag = components(2)
    assert point.real_dimension == 0 and point.stabilizer_order == 1
    assert flag.flag_poincare == QPoly({0: 1, 1: 1})
    assert flag.real_dimension == 2 and flag.stabilizer_order == 2
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"10 PASS poset component and chain-class counts ({elapsed:.2f}s)")


def test_criterion_11_power_sum_generation():
    start = time.time()
    for n in (1, 2, 3):
        report = verify_power_sum_generation("sym", n, 6)
        assert report.passed, report.detail
    report = verify_power_sum_generation("signed", 2, 6)
    assert report.passed, report.detail
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(f"11 PASS power-sum generation checks ({elapsed:.2f}s)")
