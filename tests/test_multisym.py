import contextlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from comlie import multisym
from comlie.multisym import (
    IdealSpec,
    MultiPoly,
    averaged_descent_basis,
    bcom_ideal,
    descent_monomial,
    ecom_ideal,
    exact_rank,
    invariant_coordinates,
    monomial_orbit_reps,
    orbit_sum,
    power_sum,
    quotient_graded_dims,
    signed_descent_monomial,
    verify_free_basis,
    verify_power_sum_generation,
)
from comlie.poincare import GroupSpec, bcom_series, ecom_numerator
from comlie.reports import CheckReport
from comlie.weylcomb import (
    GroupSizeError,
    Permutation,
    SignedPermutation,
    elements,
)
from reference import (
    act,
    average,
    descent_monomial_by_descents,
    fraction_rank,
    invariant_graded_dim,
)


def mono(n, xexp, yexp, coeff=1):
    return MultiPoly.monomial(n, xexp, yexp, coeff)


def _clear_memos():
    for obj in vars(multisym).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture(autouse=True)
def _cold_memos():
    """Start each test with the multisym memos empty, so that a spy sees the
    ranks and products a call makes whatever ran before it."""
    _clear_memos()


def test_act_examples():
    p = mono(2, (1, 0), (0, 1))  # x1 y2
    assert act(Permutation((2, 1)), p) == mono(2, (0, 1), (1, 0))
    assert act(Permutation.identity(2), p) == p
    q = mono(2, (2, 0), (1, 0))  # x1^2 y1
    assert act(SignedPermutation((-1, 2)), q) == mono(2, (2, 0), (1, 0), -1)
    with pytest.raises(ValueError):
        act(Permutation((1, 2, 3)), p)


def test_act_is_ring_homomorphism():
    w = SignedPermutation((-2, 1))
    p = mono(2, (1, 1), (0, 0)) + mono(2, (0, 0), (1, 0), 3)
    q = mono(2, (1, 0), (0, 2))
    assert act(w, p * q) == act(w, p) * act(w, q)


def test_average_examples():
    n = 3
    avg = average("sym", mono(n, (1, 0, 0), (0, 0, 0)))
    expected = power_sum(n, 1, 0) * Fraction(1, 3)
    assert avg == expected
    # odd pair degree kills the signed average
    assert average("signed", mono(2, (1, 0), (0, 1))).is_zero()
    # sym average of x1 y2 over three letters: all off-diagonal products
    avg = average("sym", mono(3, (1, 0, 0), (0, 1, 0)))
    off_diag = MultiPoly.zero(3)
    for i in range(3):
        for j in range(3):
            if i != j:
                xexp = [0, 0, 0]
                yexp = [0, 0, 0]
                xexp[i] = 1
                yexp[j] = 1
                off_diag = off_diag + mono(3, tuple(xexp), tuple(yexp))
    assert avg == off_diag * Fraction(1, 6)


def test_average_is_idempotent_and_invariant():
    p = mono(3, (2, 1, 0), (0, 0, 1)) + mono(3, (1, 0, 0), (1, 1, 0), 2)
    avg = average("sym", p)
    assert average("sym", avg) == avg
    for w in elements("sym", 3):
        assert act(w, avg) == avg
    sp = mono(2, (2, 0), (0, 0)) + mono(2, (1, 1), (1, 1), 5)
    savg = average("signed", sp)
    assert average("signed", savg) == savg
    for w in elements("signed", 2):
        assert act(w, savg) == savg


def test_signed_vanishing_is_exactly_odd_pair_degree():
    # exhaustive over monomials of total degree <= 6 in two variable pairs
    for d in range(7):
        for rep in monomial_orbit_reps("sym", 2, d):
            xexp = tuple(a for a, _ in rep)
            yexp = tuple(b for _, b in rep)
            has_odd = any((a + b) % 2 for a, b in rep)
            vanished = average("signed", mono(2, xexp, yexp)).is_zero()
            assert vanished == has_odd


def test_power_sum_examples():
    assert power_sum(2, 1, 0) == mono(2, (1, 0), (0, 0)) + mono(2, (0, 1), (0, 0))
    p11 = power_sum(2, 1, 1)
    assert p11 == mono(2, (1, 0), (1, 0)) + mono(2, (0, 1), (0, 1))
    assert act(SignedPermutation((-1, 2)), p11) == p11
    with pytest.raises(ValueError):
        power_sum(2, 0, 0)


def test_descent_monomial_examples():
    assert descent_monomial(Permutation.identity(3)) == MultiPoly.one(3)
    # w = (2,1,3): single descent at 1 in both w and its inverse
    assert descent_monomial(Permutation((2, 1, 3))) == mono(3, (1, 0, 0), (0, 1, 0))
    # w = (3,2,1): x-part x1^2 x2, y-part y3^2 y2
    assert descent_monomial(Permutation((3, 2, 1))) == mono(3, (2, 1, 0), (0, 1, 2))
    assert signed_descent_monomial(SignedPermutation((-1, 2))) == mono(
        2, (1, 0), (1, 0)
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_descent_monomial_degrees_match_major_indices(n):
    for w in elements("sym", n):
        m = descent_monomial(w)
        ((xexp, yexp),) = m.terms
        assert sum(xexp) == w.inverse().major_index()
        assert sum(yexp) == w.major_index()


@pytest.mark.parametrize("n", range(1, 7))
def test_descent_monomial_matches_the_descent_loop(n):
    for w in elements("sym", n):
        assert descent_monomial(w) == descent_monomial_by_descents(w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_descent_monomial_degrees_match_flag_major_indices(n):
    for w in elements("signed", n):
        m = signed_descent_monomial(w)
        assert m.total_degree() == w.inverse().flag_major_index() + w.flag_major_index()


def test_invariant_graded_dim_examples():
    assert invariant_graded_dim("sym", 2, 1) == 2
    assert invariant_graded_dim("signed", 2, 1) == 0
    assert invariant_graded_dim("signed", 3, 1) == 0
    for d in range(7):
        assert invariant_graded_dim("sym", 1, d) == d + 1


def test_orbit_reps_and_coordinates_are_consistent():
    reps = monomial_orbit_reps("sym", 2, 2)
    assert len(reps) == 6
    for rep in reps:
        poly = orbit_sum(2, rep)
        coords = invariant_coordinates(poly, reps)
        assert coords == {reps.index(rep): 1}


def _sparse(rows):
    """Dense rows as the sparse integer rows of ``exact_rank``: each row
    scaled by the lcm of its denominators, which leaves the rank as it is,
    and its zeros dropped."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        out.append({j: int(v * den) for j, v in enumerate(row) if v})
    return out


def test_exact_rank():
    one = Fraction(1)
    zero = Fraction(0)
    cases = [
        ([[one, zero], [zero, one], [one, one]], 2),
        ([], 0),
        ([[zero, zero]], 0),
        ([[Fraction(2, 3), one]], 1),
        ([[1, 2], [2, 4]], 1),
    ]
    for rows, rank in cases:
        assert fraction_rank(rows) == rank
        assert exact_rank(_sparse(rows)) == rank
    assert exact_rank([{}]) == 0
    assert exact_rank([{5: 3}]) == 1
    assert exact_rank([{7: 2, 9: -1}, {}, {7: -4, 9: 2}]) == 1
    # explicit zero entries are no entries
    assert exact_rank([{3: 0}]) == 0
    assert exact_rank([{0: 0, 1: 2}, {3: 0}, {1: -3, 3: 0}]) == 1


@contextlib.contextmanager
def _spy(name):
    """Record the arguments of every call to a multisym function."""
    calls = []
    original = getattr(multisym, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    setattr(multisym, name, wrapper)
    try:
        yield calls
    finally:
        setattr(multisym, name, original)


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def _matrices(entries, max_rows=7, max_cols=7):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c), max_size=max_rows))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def _deficient(draw, entries=ENTRIES, max_dim=7):
    """A product of random m x k and k x c factors with k below m and c."""
    k = draw(st.integers(1, max_dim - 1))
    m = draw(st.integers(k + 1, max_dim))
    c = draw(st.integers(k + 1, max_dim))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                      min_size=k, max_size=k))
    return _product(a, b)


@settings(max_examples=300)
@given(_matrices(ENTRIES))
def test_exact_rank_matches_fraction_rank(rows):
    sparse = _sparse(rows)
    before = [dict(row) for row in sparse]
    assert exact_rank(sparse) == fraction_rank(rows)
    assert sparse == before  # the input rows are left as they are


@settings(max_examples=300)
@given(_deficient())
def test_exact_rank_matches_fraction_rank_when_deficient(rows):
    rank = exact_rank(_sparse(rows))
    assert rank == fraction_rank(rows)
    assert rank < min(len(rows), len(rows[0]))


@settings(max_examples=300)
@given(_matrices(st.integers(-9, 9), max_rows=5, max_cols=5),
       st.integers(1, 1000))
def test_exact_rank_of_multiples_of_a_61_bit_prime(rows, k):
    # every entry is a multiple of 2**61 - 1, so the rank is invisible
    # modulo that prime
    assume(any(any(row) for row in rows))
    rows = [[k * (2**61 - 1) * v for v in row] for row in rows]
    assert exact_rank(_sparse(rows)) == fraction_rank(rows) > 0


@st.composite
def _unliftable(draw, entries=st.integers(2**400, 2**401), max_dim=4):
    """A product A [I_k | U] with A of full column rank k below its m rows
    and U a k x c block.  The kernel is spanned by the columns of [-U; I],
    unique given its free columns and with entries as huge as U's."""
    k = draw(st.integers(1, max_dim - 1))
    m = draw(st.integers(k + 1, max_dim))
    c = draw(st.integers(1, max_dim - k))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=m, max_size=m))
    assume(fraction_rank(a) == k)
    u = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                      min_size=k, max_size=k))
    return _product(a, [[int(i == j) for j in range(k)] + u[i]
                        for i in range(k)])


@settings(max_examples=300)
@given(_unliftable())
def test_exact_rank_when_the_kernel_has_huge_entries(rows):
    assert exact_rank(_sparse(rows)) == fraction_rank(rows) < len(rows[0])


@settings(max_examples=300)
@given(_deficient(st.integers(2**400, 2**401), max_dim=4))
def test_small_kernels_certify_huge_deficient_ranks(rows):
    # equal or proportional columns give kernel vectors with small entries
    assert exact_rank(_sparse(rows)) == fraction_rank(rows)


@pytest.mark.parametrize("half", [False, True])
def test_kernel_certificate_proves_a_rank_with_one_prime(half):
    # the third column is the sum of the first two, or half of it, so the
    # kernel vector is (-1, -1, 1) or (-1/2, -1/2, 1) while the entries are
    # near 2**300; integer elimination ranks it without a Fraction
    big = 2**300
    rows = [[big + i, 3 * big - i, 4 * big] for i in range(5)]
    if half:
        rows = [[2 * a, 2 * b, c] for a, b, c in rows]
    assert fraction_rank(rows) == 2
    with _spy("Fraction") as calls:
        assert exact_rank(_sparse(rows)) == 2
    assert calls == []


def test_a_rank_no_prime_proves_is_left_to_fraction_rank():
    # row 3 is row 1 + row 2, and the kernel vector (-x, -y, 1) has entries
    # beyond rational reconstruction at any 61-bit prime; integer
    # elimination still ranks it without a Fraction
    x, y = 2**35 + 1, 2**35 + 3
    rows = [{0: 1, 2: x}, {1: 1, 2: y}, {0: 1, 1: 1, 2: x + y}]
    assert fraction_rank([[1, 0, x], [0, 1, y], [1, 1, x + y]]) == 2
    with _spy("Fraction") as calls:
        assert exact_rank(rows) == 2
    assert calls == []


def _closed_form_dims(family, n, ideal, max_degree):
    """Quotient dimensions predicted by the closed-form E_com G numerator
    or B_com G series, whose exponents are doubled polynomial degrees."""
    group = GroupSpec(family, n)
    if ideal is ecom_ideal:
        coeffs = ecom_numerator(group).coefficients_through(2 * max_degree)
    else:
        coeffs = bcom_series(group).expand(2 * max_degree).coeffs
    return {d: coeffs[2 * d] for d in range(max_degree + 1)}


def test_quotient_ranks_are_certified_without_fractions():
    # the rank-4 quotients are rank-deficient; integer elimination ranks
    # them without building a Fraction
    cases = [("u", 3, ecom_ideal, 9), ("u", 4, ecom_ideal, 10),
             ("u", 4, ecom_ideal, 12), ("u", 4, bcom_ideal, 12),
             ("su", 4, bcom_ideal, 12)]
    for family, n, ideal, max_degree in cases:
        with _spy("Fraction") as calls:
            dims = quotient_graded_dims("sym", n, ideal(family, n), max_degree)
        assert calls == [], (family, n, max_degree)
        assert dims == _closed_form_dims(family, n, ideal, max_degree)
    assert quotient_graded_dims("sym", 3, ecom_ideal("u", 3), 9) == {
        0: 1, 1: 0, 2: 1, 3: 2, 4: 1, 5: 0, 6: 1, 7: 0, 8: 0, 9: 0}


def test_integral_coefficients_stay_ints():
    p = power_sum(3, 1, 0) * power_sum(3, 0, 2) - power_sum(3, 1, 2)
    assert p.terms and all(type(c) is int for c in p.terms.values())
    half = p * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.terms.values())
    assert (half * 2) == p
    assert all(type(c) is int for c in (half * 2).terms.values())
    avg = average("sym", power_sum(3, 1, 1))
    assert avg == power_sum(3, 1, 1)
    assert all(type(c) is int for c in avg.terms.values())
    assert MultiPoly(2, {((1, 0), (0, 0)): Fraction(4, 2)}).terms == {
        ((1, 0), (0, 0)): 2}


def test_ideal_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(((0, 0),))
    assert bcom_ideal("u", 2).generators == ((1, 0), (2, 0))
    assert bcom_ideal("su", 2).generators == ((1, 0), (2, 0), (0, 1))
    assert bcom_ideal("sp", 2).generators == ((2, 0), (4, 0))
    assert ecom_ideal("u", 2).generators == ((1, 0), (2, 0), (0, 1), (0, 2))
    assert ecom_ideal("sp", 1).generators == ((2, 0), (0, 2))
    with pytest.raises(ValueError):
        ecom_ideal("su", 2)


@pytest.mark.parametrize("ideal", [bcom_ideal, ecom_ideal])
def test_ideals_name_the_known_families_for_an_unknown_one(ideal):
    assert ideal("SP", 1) == ideal("sp", 1)
    with pytest.raises(ValueError, match=r"unknown family 'so', expected one "
                       r"of \('U', 'SU', 'Sp'\)"):
        ideal("so", 2)


def test_quotient_by_empty_ideal_is_invariant_dimension():
    dims = quotient_graded_dims("sym", 2, IdealSpec(()), 5)
    assert dims == {d: invariant_graded_dim("sym", 2, d) for d in range(6)}


def test_quotient_fiber_ideal_u2():
    dims = quotient_graded_dims("sym", 2, ecom_ideal("u", 2), 4)
    assert dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0}


def test_quotient_base_ideal_u2_matches_series_expansion():
    # graded dimensions 1, 1, 3 = coefficients of (1+t^4)/((1-t^2)(1-t^4))
    dims = quotient_graded_dims("sym", 2, bcom_ideal("u", 2), 2)
    assert dims == {0: 1, 1: 1, 2: 3}


def test_quotient_base_ideal_su2_matches_series_expansion():
    dims = quotient_graded_dims("sym", 2, bcom_ideal("su", 2), 4)
    expansion = bcom_series(GroupSpec("su", 2)).expand(8)
    assert dims == {d: expansion.coeffs[2 * d] for d in range(5)}


def test_quotient_rejects_odd_signed_generators():
    with pytest.raises(ValueError):
        quotient_graded_dims("signed", 2, IdealSpec(((1, 0),)), 4)


def test_feasibility_caps():
    with pytest.raises(GroupSizeError):
        quotient_graded_dims("sym", 5, bcom_ideal("u", 5), 4)
    with pytest.raises(GroupSizeError):
        verify_free_basis("signed", 4, 4)
    with pytest.raises(GroupSizeError):
        verify_power_sum_generation("sym", 2, 20)


def test_free_basis_rank_one_groups():
    report = verify_free_basis("sym", 1, 6)
    assert report.passed and report.basis_size == 1 and report.degrees == (0,)
    report = verify_free_basis("signed", 1, 6)
    assert report.passed and report.basis_size == 2 and report.degrees == (0, 2)


def test_free_basis_rank_two():
    report = verify_free_basis("sym", 2, 6)
    assert report.passed
    assert report.basis_size == 2
    assert report.degrees == (0, 2)


def _mutated_basis(monkeypatch, kind, n, mutate):
    """Make ``_descent_reps`` give ``mutate`` of the true (element,
    representative) list, sorted by degree."""
    reps = sorted(multisym._descent_reps(kind, n),
                  key=lambda item: sum(map(sum, item[1])))
    mutate(reps)
    monkeypatch.setattr(multisym, "_descent_reps", lambda k, m: list(reps))


@pytest.mark.parametrize("kind, n, max_degree, detail", [
    ("sym", 3, 6, "products only span rank 13 of 14 in degree 3"),
    ("signed", 2, 8, "products only span rank 10 of 11 in degree 4"),
])
def test_free_basis_with_a_duplicated_element_falls_short_of_full_rank(
        monkeypatch, kind, n, max_degree, detail):
    def duplicate(reps):
        # the first degree above 0 with two elements gets one of them twice
        degree = [sum(map(sum, rep)) for _, rep in reps]
        i = next(i for i in range(1, len(reps) - 1) if degree[i] == degree[i + 1])
        reps[i + 1] = (reps[i + 1][0], reps[i][1])

    _mutated_basis(monkeypatch, kind, n, duplicate)
    report = verify_free_basis(kind, n, max_degree)
    assert not report.passed and report.detail == detail


def test_free_basis_with_a_shifted_degree_fails_the_hilbert_series(monkeypatch):
    def shift(reps):
        # one more x in the first pair of the top element: degree 6 -> 7
        w, ((a, b), *rest) = reps[-1]
        reps[-1] = (w, ((a + 1, b), *rest))

    _mutated_basis(monkeypatch, "sym", 3, shift)
    report = verify_free_basis("sym", 3, 6)
    assert not report.passed
    assert report.detail == (
        "Hilbert series mismatch in degree 6: 92 products, dimension 93")


def test_free_basis_with_a_vanishing_monomial_fails(monkeypatch):
    def vanish(reps):
        reps[1] = (reps[1][0], None)

    _mutated_basis(monkeypatch, "signed", 2, vanish)
    report = verify_free_basis("signed", 2, 8)
    assert not report.passed and -1 in report.degrees
    assert report.detail == "an averaged descent monomial vanished"


def test_mutated_bases_after_a_clean_run_fail_as_they_do_cold(monkeypatch):
    # the basis memo is keyed by the representatives, so a degree ranked
    # for the true basis is not reused for a mutated one
    assert verify_free_basis("sym", 3, 6).passed
    assert verify_free_basis("signed", 2, 8).passed
    for case in [
        ("sym", 3, 6, "products only span rank 13 of 14 in degree 3"),
        ("signed", 2, 8, "products only span rank 10 of 11 in degree 4"),
    ]:
        with monkeypatch.context() as patch:
            test_free_basis_with_a_duplicated_element_falls_short_of_full_rank(
                patch, *case)
    with monkeypatch.context() as patch:
        test_free_basis_with_a_shifted_degree_fails_the_hilbert_series(patch)
    with monkeypatch.context() as patch:
        test_free_basis_with_a_vanishing_monomial_fails(patch)
    assert verify_free_basis("sym", 3, 6).passed


def test_ideals_of_one_size_keep_their_own_quotients():
    cases = [("u", ecom_ideal), ("u", bcom_ideal), ("su", bcom_ideal)]
    for _ in range(2):
        for family, ideal in cases:
            assert quotient_graded_dims("sym", 2, ideal(family, 2), 6) == (
                _closed_form_dims(family, 2, ideal, 6)), (family, ideal)
        assert quotient_graded_dims("sym", 2, IdealSpec(()), 6) == {
            d: invariant_graded_dim("sym", 2, d) for d in range(7)}


def _ranked(check, max_degree):
    """The result of ``check(max_degree)`` and the rows of each rank it
    computed."""
    with _spy("exact_rank") as calls:
        result = check(max_degree)
    return result, [rows for (rows,) in calls]


@pytest.mark.parametrize("check, low, high", [
    (lambda d: verify_free_basis("sym", 3, d), 3, 6),
    (lambda d: verify_free_basis("signed", 2, d), 4, 8),
    (lambda d: verify_power_sum_generation("sym", 3, d), 2, 6),
    (lambda d: verify_power_sum_generation("signed", 2, d), 4, 6),
    (lambda d: quotient_graded_dims("sym", 3, ecom_ideal("u", 3), d), 5, 9),
    (lambda d: quotient_graded_dims("signed", 2, bcom_ideal("sp", 2), d), 2, 8),
], ids=["basis-sym", "basis-signed", "generation-sym", "generation-signed",
        "quotient-sym", "quotient-signed"])
def test_each_degree_is_ranked_once(check, low, high):
    cold, cold_rows = _ranked(check, high)
    assert len(cold_rows) == high + 1
    _clear_memos()
    assert len(_ranked(check, low)[1]) == low + 1
    # a deeper call ranks only the new degrees, on the rows a cold call
    # ranks there; signed generation at a higher degree adds generators
    # that the lower degrees do not use, so it keeps their ranks too
    warm, rows = _ranked(check, high)
    assert warm == cold and rows == cold_rows[low + 1:]
    # a repeated call ranks nothing
    assert _ranked(check, high) == (cold, [])
    assert _ranked(check, low) == (check(low), [])


def test_power_sum_generation_small_ranks():
    assert verify_power_sum_generation("sym", 1, 6).passed
    assert verify_power_sum_generation("sym", 2, 5).passed


def test_averaged_basis_is_invariant():
    for _, poly in averaged_descent_basis("signed", 2):
        for w in elements("signed", 2):
            assert act(w, poly) == poly


def _expanded_quotient_rows(kind, n, generators, d):
    """Quotient rows by expanding each orbit sum times power sum and reading
    back its coordinates."""
    reps_d = monomial_orbit_reps(kind, n, d)
    rows = []
    for a, b in generators:
        if a + b > d:
            continue
        gen = power_sum(n, a, b)
        for rep in monomial_orbit_reps(kind, n, d - a - b):
            rows.append(invariant_coordinates(orbit_sum(n, rep) * gen, reps_d))
    return rows


def _expanded_generation_rows(kind, n, gens, d):
    """Generation rows by expanding each power-sum monomial."""
    reps_d = monomial_orbit_reps(kind, n, d)
    polys = [power_sum(n, a, b) for a, b in gens]
    rows = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            rows.append(invariant_coordinates(acc, reps_d))
            return
        for i in range(idx, len(gens)):
            if sum(gens[i]) <= remaining:
                rec(i, remaining - sum(gens[i]), acc * polys[i])

    rec(0, d, MultiPoly.one(n))
    return rows


ROW_CASES = [("sym", n) for n in (1, 2, 3, 4)] + [("signed", n) for n in (1, 2, 3)]


@pytest.mark.parametrize("kind, n", ROW_CASES)
def test_quotient_rows_match_expanded_products(kind, n):
    step = 2 if kind == "signed" else 1
    gens = tuple((a, e - a) for e in range(step, 9, step) for a in range(e + 1))
    for d in range(9):
        rows = multisym._quotient_rows(kind, n, gens, d)
        assert rows == _expanded_quotient_rows(kind, n, gens, d), (kind, n, d)
        # one entry per distinct pair of the representative multiplied
        assert all(1 <= len(row) <= n and all(row.values()) for row in rows)


@pytest.mark.parametrize("kind, n", ROW_CASES)
def test_power_sum_ideal_has_the_rank_of_the_power_sum_monomials(kind, n):
    # graded Nakayama: the power sums generate the invariant ring exactly
    # when their ideal is its whole positive part
    gens = multisym.generation_generators(kind, n, 8)
    for d in range(1, 9):
        dim = len(monomial_orbit_reps(kind, n, d))
        assert exact_rank(multisym._quotient_rows(kind, n, gens, d)) == dim
        assert exact_rank(_expanded_generation_rows(kind, n, gens, d)) == dim


def _expanded_generation_report(kind, n, gens, max_degree):
    """The generation report from the ranks of the expanded power-sum
    monomials, degree by degree."""
    name = f"power sum generation kind={kind} n={n}"
    for d in range(max_degree + 1):
        dim = len(monomial_orbit_reps(kind, n, d))
        rank = exact_rank(_expanded_generation_rows(kind, n, gens, d))
        if rank != dim:
            return CheckReport(name, False,
                               f"degree {d}: span has rank {rank} of {dim}", d)
    return CheckReport(name, True, f"spans every degree through {max_degree}")


@pytest.mark.parametrize("kind, n", ROW_CASES)
def test_deficient_generation_reports_match_expanded_monomials(kind, n, monkeypatch):
    max_degree = 6
    full = multisym.generation_generators(kind, n, max_degree)
    deficient = [full[:i] + full[i + 1:] for i in range(len(full))]
    deficient.append(tuple(g for g in full if g[0] + g[1] <= 2))
    reports = []
    for gens in deficient:
        monkeypatch.setattr(multisym, "generation_generators",
                            lambda *_, gens=gens: gens)
        reports.append(verify_power_sum_generation(kind, n, max_degree))
        assert reports[-1] == _expanded_generation_report(
            kind, n, gens, max_degree)
    # the lowest-degree power sums are indecomposable
    assert reports[0].first_mismatch == sum(full[0])


@pytest.mark.parametrize("kind, n, max_degree", [("sym", 3, 6), ("signed", 2, 6)])
def test_generation_reads_the_memo_of_the_equal_quotient(kind, n, max_degree):
    gens = multisym.generation_generators(kind, n, max_degree)
    dims = quotient_graded_dims(kind, n, IdealSpec(gens), max_degree)
    assert dims == {d: int(d == 0) for d in range(max_degree + 1)}
    with _spy("exact_rank") as calls:
        assert verify_power_sum_generation(kind, n, max_degree).passed
    assert calls == []


@pytest.mark.parametrize("kind, n", ROW_CASES)
def test_averaged_descent_basis_matches_group_average(kind, n):
    monomial = descent_monomial if kind == "sym" else signed_descent_monomial
    basis = averaged_descent_basis(kind, n)
    assert [w for w, _ in basis] == list(elements(kind, n))
    for w, poly in basis:
        expected = average(kind, monomial(w))
        assert poly == expected and not poly.is_zero()
        assert [type(c) for c in poly.terms.values()] == [
            type(c) for c in expected.terms.values()]


@pytest.mark.parametrize("kind", ["sym", "signed"])
def test_monomial_average_is_orbit_sum_over_orbit_size(kind):
    # every monomial of degree <= 5 in up to three pairs, odd signed pair
    # degrees (which average to zero) included
    for n in (1, 2, 3):
        for d in range(6):
            for rep in monomial_orbit_reps("sym", n, d):
                for xexp, yexp in {(tuple(a for a, _ in arr),
                                    tuple(b for _, b in arr))
                                   for arr in itertools.permutations(rep)}:
                    mono = MultiPoly.monomial(n, xexp, yexp)
                    avg = average(kind, mono)
                    orbit = multisym._monomial_rep(kind, mono)
                    if orbit is None:
                        assert avg.is_zero() and kind == "signed"
                        continue
                    assert orbit == rep
                    size = len(orbit_sum(n, rep).terms)
                    assert avg == orbit_sum(n, rep) * Fraction(1, size)


def test_quotients_and_generation_expand_no_polynomial():
    products = []
    original = MultiPoly.__mul__

    def spy(self, other):
        products.append((self, other))
        return original(self, other)

    MultiPoly.__mul__ = spy
    try:
        with _spy("power_sum") as sums, _spy("orbit_sum") as orbits:
            assert quotient_graded_dims("sym", 3, ecom_ideal("u", 3), 6)
            assert quotient_graded_dims("signed", 2, bcom_ideal("sp", 2), 6)
            assert verify_power_sum_generation("sym", 3, 5).passed
            assert verify_power_sum_generation("signed", 2, 6).passed
    finally:
        MultiPoly.__mul__ = original
    assert products == [] and sums == [] and orbits == []


@pytest.mark.parametrize("n, degree", [(0, 4), (2, -1), (0, -1)])
def test_bad_sizes_are_value_errors(n, degree):
    calls = [
        lambda: quotient_graded_dims("sym", n, IdealSpec(((1, 0),)), degree),
        lambda: verify_power_sum_generation("sym", n, degree),
        lambda: verify_free_basis("sym", n, degree),
        lambda: quotient_graded_dims("signed", n, IdealSpec(((2, 0),)), degree),
        lambda: verify_power_sum_generation("signed", n, degree),
        lambda: verify_free_basis("signed", n, degree),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n >= 1 and degree >= 0"):
            call()
