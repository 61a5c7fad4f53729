"""The value types are immutable tuple records: exact reprs, keyword and
default construction, validation, copies and pickles, read-only fields."""

import copy
import pickle

import pytest

from comlie.multisym import BasisReport, IdealSpec
from comlie.poincare import GeneratorCatalog, GroupSpec
from comlie.qseries import QPoly, RationalSeries, TruncatedSeries
from comlie.repa import FakeDegree, fake_degree
from comlie.reports import CheckReport
from comlie.toriposet import ChainClass, ToriComponent, chain_classes, components
from comlie.weylcomb import CycleData, Permutation, SignedPermutation

#: (record, its repr, one of its fields) for every record class.
RECORDS = [
    (CycleData((1, 3, 2), [2]),
     "CycleData(positive_cycles=(3, 2, 1), negative_cycles=(2,))",
     "positive_cycles"),
    (SignedPermutation((2, -1, 3)), "SignedPermutation(word=(2, -1, 3))", "word"),
    (Permutation([3, 1, 2]), "Permutation(word=(3, 1, 2))", "word"),
    (TruncatedSeries((1, 0, 2)), "TruncatedSeries(trunc=2, coeffs=[1, 0, 2])",
     "coeffs"),
    (RationalSeries(QPoly({0: 1, 2: 1}), ((2, 1), (4, 1), (2, 1))),
     "RationalSeries((1 + t^2) / ((1 - t^2)^2 (1 - t^4)))", "numerator"),
    (GroupSpec("su", 3), "GroupSpec(family='SU', n=3)", "n"),
    (GeneratorCatalog("U", ((0, 1), (1, 1))),
     "GeneratorCatalog(family='U', pairs=((0, 1), (1, 1)))", "pairs"),
    (fake_degree((2, 1)), "FakeDegree(shape=(2, 1), poly=QPoly(t + t^2))",
     "poly"),
    (CheckReport("x", True),
     "CheckReport(name='x', passed=True, detail='', first_mismatch=None)",
     "passed"),
    (components(3)[1],
     "ToriComponent(shape=(2, 1), flag_poincare=QPoly(1 + t + t^2), "
     "real_dimension=4, stabilizer_order=1)", "real_dimension"),
    (chain_classes(3, (1,))[0],
     "ChainClass(representative=(((1,), (2, 3)),), block_counts=(2,))",
     "block_counts"),
    (IdealSpec([[1, 0], (0, 1)]), "IdealSpec(generators=((1, 0), (0, 1)))",
     "generators"),
    (BasisReport("sym", 2, True, 2, (0, 1)),
     "BasisReport(kind='sym', n=2, passed=True, basis_size=2, degrees=(0, 1), "
     "detail='')", "degrees"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_repr_is_exact(record, text, field):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_fields_are_read_only(record, text, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == value


@pytest.mark.parametrize("record, text, field", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(record, text, field):
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


def test_construction_by_keyword_and_with_defaults():
    assert CycleData(positive_cycles=(2,)) == CycleData((2,), ())
    assert SignedPermutation(word=(1,)) == SignedPermutation((1,))
    assert Permutation(word=(2, 1)).word == (2, 1)
    assert TruncatedSeries(coeffs=[True, 2]).coeffs == (1, 2)
    assert RationalSeries(QPoly.one()).denominator_factors == ()
    assert RationalSeries(numerator=QPoly({1: 2}),
                          denominator_factors={3: 2}).denominator_factors == ((3, 2),)
    assert GroupSpec(family="sp", n=2) == GroupSpec("Sp", 2)
    assert GeneratorCatalog(family="U", pairs=()).pairs == ()
    assert FakeDegree(shape=(1,), poly=QPoly.one()).poly == QPoly.one()
    assert CheckReport(name="y", passed=False, detail="d", first_mismatch=4) == \
        CheckReport("y", False, "d", 4)
    assert ToriComponent(shape=(1,), flag_poincare=QPoly.one(), real_dimension=0,
                         stabilizer_order=1).stabilizer_order == 1
    assert ChainClass(representative=(), block_counts=()).block_counts == ()
    assert IdealSpec(generators=((2, 0),)).generators == ((2, 0),)
    assert BasisReport(kind="signed", n=1, passed=False, basis_size=0,
                       degrees=()).detail == ""


@pytest.mark.parametrize("build, message", [
    (lambda: GroupSpec("u", True), "rank must be an int, got True"),
    (lambda: GroupSpec("u", 2.0), "rank must be an int, got 2.0"),
    (lambda: GroupSpec("u", 0), "rank must be >= 1, got 0"),
    (lambda: GroupSpec("so", 2),
     "unknown family 'so', expected one of ('U', 'SU', 'Sp')"),
    (lambda: TruncatedSeries(()),
     "a truncated series stores at least the constant term"),
    (lambda: CycleData((0, 1)), "cycle lengths must be positive"),
    (lambda: CycleData((1,), (0,)), "cycle lengths must be positive"),
    (lambda: SignedPermutation((1, 3)), "not a signed permutation word: (1, 3)"),
    (lambda: SignedPermutation((1, -1)),
     "not a signed permutation word: (1, -1)"),
    (lambda: Permutation((1, -2)), "not a permutation of 1..2: (1, -2)"),
    (lambda: IdealSpec(((0, 0),)), "invalid power-sum index (0, 0)"),
    (lambda: IdealSpec(((-1, 2),)), "invalid power-sum index (-1, 2)"),
    (lambda: RationalSeries(QPoly.one(), ((0, 1),)),
     "factor exponent must be >= 1, got 0"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_products_and_inverses_keep_the_left_operand_class():
    p, s = Permutation((2, 1, 3)), SignedPermutation((1, -3, 2))
    assert repr(p * Permutation((1, 3, 2))) == "Permutation(word=(2, 3, 1))"
    assert repr(s * p) == "SignedPermutation(word=(-3, 1, 2))"
    assert repr(p.inverse()) == "Permutation(word=(2, 1, 3))"
    assert repr(s.inverse()) == "SignedPermutation(word=(1, 3, -2))"
    assert repr(Permutation.identity(3)) == "Permutation(word=(1, 2, 3))"
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        p * s


def test_records_are_tuples_of_their_fields():
    assert GroupSpec("u", 3) == ("U", 3)
    assert hash(GroupSpec("u", 3)) == hash(("U", 3))
    # one element of B_n, whichever class holds it
    assert Permutation((2, 1)) == SignedPermutation((2, 1))
    word = SignedPermutation((2, -1, 3))
    assert (len(word), word.n) == (1, 3)
    assert bool(CheckReport("x", False)) is False
    assert bool(BasisReport("sym", 2, False, 2, (0, 1))) is False
