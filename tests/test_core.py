"""Core data model: validation, permutation-form ingestion, lookup."""

from __future__ import annotations

import pickle
import random
import re
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

import modbasis
from modbasis import (
    FORWARD,
    CollisionError,
    DimensionError,
    KModuleStructure,
    NAryAlgebra,
    NotASubmodule,
    SigmaEntry,
    Step,
    SymmetrizeConflict,
    ValidationError,
    components,
    evaluate,
    from_sigma_entries,
    mu,
    placement_module_multiset,
    placement_space_multiset,
    support,
    validate,
    validate_algebra,
)
from modbasis import module_slot as M, space_slot as S

from conftest import make_e1, make_e2, make_e3, make_e4


def _codes(report):
    return sorted(violation.code for violation in report)


def test_validate_accepts_fixtures(e1, e2, e3):
    assert validate(e1) == []
    assert validate(e2) == []
    assert validate(e3) == []


def test_validate_flags_zero_coefficient(e1):
    table = dict(e1.table)
    table[(M(0), S(0))] = (1, 0)
    report = validate(KModuleStructure(2, 1, 3, 1, table))
    assert _codes(report) == ["zero-coefficient"]
    assert report[0].placement == (M(0), S(0))


def test_validate_flags_wrong_slot_count():
    bad = KModuleStructure(2, 1, 3, 1, {(S(0), S(0)): (0, 1)})
    assert "slot-count" in _codes(validate(bad))


def test_validate_flags_out_of_range_indices():
    bad = KModuleStructure(2, 1, 3, 1, {(M(7), S(0)): (0, 1)})
    assert "slot-range" in _codes(validate(bad))
    bad = KModuleStructure(2, 1, 3, 1, {(M(0), S(5)): (0, 1)})
    assert "slot-range" in _codes(validate(bad))
    bad = KModuleStructure(2, 1, 3, 1, {(M(0), S(0)): (9, 1)})
    assert "target-range" in _codes(validate(bad))


def test_validate_flags_wrong_length():
    bad = KModuleStructure(2, 1, 3, 1, {(M(0),): (0, 1)})
    assert "length" in _codes(validate(bad))


def test_validate_flags_space_dim_rule():
    bad = KModuleStructure(2, 1, 3, 0, {(M(0), S(0)): (0, 1)})
    codes = _codes(validate(bad))
    assert "space-dim" in codes
    # The same shape with an empty table is fine.
    assert validate(KModuleStructure(2, 1, 3, 0, {})) == []


def test_validate_flags_bad_shape_parameters():
    assert "arity" in _codes(validate(KModuleStructure(0, 0, 1, 1, {})))
    assert "k-range" in _codes(validate(KModuleStructure(2, 3, 1, 1, {})))
    assert "k-range" in _codes(validate(KModuleStructure(2, 0, 1, 1, {})))


@pytest.mark.parametrize("header, code, message", [
    ((2, 1, 3.5, 1), "dims", "module dimension must be an int, got 3.5"),
    ((2, 1, 3, "1"), "dims", "space dimension must be an int, got '1'"),
    ((2, True, 3, 1), "k-range", "k must be an int, got True"),
    ((2.0, 1, 3, 1), "arity", "arity must be an int, got 2.0"),
    (("2", 1, 3, 1), "arity", "arity must be an int, got '2'"),
], ids=repr)
def test_validate_flags_a_header_field_that_is_not_an_int(header, code, message):
    # A module dimension of 3.5 let target 3 pass, and then components
    # raised TypeError; n = "2" made validate itself raise it.
    structure = KModuleStructure(*header, {(M(0), S(0)): (3, 1)})
    assert [(v.code, v.message) for v in validate(structure)] == [(code, message)]


@pytest.mark.parametrize("bad", [2.7, True, "3"], ids=repr)
def test_validate_flags_indices_and_targets_that_are_not_ints(bad):
    # Each value lies in range once truncated by int(); the table keeps it
    # as given and validate reports it under the range codes.
    table = {(M(bad), S(0)): (0, 1), (M(0), S(bad)): (0, 1)}
    slots = KModuleStructure(2, 1, 4, 4, table)
    assert {type(index) for key in slots.table for _, index in key} == {int, type(bad)}
    assert sorted((v.code, v.message) for v in validate(slots)) == [
        ("slot-range", f"module index {bad!r} outside 0..3"),
        ("slot-range", f"space index {bad!r} outside 0..3"),
    ]
    target = KModuleStructure(2, 1, 4, 1, {(M(0), S(0)): (bad, 1)})
    assert type(target.table[(M(0), S(0))][0]) is type(bad)
    assert [(v.code, v.message) for v in validate(target)] == [
        ("target-range", f"target {bad!r} outside 0..3"),
    ]


@pytest.mark.parametrize(
    "bad", [2.7, True, "3", 10**40 - 1, -(10**40 - 1), 7, -1],
    ids=lambda bad: f"{len(str(bad))}-chars" if len(str(bad)) > 9 else repr(bad),
)
def test_validate_messages_keep_short_values_whole(bad):
    table = {(M(bad), S(0)): (bad, 1), (M(0), (bad, 0)): (0, 1)}
    assert sorted(v.message for v in validate(KModuleStructure(2, 1, 4, 1, table))) == [
        f"module index {bad!r} outside 0..3",
        f"target {bad!r} outside 0..3",
        f"unknown slot tag {bad!r}",
    ]


def test_validate_messages_echo_a_bounded_part_of_huge_values():
    huge = 10**4000
    table = {(M(huge), S(0)): (huge, 1), (M(0), ("t" * 10**5, 0)): (0, 1)}
    report = validate(KModuleStructure(2, 1, 4, 1, table))
    assert sorted(v.code for v in report) == ["slot-range", "slot-tag", "target-range"]
    assert all(len(v.message) < 100 for v in report)
    assert "module index 1000000000000000000...0000000000000000000 outside 0..3" in [
        v.message for v in report]


def test_validate_reports_unorderable_placements_in_table_order():
    table = {(M("1"), S(0)): (0, 1), (M(0), S(0)): (1.5, 1), (M(2.5), S(0)): (0, 1)}
    report = validate(KModuleStructure(2, 1, 3, 1, table))
    assert [v.message for v in report] == [
        "module index '1' outside 0..2",
        "target 1.5 outside 0..2",
        "module index 2.5 outside 0..2",
    ]


def test_validate_reports_every_breach():
    table = {
        (M(0), S(0)): (9, 1),
        (M(1), S(9)): (0, 0),
    }
    report = validate(KModuleStructure(2, 1, 3, 1, table))
    assert _codes(report) == ["slot-range", "target-range", "zero-coefficient"]


@pytest.mark.parametrize("key, target, coeff, code, message", [
    ((0.5, 0), 0, 1, "index-range", "index outside 0..1"),
    ((True, 0), 0, 1, "index-range", "index outside 0..1"),
    (("3", 0), 0, 1, "index-range", "index outside 0..1"),
    ((0, 1), 5, 1, "index-range", "index outside 0..1"),
    ((0, 1), 0, 0, "zero-coefficient", "stored coefficient is zero"),
    ((0, 0, 0), 0, 1, "length", "algebra entries use 2 space slots"),
], ids=["float", "bool", "str", "target", "zero", "arity"])
def test_validate_algebra_flags_one_product(key, target, coeff, code, message):
    table = {(0, 0): (0, 1), key: (target, coeff), (1, 1): (1, 1)}
    report = validate_algebra(NAryAlgebra(2, 2, table))
    assert [(v.code, v.message, v.placement) for v in report] == [(code, message, key)]


def test_validate_algebra_reports_each_key_once_by_the_first_rule_it_breaks():
    # Arity comes before the range, the range before the coefficient; keys
    # in sorted order.
    table = {(1, 9): (9, 0), (0, 0, 5): (5, 0), (0, 0): (0, 1), (True, 1): (0, 0)}
    report = validate_algebra(NAryAlgebra(2, 2, table))
    assert [(v.placement, v.message) for v in report] == [
        ((0, 0, 5), "algebra entries use 2 space slots"),
        ((True, 1), "index outside 0..1"),
        ((1, 9), "index outside 0..1"),
    ]
    assert validate_algebra(NAryAlgebra(2, 2, {None: (0, 1)}))[0].code == "length"


def test_validate_algebra_accepts_fixture_and_empty_algebras(e4):
    assert validate_algebra(e4.algebra) == []
    assert validate_algebra(NAryAlgebra(3, 0, {})) == []


def test_from_sigma_entries_identity():
    entry = SigmaEntry((1, 2), (0,), (0,), 1, 1)
    structure = from_sigma_entries(2, 1, (3, 1), [entry])
    assert structure.table == {(M(0), S(0)): (1, Fraction(1))}


def test_from_sigma_entries_transposition():
    entry = SigmaEntry((2, 1), (0,), (0,), 1, 1)
    structure = from_sigma_entries(2, 1, (3, 1), [entry])
    assert structure.table == {(S(0), M(0)): (1, Fraction(1))}


def test_from_sigma_entries_collision():
    entries = [
        SigmaEntry((1, 2), (0,), (0,), 1, 1),
        SigmaEntry((1, 2), (0,), (0,), 2, 1),
    ]
    with pytest.raises(CollisionError):
        from_sigma_entries(2, 1, (3, 1), entries)


def test_from_sigma_entries_agreeing_duplicate_is_fine():
    entries = [
        SigmaEntry((1, 2), (0,), (0,), 1, 1),
        SigmaEntry((1, 2), (0,), (0,), 1, 1),
    ]
    structure = from_sigma_entries(2, 1, (3, 1), entries)
    assert len(structure.table) == 1


def test_from_sigma_entries_rejects_bad_permutation():
    with pytest.raises(DimensionError):
        from_sigma_entries(2, 1, (3, 1), [SigmaEntry((1, 1), (0,), (0,), 1, 1)])
    with pytest.raises(DimensionError):
        from_sigma_entries(2, 1, (3, 1), [SigmaEntry((1, 2), (0, 0), (), 1, 1)])


def _sigma_entries_for(structure, rng):
    # Re-express each table entry through a random admissible permutation.
    entries = []
    for placement, target, coeff in support(structure):
        module_positions = [
            pos + 1 for pos, (tag, _) in enumerate(placement) if tag == "m"
        ]
        space_positions = [
            pos + 1 for pos, (tag, _) in enumerate(placement) if tag == "s"
        ]
        rng.shuffle(module_positions)
        rng.shuffle(space_positions)
        sigma = tuple(module_positions + space_positions)
        module_args = tuple(placement[p - 1][1] for p in module_positions)
        space_args = tuple(placement[p - 1][1] for p in space_positions)
        entries.append(SigmaEntry(sigma, module_args, space_args, target, coeff))
    return entries


@pytest.mark.parametrize("factory", [make_e1, make_e2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigma_reexpansion_resolves_to_same_table(factory, seed):
    structure = factory()
    rng = random.Random(seed)
    entries = _sigma_entries_for(structure, rng)
    rebuilt = from_sigma_entries(
        structure.n,
        structure.k,
        (structure.module_dim, structure.space_dim),
        entries,
    )
    assert rebuilt == structure


def test_evaluate_fixture_values(e1):
    assert evaluate(e1, (M(2), S(0))) == (2, Fraction(2))
    assert evaluate(e1, (M(0), S(0))) == (1, Fraction(1))


def test_evaluate_absent_placement_is_none(e1, e3):
    assert evaluate(e3, (M(0), S(0))) is None
    assert evaluate(e1, (S(0), M(0))) is None


def test_evaluate_rejects_malformed_placements(e1):
    with pytest.raises(DimensionError):
        evaluate(e1, (M(0),))
    with pytest.raises(DimensionError):
        evaluate(e1, (M(0), M(1)))
    with pytest.raises(DimensionError):
        evaluate(e1, (M(9), S(0)))
    with pytest.raises(DimensionError):
        evaluate(e1, (("x", 0), S(0)))
    with pytest.raises(DimensionError, match=r"^slot \('m',\) is not"):
        evaluate(e1, (("m",), S(0)))
    with pytest.raises(DimensionError, match="^placement 5 is not"):
        evaluate(e1, 5)


def test_evaluate_rejects_an_index_that_is_not_an_int(e1):
    with pytest.raises(DimensionError, match=r"^module index 0\.5 outside 0\.\.2$"):
        evaluate(e1, (("m", 0.5), S(0)))


def test_from_sigma_entries_keeps_arguments_as_given():
    entry = SigmaEntry((2, 1), (1.0,), (0,), 2.0, 1)
    structure = from_sigma_entries(2, 1, (3, 1), [entry])
    ((placement, (target, _)),) = structure.table.items()
    assert type(placement[1][1]) is float and type(target) is float
    assert [v.message for v in validate(structure)] == [
        "module index 1.0 outside 0..2",
        "target 2.0 outside 0..2",
    ]


def test_evaluate_is_read_only(e1):
    before = dict(e1.table)
    assert evaluate(e1, (M(0), S(0))) == evaluate(e1, (M(0), S(0)))
    assert e1.table == before


def test_support_is_sorted_and_complete(e1, e2, e3):
    rows = list(support(e1))
    assert [row[0] for row in rows] == sorted(e1.table)
    assert len(rows) == 3
    assert len(list(support(e2))) == 8
    assert list(support(e3)) == []


def test_occupant_multisets():
    placement = (M(2), S(1), M(0))
    assert placement_module_multiset(placement) == (0, 2)
    assert placement_space_multiset(placement) == (1,)


def test_structure_equality_ignores_coefficient_representation():
    a = KModuleStructure(2, 1, 1, 1, {(M(0), S(0)): (0, Fraction(2, 4))})
    b = KModuleStructure(2, 1, 1, 1, {(M(0), S(0)): (0, Fraction(1, 2))})
    assert a == b


def test_tables_are_read_only_and_structures_hash(e1, e2):
    assert mu(e1, 0, Step(FORWARD, (), (0,))) == {1}
    assert len(components(e1).classes()) == 2
    with pytest.raises(TypeError):
        e1.table[(M(0), S(0))] = (2, 1)
    with pytest.raises(TypeError):
        del e1.table[(M(0), S(0))]
    assert mu(e1, 0, Step(FORWARD, (), (0,))) == {1}
    assert hash(e1) == hash(make_e1()) and e1 == make_e1()
    assert len({e1, make_e1(), e2}) == 2
    pair = make_e4()
    with pytest.raises(TypeError):
        pair.algebra.table[(0, 1)] = (0, 1)
    assert hash(pair) == hash(make_e4()) and pair == make_e4()


def test_structures_pickle_by_value(e1):
    components(e1)
    pair = make_e4()
    for original in (e1, pair.algebra, pair.action, pair):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(e1)).table[(M(0), S(0))] = (2, 1)


def test_validate_reports_entries_in_sorted_order_whatever_the_table_order():
    table = {
        (M(2), S(9)): (7, 0),
        (M(1), M(0)): (0, 1),
        (M(0), S(0)): (1, 0),
    }
    report = validate(KModuleStructure(2, 1, 3, 1, table))
    assert [(v.code, v.placement) for v in report] == [
        ("zero-coefficient", (M(0), S(0))),
        ("slot-count", (M(1), M(0))),
        ("slot-range", (M(2), S(9))),
        ("target-range", (M(2), S(9))),
        ("zero-coefficient", (M(2), S(9))),
    ]


@pytest.mark.parametrize("key, violations", [
    (5, [("length", "placement 5 is not a tuple of slots")]),
    ("m" * 100, [("length", "placement 'mmmmmmmmmmmm...mmmmmmmmmmmmm' is not a tuple of slots")]),
    ((("s",), M(0)), [("slot-tag", "slot ('s',) is not a (tag, index) pair")]),
    ((("m", 0, 1), S(0)), [("slot-tag", "slot ('m', 0, 1) is not a (tag, index) pair"),
                           ("slot-count", "placement has 0 module slots, expected 1")]),
], ids=["int-key", "long-string-key", "short-slot", "long-slot"])
def test_validate_reports_keys_that_do_not_unpack_into_slots(key, violations):
    # These raised a bare TypeError or ValueError from validate.
    report = validate(KModuleStructure(2, 1, 2, 2, {key: (0, 1), (M(1), S(1)): (1, 1)}))
    assert [(v.code, v.message) for v in report] == violations
    assert {v.placement for v in report} == {key}


def test_freeze_table_stores_target_and_fraction_tuples():
    given = {
        (M(0), S(0)): [1, 2],
        (M(1), S(0)): [0, "3/6"],
        (M(2), S(0)): (2, "-4"),
        (M(0), S(1)): (1, Fraction(2, 3)),
        (M(1), S(1)): (0, 5),
    }
    table = KModuleStructure(2, 1, 3, 2, given).table
    assert {key: (type(value), type(value[1])) for key, value in table.items()} == {
        key: (tuple, Fraction) for key in given}
    assert [table[key] for key in given] == [
        (1, Fraction(2)), (0, Fraction(1, 2)), (2, Fraction(-4)),
        (1, Fraction(2, 3)), (0, Fraction(5))]


def test_freeze_table_keeps_target_and_fraction_tuples_as_given():
    kept = (1, Fraction(2, 3))
    Pair = namedtuple("Pair", "target coeff")
    given = {
        (M(0), S(0)): kept,
        (M(1), S(0)): [0, Fraction(1, 2)],
        (M(2), S(0)): (2, "-4"),
        (M(0), S(1)): (1, 5),
        (M(1), S(1)): Pair(0, Fraction(3)),
    }
    table = KModuleStructure(2, 1, 3, 2, given).table
    assert table[(M(0), S(0))] is kept
    assert {key: type(value) for key, value in table.items()} == dict.fromkeys(given, tuple)
    assert [table[key] for key in given] == [
        kept, (0, Fraction(1, 2)), (2, Fraction(-4)), (1, Fraction(5)), (0, Fraction(3))]
    assert NAryAlgebra(1, 2, {(0,): kept}).table[(0,)] is kept


@pytest.mark.parametrize("value, error, message", [
    ((0, 1, 2), ValueError, "too many values to unpack (expected 2)"),
    (5, TypeError, "cannot unpack non-iterable int object"),
    (None, TypeError, "cannot unpack non-iterable NoneType object"),
    ((0,), ValueError, "not enough values to unpack (expected 2, got 1)"),
], ids=repr)
def test_freeze_table_rejects_values_that_are_not_pairs(value, error, message):
    with pytest.raises(error) as info:
        KModuleStructure(2, 1, 3, 1, {(M(0), S(0)): value})
    assert str(info.value) == message


def test_the_raising_index_rule_lives_only_in_core():
    # Every query checks its indices with core._check_index.  A copy of the
    # rule that raises elsewhere can drift from its message or its class;
    # core keeps validate's reporting copies, so the pattern must match there.
    rule = re.compile(r"type\((\w+)\) is not int or not 0 <= \1 <")
    sources = sorted(Path(modbasis.__file__).parent.glob("*.py"))
    copies = [path.name for path in sources if rule.search(path.read_text())]
    assert copies == ["core.py"]


@pytest.mark.parametrize("error, items", [
    (NotASubmodule({9, 3, 5}), "indices"),
    (SymmetrizeConflict([(i, i + 1) for i in range(8)]), "edges"),
    (ValidationError([f"entry {i}: stored coefficient is zero" for i in range(4)]),
     "violations"),
], ids=["NotASubmodule", "SymmetrizeConflict", "ValidationError"])
def test_errors_that_carry_items_survive_pickling(error, items):
    # A process pool sends an exception back pickled: the copy must keep
    # every item and show the same message.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert getattr(copy, items) == getattr(error, items)
