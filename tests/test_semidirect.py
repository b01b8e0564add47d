"""Combined algebra/module structures and the class pairing."""

from __future__ import annotations

from fractions import Fraction

import pytest

from modbasis import (
    ArityMismatch,
    DimensionError,
    KModuleStructure,
    ModuleOverAlgebra,
    NAryAlgebra,
    ValidationError,
    build_semidirect,
    components,
    components_oracle,
    decompose_combined,
    pairing,
    verify_ideal,
)
from modbasis import module_slot as M, space_slot as S

from conftest import make_e4
from helpers import random_pair

_E4 = make_e4()
# Space index 7 and target 9 in a two-dimensional action.
_BAD_ACTION = KModuleStructure(2, 1, 2, 2, {(M(0), S(7)): (9, 1)})


def test_build_semidirect_merges_tables(e4):
    combined = build_semidirect(e4)
    assert combined.v_dim == 2
    assert combined.a_dim == 2
    structure = combined.structure
    assert structure.n == 2
    assert structure.k == 2
    assert structure.module_dim == 4
    assert structure.space_dim == 0
    assert structure.table == {
        (M(2), M(2)): (2, Fraction(1)),
        (M(3), M(3)): (3, Fraction(1)),
        (M(0), M(2)): (0, Fraction(1)),
        (M(1), M(3)): (1, Fraction(1)),
    }


def test_build_semidirect_labels(e4):
    combined = build_semidirect(e4)
    assert [combined.label(i) for i in range(4)] == ["v0", "v1", "e0", "e1"]


def test_build_semidirect_rejects_mismatches(e4):
    with pytest.raises(ArityMismatch):
        build_semidirect(
            ModuleOverAlgebra(NAryAlgebra(3, 2, {}), e4.action)
        )
    with pytest.raises(ArityMismatch):
        build_semidirect(
            ModuleOverAlgebra(NAryAlgebra(2, 1, {}), e4.action)
        )
    # A mismatch is reported before either table is judged.
    bad_tables = ModuleOverAlgebra(NAryAlgebra(3, 2, {(0.5, 0): (0, 1)}), _BAD_ACTION)
    with pytest.raises(ArityMismatch):
        pairing(bad_tables)


def test_empty_pair_combines_to_empty():
    pair = ModuleOverAlgebra(
        NAryAlgebra(2, 1, {}), KModuleStructure(2, 1, 1, 1, {})
    )
    combined = build_semidirect(pair)
    assert combined.structure.table == {}
    assert combined.structure.module_dim == 2


def test_decompose_combined_fixture(e4):
    combined = build_semidirect(e4)
    # Chain replay on the merged structure first, then freeze the classes.
    assert components_oracle(combined.structure, 8).classes() == ((0, 2), (1, 3))
    pieces = decompose_combined(combined)
    assert [(p.representative, p.members) for p in pieces] == [
        (0, (0, 2)),
        (1, (1, 3)),
    ]
    assert [p.v_part for p in pieces] == [(0,), (1,)]
    assert [p.a_part for p in pieces] == [(0,), (1,)]


def test_decompose_combined_zero_action():
    # Algebra e0*e0 = e0 alone: the module line and the algebra line stay apart.
    pair = ModuleOverAlgebra(
        NAryAlgebra(2, 1, {(0, 0): (0, 1)}),
        KModuleStructure(2, 1, 1, 1, {}),
    )
    pieces = decompose_combined(build_semidirect(pair))
    assert [(p.v_part, p.a_part) for p in pieces] == [((0,), ()), ((), (0,))]


def test_verify_ideal(e4):
    assert verify_ideal(e4.algebra, {0})
    assert verify_ideal(e4.algebra, {1})
    assert verify_ideal(e4.algebra, {0, 1})
    assert verify_ideal(e4.algebra, set())
    leaky = NAryAlgebra(2, 2, {(0, 1): (1, 1)})
    assert not verify_ideal(leaky, {0})
    assert verify_ideal(leaky, {1})
    # No index outside 0..dim-1 passes, nor True read as 1.
    for bad in (10**9, "x", True, -1, 0.5):
        with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..1$"):
            verify_ideal(e4.algebra, {bad})


def test_algebra_parts_are_ideals(e4):
    combined = build_semidirect(e4)
    for piece in decompose_combined(combined):
        assert verify_ideal(e4.algebra, piece.a_part)


def test_pairing_fixture(e4):
    report = pairing(e4)
    assert report.violations == ()
    assert report.f == {0: 0, 1: 1}
    assert report.omega_v == (0, 1)
    assert report.omega_a == (0, 1)
    assert report.omega_v_active == (0, 1)
    assert report.omega_a_active == (0, 1)


def test_pairing_zero_action_is_empty():
    pair = ModuleOverAlgebra(
        NAryAlgebra(2, 1, {(0, 0): (0, 1)}),
        KModuleStructure(2, 1, 1, 1, {}),
    )
    report = pairing(pair)
    assert report.f == {}
    assert report.violations == ()
    assert report.omega_v_active == ()
    assert report.omega_a_active == ()


def test_pairing_partial_action():
    # Only v0 is acted on; v1 sits idle, e1 acts on nothing.
    pair = ModuleOverAlgebra(
        NAryAlgebra(2, 2, {(0, 0): (0, 1), (1, 1): (1, 1)}),
        KModuleStructure(2, 1, 2, 2, {(M(0), S(0)): (0, 1)}),
    )
    report = pairing(pair)
    assert report.violations == ()
    assert report.f == {0: 0}
    assert report.omega_v_active == (0,)
    assert report.omega_a_active == (0,)


def test_pairing_random_pairs_are_clean():
    for index in range(20):
        pair = random_pair(index)
        report = pairing(pair)
        assert report.violations == ()
        assert sorted(report.f) == list(report.omega_v_active)
        assert sorted(set(report.f.values())) == list(report.omega_a_active)
        for piece in decompose_combined(build_semidirect(pair)):
            assert verify_ideal(pair.algebra, piece.a_part)


def test_action_classes_embed_in_combined_classes(e4):
    # Components of the action alone never straddle two combined classes.
    combined = build_semidirect(e4)
    merged = components(combined.structure)
    alone = components(e4.action)
    for i in range(e4.action.module_dim):
        for j in range(e4.action.module_dim):
            if alone.same_class(i, j):
                assert merged.same_class(i, j)


@pytest.mark.parametrize("pair, violations", [
    (ModuleOverAlgebra(NAryAlgebra(2, 2, {(0.5, 0): (0, 1)}), _E4.action),
     ("algebra (0.5, 0): index outside 0..1",)),
    (ModuleOverAlgebra(NAryAlgebra(2, 2, {(0, 0): (5, 1)}), _E4.action),
     ("algebra (0, 0): index outside 0..1",)),
    (ModuleOverAlgebra(NAryAlgebra(2, 2, {(0, 0): (0, 0)}), _E4.action),
     ("algebra (0, 0): stored coefficient is zero",)),
    (ModuleOverAlgebra(NAryAlgebra(2, 2, {(0, 0, 0): (0, 1)}), _E4.action),
     ("algebra (0, 0, 0): algebra entries use 2 space slots",)),
    (ModuleOverAlgebra(_E4.algebra, _BAD_ACTION),
     ("action (('m', 0), ('s', 7)): space index 7 outside 0..1",
      "action (('m', 0), ('s', 7)): target 9 outside 0..1")),
    (ModuleOverAlgebra(_E4.algebra, KModuleStructure(2, 1, 2, 2, {5: (0, 1)})),
     ("action 5: placement 5 is not a tuple of slots",)),
    (ModuleOverAlgebra(_E4.algebra, KModuleStructure(2, 1, 2, 2, {(("s",), M(0)): (0, 1)})),
     ("action (('s',), ('m', 0)): slot ('s',) is not a (tag, index) pair",)),
], ids=["algebra-float-index", "algebra-target", "algebra-zero", "algebra-arity",
        "action-index-and-target", "action-int-key", "action-short-slot"])
@pytest.mark.parametrize("build", [build_semidirect, pairing])
def test_invalid_tables_raise_validation_error(build, pair, violations):
    # Before the judge, the first two and the action raised a bare TypeError
    # or IndexError, and the other two paired silently; the last two raised
    # a bare TypeError or ValueError from validate.
    with pytest.raises(ValidationError) as caught:
        build(pair)
    assert caught.value.violations == violations

