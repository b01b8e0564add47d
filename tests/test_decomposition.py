"""Component submodules: soundness, orthogonality, restriction."""

from __future__ import annotations

from fractions import Fraction

import pytest

from modbasis import (
    ComponentPartition,
    DimensionError,
    KModuleStructure,
    NotASubmodule,
    components,
    components_oracle,
    decompose,
    restrict,
    verify_orthogonality,
    verify_submodule,
)
from modbasis import module_slot as M, space_slot as S


def test_decompose_fixture_classes(e1):
    # Derive the classes from the chain oracle before trusting them.
    assert components_oracle(e1, 6).classes() == ((0, 1), (2,))
    pieces = decompose(e1)
    assert [piece.inherited_basis for piece in pieces] == [(0, 1), (2,)]
    assert [piece.representative for piece in pieces] == [0, 2]
    assert pieces[0].members == frozenset({0, 1})


def test_decompose_single_class(e2):
    assert components_oracle(e2, 4).classes() == ((0, 1),)
    pieces = decompose(e2)
    assert len(pieces) == 1
    assert pieces[0].inherited_basis == (0, 1)


def test_decompose_empty_table_gives_singletons(e3):
    pieces = decompose(e3)
    assert [piece.inherited_basis for piece in pieces] == [(0,), (1,), (2,)]


def test_every_class_is_a_submodule_and_partition_orthogonal(e1, e2, e3):
    for structure in (e1, e2, e3):
        partition = components(structure)
        for piece in decompose(structure):
            assert verify_submodule(structure, piece.members)
        assert verify_orthogonality(structure, partition)


def test_verify_submodule_counterexamples(e1):
    assert not verify_submodule(e1, {0})
    assert verify_submodule(e1, {0, 1})
    assert verify_submodule(e1, {2})
    assert verify_submodule(e1, {0, 1, 2})
    assert verify_submodule(e1, set())


def test_verify_orthogonality_rejects_mixed_entries():
    # One entry with occupants 0 and 1 straddles the split {{0}, {1}}.
    structure = KModuleStructure(2, 2, 2, 0, {(M(0), M(1)): (0, 1)})
    split = ComponentPartition([0, 1])
    assert not verify_orthogonality(structure, split)
    merged = ComponentPartition([0, 0])
    assert verify_orthogonality(structure, merged)


def test_verify_orthogonality_needs_full_cover(e1):
    with pytest.raises(DimensionError, match="^partition covers 2 indices, structure has 3$"):
        verify_orthogonality(e1, ComponentPartition([0, 0]))


def test_restrict_keeps_internal_entries(e1):
    piece = restrict(e1, {0, 1})
    assert piece.module_dim == 2
    assert piece.table == {
        (M(0), S(0)): (1, Fraction(1)),
        (M(1), S(0)): (0, Fraction(1)),
    }


def test_restrict_renumbers_in_order(e1):
    piece = restrict(e1, {2})
    assert piece.module_dim == 1
    assert piece.space_dim == 1
    assert piece.table == {(M(0), S(0)): (0, Fraction(2))}


def test_restrict_to_everything_is_identity(e1):
    assert restrict(e1, {0, 1, 2}) == e1


def test_restrict_rejects_open_sets(e1):
    with pytest.raises(NotASubmodule, match=r"^\[0\] is not closed under the table$"):
        restrict(e1, {0})


def test_restrict_echoes_a_bounded_part_of_a_large_open_set():
    # A path 0 -> 1 -> ... -> 999: every set short of its end is open.
    size = 1000
    path = KModuleStructure(
        2, 1, size, 1, {(M(i), S(0)): (i + 1, 1) for i in range(size - 1)}
    )
    with pytest.raises(NotASubmodule) as info:
        restrict(path, {4, 2, 9, 7, 5, 3})
    assert str(info.value) == "[2, 3, 4, 5, 7, 9] is not closed under the table"
    with pytest.raises(NotASubmodule) as info:
        restrict(path, range(10, size - 10))
    message = str(info.value)
    assert message == "[10, 11, 12, 13, 14, 15, ...] is not closed under the table"
    assert info.value.indices == frozenset(range(10, size - 10))
    assert len(message.encode()) < 300  # test_hostile's bound on one line


@pytest.mark.parametrize("bad", [0.5, True, 1.0, 10**9, -1, "a", None], ids=repr)
def test_submodule_checks_reject_an_index_that_is_not_an_int(e1, bad):
    # restrict built a 1-index structure for an index e1 does not have.
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        verify_submodule(e1, {bad})
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        restrict(e1, {bad})
    with pytest.raises(DimensionError):
        restrict(e1, [2, bad])


def test_restricted_class_stays_whole(e1, e2):
    # Re-decomposing a restricted class must give back a single class.
    for structure in (e1, e2):
        for piece in decompose(structure):
            shrunk = restrict(structure, piece.members)
            again = decompose(shrunk)
            assert len(again) == 1
            assert again[0].inherited_basis == tuple(range(shrunk.module_dim))
