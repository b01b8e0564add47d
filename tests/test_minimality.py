"""Minimality, edge symmetry, and their agreement with connectedness."""

from __future__ import annotations

import pytest

from modbasis import (
    DimensionError,
    KModuleStructure,
    SymmetrizeConflict,
    TheoremViolation,
    check_minimality_equivalence,
    components,
    directed_closure,
    is_minimal,
    is_mu_multiplicative,
    random_structure,
    symmetrize,
)
from modbasis import module_slot as M, space_slot as S

from helpers import corpus_spec, one_way_table


def _every_closure_is_everything(structure):
    everything = set(range(structure.module_dim))
    return all(directed_closure(structure, i) == everything for i in everything)


def test_fixtures_are_mu_multiplicative(e1, e2, e3):
    for structure in (e1, e2, e3):
        ok, missing = is_mu_multiplicative(structure)
        assert ok
        assert missing == []


def test_one_way_edge_is_reported(e1_one_way):
    ok, missing = is_mu_multiplicative(e1_one_way)
    assert not ok
    assert missing == [(1, 0)]


def test_directed_closure_values(e1, e1_one_way):
    assert directed_closure(e1, 0) == {0, 1}
    assert directed_closure(e1, 2) == {2}
    # Without the returning entry, 1 reaches nothing new.
    assert directed_closure(e1_one_way, 0) == {0, 1}
    assert directed_closure(e1_one_way, 1) == {1}


@pytest.mark.parametrize("bad", [0.5, True, 1.0, 10**9, -1], ids=repr)
def test_directed_closure_rejects_an_index_that_is_not_an_int(e1, bad):
    # It answered {bad} for 10**9 and -1, and {0, True} for True.
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        directed_closure(e1, bad)


def test_directed_closure_is_least_closed_superset(e1):
    from modbasis import verify_submodule

    for index in range(e1.module_dim):
        closure = directed_closure(e1, index)
        assert verify_submodule(e1, closure)
        for member in sorted(closure - {index}):
            assert not verify_submodule(e1, closure - {member})


def test_is_minimal_fixture_values(e1, e2):
    assert not is_minimal(e1)
    assert is_minimal(e2)


def test_single_index_empty_table_is_minimal():
    assert is_minimal(KModuleStructure(2, 1, 1, 1, {}))
    assert not is_minimal(KModuleStructure(2, 1, 2, 1, {}))


def test_equivalence_check_agreement(e1, e2, e3):
    report = check_minimality_equivalence(e2)
    assert report.hypothesis_met
    assert report.agreement
    assert report.minimal
    assert report.component_count == 1

    report = check_minimality_equivalence(e1)
    assert report.hypothesis_met
    assert report.agreement
    assert not report.minimal
    assert report.component_count == 2

    report = check_minimality_equivalence(e3)
    assert report.hypothesis_met
    assert not report.minimal
    assert report.component_count == 3


def test_equivalence_check_hypothesis_not_met(e1_one_way):
    report = check_minimality_equivalence(e1_one_way)
    assert not report.hypothesis_met
    assert report.agreement is None
    assert report.counterexamples == ((1, 0),)
    # Raw values still reported.
    assert report.minimal is False
    assert report.component_count == 2


def test_closures_refine_components(e1, e2, e1_one_way):
    # Forward reachability never escapes a connected component.
    for structure in (e1, e2, e1_one_way):
        partition = components(structure)
        for index in range(structure.module_dim):
            for reached in directed_closure(structure, index):
                assert partition.same_class(index, reached)


def test_minimal_iff_single_component_when_symmetric(e1, e2, e3):
    for structure in (e1, e2, e3):
        ok, _ = is_mu_multiplicative(structure)
        assert ok
        single = len(components(structure).classes()) == 1
        assert is_minimal(structure) == single


def test_is_minimal_equals_every_closure_on_corpus():
    seen = set()
    for index in range(200):
        structure = random_structure(corpus_spec(index))
        variants = [structure]
        try:
            variants.append(symmetrize(structure))
        except SymmetrizeConflict:
            pass
        for variant in variants:
            answer = is_minimal(variant)
            assert answer == _every_closure_is_everything(variant), index
            seen.add(answer)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_is_minimal_needs_the_way_back_to_zero(seed):
    one_way = one_way_table(seed)
    assert directed_closure(one_way, 0) == set(range(one_way.module_dim))
    assert not is_minimal(one_way)
    assert not _every_closure_is_everything(one_way)
    both_ways = one_way_table(seed, back_edges=True)
    assert is_minimal(both_ways)
    assert _every_closure_is_everything(both_ways)
