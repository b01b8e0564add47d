"""Seeded generation, symmetric completion, and the modular family."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from modbasis import generators

from modbasis import (
    BudgetError,
    GenSpec,
    KModuleStructure,
    SymmetrizeConflict,
    components,
    components_oracle,
    dumps_document,
    is_minimal,
    is_mu_multiplicative,
    modular_family,
    placement_space_size,
    random_structure,
    symmetrize,
    trivial_structure,
    validate,
)
from modbasis import module_slot as M, space_slot as S

from conftest import make_e1, make_e1_one_way, make_e2
from helpers import corpus_spec, one_way_table, reference_symmetrize


def test_random_structure_is_deterministic():
    spec = GenSpec(seed=7, n=2, k=1, module_dim=3, space_dim=2,
                   density=Fraction(1, 2))
    assert random_structure(spec) == random_structure(spec)


def test_random_structure_density_extremes():
    empty = random_structure(
        GenSpec(seed=1, n=2, k=1, module_dim=3, space_dim=2, density=Fraction(0))
    )
    assert empty.table == {}
    full = random_structure(
        GenSpec(seed=1, n=2, k=1, module_dim=1, space_dim=1, density=Fraction(1))
    )
    assert set(full.table) == {(M(0), S(0)), (S(0), M(0))}
    assert all(target == 0 for target, _ in full.table.values())


@pytest.mark.parametrize("density", [
    Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2000), Fraction(1, 2**60),
], ids=str)
def test_float_cutoff_agrees_with_the_fraction_comparison(density):
    # random() returns multiples of 2**-53; the cutoff must split them
    # exactly where density does, at the boundary multiples too.
    cutoff = generators._float_cutoff(density)
    rng = random.Random(22)
    draws = [rng.random() for _ in range(20_000)]
    edge = int(density * 2**53)
    draws += [k / 2**53 for k in range(edge - 2, edge + 3) if 0 <= k < 2**53]
    assert [x < cutoff for x in draws] == [x < density for x in draws]


@pytest.mark.parametrize("spec, entries, digest", [
    (GenSpec(3, 2, 1, 6, 2, Fraction(1, 3)), 6,
     "3ccb7b68d92a9cadffd77e0bfed42d00529d11925d42774df40565cc5fad7215"),
    (GenSpec(4, 3, 2, 30, 2, Fraction(1, 50)), 102,
     "4caefdc1a197ff61279828bb94a7fe9e4cbdc85f8d90cf83b035b445b619a74b"),
], ids=["dense", "sparse"])
def test_random_structure_documents_are_pinned(spec, entries, digest):
    # Digests of the documents written when each draw was compared with
    # the density as a Fraction: the float cutoff draws the same tables.
    structure = random_structure(spec)
    assert len(structure.table) == entries
    assert hashlib.sha256(dumps_document(structure).encode()).hexdigest() == digest


def test_random_structure_output_is_valid():
    for index in range(30):
        structure = random_structure(corpus_spec(index))
        assert validate(structure) == []


def test_random_structure_checks_spec():
    with pytest.raises(ValueError):
        random_structure(
            GenSpec(seed=0, n=2, k=3, module_dim=1, space_dim=1,
                    density=Fraction(1, 2))
        )
    with pytest.raises(ValueError):
        random_structure(
            GenSpec(seed=0, n=2, k=1, module_dim=1, space_dim=1,
                    density=Fraction(3, 2))
        )


def test_random_structure_budget(monkeypatch):
    monkeypatch.setenv("MODBASIS_BUDGET", "10")
    with pytest.raises(BudgetError):
        random_structure(
            GenSpec(seed=0, n=2, k=1, module_dim=5, space_dim=5,
                    density=Fraction(1, 2))
        )


def test_random_structure_budget_needs_no_exact_size():
    # The space has 10**5 * 3**(10**5 - 1) placements, a number too long to
    # print; the check decides from the factors that it passes the budget.
    with pytest.raises(BudgetError, match=r"has more than \d+ candidates"):
        random_structure(
            GenSpec(seed=0, n=10**5, k=1, module_dim=1, space_dim=3, density=0)
        )


@pytest.mark.parametrize("n, k, dims, size", [
    (10**5, 10**5, (1, 0), 1),  # one placement, 10**5 module slots
    (60, 30, (0, 5), 0),  # comb(60, 30) slot choices, none fillable
    (40, 20, (3, 0), 0),
])
def test_random_structure_enumerates_only_what_exists(n, k, dims, size):
    spec = GenSpec(seed=0, n=n, k=k, module_dim=dims[0], space_dim=dims[1],
                   density=1)
    assert placement_space_size(n, k, *dims) == size
    structure = random_structure(spec)
    assert len(structure.table) == size
    assert validate(structure) == []


def test_symmetrize_keeps_symmetric_tables():
    e1 = make_e1()
    assert symmetrize(e1) == e1


def test_symmetrize_restores_missing_reverse():
    repaired = symmetrize(make_e1_one_way())
    ok, missing = is_mu_multiplicative(repaired)
    assert ok and missing == []
    # The repair rewrites [M0,S0] -> 1 into [M1,S0] -> 0 with coefficient 1.
    assert repaired.table[(M(1), S(0))] == (0, Fraction(1))
    assert set(make_e1_one_way().table).issubset(repaired.table)


def test_symmetrize_conflict():
    # Repairing (0, 1) needs [M1,S0] -> 0, but that slot already targets 2.
    structure = KModuleStructure(
        2,
        1,
        3,
        1,
        {
            (M(0), S(0)): (1, 1),
            (M(1), S(0)): (2, 1),
        },
    )
    with pytest.raises(SymmetrizeConflict) as info:
        symmetrize(structure)
    assert (0, 1) in info.value.edges


def test_symmetrize_conflict_names_a_few_edges_and_keeps_them_all():
    # A 300-cycle: repairing i -> i+1 needs [M(i+1),S0] -> i, a slot that
    # already targets i+2, so every edge is stuck.
    size = 300
    structure = KModuleStructure(
        2, 1, size, 1, {(M(i), S(0)): ((i + 1) % size, 1) for i in range(size)}
    )
    with pytest.raises(SymmetrizeConflict) as info:
        symmetrize(structure)
    edges = tuple(sorted((i, (i + 1) % size) for i in range(size)))
    assert info.value.edges == edges
    assert _symmetrize_outcome(reference_symmetrize, structure) == edges
    assert str(info.value) == (
        "cannot add reverse entries for 300 edge(s): "
        "0->1, 1->2, 2->3, 3->4, 4->5 and 295 more"
    )


def test_symmetrize_handles_repair_fallout():
    # k = 2: rewriting [M0,M1] -> 2 drags occupant 1 into a new one-way
    # edge, which later passes must repair as well.
    structure = KModuleStructure(2, 2, 3, 0, {(M(0), M(1)): (2, 1)})
    repaired = symmetrize(structure)
    ok, missing = is_mu_multiplicative(repaired)
    assert ok and missing == []
    assert set(structure.table).issubset(repaired.table)


def test_symmetrize_random_batch():
    produced = 0
    for index in range(60):
        structure = random_structure(corpus_spec(index, salt=0x51))
        try:
            repaired = symmetrize(structure)
        except SymmetrizeConflict:
            continue
        produced += 1
        ok, _ = is_mu_multiplicative(repaired)
        assert ok
        assert set(structure.table).issubset(repaired.table)
        assert validate(repaired) == []
    assert produced >= 20


def _symmetrize_outcome(function, structure):
    try:
        return function(structure).table
    except SymmetrizeConflict as exc:
        return exc.edges


def test_symmetrize_matches_rescanning_reference():
    specs = [corpus_spec(index, salt=0x52) for index in range(150)]
    specs += [
        GenSpec(seed, 3, 2, 12, 3, Fraction(density, 100))
        for seed in range(6)
        for density in (2, 5, 10)
    ]
    specs += [GenSpec(seed, 2, 1, 40, 3, Fraction(1, 20)) for seed in range(6)]
    # Repairs over two passes (191 -> 570 entries for seed 5).
    specs += [GenSpec(seed, 3, 2, 200, 3, Fraction(1, 2000)) for seed in range(5, 8)]
    structures = [random_structure(spec) for spec in specs]
    structures.append(one_way_table(3, 500, back_edges=True))  # 685 stuck edges
    conflicts = repaired = 0
    for number, structure in enumerate(structures):
        expected = _symmetrize_outcome(reference_symmetrize, structure)
        assert _symmetrize_outcome(symmetrize, structure) == expected, number
        if isinstance(expected, tuple):
            conflicts += 1
        elif len(expected) > len(structure.table):
            repaired += 1
    assert conflicts >= 10 and repaired >= 10


def test_modular_family_matches_fixture(e2):
    assert modular_family(3, 3, 2) == e2


def test_modular_family_shape():
    structure = modular_family(2, 1, 3)
    assert structure.module_dim == 3
    assert structure.space_dim == 3
    assert len(structure.table) == placement_space_size(2, 1, 3, 3)
    # Occupant sums decide targets: 1 in a module slot with space value 2
    # lands on basis vector 0.
    assert structure.table[(M(1), S(2))] == (0, Fraction(1))


def test_modular_family_is_connected_and_minimal():
    for n, k, m in [(2, 1, 2), (2, 1, 3), (3, 2, 2), (3, 3, 3)]:
        structure = modular_family(n, k, m)
        assert components_oracle(structure, 2 * m).classes() == (
            tuple(range(m)),
        )
        assert components(structure).classes() == (tuple(range(m)),)
        assert is_minimal(structure)
        ok, _ = is_mu_multiplicative(structure)
        assert ok


def test_modular_family_rejects_bad_shapes():
    with pytest.raises(ValueError):
        modular_family(1, 1, 2)
    with pytest.raises(ValueError):
        modular_family(2, 1, 0)
    with pytest.raises(ValueError):
        modular_family(2, 3, 2)


def test_trivial_structure():
    structure = trivial_structure(3, 2, (4, 2))
    assert structure.table == {}
    assert validate(structure) == []
    assert components(structure).classes() == ((0,), (1,), (2,), (3,))
    assert not is_minimal(structure)
    assert is_minimal(trivial_structure(2, 1, (1, 1)))
