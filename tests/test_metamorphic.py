"""Metamorphic relations on seeded tables of about 2,000 module indices.

The acceptance corpus stops at 5 module indices.  These tables have
n=2, k=1 and one space index, so ``random_structure`` draws from only
2 * module_dim placements, and the relations below check ``components``
where no expected partition can be written down by hand, as does the
linear-time check in ``helpers``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from modbasis import (
    ComponentPartition,
    GenSpec,
    KModuleStructure,
    MODULE_TAG,
    components,
    forward_edges,
    random_structure,
    verify_orthogonality,
    verify_submodule,
)

from helpers import partition_problems

MODULE_DIM = 2000
SEEDS = (1, 2, 3)


def _large(seed: int, module_dim: int = MODULE_DIM) -> KModuleStructure:
    # Density 1/2 gives about module_dim entries: one class of about 80% of
    # the indices, a few hundred small ones and about 10% singletons.
    return random_structure(GenSpec(seed, 2, 1, module_dim, 1, Fraction(1, 2)))


def _relabeled(structure: KModuleStructure, new_index) -> KModuleStructure:
    table = {
        tuple((tag, new_index(i) if tag == MODULE_TAG else i) for tag, i in placement):
            (new_index(target), coeff)
        for placement, (target, coeff) in structure.table.items()
    }
    return KModuleStructure(
        structure.n, structure.k, structure.module_dim, structure.space_dim, table
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_every_class_is_a_submodule(seed):
    structure = _large(seed)
    partition = components(structure)
    classes = partition.classes()
    assert 1 < len(classes) < MODULE_DIM
    assert all(verify_submodule(structure, cls) for cls in classes)
    assert verify_orthogonality(structure, partition)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_partition_passes_the_linear_check(seed):
    structure = _large(seed)
    partition = components(structure)
    assert partition_problems(structure, partition) == []
    # The check has teeth: two classes merged, or one index split off the
    # largest class, fail it.
    first, second, *_ = (cls[0] for cls in partition.classes() if len(cls) > 1)
    reps = [partition.representative(i) for i in range(MODULE_DIM)]
    merged = ComponentPartition([first if rep == second else rep for rep in reps])
    assert partition_problems(structure, merged)
    loner = max(partition.classes(), key=len)[-1]
    split = ComponentPartition([i if i == loner else rep for i, rep in enumerate(reps)])
    assert partition_problems(structure, split)


@pytest.mark.parametrize("seed", SEEDS)
def test_relabeling_permutes_the_partition(seed):
    structure = _large(seed)
    permutation = list(range(MODULE_DIM))
    random.Random(seed).shuffle(permutation)
    relabeled = _relabeled(structure, permutation.__getitem__)
    classes = components(structure).classes()
    expected = {frozenset(permutation[i] for i in cls) for cls in classes}
    assert {frozenset(cls) for cls in components(relabeled).classes()} == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_disjoint_union_concatenates_the_partitions(seed):
    first, second = _large(seed), _large(seed + 100, MODULE_DIM // 2)
    shifted = _relabeled(second, lambda i: i + first.module_dim)
    union = KModuleStructure(
        2, 1, first.module_dim + second.module_dim, 1, {**first.table, **shifted.table}
    )
    shifted_classes = tuple(
        tuple(i + first.module_dim for i in cls)
        for cls in components(second).classes()
    )
    assert components(union).classes() == components(first).classes() + shifted_classes


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    structure = _large(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(MODULE_DIM))
    graph.add_edges_from(forward_edges(structure))
    expected = sorted(tuple(sorted(cls)) for cls in nx.connected_components(graph))
    assert list(components(structure).classes()) == expected
