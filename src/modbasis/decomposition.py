"""Direct-sum decomposition of a structure into its connected pieces.

Every class of the component partition spans a submodule, distinct
classes never meet inside a single product, and restricting the table to
one class gives a standalone structure on that class's inherited basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .connections import ComponentPartition, _check_cover, _index_of, components
from .core import (
    MODULE_TAG,
    KModuleStructure,
    _check_index,
    placement_module_multiset,
)
from .errors import NotASubmodule


@dataclass(frozen=True)
class SubmoduleComponent:
    """One class of the decomposition with its inherited basis.

    ``inherited_basis`` lists the members in ascending order; the
    representative is the smallest member.
    """

    representative: int
    members: frozenset
    inherited_basis: tuple


def decompose(structure: KModuleStructure) -> list[SubmoduleComponent]:
    """Split the module index set into component submodules.

    Classes are ordered by representative; every class passes
    ``verify_submodule`` and the whole partition passes
    ``verify_orthogonality``.
    """
    partition = components(structure)
    return [
        SubmoduleComponent(cls[0], frozenset(cls), cls)
        for cls in partition.classes()
    ]


def verify_submodule(structure: KModuleStructure, indices: Iterable[int]) -> bool:
    """True iff every entry touching the set lands inside the set.
    Raises DimensionError for an index that is not an int in range, or for
    a header field that is not an ``int``."""
    structure_index = _index_of(structure)
    inside = set(indices)
    for index in inside:
        _check_index(index, structure.module_dim)
    successors = structure_index.adjacency()[0]
    return all(b in inside for a in inside for b in successors.get(a, ()))


def verify_orthogonality(
    structure: KModuleStructure, partition: ComponentPartition
) -> bool:
    """True iff no single entry mixes module occupants from two classes."""
    _check_cover(structure, partition)
    for placement in structure.table:
        occupants = placement_module_multiset(placement)
        classes = {partition.representative(i) for i in occupants}
        if len(classes) > 1:
            return False
    return True


def restrict(structure: KModuleStructure, indices: Iterable[int]) -> KModuleStructure:
    """Standalone structure on a closed index set, reindexed from zero.

    The set must pass ``verify_submodule``, which checks every index;
    members keep their relative order under the reindexing, and space
    indices are untouched.
    """
    inside = set(indices)
    if not verify_submodule(structure, inside):  # checked before it is sorted
        raise NotASubmodule(inside)
    renumber = {old: new for new, old in enumerate(sorted(inside))}
    table = {}
    for placement, (target, coeff) in structure.table.items():
        occupants = placement_module_multiset(placement)
        if not inside.issuperset(occupants):
            continue
        new_placement = tuple(
            (MODULE_TAG, renumber[index]) if tag == MODULE_TAG else (tag, index)
            for tag, index in placement
        )
        table[new_placement] = (renumber[target], coeff)
    return KModuleStructure(
        structure.n, structure.k, len(inside), structure.space_dim, table
    )
