"""Minimality of a structure and its agreement with connectedness.

A subset of module indices spans a submodule on part of the basis
exactly when it is closed under forward edges, so minimality (no proper
nonzero such submodule) says that every index forward-reaches the whole
index set.  When the edge relation is symmetric, forward reachability
and two-way connectivity coincide, and minimality becomes the statement
that the component partition has a single class.
``check_minimality_equivalence`` asserts that agreement and treats any
failure as an internal bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .connections import _index_of, components, forward_edges
from .core import KModuleStructure, _check_index
from .errors import TheoremViolation


@dataclass(frozen=True)
class MinimalityReport:
    """Raw results of the minimality/connectedness cross-check."""

    hypothesis_met: bool
    counterexamples: tuple
    minimal: bool
    component_count: int
    agreement: Optional[bool]


def is_mu_multiplicative(
    structure: KModuleStructure,
) -> tuple[bool, list[tuple[int, int]]]:
    """Check that every edge has a reverse edge.

    Whenever some entry has i among its module occupants with target r,
    some entry must have r among its occupants with target i.  Returns
    the verdict plus the sorted list of missing reverse pairs.
    """
    edges = forward_edges(structure)
    missing = sorted((b, a) for a, b in edges if (b, a) not in edges)
    return not missing, missing


def _reach(adjacency: dict, start: int) -> set[int]:
    reached = {start}
    frontier = [start]
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def directed_closure(structure: KModuleStructure, index: int) -> set[int]:
    """Smallest forward-closed set containing ``index``.

    Equivalently the least set through ``index`` that passes
    ``verify_submodule``.  Raises DimensionError for a non-index or a
    header field that is not an ``int``.
    """
    structure_index = _index_of(structure)
    _check_index(index, structure.module_dim)
    return _reach(structure_index.adjacency()[0], index)


def is_minimal(structure: KModuleStructure) -> bool:
    """True iff every index forward-reaches the entire index set.

    That is strong connectivity, tested as forward and backward
    reachability from index 0 (Tarjan 1972).  With more than one index,
    an index without an out-edge or an in-edge decides the answer before
    any search; a valid table's edges stay inside the index set, so the
    two searches compare sizes only.
    """
    dim = structure.module_dim
    if dim <= 1:
        return True
    outs, ins = _index_of(structure).adjacency()
    if len(outs) < dim or len(ins) < dim:
        return False
    return len(_reach(outs, 0)) == dim and len(_reach(ins, 0)) == dim


def check_minimality_equivalence(structure: KModuleStructure) -> MinimalityReport:
    """Cross-check minimality against single-component connectivity.

    When the edge relation is symmetric the two answers must coincide;
    disagreement raises TheoremViolation because it can only come from a
    bug, never from the data.  When the relation is not symmetric the
    report carries both raw answers and no verdict.
    """
    symmetric, missing = is_mu_multiplicative(structure)
    minimal = is_minimal(structure)
    count = len(components(structure).classes())
    if not symmetric:
        return MinimalityReport(False, tuple(missing), minimal, count, None)
    # count <= 1 rather than == 1: an empty index set is trivially connected.
    connected = count <= 1
    if minimal != connected:
        raise TheoremViolation(
            f"minimal={minimal} but component count={count} under a "
            "symmetric edge relation"
        )
    return MinimalityReport(True, (), minimal, count, True)
