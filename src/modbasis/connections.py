"""Connectivity of module indices through the product table.

A step reads the table in one of two directions.  A forward step moves
from an index occupying a slot to the target of a matching product; a
backward step moves from a target back to a possible occupant.  Chains
of steps induce an equivalence on the module index set.  ``components``
computes that equivalence quickly through union-find on symmetrized
single-step edges, while ``components_oracle`` replays chains literally
and exists purely as the slow cross-check for the fast path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import AbstractSet, Iterable, Optional

from .core import (
    MODULE_TAG,
    KModuleStructure,
    _check_header,
    _check_index,
    enumeration_budget,
    placement_module_multiset,
    placement_space_multiset,
    support,
)
from .errors import BudgetError, DimensionError, InvalidWitness, echo

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Step:
    """One traversal move: a direction plus the remaining slot occupants.

    ``module_args`` lists the other k-1 module occupants and
    ``space_args`` the n-k space occupants.  Argument order never
    matters, so both tuples are kept sorted as canonical multisets.  A
    step is wholly forward or wholly backward; there is deliberately no
    way to mix directions inside one step.
    """

    direction: str
    module_args: tuple
    space_args: tuple

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "module_args", tuple(sorted(self.module_args)))
        object.__setattr__(self, "space_args", tuple(sorted(self.space_args)))

    def flipped(self) -> "Step":
        other = BACKWARD if self.direction == FORWARD else FORWARD
        return Step(other, self.module_args, self.space_args)


@dataclass(frozen=True)
class Connection:
    """A replayable chain of steps starting at ``source``.

    An empty chain is the marker for the trivial connection of an index
    to itself; any other chain witnesses reachability of its final image.
    """

    source: int
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


class ComponentPartition:
    """Partition of {0..size-1}; every class is named by its minimum index."""

    def __init__(self, representatives: Iterable[int]):
        reps = list(representatives)
        grouped: dict[int, list[int]] = {}
        for index, rep in enumerate(reps):
            grouped.setdefault(rep, []).append(index)
        # Grouped in index order, each class starts at its minimum, its name,
        # and so the classes come sorted; a list, as GC rescans a growing tuple.
        self._rep = tuple(grouped[rep][0] for rep in reps)
        self._classes = tuple([tuple(members) for members in grouped.values()])

    @property
    def size(self) -> int:
        return len(self._rep)

    def representative(self, index: int) -> int:
        _check_index(index, len(self._rep), error=IndexError)
        return self._rep[index]

    def same_class(self, first: int, second: int) -> bool:
        return self.representative(first) == self.representative(second)

    def class_of(self, index: int) -> tuple[int, ...]:
        # The classes are sorted by their first member, the representative.
        rep = self.representative(index)
        return self._classes[bisect_left(self._classes, rep, key=itemgetter(0))]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        return self._classes

    def __eq__(self, other):
        if not isinstance(other, ComponentPartition):
            return NotImplemented
        return self._rep == other._rep

    def __hash__(self):
        return hash(self._rep)

    def __repr__(self):
        body = ", ".join("{" + ", ".join(map(str, cls)) + "}" for cls in self.classes())
        return f"ComponentPartition({body})"


def _check_cover(structure: KModuleStructure, partition: ComponentPartition):
    if partition.size != structure.module_dim:
        raise DimensionError(
            f"partition covers {partition.size} indices, "
            f"structure has {structure.module_dim}"
        )


class _Index:
    """Parts derived from one structure's table, each built on first use.
    Threads that race on a part build equal values, so no lock is taken.

    The edges are the one relation read from the table: each
    (occupant, target) pair maps to every placement that realizes it, in
    table order.  The adjacency, the partition and ``mu`` all derive from
    them and ignore that order; ``mu`` keeps an index's images in a
    direction once they are first asked for.  ``_edge_step`` takes an
    edge's smallest placement as its witness, and ``symmetrize``, which
    reads the edges from a fresh index on each of its passes, sorts them."""

    def __init__(self, table, module_dim: int):
        self.table = table
        self.module_dim = module_dim
        self._edges = self._adjacency = self._partition = self._images = None

    def edges(self) -> dict[tuple[int, int], list[tuple]]:
        """Each (occupant, target) pair and its placements, each once, in
        table order."""
        if self._edges is None:
            edges: dict[tuple[int, int], list[tuple]] = {}
            for placement, (target, _) in self.table.items():
                for tag, occupant in placement:
                    if tag == MODULE_TAG:
                        witnesses = edges.get((occupant, target))
                        if witnesses is None:
                            edges[occupant, target] = [placement]
                        # A repeated occupant finds its placement last.
                        elif witnesses[-1] is not placement:
                            witnesses.append(placement)
            self._edges = edges
        return self._edges

    def adjacency(self) -> tuple[dict, dict]:
        """Successors and predecessors of every index, in no set order;
        readers that need an order sort a node's neighbours themselves."""
        if self._adjacency is None:
            outs: dict[int, list[int]] = {}
            ins: dict[int, list[int]] = {}
            for a, b in self.edges():
                outs.setdefault(a, []).append(b)
                ins.setdefault(b, []).append(a)
            self._adjacency = (outs, ins)
        return self._adjacency

    def images(self, direction: str, index: int) -> dict[tuple, set[int]]:
        """The ``mu`` images of ``index`` in ``direction`` by (rest, spaces):
        its successors (forward) or predecessors (backward), by edge placement."""
        memo = self._images
        if memo is None:
            memo = self._images = {FORWARD: {}, BACKWARD: {}}
        found = memo[direction].get(index)
        if found is not None:
            return found
        found = {}
        edges = self.edges()
        outs, ins = self.adjacency()
        forward = direction == FORWARD
        for other in (outs if forward else ins).get(index, ()):
            edge, moved = ((index, other), index) if forward else ((other, index), other)
            for placement in edges[edge]:
                found.setdefault(_step_args(placement, moved), set()).add(other)
        if found:  # an index outside the table costs no memory
            memo[direction][index] = found
        return found

    def partition(self) -> ComponentPartition:
        """Union-find over the symmetrized edges, each root hung under the
        smaller: a parent is smaller than its child and a root is its class's
        minimum, so one pass in index order resolves each index to that minimum."""
        if self._partition is None:
            parent = list(range(self.module_dim))
            for a, b in self.edges():
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]  # path halving; parent[a] set first
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
            for index in range(self.module_dim):
                parent[index] = parent[parent[index]]
            self._partition = ComponentPartition(parent)
        return self._partition


def _step_args(placement, moved: int) -> tuple[tuple, tuple]:
    # The arguments of the step that ``placement`` realizes from ``moved``.
    occupants = placement_module_multiset(placement)
    at = occupants.index(moved)
    return occupants[:at] + occupants[at + 1 :], placement_space_multiset(placement)


def _index_of(structure: KModuleStructure) -> _Index:
    """The structure's index, made on first use after a header check; a
    query takes it before comparing anything with the header, so a header
    field that is not an ``int`` raises DimensionError, checked once per
    structure."""
    cache = structure.__dict__
    index = cache.get("_index")
    if index is None:
        _check_header(structure)
        index = cache.setdefault("_index", _Index(structure.table, structure.module_dim))
    return index


def _check_step(structure: KModuleStructure, step: Step):
    if len(step.module_args) != structure.k - 1:
        raise DimensionError(
            f"step carries {len(step.module_args)} module arguments, "
            f"expected {structure.k - 1}"
        )
    if len(step.space_args) != structure.n - structure.k:
        raise DimensionError(
            f"step carries {len(step.space_args)} space arguments, "
            f"expected {structure.n - structure.k}"
        )
    for arg in step.module_args:
        _check_index(arg, structure.module_dim, "module argument")
    for arg in step.space_args:
        _check_index(arg, structure.space_dim, "space argument")


def mu(structure: KModuleStructure, index: int, step: Step) -> set[int]:
    """Single-step image of ``index`` under ``step``.

    Forward: the targets of all table entries whose module occupants are
    ``index`` plus the step's module arguments (as a multiset) and whose
    space occupants equal the step's space arguments.  Backward: the
    occupants from which the corresponding forward move reaches
    ``index``.  The first call for an index and direction builds that
    index's images from the edges that leave or reach it; later calls
    look them up.  The result is a new set, the caller's to change.
    Raises DimensionError for an index that is not an int in range, or for
    a header field that is not an ``int``.
    """
    return phi(structure, (index,), step)


def phi(structure: KModuleStructure, indices: Iterable[int], step: Step) -> set[int]:
    """Union of ``mu`` over a set of indices; empty input gives empty
    output.  The step and every index are checked before any image is
    read."""
    structure_index = _index_of(structure)
    _check_step(structure, step)
    indices = list(indices)
    for index in indices:
        _check_index(index, structure.module_dim)
    return _image(structure_index, indices, step)


def _image(index: _Index, indices: Iterable[int], step: Step) -> set[int]:
    # phi without its checks, for callers that have made them.
    key = (step.module_args, step.space_args)
    result: set[int] = set()
    for node in indices:
        result.update(index.images(step.direction, node).get(key, ()))
    return result


def forward_edges(structure: KModuleStructure) -> AbstractSet[tuple[int, int]]:
    """Ordered pairs (occupant, target) realized by some table entry,
    as a read-only set view."""
    return _index_of(structure).edges().keys()


def components(structure: KModuleStructure) -> ComponentPartition:
    """Connected components of the symmetrized forward-edge graph.

    This is the fast path; ``components_oracle`` recomputes the same
    partition by literal chain replay and the two must always agree.
    """
    return _index_of(structure).partition()


def _all_steps(structure: KModuleStructure, charge: int, budget: int) -> list[Step]:
    # Raises BudgetError, before building them, once the next two steps
    # would pass ``budget`` at ``charge`` per step.
    module_choices = combinations_with_replacement(
        range(structure.module_dim), structure.k - 1
    )
    steps = []
    for module_args in module_choices:
        for space_args in combinations_with_replacement(
            range(structure.space_dim), structure.n - structure.k
        ):
            if (len(steps) + 2) * charge > budget:
                raise BudgetError(f"chain enumeration passed {budget} candidates")
            steps.append(Step(FORWARD, module_args, space_args))
            steps.append(Step(BACKWARD, module_args, space_args))
    return steps


def _multiset_minus(whole: tuple, part: tuple) -> Optional[tuple]:
    counts = Counter(whole)
    for item in part:
        if counts[item] == 0:
            return None
        counts[item] -= 1
    return tuple(item for item, count in counts.items() for _ in range(count))


def _mu_by_scan(entries, index: int, step: Step) -> set[int]:
    # Independent slow evaluation: a direct pass over the support, no index.
    found = set()
    if step.direction == FORWARD:
        needed = tuple(sorted(step.module_args + (index,)))
        for occupants, spaces, target in entries:
            if occupants == needed and spaces == step.space_args:
                found.add(target)
    else:
        for occupants, spaces, target in entries:
            if target != index or spaces != step.space_args:
                continue
            leftover = _multiset_minus(occupants, step.module_args)
            if leftover is not None and len(leftover) == 1:
                found.add(leftover[0])
    return found


def components_oracle(structure: KModuleStructure, max_depth: int) -> ComponentPartition:
    """Depth-bounded literal recomputation of the component partition.

    Every possible step (all argument multisets over both index sets, in
    both directions) is enumerated, and chains of single-step images are
    chased breadth-first from every index for at most ``max_depth``
    steps.  Images come from a direct scan of the support rather than
    the indexed lookup, and the partition is assembled by merging
    overlapping reach sets, so this path shares nothing with
    ``components``.  A depth of twice the module dimension always
    saturates.  Raises BudgetError once the number of scanned
    (entry, step) candidates passes the configured budget; building the
    step list also charges each step the arguments it holds.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {echo(max_depth)}")
    budget = enumeration_budget()
    entries = [
        (placement_module_multiset(p), placement_space_multiset(p), target)
        for p, target, _ in support(structure)
    ]
    # Start index 0 pays len(entries) + 1 per step at depth 1, and each step
    # holds n - 1 arguments, so the step list stops where their sum passes
    # the budget, which bounds its memory too; with no start index, no step.
    charge = len(entries) + 1
    steps = (_all_steps(structure, charge + structure.n - 1, budget)
             if structure.module_dim > 0 else [])
    cost = 0
    cells: list[set[int]] = []
    for start in range(structure.module_dim):
        reached = {start}
        frontier = [start]
        depth = 0
        while frontier and depth < max_depth:
            depth += 1
            next_frontier = []
            for node in frontier:
                for step in steps:
                    cost += charge
                    if cost > budget:
                        raise BudgetError(
                            f"chain enumeration passed {budget} candidates"
                        )
                    for found in _mu_by_scan(entries, node, step):
                        if found not in reached:
                            reached.add(found)
                            next_frontier.append(found)
            frontier = next_frontier
        cell = set(reached)
        overlapping = [other for other in cells if other & cell]
        for other in overlapping:
            cells.remove(other)
            cell |= other
        cells.append(cell)
    representatives = [0] * structure.module_dim
    for cell in cells:
        rep = min(cell)
        for member in cell:
            representatives[member] = rep
    return ComponentPartition(representatives)


def _edge_step(edges: dict, here: int, there: int) -> Step:
    """The step of the hop ``here`` -> ``there`` that a witness chain names:
    forward when that edge exists, else backward, realized by the edge's
    smallest placement."""
    if (here, there) in edges:
        placement, direction, moved = min(edges[here, there]), FORWARD, here
    else:
        placement, direction, moved = min(edges[there, here]), BACKWARD, there
    return Step(direction, *_step_args(placement, moved))


def find_connection(
    structure: KModuleStructure, source: int, target: int
) -> Optional[Connection]:
    """Shortest witness chain from ``source`` to ``target``, if any.

    Breadth-first search over the symmetrized edge graph with ascending
    neighbor order, so results are deterministic.  An equal source and
    target yield the empty chain.  Returns None when not connected.
    """
    index = _index_of(structure)
    _check_index(source, structure.module_dim)
    _check_index(target, structure.module_dim)
    if source == target:
        return Connection(source, ())
    outs, ins = index.adjacency()
    parent: dict[int, Optional[int]] = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            break
        for nxt in sorted(outs.get(node, []) + ins.get(node, [])):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    steps = [
        _edge_step(index.edges(), here, there) for here, there in zip(path, path[1:])
    ]
    return Connection(source, steps)


def verify_connection(
    structure: KModuleStructure, connection: Connection, claimed_target: int
) -> bool:
    """Replay the chain; true iff every prefix image is nonempty and the
    final image contains ``claimed_target``.  Raises DimensionError for a
    source or target that is not an index, or for a step of the wrong arity
    or with an argument that is not an index of its side, and for a header
    field that is not an ``int``."""
    index = _index_of(structure)
    _check_index(claimed_target, structure.module_dim)
    steps = connection.steps
    if not steps:
        _check_index(connection.source, structure.module_dim)
        return claimed_target == connection.source
    # The first image is mu of the source, which checks both (and is where
    # bench/spans.py times the index build); each later step is checked
    # once and replayed without phi's per-index checks.
    image = mu(structure, connection.source, steps[0])
    for step in steps[1:]:
        if not image:
            return False
        _check_step(structure, step)
        image = _image(index, image, step)
    return claimed_target in image


def reverse_connection(
    structure: KModuleStructure, connection: Connection, original_target: int
) -> Connection:
    """Walk a verified chain backwards with every direction flipped.

    The result starts at ``original_target`` and verifies against the
    original source.  Raises InvalidWitness when the input chain does
    not verify in the first place.
    """
    if not verify_connection(structure, connection, original_target):
        raise InvalidWitness(
            f"chain from {connection.source} does not reach {original_target}"
        )
    steps = tuple(step.flipped() for step in reversed(connection.steps))
    return Connection(original_target, steps)
