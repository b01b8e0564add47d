"""Shared generation helpers for the fuzzing and acceptance suites."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product

from modbasis import (
    BACKWARD,
    COEFFICIENT_POOL,
    FORWARD,
    Connection,
    GenSpec,
    KModuleStructure,
    ModuleOverAlgebra,
    NAryAlgebra,
    Step,
    SymmetrizeConflict,
    module_slot,
    mu,
    phi,
    placement_module_multiset,
    placement_space_multiset,
    random_structure,
    space_slot,
    support,
)
from modbasis.connections import _mu_by_scan


def corpus_spec(index: int, salt: int = 0xA5EED) -> GenSpec:
    """Deterministic parameter draw for the random-structure corpus."""
    rng = random.Random(salt + index)
    n = rng.randint(1, 3)
    k = rng.randint(1, n)
    module_dim = rng.randint(1, 5)
    space_dim = rng.randint(1, 3) if k < n else rng.randint(0, 3)
    density = Fraction(rng.randint(1, 3), 10)
    return GenSpec(
        seed=index, n=n, k=k, module_dim=module_dim,
        space_dim=space_dim, density=density,
    )


def random_algebra(seed: int, n: int, dim: int, density: Fraction) -> NAryAlgebra:
    """Seeded sparse n-ary algebra over ``dim`` basis vectors."""
    rng = random.Random(seed)
    table = {}
    for key in product(range(dim), repeat=n):
        if rng.random() < density:
            table[key] = (rng.randrange(dim), rng.choice(COEFFICIENT_POOL))
    return NAryAlgebra(n, dim, table)


def random_pair(index: int, salt: int = 0xBEEF) -> ModuleOverAlgebra:
    """Deterministic algebra/action pair with arity 3 and two module slots."""
    rng = random.Random(salt + index)
    module_dim = rng.randint(1, 4)
    algebra_dim = rng.randint(1, 3)
    density = Fraction(rng.randint(1, 3), 10)
    algebra = random_algebra(rng.getrandbits(32), 3, algebra_dim, density)
    action = random_structure(
        GenSpec(
            seed=rng.getrandbits(32),
            n=3,
            k=2,
            module_dim=module_dim,
            space_dim=algebra_dim,
            density=density,
        )
    )
    return ModuleOverAlgebra(algebra, action)


def support_steps(structure: KModuleStructure, direction: str) -> list[Step]:
    """Every step the support can actually match, in one direction."""
    seen = set()
    for placement, _, _ in support(structure):
        occupants = placement_module_multiset(placement)
        spaces = placement_space_multiset(placement)
        for position in range(len(occupants)):
            rest = occupants[:position] + occupants[position + 1 :]
            seen.add((rest, spaces))
    return [Step(direction, rest, spaces) for rest, spaces in sorted(seen)]


def assert_mu_matches_scan(structure: KModuleStructure, probes) -> None:
    """``mu`` and ``phi`` agree with the oracle's direct scan of the support.

    ``probes`` pairs each step with the indices to ask about.  A set that
    ``mu`` returns belongs to the caller: changing it changes no later
    answer.
    """
    entries = [
        (placement_module_multiset(p), placement_space_multiset(p), target)
        for p, target, _ in support(structure)
    ]
    for step, indices in probes:
        union = set()
        for index in indices:
            expected = _mu_by_scan(entries, index, step)
            returned = mu(structure, index, step)
            assert returned == expected, (index, step)
            returned.clear()
            returned.add(-1)
            assert mu(structure, index, step) == expected, (index, step)
            union |= expected
        assert phi(structure, indices, step) == union, (indices, step)


def chain_table(seed: int, module_dim: int = 300, entries: int = 1200):
    """Seeded n=3, k=2 table whose entries join nearby indices.

    Classes are long chains, many edges have several witness entries
    (other partner, space index or arrangement), and some placements
    repeat an occupant.
    """
    rng = random.Random(seed)
    table = {}
    while len(table) < entries:
        first = rng.randrange(module_dim)
        partner = min(module_dim - 1, max(0, first + rng.randint(-2, 2)))
        target = min(module_dim - 1, max(0, first + rng.randint(-3, 3)))
        slots = [("m", first), ("m", partner), ("s", rng.randrange(2))]
        rng.shuffle(slots)
        table[tuple(slots)] = (target, rng.choice(COEFFICIENT_POOL))
    return KModuleStructure(3, 2, module_dim, 2, table)


def partition_problems(structure: KModuleStructure, partition) -> list[str]:
    """Why ``partition`` is not the component partition of ``structure``;
    empty when it is.  A check in time linear in the table that shares no
    code with ``connections``: one scan maps each (module occupants, space
    occupants) multiset pair to the targets of its entries, and every step
    is read from that map.

    A partition passes when every entry's occupants and target lie in one
    class, and a search by single steps from each class's minimum reaches
    exactly that class.  From an occupant of a pair, a forward step reaches
    each of the pair's targets; from a target, a backward step reaches each
    of its occupants.  So once a search meets a pair, all of the pair's
    indices are reached, and each pair is expanded once.
    """
    if partition.size != structure.module_dim:
        return [f"partition covers {partition.size} of {structure.module_dim} indices"]
    products: dict[tuple, set[int]] = {}
    for placement, (target, _) in structure.table.items():
        occupants = tuple(sorted(index for tag, index in placement if tag == "m"))
        spaces = tuple(sorted(index for tag, index in placement if tag == "s"))
        products.setdefault((occupants, spaces), set()).add(target)
    problems = []
    meeting: dict[int, list[tuple]] = {}
    for pair, targets in products.items():
        indices = {*pair[0], *targets}
        if len({partition.representative(index) for index in indices}) > 1:
            problems.append(f"{pair} joins classes")
        for index in indices:
            meeting.setdefault(index, []).append(pair)
    expanded = set()
    for members in partition.classes():
        reached, stack = {members[0]}, [members[0]]
        while stack:
            for pair in meeting.get(stack.pop(), ()):
                if pair not in expanded:
                    expanded.add(pair)
                    fresh = {*pair[0], *products[pair]} - reached
                    reached |= fresh
                    stack.extend(fresh)
        if reached != set(members):
            problems.append(f"steps from {members[0]} reach {len(reached)} indices, "
                            f"its class has {len(members)}")
    return problems


def _without(occupants: tuple, index: int) -> tuple:
    position = occupants.index(index)
    return occupants[:position] + occupants[position + 1 :]


def scan_step(rows: list, here: int, there: int) -> Step:
    """Step for the hop here -> there found by scanning ``support`` rows.

    ``rows`` holds (module occupants, space occupants, target) in
    support order.  The first row whose product takes ``here`` to
    ``there`` gives a forward step; only when there is none does the
    first row taking ``there`` to ``here`` give a backward step.
    """
    for occupants, spaces, target in rows:
        if target == there and here in occupants:
            return Step(FORWARD, _without(occupants, here), spaces)
    for occupants, spaces, target in rows:
        if target == here and there in occupants:
            return Step(BACKWARD, _without(occupants, there), spaces)
    raise AssertionError(f"hop {here}->{there} has no witness row")


def reference_connection(structure: KModuleStructure, source: int, target: int):
    """``find_connection`` recomputed from ``support`` rows alone.

    Breadth-first search over the symmetrized occupant-target pairs
    with ascending neighbours, then ``scan_step`` for every hop.
    """
    rows = [
        (placement_module_multiset(p), placement_space_multiset(p), reached)
        for p, reached, _ in support(structure)
    ]
    neighbours: dict[int, set[int]] = {}
    for occupants, _, reached in rows:
        for occupant in occupants:
            neighbours.setdefault(occupant, set()).add(reached)
            neighbours.setdefault(reached, set()).add(occupant)
    parent = {source: None}
    queue = deque([source])
    while queue and target not in parent:
        node = queue.popleft()
        for nxt in sorted(neighbours.get(node, ())):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return Connection(source, [scan_step(rows, a, b) for a, b in zip(path, path[1:])])


def one_way_table(seed: int, module_dim: int = 200, back_edges: bool = False):
    """Seeded n=2, k=1 table in which index 0 forward-reaches everything.

    Every edge runs from a smaller to a larger index, so nothing but 0
    reaches 0.  With ``back_edges`` each index above 0 also feeds a
    smaller one, which makes the edge graph strongly connected.
    """
    rng = random.Random(seed)
    table = {}

    def add(occupant, target):
        free = []
        for space in range(4):
            slots = (module_slot(occupant), space_slot(space))
            free += [p for p in (slots, slots[::-1]) if p not in table]
        if free:
            table[rng.choice(free)] = (target, Fraction(1))

    for index in range(1, module_dim):
        add(rng.randrange(max(0, index - 4), index), index)
        if back_edges:
            add(index, rng.randrange(index))
    for _ in range(module_dim):
        low = rng.randrange(module_dim - 1)
        add(low, rng.randrange(low + 1, module_dim))
    return KModuleStructure(2, 1, module_dim, 4, table)


def reference_symmetrize(structure: KModuleStructure) -> KModuleStructure:
    """``symmetrize`` recomputed by rescanning: every pass derives the
    edge set afresh, and each missing edge's witnesses come from a scan
    and sort of the whole current table."""

    def edges_of(table):
        return {
            (index, target)
            for placement, (target, _) in table.items()
            for tag, index in placement
            if tag == "m"
        }

    table = dict(structure.table)
    while True:
        edges = edges_of(table)
        missing = sorted((a, b) for (a, b) in edges if (b, a) not in edges)
        if not missing:
            break
        progress = False
        stuck = []
        for here, there in missing:
            if (there, here) in edges:
                continue
            witnesses = sorted(
                placement
                for placement, (target, _) in table.items()
                if target == there and here in placement_module_multiset(placement)
            )
            candidates = (
                witness[:position] + (module_slot(there),) + witness[position + 1 :]
                for witness in witnesses
                for position, slot in enumerate(witness)
                if slot == module_slot(here)
            )
            candidate = next((c for c in candidates if c not in table), None)
            if candidate is None:
                stuck.append((here, there))
                continue
            table[candidate] = (here, Fraction(1))
            edges |= edges_of({candidate: table[candidate]})
            progress = True
        if not progress:
            raise SymmetrizeConflict(stuck)
    return KModuleStructure(
        structure.n, structure.k, structure.module_dim, structure.space_dim, table
    )
