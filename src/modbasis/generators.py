"""Seeded construction of structures.

Random sparse tables for fuzzing, symmetric completion of one-way
tables, a fully populated modular family with known components, and the
zero table.  All generation is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil
from operator import itemgetter
from typing import Iterator

from .connections import _Index
from .core import (
    MODULE_TAG,
    SPACE_TAG,
    KModuleStructure,
    enumeration_budget,
    placement_space_size,
    validate,
)
from .errors import BudgetError, SymmetrizeConflict, echo

COEFFICIENT_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
)


@dataclass(frozen=True)
class GenSpec:
    """Shape and density of a structure to generate.

    ``density`` is the inclusion probability of each placement, kept as
    an exact rational in [0, 1].
    """

    seed: int
    n: int
    k: int
    module_dim: int
    space_dim: int
    density: Fraction

    def __post_init__(self):
        object.__setattr__(self, "density", Fraction(self.density))


def _check_spec(spec: GenSpec):
    """validate's header rules, on an empty table of the spec's shape, and
    the density range."""
    shape = KModuleStructure(spec.n, spec.k, spec.module_dim, spec.space_dim, {})
    for violation in validate(shape):
        raise ValueError(violation.message)
    if not 0 <= spec.density <= 1:
        num, den = spec.density.as_integer_ratio()
        shown = echo(num) + (f"/{echo(den)}" if den > 1 else "")
        raise ValueError(f"density must lie in [0, 1], got {shown}")


def _space_exceeds(n, k, module_dim, space_dim, budget: int) -> bool:
    """Whether ``placement_space_size`` passes ``budget``, computing no power
    past it: ``b**e >= 2**e`` for ``b >= 2``, ``comb(n, k) >= 2**min(k, n - k)``."""
    bits = budget.bit_length()
    powers = ((module_dim, k), (space_dim, n - k))
    if any(base == 0 < exponent for base, exponent in powers):
        return budget < 0  # the space is empty
    if min(k, n - k) >= bits or any(b > 1 and e >= bits for b, e in powers):
        return True
    return placement_space_size(n, k, module_dim, space_dim) > budget


def _all_placements(
    n: int, k: int, module_dim: int, space_dim: int
) -> Iterator[tuple]:
    if module_dim == 0 < k or space_dim == 0 < n - k:
        return  # a slot on an empty side: no placement at all
    module_slots = [(MODULE_TAG, i) for i in range(module_dim)]
    space_slots = [(SPACE_TAG, j) for j in range(space_dim)]
    for module_positions in combinations(range(n), k):
        # A row is a module fill then a space fill, in the order of the
        # nested fills; ``order`` names the row item each position takes.
        chosen = set(module_positions)
        module_items, space_items = iter(range(k)), iter(range(k, n))
        order = [next(module_items) if p in chosen else next(space_items) for p in range(n)]
        # itemgetter of one index returns the bare item, and a 1-tuple row
        # is already the placement.
        arrange = itemgetter(*order) if n > 1 else tuple
        yield from map(arrange, product(*[module_slots] * k, *[space_slots] * (n - k)))


def _float_cutoff(density: Fraction) -> float:
    """The float ``c`` with ``x < c`` exactly when ``x < density``, for every
    ``x`` that ``random.random()`` returns.  Those are the multiples of
    2**-53 in [0, 1), and ``k / 2**53 < d`` holds exactly when
    ``k < ceil(d * 2**53)``, an integer of at most 53 bits, so the quotient
    is exact and one float comparison replaces a ``Fraction`` one."""
    return ceil(density * 2**53) / 2**53


def random_structure(spec: GenSpec) -> KModuleStructure:
    """Independently include each placement with the requested density.

    Included placements get a uniform target and a coefficient from a
    small pool of units.  Identical specs always give identical tables.
    Raises BudgetError when the placement space itself is too large to
    enumerate.
    """
    _check_spec(spec)
    shape = (spec.n, spec.k, spec.module_dim, spec.space_dim)
    budget = enumeration_budget()
    if _space_exceeds(*shape, budget):
        raise BudgetError(f"placement space has more than {budget} candidates")
    rng = random.Random(spec.seed)
    cutoff = _float_cutoff(spec.density)
    table = {}
    for placement in _all_placements(*shape):
        if rng.random() < cutoff:
            target = rng.randrange(spec.module_dim)
            coeff = rng.choice(COEFFICIENT_POOL)
            table[placement] = (target, coeff)
    return KModuleStructure(*shape, table)


def symmetrize(structure: KModuleStructure) -> KModuleStructure:
    """Complete the table so that every edge has a reverse edge.

    A one-way edge (i, r) is repaired by rewriting one of its witness
    placements: the slot holding i receives r instead and the new entry
    targets i with coefficient 1.  Witnesses are tried in placement
    order with slot positions ascending; a candidate already occupied
    with a different target is skipped.  Because a repair can itself
    introduce new one-way edges through the other occupants of the
    rewritten placement, passes repeat until the edge relation is
    symmetric; a pass that adds nothing while edges remain raises
    SymmetrizeConflict carrying them.  The input table is always a subset
    of the output table.
    """
    table = dict(structure.table)
    while True:
        # A fresh index that no structure caches: the pass extends its lists.
        edges = _Index(table, structure.module_dim).edges()
        missing = sorted((a, b) for (a, b) in edges if (b, a) not in edges)
        if not missing:
            break
        size = len(table)
        stuck = []
        for here, there in missing:
            if (there, here) in edges:
                continue  # repaired earlier in this pass
            candidates = (
                witness[:position] + ((MODULE_TAG, there),) + witness[position + 1 :]
                for witness in sorted(edges[here, there])
                for position, slot in enumerate(witness)
                if slot == (MODULE_TAG, here)
            )
            candidate = next((c for c in candidates if c not in table), None)
            if candidate is None:
                stuck.append((here, there))
                continue
            table[candidate] = (here, Fraction(1))
            for occupant in {index for tag, index in candidate if tag == MODULE_TAG}:
                edges.setdefault((occupant, here), []).append(candidate)
        if len(table) == size:
            raise SymmetrizeConflict(stuck)
    return KModuleStructure(
        structure.n, structure.k, structure.module_dim, structure.space_dim, table
    )


def modular_family(n: int, k: int, m: int) -> KModuleStructure:
    """Fully populated structure on residues mod m.

    Both index sets are the residues 0..m-1, every placement is present,
    each product targets the sum of all occupant values mod m with
    coefficient 1.  When k equals n no slot ever takes a space index and
    the space side is dropped to dimension zero.
    """
    if m < 1:
        raise ValueError(f"modulus must be at least 1, got {m}")
    if n < 2:
        raise ValueError(f"arity must be at least 2, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    space_dim = 0 if k == n else m
    table = {}
    for placement in _all_placements(n, k, m, space_dim):
        total = sum(index for _, index in placement) % m
        table[placement] = (total, Fraction(1))
    return KModuleStructure(n, k, m, space_dim, table)


def trivial_structure(n: int, k: int, dims: tuple[int, int]) -> KModuleStructure:
    """The zero product: an empty table of the requested shape."""
    module_dim, space_dim = dims
    return KModuleStructure(n, k, module_dim, space_dim, {})
