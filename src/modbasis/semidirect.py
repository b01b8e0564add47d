"""Combined structure of an n-ary algebra acting on a module.

The algebra's own products and the action table are folded into one
all-module structure over the disjoint union of both bases.  Decomposing
that combined structure splits the algebra into ideals, splits the
module compatibly, and pairs up the classes that actually interact
through the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .connections import components
from .core import (
    MODULE_TAG,
    KModuleStructure,
    NAryAlgebra,
    _check_index,
    placement_module_multiset,
    placement_space_multiset,
    support,
    validate,
    validate_algebra,
)
from .decomposition import decompose
from .errors import ArityMismatch, ValidationError, echo


@dataclass(frozen=True)
class ModuleOverAlgebra:
    """An n-ary algebra together with an action table on a module.

    The action is a structure whose space side is the algebra's basis,
    so both share the arity and the action's space dimension equals the
    algebra's dimension.
    """

    algebra: NAryAlgebra
    action: KModuleStructure


@dataclass(frozen=True)
class CombinedStructure:
    """Single-table form of algebra plus action on one merged basis.

    Indices 0..v_dim-1 are the module part and v_dim..v_dim+a_dim-1 the
    algebra part; the convention is fixed so reports and serialized
    output stay stable.
    """

    structure: KModuleStructure
    v_dim: int
    a_dim: int

    def label(self, index: int) -> str:
        if index < self.v_dim:
            return f"v{index}"
        return f"e{index - self.v_dim}"


@dataclass(frozen=True)
class CombinedComponent:
    """One class of the combined decomposition, split back into parts.

    ``members`` uses combined numbering; ``v_part`` and ``a_part`` use
    the original module and algebra numbering respectively.
    """

    representative: int
    members: tuple
    v_part: tuple
    a_part: tuple


@dataclass(frozen=True)
class PairingReport:
    """How the module classes line up with the algebra classes.

    ``omega_v``/``omega_a`` list representatives of combined classes
    with a nonempty module/algebra part; the ``_active`` variants keep
    only classes actually touched by action entries.  ``f`` maps each
    active module-side representative to an algebra-side representative
    and is a bijection between the active lists whenever ``violations``
    is empty.  Violations indicate implementation bugs, not bad data.
    """

    components: tuple
    omega_v: tuple
    omega_a: tuple
    omega_v_active: tuple
    omega_a_active: tuple
    f: dict
    violations: tuple


def _check_pair(pair: ModuleOverAlgebra):
    algebra, action = pair.algebra, pair.action
    if algebra.n != action.n:
        raise ArityMismatch(
            f"algebra arity {echo(algebra.n)} != action arity {echo(action.n)}"
        )
    if algebra.dim != action.space_dim:
        raise ArityMismatch(
            f"algebra dimension {echo(algebra.dim)} != action space dimension "
            f"{echo(action.space_dim)}"
        )
    problems = []
    for side, report in (("algebra", validate_algebra(algebra)),
                         ("action", validate(action))):
        for violation in report:
            key = violation.placement
            where = "" if key is None else f" {echo(key)}"
            problems.append(f"{side}{where}: {violation.message}")
    if problems:
        raise ValidationError(problems)


def build_semidirect(pair: ModuleOverAlgebra) -> CombinedStructure:
    """Fold algebra and action into one structure on the merged basis.

    Algebra entries become all-module entries shifted past the module
    block; action entries keep their module slots and turn their space
    slots into shifted module slots.  Everything else multiplies to
    zero.  Raises ArityMismatch when the two tables do not fit together,
    and then ValidationError, naming each table and key, when
    ``validate_algebra`` or ``validate`` reports anything.
    """
    _check_pair(pair)
    v_dim = pair.action.module_dim
    a_dim = pair.algebra.dim
    table = {}
    for key, (target, coeff) in pair.algebra.table.items():
        placement = tuple((MODULE_TAG, v_dim + index) for index in key)
        table[placement] = (v_dim + target, coeff)
    for placement, (target, coeff) in pair.action.table.items():
        merged = tuple(
            (MODULE_TAG, index) if tag == MODULE_TAG else (MODULE_TAG, v_dim + index)
            for tag, index in placement
        )
        table[merged] = (target, coeff)
    combined = KModuleStructure(
        pair.action.n, pair.action.n, v_dim + a_dim, 0, table
    )
    return CombinedStructure(combined, v_dim, a_dim)


def decompose_combined(combined: CombinedStructure) -> list[CombinedComponent]:
    """Decompose the merged structure and split each class into parts."""
    result = []
    for piece in decompose(combined.structure):
        members = piece.inherited_basis
        v_part = tuple(i for i in members if i < combined.v_dim)
        a_part = tuple(i - combined.v_dim for i in members if i >= combined.v_dim)
        result.append(CombinedComponent(piece.representative, members, v_part, a_part))
    return result


def verify_ideal(algebra: NAryAlgebra, indices: Iterable[int]) -> bool:
    """True iff every algebra product touching the set lands inside it.
    Raises DimensionError for an index that is not an int in range."""
    inside = set(indices)
    for index in inside:
        _check_index(index, algebra.dim)
    for key, (target, _) in algebra.table.items():
        if inside.intersection(key) and target not in inside:
            return False
    return True


def pairing(pair: ModuleOverAlgebra) -> PairingReport:
    """Match the module classes with the algebra classes they act through.

    Every action entry votes: its module occupants pick a module-side
    class, its space occupants pick an algebra-side class.  The votes
    must be consistent per entry and per class, and the resulting map
    must be a bijection between the active class lists; anything else is
    recorded as a violation.  Tables that do not fit together or do not
    validate raise as in ``build_semidirect``.
    """
    combined = build_semidirect(pair)
    comps = decompose_combined(combined)
    rep_of = components(combined.structure).representative
    v_dim = combined.v_dim
    omega_v = tuple(c.representative for c in comps if c.v_part)
    omega_a = tuple(c.representative for c in comps if c.a_part)
    violations = []
    mapping: dict[int, int] = {}
    active_v: set[int] = set()
    active_a: set[int] = set()
    for placement, target, _ in support(pair.action):
        module_occupants = placement_module_multiset(placement)
        space_occupants = placement_space_multiset(placement)
        v_classes = sorted({rep_of(i) for i in module_occupants})
        a_classes = sorted({rep_of(v_dim + j) for j in space_occupants})
        if len(v_classes) != 1:
            violations.append(
                f"entry {placement}: module occupants span classes {v_classes}"
            )
            continue
        alpha = v_classes[0]
        active_v.add(alpha)
        if not a_classes:
            violations.append(
                f"entry {placement}: no algebra occupants to pair with"
            )
            continue
        if len(a_classes) > 1:
            violations.append(
                f"entry {placement}: algebra occupants span classes {a_classes}"
            )
            continue
        beta = a_classes[0]
        active_a.add(beta)
        previous = mapping.setdefault(alpha, beta)
        if previous != beta:
            violations.append(
                f"module class {alpha} pairs with both {previous} and {beta}"
            )
    if len(set(mapping.values())) != len(mapping):
        violations.append("pairing is not injective")
    if set(mapping.values()) != active_a:
        violations.append("pairing does not cover every active algebra class")
    if set(mapping) != active_v:
        violations.append("pairing is not defined on every active module class")
    return PairingReport(
        tuple(comps),
        omega_v,
        omega_a,
        tuple(sorted(active_v)),
        tuple(sorted(active_a)),
        mapping,
        tuple(violations),
    )
