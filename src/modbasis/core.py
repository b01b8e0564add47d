"""Data model for modules with multiplicative bases under n-linear products.

A structure of arity n multiplies k arguments drawn from a module basis
(indices 0..module_dim-1) together with n-k arguments drawn from an
auxiliary space basis (indices 0..space_dim-1), in any arrangement of
slots.  With a multiplicative basis every such product of basis vectors
lands on a scalar multiple of a single module basis vector, so the whole
map is a sparse table from slot assignments to (target index,
coefficient) pairs.  Assignments absent from the table multiply to zero.

Coefficients are exact rationals.  The decomposition algorithms in the
rest of the package only ever look at which table entries exist, so the
coefficient values ride along unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .errors import CollisionError, DimensionError, echo

# Stdlib Fraction already maintains lowest terms and a positive
# denominator, which is exactly the normal form required here.
Scalar = Fraction

MODULE_TAG = "m"
SPACE_TAG = "s"

Slot = tuple[str, int]
Placement = tuple[Slot, ...]

DEFAULT_BUDGET = 10**7
BUDGET_ENV = "MODBASIS_BUDGET"


def module_slot(index: int) -> tuple[str, int]:
    return (MODULE_TAG, index)


def space_slot(index: int) -> tuple[str, int]:
    return (SPACE_TAG, index)


def enumeration_budget() -> int:
    """Candidate budget for exhaustive enumerations; see BUDGET_ENV."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    return int(raw)


def placement_space_size(n: int, k: int, module_dim: int, space_dim: int) -> int:
    """Number of distinct placements a table of this shape could hold."""
    return comb(n, k) * module_dim**k * space_dim ** (n - k)


def _freeze_table(self) -> None:
    """``__post_init__`` of both table classes: a read-only copy of the table,
    keys and targets as given.  A value that is a ``(target, Fraction)``
    tuple is kept as it is; any other is unpacked into a new one, its
    coefficient converted unless it is a ``Fraction``."""
    table = dict(self.table)
    for key, value in table.items():
        if type(value) is not tuple or len(value) != 2 or type(value[1]) is not Fraction:
            target, coeff = value
            table[key] = (target, coeff if type(coeff) is Fraction else Fraction(coeff))
    object.__setattr__(self, "table", MappingProxyType(table))


@dataclass(frozen=True)
class KModuleStructure:
    """Sparse product table of an arity-n map with k module slots.

    ``table`` maps a placement, i.e. an ordered length-n tuple of tagged
    slots ``("m", i)`` or ``("s", j)``, to the pair (target module
    index, coefficient); the constructor copies it into a read-only
    mapping, so instances are immutable, hash by value, and are safe to
    share between threads.  Parts derived from the table are built once
    per structure, on first use.  The constructor keeps a value that is
    already a ``(target, Fraction)`` tuple, as ``read_document`` builds
    them, and unpacks any other pair, converting its coefficient with
    ``Fraction()`` unless it is one; it enforces no invariant.
    ``validate`` checks keys and targets, index types included, and
    reports every violation explicitly so that malformed data can be
    inspected.
    """

    n: int
    k: int
    module_dim: int
    space_dim: int
    table: Mapping

    __post_init__ = _freeze_table

    def __hash__(self):
        fields = (self.n, self.k, self.module_dim, self.space_dim)
        return hash((fields, frozenset(self.table.items())))

    def __reduce__(self):  # a mappingproxy does not pickle
        fields = (self.n, self.k, self.module_dim, self.space_dim)
        return KModuleStructure, (*fields, dict(self.table))


@dataclass(frozen=True)
class NAryAlgebra:
    """Sparse n-ary product table on a single basis (indices 0..dim-1).

    Keys are ordered index tuples of length n; values are (target index,
    coefficient) pairs, absent keys multiply to zero, and the table is read-only.
    Like ``KModuleStructure``, the constructor touches only coefficients:
    it keeps ``(target, Fraction)`` tuples and converts other pairs.
    """

    n: int
    dim: int
    table: Mapping

    __post_init__ = _freeze_table

    def __hash__(self):
        return hash((self.n, self.dim, frozenset(self.table.items())))

    def __reduce__(self):  # a mappingproxy does not pickle
        return NAryAlgebra, (self.n, self.dim, dict(self.table))

    def entries(self) -> Iterator[tuple[tuple[int, ...], int, Fraction]]:
        """Deterministic iteration: keys in ascending lexicographic order."""
        for key in sorted(self.table):
            target, coeff = self.table[key]
            yield key, target, coeff


@dataclass(frozen=True)
class SigmaEntry:
    """One product stated in permutation form.

    ``sigma`` is a bijection on {1..n}, stored so that ``sigma[l-1]`` is
    the 1-based slot receiving the l-th argument.  Arguments are the k
    module indices followed by the n-k space indices; the entry asserts
    that this arrangement multiplies to ``coeff`` times the ``target``
    module basis vector.
    """

    sigma: tuple
    module_args: tuple
    space_args: tuple
    target: int
    coeff: Fraction


@dataclass(frozen=True)
class Violation:
    """A single invariant breach found by ``validate`` or ``validate_algebra``."""

    code: str
    message: str
    placement: Optional[tuple] = None


def placement_module_multiset(placement) -> tuple[int, ...]:
    """Sorted module indices occupying the placement."""
    return tuple(sorted(index for tag, index in placement if tag == MODULE_TAG))


def placement_space_multiset(placement) -> tuple[int, ...]:
    """Sorted space indices occupying the placement."""
    return tuple(sorted(index for tag, index in placement if tag == SPACE_TAG))


def validate(structure: KModuleStructure) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    A header field that is not an ``int`` is reported under its code
    (``arity``, ``k-range``, ``dims``), and then nothing else is checked:
    every other rule compares against the header."""
    report = _header_violations(structure)
    if report:
        return report
    n, k = structure.n, structure.k
    if n < 1:
        report.append(Violation("arity", f"arity must be at least 1, got {echo(n)}"))
    if not 1 <= k <= n:
        message = f"k must lie in 1..{echo(n)}, got {echo(k)}"
        report.append(Violation("k-range", message))
    if structure.module_dim < 0 or structure.space_dim < 0:
        report.append(Violation("dims", "dimensions must be nonnegative"))
    if k < n and structure.space_dim < 1 and structure.table:
        report.append(
            Violation(
                "space-dim",
                "k < n requires a nonzero space dimension unless the table is empty",
            )
        )
    report.extend(_entry_violations(structure))
    return report


def _header_violations(structure: KModuleStructure) -> list[Violation]:
    """A violation for each header field that is not an ``int``."""
    return [
        Violation(code, f"{name} must be an int, got {echo(value)}")
        for code, name, value in (
            ("arity", "arity", structure.n),
            ("k-range", "k", structure.k),
            ("dims", "module dimension", structure.module_dim),
            ("dims", "space dimension", structure.space_dim),
        )
        if type(value) is not int
    ]


def _check_header(structure: KModuleStructure) -> None:
    """Raise DimensionError, naming the field, for the first header field
    that is not an ``int``: a query compares indices against the header.
    A header of four ``int``s passes on one chained test, as a small
    structure's first query pays for it."""
    if (type(structure.n) is type(structure.k) is type(structure.module_dim)
            is type(structure.space_dim) is int):
        return
    raise DimensionError(_header_violations(structure)[0].message)


def _check_index(value, dim: int, name: str = "index", error=DimensionError) -> None:
    """Raise ``error``, naming ``value`` as ``name``, unless it is an index
    in 0..dim-1 by ``validate``'s rule: an ``int``, so a bool or a float is
    no index even where it compares in range.  Every query checks the
    indices and step arguments it is given with it."""
    if type(value) is not int or not 0 <= value < dim:
        raise error(f"{name} {echo(value)} outside 0..{echo(dim - 1)}")


def _entry_violations(structure: KModuleStructure) -> list[Violation]:
    """Every breach of the entries.  One pass in table order; only a report
    that is not empty is then sorted."""
    report = []
    module_dim = structure.module_dim
    for placement, (target, coeff) in structure.table.items():
        _placement_violations(structure, placement, report)
        if type(target) is not int or not 0 <= target < module_dim:
            message = f"target {echo(target)} outside 0..{echo(module_dim - 1)}"
            report.append(Violation("target-range", message, placement))
        if not coeff.numerator:
            report.append(
                Violation("zero-coefficient", "stored coefficient is zero", placement)
            )
    return _in_key_order(report, structure.table)


def _in_key_order(report: list, table) -> list:
    """``report`` ordered by the sorted keys of ``table`` (left in table
    order where the keys do not compare)."""
    if report:
        try:
            order = {key: rank for rank, key in enumerate(sorted(table))}
        except TypeError:  # key values of unorderable types
            return report
        report.sort(key=lambda violation: order[violation.placement])
    return report


def _placement_violations(structure: KModuleStructure, placement, report: list) -> list:
    """Append the breaches of one placement to ``report`` and return it."""
    if type(placement) is not tuple:
        message = f"placement {echo(placement)} is not a tuple of slots"
        report.append(Violation("length", message, placement))
        return report
    if len(placement) != structure.n:
        message = f"placement has {len(placement)} slots, expected {echo(structure.n)}"
        report.append(Violation("length", message, placement))
    module_count = 0
    for slot in placement:
        try:
            tag, index = slot
        except (TypeError, ValueError):
            message = f"slot {echo(slot)} is not a (tag, index) pair"
            report.append(Violation("slot-tag", message, placement))
            continue
        if tag == MODULE_TAG:
            module_count += 1
            side, dim = "module", structure.module_dim
        elif tag == SPACE_TAG:
            side, dim = "space", structure.space_dim
        else:
            message = f"unknown slot tag {echo(tag)}"
            report.append(Violation("slot-tag", message, placement))
            continue
        # A bool or a float is no index, even where it compares in range.
        if type(index) is not int or not 0 <= index < dim:
            message = f"{side} index {echo(index)} outside 0..{echo(dim - 1)}"
            report.append(Violation("slot-range", message, placement))
    if module_count != structure.k:
        expected = echo(structure.k)
        message = f"placement has {module_count} module slots, expected {expected}"
        report.append(Violation("slot-count", message, placement))
    return report


def algebra_entry_violation(n: int, dim: int, key, target, coeff) -> Optional[Violation]:
    """The first rule that one algebra product breaks, or None: a key that is
    no tuple of n indices, then an index or target that is no ``int`` in
    0..dim-1, then a zero coefficient.  The reader judges each algebra entry
    with it as the entry is filed; ``validate_algebra`` loops it over a table."""
    if type(key) is not tuple or len(key) != n:
        return Violation("length", f"algebra entries use {echo(n)} space slots", key)
    # A bool or a float is no index, even where it compares in range.
    if any(type(index) is not int or not 0 <= index < dim for index in (*key, target)):
        return Violation("index-range", f"index outside 0..{echo(dim - 1)}", key)
    if not coeff.numerator:
        return Violation("zero-coefficient", "stored coefficient is zero", key)
    return None


def validate_algebra(algebra: NAryAlgebra) -> list[Violation]:
    """Check every product of an algebra; an empty report means valid.  Each
    breaking key gets one violation, its first, with keys in sorted order
    (in table order where they do not compare)."""
    n, dim = algebra.n, algebra.dim
    report = []
    for key, (target, coeff) in algebra.table.items():
        violation = algebra_entry_violation(n, dim, key, target, coeff)
        if violation is not None:
            report.append(violation)
    return _in_key_order(report, algebra.table)


def _resolve_sigma(n: int, k: int, entry: SigmaEntry):
    sigma = tuple(entry.sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise DimensionError(f"sigma {sigma} is not a permutation of 1..{n}")
    if len(entry.module_args) != k:
        raise DimensionError(
            f"expected {k} module arguments, got {len(entry.module_args)}"
        )
    if len(entry.space_args) != n - k:
        raise DimensionError(
            f"expected {n - k} space arguments, got {len(entry.space_args)}"
        )
    slots = [None] * n
    for position, index in enumerate(entry.module_args, start=1):
        slots[sigma[position - 1] - 1] = (MODULE_TAG, index)
    for position, index in enumerate(entry.space_args, start=k + 1):
        slots[sigma[position - 1] - 1] = (SPACE_TAG, index)
    return tuple(slots)


def from_sigma_entries(
    n: int, k: int, dims: tuple[int, int], entries: Iterable[SigmaEntry]
) -> KModuleStructure:
    """Resolve permutation-form entries into a plain placement table.

    Two entries may resolve to the same placement only if they agree on
    target and coefficient; otherwise CollisionError is raised.
    """
    module_dim, space_dim = dims
    table = {}
    for entry in entries:
        placement = _resolve_sigma(n, k, entry)
        value = (entry.target, Fraction(entry.coeff))
        existing = table.get(placement)
        if existing is not None and existing != value:
            raise CollisionError(
                f"placement {placement} assigned both {existing} and {value}"
            )
        table[placement] = value
    return KModuleStructure(n, k, module_dim, space_dim, table)


def evaluate(structure: KModuleStructure, placement):
    """Lookup of one placement: (target, coeff) or None when it is zero.
    Raises DimensionError for a placement that ``validate`` would flag, and
    for a header field that is not an ``int``."""
    _check_header(structure)
    try:
        key = tuple((tag, index) for tag, index in placement)
    except (TypeError, ValueError):  # no sequence of pairs: judged as given
        key = placement
    problems = _placement_violations(structure, key, [])
    if problems:
        raise DimensionError(problems[0].message)
    return structure.table.get(key)


def support(structure: KModuleStructure) -> Iterator[tuple]:
    """Yield (placement, target, coeff), placements in lexicographic order."""
    for placement in sorted(structure.table):
        target, coeff = structure.table[placement]
        yield placement, target, coeff
