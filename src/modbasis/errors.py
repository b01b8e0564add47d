"""Exception types shared across the package, and ``echo``, the one rule
for quoting an input value in a message."""

from __future__ import annotations

import reprlib

# A huge value shows only its ends; a sign and 40 digits still print in
# full.
_ECHO = reprlib.Repr()
_ECHO.maxlong = 41

# SymmetrizeConflict's message names this many edges; ``edges`` keeps all.
_SHOWN_EDGES = 5


def echo(value) -> str:
    """``repr`` of ``value``, shortened when it is long."""
    return _ECHO.repr(value)


class ModBasisError(Exception):
    """Base class for every error raised by this library."""


class DimensionError(ModBasisError):
    """An index, placement, or step does not fit the owning structure's shape."""


class CollisionError(ModBasisError):
    """Two ingested entries resolve to the same placement with different values."""


class BudgetError(ModBasisError):
    """An enumeration would exceed the configured candidate budget."""


class InvalidWitness(ModBasisError):
    """A connection witness failed replay verification."""


class NotASubmodule(ModBasisError):
    """Restriction was requested on an index set that the table does not close over."""


class SymmetrizeConflict(ModBasisError):
    """Symmetric completion failed; carries the unrepairable edges."""

    def __init__(self, edges):
        self.edges = tuple(edges)
        pairs = ", ".join(f"{echo(a)}->{echo(b)}" for a, b in self.edges[:_SHOWN_EDGES])
        more = len(self.edges) - _SHOWN_EDGES
        if more > 0:
            pairs += f" and {more} more"
        super().__init__(
            f"cannot add reverse entries for {len(self.edges)} edge(s): {pairs}"
        )


class ArityMismatch(ModBasisError):
    """Algebra and action tables disagree on arity or shared dimension."""


class TheoremViolation(ModBasisError):
    """The minimality/connectedness cross-check failed under its hypothesis.

    This signals an implementation bug, never bad input data.
    """


class DocumentError(ModBasisError):
    """Base class for serialization problems."""


class ParseError(DocumentError):
    """The file is not syntactically valid JSON."""


class SchemaError(DocumentError):
    """The document does not have the expected shape."""


class ValidationError(DocumentError):
    """The document decodes to data that violates a structural invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))
