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
# ValidationError's message shows this many violations; ``violations`` keeps
# all.  A message of ``validate`` or the reader is at most about 120 bytes,
# so two, the count and ``error: `` fit in the CLI's 300-byte error line.
_SHOWN_VIOLATIONS = 2
# A violation past this many bytes, such as one that ``pairing`` prefixes
# with a key of huge indices, shows only its two ends: two such, the count
# and ``error: `` still fit in the 300-byte line.
_SHOWN_BYTES = 135


def echo(value) -> str:
    """``repr`` of ``value``, shortened when it is long."""
    return _ECHO.repr(value)


def _first_few(items, shown: int, show=str, separator: str = ", ") -> str:
    """The first ``shown`` of ``items``, each through ``show``, joined by
    ``separator``, then ``and N more`` for the N left out: the one rule that
    keeps a message naming many items bounded."""
    text = separator.join(show(item) for item in items[:shown])
    more = len(items) - shown
    return f"{text} and {more} more" if more > 0 else text


def _clip(text: str) -> str:
    """``text``, or past ``_SHOWN_BYTES`` bytes its two ends around ``...``."""
    data = text.encode()
    if len(data) <= _SHOWN_BYTES:
        return text
    half = (_SHOWN_BYTES - 3) // 2
    return f"{data[:half].decode(errors='ignore')}...{data[-half:].decode(errors='ignore')}"


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
    """Restriction was requested on an index set that the table does not close
    over; carries the set as ``indices`` and echoes its smallest members."""

    def __init__(self, indices):
        self.indices = frozenset(indices)
        super().__init__(f"{echo(sorted(self.indices))} is not closed under the table")

    def __reduce__(self):  # rebuilt from the set, not from the message
        return NotASubmodule, (self.indices,)


class SymmetrizeConflict(ModBasisError):
    """Symmetric completion failed; carries the unrepairable edges."""

    def __init__(self, edges):
        self.edges = tuple(edges)
        pairs = _first_few(self.edges, _SHOWN_EDGES, lambda e: f"{echo(e[0])}->{echo(e[1])}")
        super().__init__(
            f"cannot add reverse entries for {len(self.edges)} edge(s): {pairs}"
        )

    def __reduce__(self):  # rebuilt from the edges, not from the message
        return SymmetrizeConflict, (self.edges,)


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
    """The document decodes to data that violates a structural invariant;
    carries every violation as ``violations`` and shows the first few."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = tuple(violations)
        super().__init__(
            _first_few(self.violations, _SHOWN_VIOLATIONS, _clip, separator="; "))
