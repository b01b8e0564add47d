"""JSON documents for structures and DOT export of component graphs.

Document shape (format_version 1)::

    {"format_version": 1, "kind": "k-module", "n": 2, "k": 1,
     "module_dim": 3, "space_dim": 1,
     "entries": [{"slots": [{"m": 0}, {"s": 0}], "target": 1, "coeff": 1}]}

Slots are single-key objects, ``{"m": i}`` for the module side and
``{"s": j}`` for the space side; coefficients are integers or "p/q"
strings.  Kind "n-ary-algebra" stores a bare algebra with k = 0,
module_dim = 0, all-space slots, and space-side targets.  Kind
"module-over-algebra" mixes action entries (exactly k module slots,
module-side target) and algebra entries (all space slots, space-side
target) in a single list; the two are distinguishable because k is at
least 1.  Output is canonical: entries sorted by slot sequence,
lowest-term coefficients, fixed key order, two-space indentation, so
write of read of write is byte-identical.

The reader checks the JSON shape of each entry and files it into its
table, keys and targets as written, and ``core`` judges the entries:
each algebra entry as it is filed, by ``algebra_entry_violation`` (the
reader adds only the duplicate check), the action once it is filed, by
``validate``.  Each distinct coefficient text is parsed once per read,
from the groups of the ``_COEFF`` match, into a ``Fraction`` that every
entry with that text shares; the table constructors keep the reader's
``(target, Fraction)`` pairs as they are.  Every read parses the text
once.  Each raw entry is released once it is decoded, so the JSON tree
shrinks while the table grows and the read never holds two copies of
the document.  A message
that names an entry position takes it from filing order: the action
keeps its placements in order of first occurrence, so the first entry of
each is found by skipping the duplicates and algebra entries.  Cyclic
garbage collection is paused from the JSON parse through ``validate``: a
large read allocates objects by the hundred thousand, and what it drops
is freed by reference counting, so collections during it would only
rescan live data.  The pause is process-wide: no thread of the process
runs a cyclic collection until the read ends, and if two reads overlap,
the one that began with the collector on turns it back on when it ends.
Pauses nest through ``gc_paused``: a read made while the collector is
already off, as in a CLI command, leaves it off.
Error messages echo input values through ``errors.echo``, so a huge
value shows only its ends.
"""

from __future__ import annotations

import gc
import json
import re
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from .connections import ComponentPartition, _check_cover, forward_edges
from .core import (
    MODULE_TAG,
    SPACE_TAG,
    KModuleStructure,
    NAryAlgebra,
    algebra_entry_violation,
    support,
    validate,
)
from .errors import ParseError, SchemaError, ValidationError, echo
from .semidirect import ModuleOverAlgebra

FORMAT_VERSION = 1

_KINDS = ("k-module", "n-ary-algebra", "module-over-algebra")
_HEADER = ("format_version", "kind", "n", "k", "module_dim", "space_dim")

# "N" or "N/D", optionally negative, D nonzero; the groups are the
# signed numerator and the denominator.  A part may have at most 4300
# digits, CPython's int-to-str limit, so every value read can be written
# back.
_COEFF = re.compile(r"(-?[0-9]{1,4300})(?:/((?=0*[1-9])[0-9]{1,4300}))?")


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if type(value) is not int:
        raise SchemaError(f"field {name!r} must be an integer")
    return value


def _coeff(raw, position: int, memo: dict) -> Fraction:
    """The checked coefficient as a ``Fraction``, each distinct text parsed
    once per read, by the ``_COEFF`` match: ``memo``, the read's own, maps
    each ``int`` or "p/q" string already read to its ``Fraction``, which
    the entries that repeat it share.  It is looked up only after the exact
    type test, as ``True`` and ``1.0`` equal ``1``."""
    kind = type(raw)
    if kind is not int and kind is not str:
        raise SchemaError(
            f"entry {position}: coefficient must be an integer or 'p/q' string"
        )
    coeff = memo.get(raw)
    if coeff is not None:
        return coeff
    if kind is int:
        coeff = Fraction(raw)
    else:
        match = _COEFF.fullmatch(raw)
        if match is None:
            raise SchemaError(
                f"entry {position}: bad coefficient {echo(raw)}: expected an "
                "integer or 'p/q', q nonzero, at most 4300 digits each"
            )
        numerator, denominator = match.groups()
        coeff = Fraction(int(numerator), int(denominator or 1))
    memo[raw] = coeff
    return coeff


def _entry(raw, position: int, memo: dict) -> tuple[tuple, int, Fraction]:
    """(placement, target, coeff) of one raw entry, its JSON shape checked;
    ``memo`` is the read's coefficient memo (see ``_coeff``).
    ``json.loads`` builds exact ``dict`` and ``list`` objects, so their
    types are tested with ``is``."""
    if type(raw) is not dict:
        raise SchemaError(f"entry {position}: must be an object")
    slots = raw.get("slots")
    if type(slots) is not list:
        raise SchemaError(f"entry {position}: 'slots' must be a list")
    placement = []
    for slot in slots:
        if type(slot) is dict and len(slot) == 1:
            (item,) = slot.items()  # a fresh (tag, index) pair
            tag = item[0]
            if (tag == MODULE_TAG or tag == SPACE_TAG) and type(item[1]) is int:
                placement.append(item)
                continue
        raise SchemaError(
            f"entry {position}, slot {len(placement)}: {_slot_problem(slot)}"
        )
    target = raw.get("target")
    if type(target) is not int:
        raise SchemaError(f"entry {position}: 'target' must be an integer")
    return tuple(placement), target, _coeff(raw.get("coeff"), position, memo)


def _slot_problem(slot) -> str:
    if type(slot) is not dict or len(slot) != 1:
        return "slot must be a single-key object"
    (tag, _), = slot.items()
    if tag != MODULE_TAG and tag != SPACE_TAG:
        return f"unknown slot tag {echo(tag)}"
    return "slot index must be an integer"


def read_document(path):
    """Load a structure, algebra, or pair from a JSON document.

    Raises ParseError for unreadable JSON, SchemaError for a malformed
    document shape, and ValidationError, listing every breach, when the
    decoded data violates structural invariants.

    The text is parsed once, and each entry of the parsed JSON is
    dropped as soon as it is decoded.  A message about a duplicate
    placement or a violation in the action names the placement's first
    entry, whose position follows from the order the action was filed in.

    Cyclic garbage collection is paused for the length of the read, in
    every thread of the process, and afterwards left on or off as it was
    found, so a read inside a longer pause, such as a CLI command's, keeps
    the collector off; a read that overlaps another may end the other's
    pause.
    """
    text = Path(path).read_text(encoding="utf-8")
    return gc_paused(_decode, text, path)


def gc_paused(call, *args):
    """``call(*args)`` with cyclic garbage collection paused, then the
    collector left on or off as it was found.  A pause nests: an inner one
    finds the collector off and leaves it off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return call(*args)
    finally:
        if collecting:
            gc.enable()


def _decode(text: str, path):
    # Beside JSONDecodeError (a ValueError): nesting too deep raises
    # RecursionError, an integer over 4300 digits a plain ValueError.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {echo(doc.get('format_version'))}"
        )
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(
            f"unknown kind {echo(kind)}; expected one of {_KINDS}"
        )
    names = ("n", "space_dim") if kind == "n-ary-algebra" else _HEADER[2:]
    header = [_int_field(doc, name) for name in names]
    n, dim = header[0], header[-1]
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise SchemaError("field 'entries' must be a list")

    algebra, action = {}, {}
    algebra_problems, duplicates, unfiled, memo = [], [], set(), {}
    for position, raw in enumerate(raw_entries):
        placement, target, coeff = _entry(raw, position, memo)
        raw_entries[position] = None  # frees the entry's JSON objects
        if kind == "k-module" or (
            kind == "module-over-algebra"
            and not (placement and all(tag == SPACE_TAG for tag, _ in placement))
        ):
            if placement in action:
                duplicates.append((position, placement))
                unfiled.add(position)
            else:
                action[placement] = (target, coeff)
            continue
        if kind == "module-over-algebra":
            unfiled.add(position)
        # An entry with a module slot has no algebra key; core judges the rest.
        key = None
        if all(tag == SPACE_TAG for tag, _ in placement):
            key = tuple(index for _, index in placement)
        violation = algebra_entry_violation(n, dim, key, target, coeff)
        if violation is None and key not in algebra:
            algebra[key] = (target, coeff)
            continue
        problem = "duplicate product" if violation is None else violation.message
        algebra_problems.append(f"entry {position}: {problem}")

    if kind == "n-ary-algebra":
        if algebra_problems:
            raise ValidationError(algebra_problems)
        return NAryAlgebra(n, dim, algebra)
    structure = KModuleStructure(*header, action)
    violations = validate(structure)
    problems = algebra_problems
    if duplicates or violations:
        # ``action`` is in filing order, and the positions it filed are
        # those of neither a duplicate nor an algebra entry.
        filed = (p for p in range(len(raw_entries)) if p not in unfiled)
        first = dict(zip(action, filed))
        problems += [f"entry {position}: duplicate of entry {first[placement]}"
                     for position, placement in duplicates]
        for violation in violations:
            prefix = ""
            if violation.placement is not None:
                prefix = f"entry {first[violation.placement]}: "
            problems.append(prefix + violation.message)
    if problems:
        raise ValidationError(problems)
    if kind == "module-over-algebra":
        return ModuleOverAlgebra(NAryAlgebra(n, dim, algebra), structure)
    return structure


def _algebra_rows(algebra: NAryAlgebra):
    for key, target, coeff in algebra.entries():
        yield tuple((SPACE_TAG, j) for j in key), target, coeff


def _header_and_rows(obj):
    """Header values after format_version, and the entries sorted by placement."""
    if isinstance(obj, KModuleStructure):
        return ("k-module", obj.n, obj.k, obj.module_dim, obj.space_dim), support(obj)
    if isinstance(obj, NAryAlgebra):
        return ("n-ary-algebra", obj.n, 0, 0, obj.dim), _algebra_rows(obj)
    if isinstance(obj, ModuleOverAlgebra):
        action = obj.action
        header = ("module-over-algebra", action.n, action.k, action.module_dim,
                  action.space_dim)
        rows = [*support(action), *_algebra_rows(obj.algebra)]
        return header, sorted(rows, key=itemgetter(0))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _entry_line(placement, target, coeff) -> str:
    slots = ", ".join([
        f'{{"{tag}": {index}}}' if tag in (MODULE_TAG, SPACE_TAG)
        else json.dumps({tag: index})
        for tag, index in placement
    ])
    if coeff.denominator == 1:
        value = coeff.numerator
    else:
        value = f'"{coeff.numerator}/{coeff.denominator}"'
    return f'    {{"slots": [{slots}], "target": {target}, "coeff": {value}}}'


def dumps_document(obj) -> str:
    """Canonical JSON text for a structure, algebra, or pair.

    Header fields come in a fixed order and every entry sits on its own
    line, so equal objects always serialize to identical bytes.
    """
    header, rows = _header_and_rows(obj)
    lines = ["{"]
    for name, value in zip(_HEADER, (FORMAT_VERSION, *header)):
        lines.append(f'  "{name}": {json.dumps(value)},')
    entries = ",\n".join([_entry_line(*row) for row in rows])
    if entries:
        lines += ['  "entries": [', entries, "  ]"]
    else:
        lines.append('  "entries": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_document(obj, path):
    """Write the canonical document; writing a read document is a no-op."""
    Path(path).write_text(dumps_document(obj), encoding="utf-8")


def export_dot(structure: KModuleStructure, partition: ComponentPartition) -> str:
    """Undirected component graph in DOT form, one cluster per class.

    Nodes are v0..v(dim-1), symmetrized edges keep self-loops, clusters
    are labeled by their class representative.  Output is deterministic.
    """
    _check_cover(structure, partition)
    undirected = sorted({tuple(sorted(edge)) for edge in forward_edges(structure)})
    lines = ["graph components {"]
    for cls in partition.classes():
        rep = cls[0]
        lines.append(f"  subgraph cluster_{rep} {{")
        lines.append(f'    label="[{rep}]";')
        for index in cls:
            lines.append(f"    v{index};")
        lines.append("  }")
    for a, b in undirected:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
