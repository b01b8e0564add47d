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

The reader only checks the JSON shape of each entry and puts it, as
written, into its table; the ``KModuleStructure`` and ``NAryAlgebra``
constructors convert coefficients, and ``validate`` checks keys and
targets of the action.  Error messages echo input values through
``reprlib``, so a huge value shows only its ends.
"""

from __future__ import annotations

import json
import re
import reprlib
from operator import itemgetter
from pathlib import Path

from .connections import ComponentPartition, forward_edges
from .core import (
    MODULE_TAG,
    SPACE_TAG,
    KModuleStructure,
    NAryAlgebra,
    support,
    validate,
)
from .errors import DimensionError, ParseError, SchemaError, ValidationError
from .semidirect import ModuleOverAlgebra

FORMAT_VERSION = 1

_KINDS = ("k-module", "n-ary-algebra", "module-over-algebra")
_HEADER = ("format_version", "kind", "n", "k", "module_dim", "space_dim")

# "N" or "N/D", optionally negative, D nonzero.  A part may have at most
# 4300 digits, CPython's int-to-str limit, so every value read can be
# written back.
_COEFF = re.compile(r"-?([0-9]{1,4300})(?:/(?=0*[1-9])[0-9]{1,4300})?")


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if type(value) is not int:
        raise SchemaError(f"field {name!r} must be an integer")
    return value


def _coeff(raw, position: int):
    """The checked coefficient as written; every zero comes back as the
    int 0, so ``== 0`` finds zeros before the constructor parses them."""
    if type(raw) is int:
        return raw
    if not isinstance(raw, str):
        raise SchemaError(
            f"entry {position}: coefficient must be an integer or 'p/q' string"
        )
    match = _COEFF.fullmatch(raw)
    if match is None:
        raise SchemaError(
            f"entry {position}: bad coefficient {reprlib.repr(raw)}: expected an "
            "integer or 'p/q', q nonzero, at most 4300 digits each"
        )
    return raw if match[1].strip("0") else 0


def _entry(raw, position: int) -> tuple[tuple, int, object]:
    """(placement, target, coeff) of one raw entry, its JSON shape checked."""
    if not isinstance(raw, dict):
        raise SchemaError(f"entry {position}: must be an object")
    slots = raw.get("slots")
    if not isinstance(slots, list):
        raise SchemaError(f"entry {position}: 'slots' must be a list")
    placement = []
    for number, slot in enumerate(slots):
        if not isinstance(slot, dict) or len(slot) != 1:
            problem = "slot must be a single-key object"
        else:
            (tag, index), = slot.items()
            if tag != MODULE_TAG and tag != SPACE_TAG:
                problem = f"unknown slot tag {reprlib.repr(tag)}"
            elif type(index) is not int:
                problem = "slot index must be an integer"
            else:
                placement.append((tag, index))
                continue
        raise SchemaError(f"entry {position}, slot {number}: {problem}")
    target = raw.get("target")
    if type(target) is not int:
        raise SchemaError(f"entry {position}: 'target' must be an integer")
    return tuple(placement), target, _coeff(raw.get("coeff"), position)


def read_document(path):
    """Load a structure, algebra, or pair from a JSON document.

    Raises ParseError for unreadable JSON, SchemaError for a malformed
    document shape, and ValidationError, listing every breach, when the
    decoded data violates structural invariants.
    """
    text = Path(path).read_text(encoding="utf-8")
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
            f"unsupported format_version {reprlib.repr(doc.get('format_version'))}"
        )
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(
            f"unknown kind {reprlib.repr(kind)}; expected one of {_KINDS}"
        )
    names = ("n", "space_dim") if kind == "n-ary-algebra" else _HEADER[2:]
    header = [_int_field(doc, name) for name in names]
    n, dim = header[0], header[-1]
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise SchemaError("field 'entries' must be a list")

    algebra, action, position_of = {}, {}, {}
    algebra_problems, duplicates = [], []
    for position, raw in enumerate(raw_entries):
        placement, target, coeff = _entry(raw, position)
        if kind == "k-module" or (
            kind == "module-over-algebra"
            and not (placement and all(tag == SPACE_TAG for tag, _ in placement))
        ):
            if placement in action:
                duplicates.append(
                    f"entry {position}: duplicate of entry {position_of[placement]}"
                )
            else:
                action[placement] = (target, coeff)
                position_of[placement] = position
            continue
        key = tuple(index for _, index in placement)
        if len(placement) != n or any(tag != SPACE_TAG for tag, _ in placement):
            problem = f"algebra entries use {n} space slots"
        elif any(not 0 <= j < dim for j in key) or not 0 <= target < dim:
            problem = f"index outside 0..{dim - 1}"
        elif coeff == 0:
            problem = "stored coefficient is zero"
        elif key in algebra:
            problem = "duplicate product"
        else:
            algebra[key] = (target, coeff)
            continue
        algebra_problems.append(f"entry {position}: {problem}")

    if kind == "n-ary-algebra":
        if algebra_problems:
            raise ValidationError(algebra_problems)
        return NAryAlgebra(n, dim, algebra)
    structure = KModuleStructure(*header, action)
    problems = algebra_problems + duplicates
    for violation in validate(structure):
        prefix = ""
        if violation.placement is not None:
            prefix = f"entry {position_of[violation.placement]}: "
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
    if partition.size != structure.module_dim:
        raise DimensionError(
            f"partition covers {partition.size} indices, "
            f"structure has {structure.module_dim}"
        )
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
