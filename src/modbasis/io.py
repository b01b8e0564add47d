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
"""

from __future__ import annotations

import json
from fractions import Fraction
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


def _coeff_to_json(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _coeff_from_json(raw, where: str) -> Fraction:
    if type(raw) is int:
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad coefficient {raw!r}: {exc}") from exc
    raise SchemaError(f"{where}: coefficient must be an integer or 'p/q' string")


def _slot_from_json(raw, where: str) -> tuple[str, int]:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise SchemaError(f"{where}: slot must be a single-key object")
    (tag, index), = raw.items()
    if tag not in (MODULE_TAG, SPACE_TAG):
        raise SchemaError(f"{where}: unknown slot tag {tag!r}")
    if type(index) is not int:
        raise SchemaError(f"{where}: slot index must be an integer")
    return (tag, index)


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if type(value) is not int:
        raise SchemaError(f"field {name!r} must be an integer")
    return value


def _decode_entries(doc: dict) -> list[tuple[tuple, int, Fraction]]:
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise SchemaError("field 'entries' must be a list")
    entries = []
    for position, raw in enumerate(raw_entries):
        where = f"entry {position}"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: must be an object")
        slots = raw.get("slots")
        if not isinstance(slots, list):
            raise SchemaError(f"{where}: 'slots' must be a list")
        placement = tuple(
            _slot_from_json(slot, f"{where}, slot {i}") for i, slot in enumerate(slots)
        )
        target = raw.get("target")
        if type(target) is not int:
            raise SchemaError(f"{where}: 'target' must be an integer")
        coeff = _coeff_from_json(raw.get("coeff"), where)
        entries.append((placement, target, coeff))
    return entries


def _action_structure(header, entries, problems: list) -> KModuleStructure:
    """Structure of the (position, entry) pairs; breaches go to ``problems``."""
    table = {}
    index_of = {}
    for position, (placement, target, coeff) in entries:
        if placement in table:
            problems.append(
                f"entry {position}: duplicate of entry {index_of[placement]}"
            )
            continue
        table[placement] = (target, coeff)
        index_of[placement] = position
    structure = KModuleStructure(*header, table)
    for violation in validate(structure):
        prefix = ""
        if violation.placement is not None:
            prefix = f"entry {index_of[violation.placement]}: "
        problems.append(prefix + violation.message)
    return structure


def _algebra_table(n: int, dim: int, entries, problems: list) -> dict:
    """Algebra table of the (position, entry) pairs; breaches go to ``problems``."""
    table = {}
    for position, (placement, target, coeff) in entries:
        where = f"entry {position}"
        if len(placement) != n or any(tag != SPACE_TAG for tag, _ in placement):
            problems.append(f"{where}: algebra entries use {n} space slots")
            continue
        key = tuple(index for _, index in placement)
        if any(not 0 <= j < dim for j in key) or not 0 <= target < dim:
            problems.append(f"{where}: index outside 0..{dim - 1}")
            continue
        if coeff == 0:
            problems.append(f"{where}: stored coefficient is zero")
            continue
        if key in table:
            problems.append(f"{where}: duplicate product")
            continue
        table[key] = (target, coeff)
    return table


def _module_header(doc: dict) -> tuple[int, int, int, int]:
    return tuple(_int_field(doc, name) for name in ("n", "k", "module_dim", "space_dim"))


def _assemble_k_module(doc: dict) -> KModuleStructure:
    header = _module_header(doc)
    problems = []
    structure = _action_structure(header, enumerate(_decode_entries(doc)), problems)
    if problems:
        raise ValidationError(problems)
    return structure


def _assemble_algebra(doc: dict) -> NAryAlgebra:
    n = _int_field(doc, "n")
    dim = _int_field(doc, "space_dim")
    problems = []
    table = _algebra_table(n, dim, enumerate(_decode_entries(doc)), problems)
    if problems:
        raise ValidationError(problems)
    return NAryAlgebra(n, dim, table)


def _assemble_pair(doc: dict) -> ModuleOverAlgebra:
    header = _module_header(doc)
    n, _, _, space_dim = header
    action_entries = []
    algebra_entries = []
    for position, entry in enumerate(_decode_entries(doc)):
        placement = entry[0]
        if placement and all(tag == SPACE_TAG for tag, _ in placement):
            algebra_entries.append((position, entry))
        else:
            action_entries.append((position, entry))
    problems = []
    algebra_table = _algebra_table(n, space_dim, algebra_entries, problems)
    action = _action_structure(header, action_entries, problems)
    if problems:
        raise ValidationError(problems)
    return ModuleOverAlgebra(NAryAlgebra(n, space_dim, algebra_table), action)


def read_document(path):
    """Load a structure, algebra, or pair from a JSON document.

    Raises ParseError for broken JSON, SchemaError for a malformed
    document shape, and ValidationError, listing every breach, when the
    decoded data violates structural invariants.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    kind = doc.get("kind")
    if kind == "k-module":
        return _assemble_k_module(doc)
    if kind == "n-ary-algebra":
        return _assemble_algebra(doc)
    if kind == "module-over-algebra":
        return _assemble_pair(doc)
    raise SchemaError(f"unknown kind {kind!r}; expected one of {_KINDS}")


def _entry_json(placement, target, coeff) -> dict:
    return {
        "slots": [{tag: index} for tag, index in placement],
        "target": target,
        "coeff": _coeff_to_json(coeff),
    }


def _document_for(obj) -> dict:
    if isinstance(obj, KModuleStructure):
        header = ("k-module", obj.n, obj.k, obj.module_dim, obj.space_dim)
        entries = [_entry_json(p, t, c) for p, t, c in support(obj)]
    elif isinstance(obj, NAryAlgebra):
        header = ("n-ary-algebra", obj.n, 0, 0, obj.dim)
        entries = [
            _entry_json(tuple((SPACE_TAG, j) for j in key), target, coeff)
            for key, target, coeff in obj.entries()
        ]
    elif isinstance(obj, ModuleOverAlgebra):
        action = obj.action
        header = (
            "module-over-algebra",
            action.n,
            action.k,
            action.module_dim,
            action.space_dim,
        )
        merged = [(p, t, c) for p, t, c in support(action)]
        merged.extend(
            (tuple((SPACE_TAG, j) for j in key), target, coeff)
            for key, target, coeff in obj.algebra.entries()
        )
        merged.sort(key=lambda item: item[0])
        entries = [_entry_json(p, t, c) for p, t, c in merged]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    kind, n, k, module_dim, space_dim = header
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "n": n,
        "k": k,
        "module_dim": module_dim,
        "space_dim": space_dim,
        "entries": entries,
    }


def dumps_document(obj) -> str:
    """Canonical JSON text for a structure, algebra, or pair.

    Header fields come in a fixed order and every entry sits on its own
    line, so equal objects always serialize to identical bytes.
    """
    doc = _document_for(obj)
    lines = ["{"]
    for name in ("format_version", "kind", "n", "k", "module_dim", "space_dim"):
        lines.append(f'  "{name}": {json.dumps(doc[name])},')
    if doc["entries"]:
        lines.append('  "entries": [')
        lines.append(
            ",\n".join(
                "    " + json.dumps(entry, separators=(", ", ": "))
                for entry in doc["entries"]
            )
        )
        lines.append("  ]")
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
