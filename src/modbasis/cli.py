"""Command-line interface.

Subcommands: validate, decompose, connect, check, semidirect, generate,
oracle.  Exit codes: 0 for success or a true answer, 1 for a false
answer or reported violations, 2 for usage and input errors.

A command runs with cyclic garbage collection paused, from the read
through the printed answer or error, and the collector is then left on
or off as it was found.  A command reads one document, builds its
indices and returns: the hundreds of thousands of objects it allocates
stay live until it ends, and what it drops is freed by reference
counting, so collections during it would only rescan live data (about
a sixth of a ``connect`` on a 10^5-entry document).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .connections import components, components_oracle, find_connection
from .core import KModuleStructure, NAryAlgebra
from .decomposition import decompose
from .errors import (
    ArityMismatch,
    BudgetError,
    DimensionError,
    DocumentError,
    ValidationError,
    echo,
)
from .generators import GenSpec, random_structure
from .io import export_dot, gc_paused, read_document, write_document
from .minimality import (
    check_minimality_equivalence,
    is_minimal,
    is_mu_multiplicative,
)
from .semidirect import ModuleOverAlgebra, pairing


def _load_structure(path) -> KModuleStructure:
    obj = read_document(path)
    if not isinstance(obj, KModuleStructure):
        raise DimensionError(f"{path}: expected a k-module document")
    return obj


def _cmd_validate(args) -> int:
    try:
        read_document(args.file)
    except ValidationError as exc:
        for line in exc.violations:
            print(f"invalid: {line}")
        return 1
    print("valid")
    return 0


def _component_payload(structure: KModuleStructure) -> list[dict]:
    return [
        {"representative": piece.representative, "members": list(piece.inherited_basis)}
        for piece in decompose(structure)
    ]


def _cmd_decompose(args) -> int:
    structure = _load_structure(args.file)
    payload = _component_payload(structure)
    if args.json:
        print(json.dumps({"components": payload}, indent=2))
    elif args.dot:
        text = export_dot(structure, components(structure))
        Path(args.dot).write_text(text, encoding="utf-8")
        print(f"wrote {args.dot}")
    else:
        print(f"components: {len(payload)}")
        for piece in payload:
            members = " ".join(str(i) for i in piece["members"])
            print(f"  [{piece['representative']}]: {members}")
    return 0


def _cmd_connect(args) -> int:
    structure = _load_structure(args.file)
    connection = find_connection(structure, args.source, args.dest)
    if connection is None:
        print("not connected")
        return 1
    if not connection.steps:
        print(f"{args.source} is connected to itself (empty chain)")
        return 0
    print(f"connection {args.source} -> {args.dest} ({len(connection.steps)} steps)")
    for number, step in enumerate(connection.steps, start=1):
        modules = ",".join(str(i) for i in step.module_args)
        spaces = ",".join(str(j) for j in step.space_args)
        print(f"  {number}. {step.direction} modules=({modules}) spaces=({spaces})")
    return 0


def _cmd_check(args) -> int:
    structure = _load_structure(args.file)
    if args.minimal:
        answer = is_minimal(structure)
        print("true" if answer else "false")
        return 0 if answer else 1
    if args.mu:
        answer, missing = is_mu_multiplicative(structure)
        print("true" if answer else "false")
        for a, b in missing:
            print(f"  missing reverse edge ({a}, {b})")
        return 0 if answer else 1
    report = check_minimality_equivalence(structure)
    if report.hypothesis_met:
        print(
            f"agreement: minimal={str(report.minimal).lower()} "
            f"components={report.component_count}"
        )
        return 0
    print("hypothesis not met: the edge relation is not symmetric")
    print(
        f"  raw values: minimal={str(report.minimal).lower()} "
        f"components={report.component_count}"
    )
    return 1


def _cmd_semidirect(args) -> int:
    algebra = read_document(args.algebra)
    if not isinstance(algebra, NAryAlgebra):
        raise DimensionError(f"{args.algebra}: expected an n-ary-algebra document")
    action = read_document(args.action)
    if not isinstance(action, KModuleStructure):
        raise DimensionError(f"{args.action}: expected a k-module document")
    report = pairing(ModuleOverAlgebra(algebra, action))
    by_rep = {piece.representative: piece for piece in report.components}
    # Module vectors are numbered first, so each class's first label is its rep's.
    labels = [
        [f"v{i}" for i in piece.v_part] + [f"e{j}" for j in piece.a_part]
        for piece in report.components
    ]
    payload = {
        "module_dim": action.module_dim,
        "algebra_dim": algebra.dim,
        "components": [
            {
                "representative": members[0],
                "members": members,
                "module_part": list(piece.v_part),
                "algebra_part": list(piece.a_part),
            }
            for piece, members in zip(report.components, labels)
        ],
        # A paired class can contain both module and algebra vectors, so
        # name each side by its own smallest member, not the shared rep.
        "pairing": [
            {
                "module_class": f"v{min(by_rep[alpha].v_part)}",
                "algebra_class": f"e{min(by_rep[beta].a_part)}",
            }
            for alpha, beta in sorted(report.f.items())
        ],
        "violations": list(report.violations),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"combined structure: {action.module_dim} module + "
            f"{algebra.dim} algebra basis vectors"
        )
        print("components:")
        for piece in payload["components"]:
            print(f"  [{piece['representative']}]: {' '.join(piece['members'])}")
        print("pairing:")
        for item in payload["pairing"]:
            print(f"  {item['module_class']} -> {item['algebra_class']}")
        if payload["violations"]:
            print("violations:")
            for line in payload["violations"]:
                print(f"  {line}")
        else:
            print("violations: none")
    return 1 if report.violations else 0


def _density(text: str) -> Fraction:
    """``--density`` as a Fraction.  ``Fraction`` expands a decimal exponent
    into an exact power of ten, so the exponent is bounded first, at 4300
    as coefficients are bounded at 4300 digits."""
    _, mark, exponent = text.lower().rpartition("e")
    try:
        if not mark or abs(int(exponent)) <= 4300:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"density must be a number, got {echo(text)}")
    raise ValueError(f"density exponent must lie in -4300..4300, got {echo(text)}")


def _cmd_generate(args) -> int:
    density = _density(args.density)
    spec = GenSpec(args.seed, args.n, args.k, args.dim_i, args.dim_j, density)
    structure = random_structure(spec)
    write_document(structure, args.output)
    print(f"wrote {args.output} ({len(structure.table)} entries)")
    return 0


def _cmd_oracle(args) -> int:
    structure = _load_structure(args.file)
    depth = args.max_depth
    if depth is None:
        depth = max(1, 2 * structure.module_dim)
    fast = components(structure)
    slow = components_oracle(structure, depth)
    if fast == slow:
        print(f"partitions agree ({len(fast.classes())} classes)")
        return 0
    print("partitions differ")
    print(f"  fast:  {fast!r}")
    print(f"  chain: {slow!r}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modbasis",
        description="Component decomposition of product tables with "
        "multiplicative bases.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("validate", help="check a document's invariants")
    cmd.add_argument("file")
    cmd.set_defaults(func=_cmd_validate)

    cmd = commands.add_parser("decompose", help="list component submodules")
    cmd.add_argument("file")
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable output")
    group.add_argument("--dot", metavar="OUT", help="write a DOT graph to OUT")
    cmd.set_defaults(func=_cmd_decompose)

    cmd = commands.add_parser("connect", help="find a witness chain between indices")
    cmd.add_argument("file")
    cmd.add_argument("--from", dest="source", type=int, required=True)
    cmd.add_argument("--to", dest="dest", type=int, required=True)
    cmd.set_defaults(func=_cmd_connect)

    cmd = commands.add_parser("check", help="test a structural property")
    cmd.add_argument("file")
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--minimal", action="store_true")
    group.add_argument("--mu", action="store_true")
    group.add_argument(
        "--equivalence",
        action="store_true",
        help="cross-check minimality against connectedness",
    )
    cmd.set_defaults(func=_cmd_check)

    cmd = commands.add_parser(
        "semidirect", help="combine an algebra with an action and pair the classes"
    )
    cmd.add_argument("--algebra", required=True)
    cmd.add_argument("--action", required=True)
    cmd.add_argument("--json", action="store_true", help="machine-readable output")
    cmd.set_defaults(func=_cmd_semidirect)

    cmd = commands.add_parser("generate", help="write a seeded random structure")
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--dim-i", type=int, required=True)
    cmd.add_argument("--dim-j", type=int, required=True)
    cmd.add_argument("--density", required=True)
    cmd.add_argument("-o", "--output", required=True)
    cmd.set_defaults(func=_cmd_generate)

    cmd = commands.add_parser(
        "oracle", help="cross-check components against literal chain replay"
    )
    cmd.add_argument("file")
    cmd.add_argument("--max-depth", type=int)
    cmd.set_defaults(func=_cmd_oracle)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return gc_paused(_run, args)


def _run(args) -> int:
    try:
        return args.func(args)
    except (DocumentError, OSError, BudgetError, DimensionError, ArityMismatch,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OverflowError:  # from sizing a list or range by a declared dimension
        print("error: a declared dimension is past this platform's index size", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
