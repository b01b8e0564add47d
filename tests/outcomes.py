"""Print how ``read_document`` and the CLI treat a seeded run of hostile documents.

    PYTHONPATH=src python tests/outcomes.py [--cli] SEED COUNT > outcomes.txt

The documents are those of ``test_hostile``: the same sources, drawn and
mutated the same way, from ``random.Random(SEED)``.  Each line is the
document number, then either ``ok`` and the sha256 of ``dumps_document``
of what was read, or the exception's class and message, with the file's
path written as ``<doc>``.  With ``--cli``, each document also gets a
line per command run through ``cli_main``: the command, its exit code,
and the sha256 of its stdout and of its stderr (the path again written
as ``<doc>``, and the DOT file's as ``<dot>``); ``decompose --dot`` also
gets the sha256 of the file it wrote, or ``-`` when it wrote none.  The
commands are ``validate``, and ``decompose --json``,
``check --equivalence``, ``decompose`` and ``decompose --dot`` unless
the document declares a ``module_dim`` above ``test_hostile``'s limit
of 10^4, past which they cost time in proportion to that dimension.
Run it on two checkouts with
the same arguments and compare the files: equal output means both read
every document to the same bytes or fail with the same message, and
print the same bytes with the same exit codes.  pytest does not collect
this file.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from modbasis import dumps_document, read_document

from test_hostile import QUERY_DIM, _draw, _run, _sources


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(path: Path) -> str:
    try:
        text = dumps_document(read_document(path))
    except Exception as exc:
        message = str(exc).replace(str(path), "<doc>")
        return f"{type(exc).__name__}: {message}"
    return f"ok {_sha(text)}"


def cli_outcomes(path: Path, doc: dict) -> list[str]:
    """One line per command: the command, its exit code, the sha256 of its
    stdout and stderr, and for ``--dot`` that of the file it wrote."""
    dot = path.with_name("doc.dot")
    commands = [["validate"]]
    module_dim = doc.get("module_dim")
    if not (type(module_dim) is int and module_dim > QUERY_DIM):
        commands += [["decompose", "--json"], ["check", "--equivalence"],
                     ["decompose"], ["decompose", "--dot", "<dot>"]]
    lines = []
    for command in commands:
        dot.unlink(missing_ok=True)
        argv = [str(dot) if arg == "<dot>" else arg for arg in command]
        code, out, err = _run([argv[0], str(path), *argv[1:]])
        digests = [_sha(text.replace(str(dot), "<dot>").replace(str(path), "<doc>"))
                   for text in (out, err)]
        if "--dot" in command:
            digests.append(_sha(dot.read_text()) if dot.exists() else "-")
        lines.append(" ".join([*command, str(code), *digests]))
    return lines


def main(argv) -> int:
    cli = argv[:1] == ["--cli"]
    if cli:
        argv = argv[1:]
    if len(argv) != 2:
        print("usage: outcomes.py [--cli] SEED COUNT", file=sys.stderr)
        return 2
    seed, count = int(argv[0]), int(argv[1])
    rng = random.Random(seed)
    sources = _sources()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.json"
        for number in range(count):
            doc, text = _draw(rng, sources[number % len(sources)])
            path.write_text(text)
            print(number, outcome(path))
            if cli:
                for line in cli_outcomes(path, doc):
                    print(number, line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
