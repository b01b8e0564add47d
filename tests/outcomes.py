"""Print how ``read_document`` treats a seeded run of hostile documents.

    PYTHONPATH=src python tests/outcomes.py SEED COUNT > outcomes.txt

The documents are those of ``test_hostile``: the same sources, drawn and
mutated the same way, from ``random.Random(SEED)``.  Each line is the
document number, then either ``ok`` and the sha256 of ``dumps_document``
of what was read, or the exception's class and message, with the file's
path written as ``<doc>``.  Run it on two checkouts with the same
arguments and compare the files: equal output means both read every
document to the same bytes or fail with the same message.  pytest does
not collect this file.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from modbasis import dumps_document, read_document

from test_hostile import _draw, _sources


def outcome(path: Path) -> str:
    try:
        text = dumps_document(read_document(path))
    except Exception as exc:
        message = str(exc).replace(str(path), "<doc>")
        return f"{type(exc).__name__}: {message}"
    return f"ok {hashlib.sha256(text.encode()).hexdigest()}"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: outcomes.py SEED COUNT", file=sys.stderr)
        return 2
    seed, count = int(argv[0]), int(argv[1])
    rng = random.Random(seed)
    sources = _sources()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.json"
        for number in range(count):
            _, text = _draw(rng, sources[number % len(sources)])
            path.write_text(text)
            print(number, outcome(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
