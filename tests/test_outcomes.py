"""The hostile corpus's outputs, pinned.

``hostile_digests.txt`` holds ``outcomes.py --digests 1 300``: for each
of the first 300 documents of seed 1, the sha256 of the lines that
``outcomes.py --cli`` prints for it (the reader's outcome, and each
command's exit code and output digests).  A change that alters an output
on purpose regenerates the file and lists the changed documents.
"""

from __future__ import annotations

from pathlib import Path

import outcomes

DIGESTS = Path(__file__).with_name("hostile_digests.txt")


def test_hostile_outcomes_match_their_digests(tmp_path):
    expected = dict(line.split() for line in DIGESTS.read_text().splitlines())
    changed = [
        number
        for number, path, doc in outcomes.documents(1, len(expected), tmp_path)
        if outcomes.digest(outcomes.cli_lines(number, path, doc)) != expected[str(number)]
    ]
    assert not changed, f"documents whose outputs changed: {changed}"
