"""A seeded corpus of hostile documents through the CLI and the reader.

About a thousand documents, each a mutation of a fixture or of a seeded
generator's output: odd values in headers, slots, targets and
coefficients, duplicates (in pairs also behind algebra entries), broken
shapes, truncated or deeply nested text, and large arities with no
entries.  Every document must give a clean exit code, a one-line error
on exit 2, the same from ``decompose`` when ``validate`` rejects it, a
usable answer once it validates (a pairing report for a pair), and a
byte-stable write.  Library-built pairs get the same odd values: each
either raises ValidationError or ArityMismatch or pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction

from modbasis import (
    ArityMismatch,
    KModuleStructure,
    ModuleOverAlgebra,
    NAryAlgebra,
    PairingReport,
    ValidationError,
    dumps_document,
    pairing,
    read_document,
    validate,
    validate_algebra,
    write_document,
)
from modbasis.cli import cli_main

from conftest import make_e1, make_e1_one_way, make_e2, make_e3, make_e4
from helpers import corpus_spec, random_algebra, random_pair
from modbasis import random_structure

SEED = 20_171
DOCUMENTS = 1000
HUGE = int("9" * 4000)
# Integers, inside and outside the ranges of headers and indices, and
# values of other types or strings that are no coefficient.
INTS = (-1, 0, 1, 2, 3, 7, 10**50, -(10**50), HUGE, -HUGE)
ODD = (2.7, True, False, "3", "0", "0/5", "1/0", "-0", "", "x" * 500, 1.0,
       float("inf"), None, [1], [[1]], {"m": 0})
HEADER = ("format_version", "kind", "n", "k", "module_dim", "space_dim", "entries")
# decompose prints every module index, and check --minimal costs one step
# per index, so they run where that count is small; the read, validate and
# the round trip run on every document.
QUERY_DIM = 10**4


def _sources() -> list:
    pair = make_e4()
    objs = [make_e1(), make_e1_one_way(), make_e2(), make_e3(), pair, pair.algebra]
    objs += [random_structure(corpus_spec(index)) for index in range(12)]
    objs += [random_pair(index) for index in range(6)]
    objs += [random_algebra(seed, 2, 3, Fraction(1, 2)) for seed in range(3)]
    return [json.loads(dumps_document(obj)) for obj in objs]


def _odd(rng):
    return rng.choice(INTS if rng.random() < 0.5 else ODD)


def _well_formed(entries) -> list:
    return [entry for entry in entries
            if isinstance(entry, dict) and isinstance(entry.get("slots"), list)]


def _mutate_entry(rng, entry: dict) -> None:
    part = rng.choice(("slot-index", "slot-tag", "slots", "target", "coeff", "key"))
    slots = entry["slots"]
    single = [slot for slot in slots if isinstance(slot, dict) and len(slot) == 1]
    if part == "slot-index" and single:
        slot = rng.choice(single)
        (tag,) = slot
        slot[tag] = _odd(rng)
    elif part == "slot-tag" and single:
        slot = rng.choice(single)
        ((tag, value),) = slot.items()
        slots[slots.index(slot)] = rng.choice(
            ({"q": value}, {"m": value, "s": value}, {}, {"x" * 400: value}, _odd(rng))
        )
    elif part == "slots":
        if slots and rng.random() < 0.5:
            slots.pop(rng.randrange(len(slots)))
        else:
            slots.append(rng.choice(({"m": 0}, {"s": 0})))
    elif part == "key":
        name = rng.choice(("slots", "target", "coeff"))
        if rng.random() < 0.5:
            entry.pop(name, None)
        else:
            entry[name] = _odd(rng)
    else:
        entry["coeff" if part == "coeff" else "target"] = _odd(rng)


def _mutate(rng, doc: dict):
    """One mutation of ``doc`` in place; returns replacement text or None."""
    entries = doc["entries"]
    usable = _well_formed(entries)
    action = [entry for entry in usable
              if any(isinstance(slot, dict) and "m" in slot for slot in entry["slots"])]
    choice = rng.randrange(10)
    if choice == 0:
        doc[rng.choice(HEADER)] = _odd(rng)
    elif choice in (1, 2, 3) and usable:
        _mutate_entry(rng, rng.choice(usable))
    elif choice in (4, 5) and usable:
        copy = json.loads(json.dumps(rng.choice(action or usable)))
        if rng.random() < 0.5:
            copy["target"] = rng.randrange(3)
        # Anywhere in the list: in a pair, also behind algebra entries; and
        # at times ahead of a broken entry, whose message then names it.
        entries.insert(rng.randrange(len(entries)), copy)
        if rng.random() < 0.5 and isinstance(entries[-1], dict):
            entries[-1]["target"] = rng.choice(INTS)
    elif choice == 6:
        doc["n"] = rng.choice((10**3, 10**4, 10**5))
        doc["k"] = rng.choice((1, 2, doc["n"] - 1, doc["n"]))
        doc["space_dim"] = rng.randrange(4)
        doc["entries"] = []
    elif choice == 7:
        rng.shuffle(entries)
        if entries:
            entries[rng.randrange(len(entries))] = _odd(rng)
    elif choice == 8:
        text = json.dumps(doc)
        if rng.random() < 0.5:
            return text[: rng.randrange(len(text))]
        depth = rng.choice((50, 5000, 100_000))
        return text.replace('"entries": [', '"entries": [' + "[" * depth, 1)
    else:
        doc.pop(rng.choice(HEADER), None)
    return None


def _draw(rng, source: dict) -> tuple:
    """A copy of ``source`` after one to three mutations, and its text."""
    doc = json.loads(json.dumps(source))
    text = None
    for _ in range(rng.choice((1, 1, 2, 3))):
        if not isinstance(doc.get("entries"), list):
            break
        text = _mutate(rng, doc)
        if text is not None:
            break
    return doc, json.dumps(doc) if text is None else text


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _misplaced(out: str, slots: list) -> list:
    """Messages of a k-module document that do not name the first entry of
    their placement (or, for a duplicate, that entry and a later one)."""
    wrong = []
    for line in out.splitlines():
        match = re.fullmatch(r"invalid: entry (\d+): (duplicate of entry (\d+))?.*", line)
        if match is None:
            continue
        position, _, first = match.groups()
        expected = position if first is None else first
        if slots.index(slots[int(position)]) != int(expected) or first == position:
            wrong.append(f"misplaced: {line[:200]}")
    return wrong


def _one_short_line(out: str, err: str) -> bool:
    """The promise of exit 2: nothing on stdout, one line under 300 bytes
    on stderr."""
    return not out and err.count("\n") == 1 and len(err.encode()) < 300


def _check(path, doc) -> tuple:
    """validate's exit code, and every broken promise for one document."""
    problems = []
    code, out, err = _run(["validate", str(path)])
    if code not in (0, 1, 2):
        problems.append(f"validate exit {code}")
    if code == 2 and not _one_short_line(out, err):
        problems.append(f"exit 2 output {err[:200]!r}")
    if any(len(line.encode()) >= 300 for line in out.splitlines()):
        problems.append("validate printed a line of 300 bytes or more")
    if code == 1:
        # The violations that validate lists one per line, a structure
        # command reports on its one error line.
        decompose = _run(["decompose", str(path)])
        if decompose[0] != 2 or not _one_short_line(*decompose[1:]):
            problems.append(f"decompose exit {decompose[0]}: {decompose[2][:200]!r}")
    if code == 1 and doc["kind"] == "k-module":
        problems += _misplaced(out, [entry["slots"] for entry in doc["entries"]])
    if code != 0:
        return code, problems
    obj = read_document(path)
    text = dumps_document(obj)
    # A new file: rewriting one whose data has reached the disk can wait on
    # that data, tens of milliseconds a document on ext4.
    path = path.with_name(f"{path.stem}-written.json")
    write_document(obj, path)
    again = read_document(path)
    if again != obj or dumps_document(again) != text:
        problems.append("write-read-write changed the document")
    if doc.get("kind") == "k-module" and obj.module_dim <= QUERY_DIM:
        decompose = _run(["decompose", str(path)])
        minimal = _run(["check", str(path), "--minimal"])
        if decompose[0] != 0 or minimal[0] not in (0, 1):
            problems.append(f"decompose {decompose[::2]}, check {minimal[::2]}")
    if doc.get("kind") == "module-over-algebra" and (
        obj.action.module_dim + obj.algebra.dim <= QUERY_DIM
    ):
        if not isinstance(pairing(obj), PairingReport):
            problems.append("pairing returned no report")
    return code, problems


def test_hostile_corpus(tmp_path):
    rng = random.Random(SEED)
    sources = _sources()
    failures, codes = [], set()
    for number in range(DOCUMENTS):
        doc, text = _draw(rng, sources[number % len(sources)])
        path = tmp_path / f"doc{number}.json"
        path.write_text(text)
        try:
            code, problems = _check(path, doc)
        except Exception as exc:  # neither the CLI, a write nor pairing may raise
            code, problems = None, [f"raised {type(exc).__name__}: {str(exc)[:200]}"]
        codes.add(code)
        if problems:
            failures.append((number, problems))
    assert not failures, failures[:5]
    assert codes == {0, 1, 2}  # the corpus reaches every outcome


def _hashable_odd(rng):
    while True:
        value = _odd(rng)
        try:
            hash(value)
        except TypeError:
            continue
        return value


def _fraction_or_none(value):
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None


# The odd values that the table constructors turn into a coefficient.
COEFFS = tuple(value for value in INTS + ODD if _fraction_or_none(value) is not None)


def _mutate_tables(rng, pair) -> ModuleOverAlgebra:
    """``pair`` with one to three odd keys, targets, coefficients or shapes."""
    algebra, action = pair.algebra, pair.action
    n, k, module_dim, dim = action.n, action.k, action.module_dim, algebra.dim
    products, entries = dict(algebra.table), dict(action.table)
    for _ in range(rng.choice((1, 1, 2, 3))):
        part = rng.choice(("key", "target", "coeff", "arity", "tag", "header"))
        table = products if rng.random() < 0.5 else entries
        if part == "header":
            n, k, dim = rng.choice(((n + 1, k, dim), (n, k + 1, dim), (n, k, dim + 1)))
            continue
        if not table:
            continue
        key = rng.choice(list(table))
        target, coeff = table.pop(key)
        if part == "key":
            position = rng.randrange(len(key))
            value = _hashable_odd(rng)
            if table is entries:
                value = (key[position][0], value)
            key = key[:position] + (value,) + key[position + 1:]
        elif part == "target":
            target = _odd(rng)
        elif part == "coeff":
            coeff = rng.choice(COEFFS)
        elif part == "arity":
            key = key[:-1] if len(key) > 1 and rng.random() < 0.5 else key + key[:1]
        elif table is entries:  # "tag": only action slots carry one
            position = rng.randrange(len(key))
            slot = (_hashable_odd(rng), key[position][1])
            key = key[:position] + (slot,) + key[position + 1:]
        table[key] = (target, coeff)
    space_dim = dim if rng.random() < 0.8 else dim + 1
    return ModuleOverAlgebra(NAryAlgebra(n, dim, products),
                             KModuleStructure(n, k, module_dim, space_dim, entries))


def test_hostile_library_pairs():
    rng = random.Random(SEED)
    sources = [make_e4()] + [random_pair(index) for index in range(6)]
    outcomes, failures = set(), []
    for number in range(2000):
        pair = _mutate_tables(rng, sources[number % len(sources)])
        fits = (pair.algebra.n == pair.action.n
                and pair.algebra.dim == pair.action.space_dim)
        judged = fits and bool(validate_algebra(pair.algebra) or validate(pair.action))
        try:
            pairing(pair)
            outcome = "paired"
        except (ValidationError, ArityMismatch) as exc:
            outcome = type(exc).__name__
        except Exception as exc:  # pairing raises nothing else
            outcome = f"{type(exc).__name__}: {str(exc)[:200]}"
        outcomes.add(outcome)
        expected = ("ArityMismatch" if not fits
                    else "ValidationError" if judged else "paired")
        if outcome != expected:
            failures.append((number, expected, outcome))
    assert not failures, failures[:5]
    assert outcomes == {"paired", "ValidationError", "ArityMismatch"}
