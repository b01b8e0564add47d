"""Document round trips, validation on read, and DOT export."""

from __future__ import annotations

import gc
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

import modbasis.io
from modbasis import (
    ComponentPartition,
    DimensionError,
    GenSpec,
    KModuleStructure,
    ModuleOverAlgebra,
    NAryAlgebra,
    ParseError,
    SchemaError,
    ValidationError,
    components,
    dumps_document,
    export_dot,
    read_document,
    write_document,
)
from modbasis import module_slot as M, space_slot as S
from modbasis.cli import cli_main

from conftest import make_e1, make_e2, make_e3, make_e4
from helpers import corpus_spec, random_pair
from modbasis import random_structure


@pytest.mark.parametrize("factory", [make_e1, make_e2, make_e3])
def test_structure_round_trip_is_byte_identical(factory, tmp_path):
    structure = factory()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    write_document(structure, first)
    loaded = read_document(first)
    assert loaded == structure
    write_document(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_pair_round_trip_is_byte_identical(tmp_path):
    pair = make_e4()
    first = tmp_path / "pair.json"
    second = tmp_path / "pair2.json"
    write_document(pair, first)
    loaded = read_document(first)
    assert isinstance(loaded, ModuleOverAlgebra)
    assert loaded == pair
    write_document(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_algebra_round_trip(tmp_path):
    algebra = NAryAlgebra(2, 2, {(0, 1): (1, Fraction(1, 2)), (1, 1): (0, -2)})
    path = tmp_path / "algebra.json"
    write_document(algebra, path)
    loaded = read_document(path)
    assert isinstance(loaded, NAryAlgebra)
    assert loaded == algebra
    again = tmp_path / "again.json"
    write_document(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_random_round_trips(tmp_path):
    for index in range(25):
        structure = random_structure(corpus_spec(index, salt=0x10))
        path = tmp_path / f"r{index}.json"
        write_document(structure, path)
        assert read_document(path) == structure
        pair = random_pair(index, salt=0x11)
        path = tmp_path / f"p{index}.json"
        write_document(pair, path)
        assert read_document(path) == pair


def test_entries_are_written_sorted(tmp_path):
    # Same table, different insertion order: identical bytes.
    a = KModuleStructure(
        2, 1, 2, 1, {(M(0), S(0)): (0, 1), (M(1), S(0)): (1, 1)}
    )
    b = KModuleStructure(
        2, 1, 2, 1, {(M(1), S(0)): (1, 1), (M(0), S(0)): (0, 1)}
    )
    assert dumps_document(a) == dumps_document(b)


def test_coefficients_canonicalize_on_write():
    structure = KModuleStructure(
        2, 1, 1, 1, {(M(0), S(0)): (0, Fraction(2, 4))}
    )
    assert '"coeff": "1/2"' in dumps_document(structure)
    structure = KModuleStructure(
        2, 1, 1, 1, {(M(0), S(0)): (0, Fraction(-6, 3))}
    )
    assert '"coeff": -2' in dumps_document(structure)


def test_read_accepts_integer_and_string_coefficients(tmp_path):
    doc = {
        "format_version": 1,
        "kind": "k-module",
        "n": 2, "k": 1, "module_dim": 2, "space_dim": 1,
        "entries": [
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": "3/6"},
            {"slots": [{"m": 1}, {"s": 0}], "target": 1, "coeff": 2},
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loaded = read_document(path)
    assert loaded.table[(M(0), S(0))] == (0, Fraction(1, 2))
    assert loaded.table[(M(1), S(0))] == (1, Fraction(2))


def test_read_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_document(path)


def _cli_validate_fails_in_one_line(path, capsys) -> bool:
    capsys.readouterr()
    code = cli_main(["validate", str(path)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return code == 2 and not captured.out and len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"format_version": 1, "kind": "k-module", "n": ' + "7" * 5000 + "}",
    ],
    ids=["nested-100000-deep", "integer-5000-digits"],
)
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_document(path)
    assert _cli_validate_fails_in_one_line(path, capsys)


def _write_doc(tmp_path, mutate):
    doc = {
        "format_version": 1,
        "kind": "k-module",
        "n": 2, "k": 1, "module_dim": 2, "space_dim": 1,
        "entries": [
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": 1},
        ],
    }
    mutate(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format_version=9),
        lambda d: d.update(kind="something"),
        lambda d: d.update(n="2"),
        lambda d: d.update(entries="nope"),
        lambda d: d["entries"].append({"slots": "x", "target": 0, "coeff": 1}),
        lambda d: d["entries"].append(
            {"slots": [{"q": 0}, {"s": 0}], "target": 0, "coeff": 1}
        ),
        lambda d: d["entries"].append(
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": 1.5}
        ),
        lambda d: d["entries"].append(
            {"slots": [{"m": 0}, {"s": 0}], "target": True, "coeff": 1}
        ),
    ],
)
def test_read_rejects_malformed_shapes(tmp_path, mutate):
    with pytest.raises(SchemaError):
        read_document(_write_doc(tmp_path, mutate))


@pytest.mark.parametrize(
    "coeff",
    ["1e5000", "1.5", "+1", "1_000", "1/0", "-3/000", " 1", "1/-2", "0x10", "\u0661",
     "", "9" * 4301, "1/" + "9" * 4301],
    ids=lambda coeff: repr(coeff) if len(coeff) < 10 else f"{len(coeff)}-chars",
)
def test_read_rejects_coefficients_outside_the_grammar(tmp_path, capsys, coeff):
    path = _write_doc(
        tmp_path,
        lambda d: d["entries"].append(
            {"slots": [{"m": 1}, {"s": 0}], "target": 1, "coeff": coeff}
        ),
    )
    with pytest.raises(SchemaError, match="^entry 1: bad coefficient"):
        read_document(path)
    assert _cli_validate_fails_in_one_line(path, capsys)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["entries"][0].update(coeff="7" * 10**6 + "x"),
        lambda d: d.update(format_version=json.loads("[" * 500 + "]" * 500)),
        lambda d: d.update(kind="k" * 10**6),
        lambda d: d["entries"][0]["slots"].append({"t" * 10**6: 0}),
    ],
    ids=["coefficient", "format_version", "kind", "slot-tag"],
)
def test_errors_echo_a_bounded_part_of_the_input(tmp_path, capsys, mutate):
    path = _write_doc(tmp_path, mutate)
    capsys.readouterr()
    assert cli_main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300


def test_coefficient_grammar_edges(tmp_path):
    def with_coeff(coeff):
        return _write_doc(tmp_path, lambda d: d["entries"][0].update(coeff=coeff))

    assert read_document(with_coeff("007/014")).table[(M(0), S(0))][1] == Fraction(1, 2)
    for zero in ("-0", "00/7"):
        with pytest.raises(ValidationError, match="stored coefficient is zero"):
            read_document(with_coeff(zero))
        algebra = tmp_path / "algebra.json"
        write_document(NAryAlgebra(1, 1, {(0,): (0, 1)}), algebra)
        algebra.write_text(algebra.read_text().replace('"coeff": 1', f'"coeff": "{zero}"'))
        with pytest.raises(ValidationError, match="^entry 0: stored coefficient is zero$"):
            read_document(algebra)
    # 4300 digits a part is the most that reads, and it writes back.
    widest = "-" + "9" * 4300 + "/" + "7" * 4300
    loaded = read_document(with_coeff(widest))
    assert loaded.table[(M(0), S(0))][1] == Fraction(widest)
    path = tmp_path / "widest.json"
    write_document(loaded, path)
    assert read_document(path) == loaded


def test_read_rejects_invariant_breaches_with_entry_index(tmp_path):
    path = _write_doc(
        tmp_path,
        lambda d: d["entries"].append(
            {"slots": [{"m": 1}, {"s": 0}], "target": 1, "coeff": "0/1"}
        ),
    )
    with pytest.raises(ValidationError) as info:
        read_document(path)
    assert any("entry 1" in line for line in info.value.violations)


def test_read_rejects_duplicate_placements(tmp_path):
    path = _write_doc(
        tmp_path,
        lambda d: d["entries"].append(
            {"slots": [{"m": 0}, {"s": 0}], "target": 1, "coeff": 1}
        ),
    )
    with pytest.raises(ValidationError) as info:
        read_document(path)
    assert any("duplicate" in line for line in info.value.violations)


def test_read_collects_every_violation(tmp_path):
    def mutate(doc):
        doc["entries"] = [
            {"slots": [{"m": 0}, {"s": 0}], "target": 9, "coeff": 1},
            {"slots": [{"m": 1}, {"s": 0}], "target": 0, "coeff": 0},
        ]

    with pytest.raises(ValidationError) as info:
        read_document(_write_doc(tmp_path, mutate))
    assert len(info.value.violations) == 2


def _write_text(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "write, error",
    [
        (lambda p: _write_doc(p, lambda d: None), None),
        (lambda p: _write_doc(p, lambda d: d["entries"][0].update(target=9)),
         ValidationError),
        (lambda p: _write_doc(p, lambda d: d["entries"][0].update(coeff=[1])),
         SchemaError),
        (lambda p: _write_text(p, "{oops"), ParseError),
    ],
    ids=["valid", "invalid", "bad-coefficient", "unreadable"],
)
def test_read_leaves_the_garbage_collector_as_it_found_it(
    tmp_path, write, error, collecting
):
    path = write(tmp_path)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if error is None:
            read_document(path)
        else:
            with pytest.raises(error):
                read_document(path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("coeff", [True, False, [1], {"a": 1}, None, 1.0],
                         ids=repr)
def test_coefficients_of_other_types_fail_after_an_equal_one_read(tmp_path, coeff):
    # True equals 1 and hashes like it, and a list cannot be a dict key:
    # a reader that looked coefficients up among earlier values before
    # testing their type would accept the one or crash on the other.
    path = _write_doc(
        tmp_path,
        lambda d: d["entries"].extend([
            {"slots": [{"m": 1}, {"s": 0}], "target": 1, "coeff": 1},
            {"slots": [{"m": 0}, {"s": 0}], "target": 1, "coeff": coeff},
        ]),
    )
    message = "entry 2: coefficient must be an integer or 'p/q' string"
    with pytest.raises(SchemaError, match=f"^{message}$"):
        read_document(path)


def test_repeated_coefficients_read_as_equal_fractions(tmp_path):
    coeffs = [1, "1/1", "2/4", "1/2", 1, "-3", -3, "1/2"]
    path = _write_doc(
        tmp_path,
        lambda d: d.update(module_dim=len(coeffs), entries=[
            {"slots": [{"m": i}, {"s": 0}], "target": 0, "coeff": c}
            for i, c in enumerate(coeffs)
        ]),
    )
    loaded = read_document(path)
    read = [loaded.table[(M(i), S(0))][1] for i in range(len(coeffs))]
    assert read == [Fraction(c) for c in coeffs]
    assert all(type(c) is Fraction for c in read)


def test_a_repeated_bad_coefficient_is_named_at_its_first_position(tmp_path):
    path = _write_doc(
        tmp_path,
        lambda d: d.update(module_dim=4, entries=[
            {"slots": [{"m": i}, {"s": 0}], "target": 0, "coeff": c}
            for i, c in enumerate(["1/2", "1/0", "1/2", "1/0"])
        ]),
    )
    with pytest.raises(SchemaError, match="^entry 1: bad coefficient '1/0'"):
        read_document(path)


def test_equal_coefficient_texts_share_one_fraction(tmp_path):
    coeffs = ["5/3", 300, "10/6", 300, "5/3", -7, "-7", -7]
    path = _write_doc(
        tmp_path,
        lambda d: d.update(module_dim=len(coeffs), entries=[
            {"slots": [{"m": i}, {"s": 0}], "target": 0, "coeff": c}
            for i, c in enumerate(coeffs)
        ]),
    )
    loaded = read_document(path)
    read = [loaded.table[(M(i), S(0))][1] for i in range(len(coeffs))]
    assert read == [Fraction(c) for c in coeffs]
    assert read[0] is read[4] and read[1] is read[3] and read[5] is read[7]
    # Equal values of distinct texts are equal, not necessarily shared.
    assert read[2] == read[0] and read[6] == read[5]


def test_equal_coefficients_of_distinct_texts_write_in_lowest_terms(tmp_path):
    path = _write_doc(
        tmp_path,
        lambda d: d.update(entries=[
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": "1/2"},
            {"slots": [{"m": 1}, {"s": 0}], "target": 0, "coeff": "2/4"},
        ]),
    )
    loaded = read_document(path)
    assert loaded.table[(M(0), S(0))] == loaded.table[(M(1), S(0))] == (0, Fraction(1, 2))
    assert dumps_document(loaded).count('"coeff": "1/2"') == 2


def test_mixed_document_messages_name_each_entry_by_position(tmp_path):
    # Algebra entries come first, so an action entry's position is not
    # its index among the action entries.
    doc = {
        "format_version": 1,
        "kind": "module-over-algebra",
        "n": 2, "k": 1, "module_dim": 2, "space_dim": 2,
        "entries": [
            {"slots": [{"s": 0}, {"s": 0}], "target": 0, "coeff": 1},
            {"slots": [{"s": 1}, {"s": 1}], "target": 1, "coeff": 1},
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": 1},
            {"slots": [{"s": 0}, {"s": 1}], "target": 5, "coeff": 1},
            {"slots": [{"m": 1}, {"s": 1}], "target": 1, "coeff": "0/3"},
            {"slots": [{"m": 0}, {"s": 0}], "target": 1, "coeff": 1},
            {"slots": [{"s": 1}, {"m": 9}], "target": 7, "coeff": 2},
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": 3},
            {"slots": [{"s": 0}, {"s": 0}], "target": 0, "coeff": 1},
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as info:
        read_document(path)
    assert list(info.value.violations) == [
        "entry 3: index outside 0..1",
        "entry 8: duplicate product",
        "entry 5: duplicate of entry 2",
        "entry 7: duplicate of entry 2",
        "entry 4: stored coefficient is zero",
        "entry 6: module index 9 outside 0..1",
        "entry 6: target 7 outside 0..1",
    ]


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_document(tmp_path / "absent.json")


def test_algebra_document_rejects_module_slots(tmp_path):
    doc = {
        "format_version": 1,
        "kind": "n-ary-algebra",
        "n": 2, "k": 0, "module_dim": 0, "space_dim": 2,
        "entries": [
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": 1},
        ],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        read_document(path)


def test_export_dot_fixture(e1):
    text = export_dot(e1, components(e1))
    assert text.startswith("graph components {")
    assert "subgraph cluster_0" in text
    assert "subgraph cluster_2" in text
    assert 'label="[0]";' in text
    assert "v0 -- v1;" in text
    assert "v2 -- v2;" in text
    # Symmetrized: one undirected edge for the 0/1 cycle.
    assert text.count("--") == 2


def test_export_dot_isolated_nodes(e3):
    text = export_dot(e3, components(e3))
    assert "--" not in text
    for index in range(3):
        assert f"v{index};" in text


def test_export_dot_single_cluster(e2):
    text = export_dot(e2, components(e2))
    assert text.count("subgraph") == 1
    assert "v0 -- v0;" in text
    assert "v0 -- v1;" in text
    assert "v1 -- v1;" in text


def test_export_dot_needs_full_cover(e1):
    with pytest.raises(DimensionError, match="^partition covers 2 indices, structure has 3$"):
        export_dot(e1, ComponentPartition([0, 0]))


@pytest.mark.parametrize("value", [-(10**40 - 1), 10**41, -(10**50)])
def test_reader_and_validate_quote_a_value_alike(tmp_path, value):
    # One rule for both: a sign and 40 digits print whole, more is cut.
    path = _write_doc(tmp_path, lambda d: d.update(format_version=value))
    with pytest.raises(SchemaError) as schema:
        read_document(path)
    path = _write_doc(tmp_path, lambda d: d["entries"][0].update(target=value))
    with pytest.raises(ValidationError) as invalid:
        read_document(path)
    shown = str(schema.value).removeprefix("unsupported format_version ")
    assert invalid.value.violations == (f"entry 0: target {shown} outside 0..1",)
    assert (shown == repr(value)) == (len(repr(value)) <= 41)


def _read_peaks(path, text):
    """tracemalloc peaks of ``json.loads(text)`` and of reading ``path``,
    and what the read returned or raised."""
    tracemalloc.start()
    try:
        json.loads(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        try:
            result = read_document(path)
        except ValidationError as exc:
            result = exc
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return parse_peak, read_peak, result


def test_read_peak_memory_stays_near_the_parse(tmp_path):
    # The decode loop drops each raw entry once it is decoded, so the table
    # grows while the JSON tree shrinks; holding both costs about 1.7x.
    # A duplicate of the first entry, appended, takes the error path, which
    # names positions without parsing the text again.
    spec = GenSpec(seed=7, n=2, k=1, module_dim=200, space_dim=100,
                   density=Fraction(1, 2))
    text = dumps_document(random_structure(spec))
    path = tmp_path / "large.json"
    path.write_text(text)
    parse_peak, read_peak, structure = _read_peaks(path, text)
    assert len(structure.table) > 19_000
    assert read_peak <= 1.2 * parse_peak

    doc = json.loads(text)
    doc["entries"].append(doc["entries"][0])
    text = json.dumps(doc)
    path.write_text(text)
    parse_peak, read_peak, error = _read_peaks(path, text)
    last = len(doc["entries"]) - 1
    assert isinstance(error, ValidationError)
    assert error.violations == (f"entry {last}: duplicate of entry 0",)
    assert read_peak <= 1.2 * parse_peak


def _count_parses(monkeypatch) -> list:
    calls = []

    def loads(text):
        calls.append(len(text))
        return json.loads(text)

    proxy = SimpleNamespace(loads=loads, dumps=json.dumps)
    monkeypatch.setattr(modbasis.io, "json", proxy)
    return calls


@pytest.mark.parametrize("obj", [make_e1(), make_e2(), make_e4(), make_e4().algebra],
                         ids=["e1", "e2", "pair", "algebra"])
def test_a_clean_read_parses_once(tmp_path, monkeypatch, obj):
    path = tmp_path / "doc.json"
    write_document(obj, path)
    calls = _count_parses(monkeypatch)
    assert read_document(path) == obj
    assert len(calls) == 1


def _entries_doc(tmp_path, kind, module_dim, space_dim, rows):
    doc = {
        "format_version": 1, "kind": kind,
        "n": 2, "k": 1, "module_dim": module_dim, "space_dim": space_dim,
        "entries": [
            {"slots": [{tag: index} for tag, index in slots], "target": target,
             "coeff": 1}
            for slots, target in rows
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def test_k_module_messages_name_first_positions_of_late_entries(tmp_path, monkeypatch):
    path = _entries_doc(tmp_path, "k-module", 4, 1, [
        ((M(0), S(0)), 0),
        ((M(1), S(0)), 1),
        ((M(2), S(0)), 2),
        ((M(3), S(0)), 9),
        ((M(1), S(0)), 0),
        ((M(3), S(0)), 3),
    ])
    calls = _count_parses(monkeypatch)
    with pytest.raises(ValidationError) as info:
        read_document(path)
    assert list(info.value.violations) == [
        "entry 4: duplicate of entry 1",
        "entry 5: duplicate of entry 3",
        "entry 3: target 9 outside 0..3",
    ]
    assert len(calls) == 1


def test_pair_messages_name_first_positions_behind_algebra_entries(tmp_path):
    path = _entries_doc(tmp_path, "module-over-algebra", 2, 2, [
        ((S(0), S(0)), 0),
        ((S(1), S(1)), 1),
        ((S(0), S(1)), 1),
        ((M(0), S(0)), 0),
        ((M(1), S(1)), 1),
        ((M(1), S(0)), 7),
        ((M(0), S(0)), 1),
        ((M(1), S(0)), 0),
    ])
    with pytest.raises(ValidationError) as info:
        read_document(path)
    assert list(info.value.violations) == [
        "entry 6: duplicate of entry 3",
        "entry 7: duplicate of entry 5",
        "entry 5: target 7 outside 0..1",
    ]
