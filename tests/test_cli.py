"""Command-line behavior: output, exit codes, error paths."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modbasis
from modbasis import cli, read_document, write_document
from modbasis.cli import cli_main

from conftest import make_e1, make_e1_one_way, make_e2, make_e3, make_e4


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    write_document(make_e1(), path)
    return str(path)


@pytest.fixture
def e2_path(tmp_path):
    path = tmp_path / "e2.json"
    write_document(make_e2(), path)
    return str(path)


@pytest.fixture
def e4_paths(tmp_path):
    pair = make_e4()
    algebra = tmp_path / "algebra.json"
    action = tmp_path / "action.json"
    write_document(pair.algebra, algebra)
    write_document(pair.action, action)
    return str(algebra), str(action)


def test_validate_ok(e1_path, capsys):
    assert cli_main(["validate", e1_path]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_reports_violations(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "kind": "k-module",
        "n": 2, "k": 1, "module_dim": 2, "space_dim": 1,
        "entries": [
            {"slots": [{"m": 0}, {"s": 0}], "target": 0, "coeff": "0/1"},
            {"slots": [{"m": 1}, {"s": 0}], "target": 7, "coeff": 1},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("invalid:") == 2


def _write_huge(path, field, digits):
    huge = "9" * digits
    index, target = (huge, 0) if field == "index" else (0, huge)
    path.write_text(
        '{"format_version": 1, "kind": "k-module", "n": 2, "k": 1, "module_dim": 2,'
        f' "space_dim": 1, "entries": [{{"slots": [{{"m": {index}}}, {{"s": 0}}],'
        f' "target": {target}, "coeff": 1}}]}}'
    )
    return str(path)


@pytest.mark.parametrize("field", ["index", "target"])
def test_validate_echoes_a_bounded_part_of_a_huge_index(tmp_path, capsys, field):
    # 4300 digits is the most that parses: the document reads, and
    # validate reports the value.
    assert cli_main(["validate", _write_huge(tmp_path / "doc.json", field, 4300)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid: entry 0: ")
    assert len(lines[0].encode()) < 300 and not captured.err
    # One digit more is unreadable JSON: exit 2 and one short error line.
    assert cli_main(["validate", _write_huge(tmp_path / "doc.json", field, 4301)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and len(captured.err.encode()) < 300


def test_validate_echoes_a_bounded_part_of_a_huge_dimension(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"format_version": 1, "kind": "k-module", "n": 2, "k": 1,'
        f' "module_dim": {"9" * 4300}, "space_dim": 1, "entries":'
        ' [{"slots": [{"m": -1}, {"s": 0}], "target": 0, "coeff": 1}]}'
    )
    assert cli_main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid: entry 0: module index -1")
    assert len(lines[0].encode()) < 300 and not captured.err


_HUGE = "9" * 4000


def _header_doc(path, n, k, kind="k-module", slots=("m", "s")):
    path.write_text(
        f'{{"format_version": 1, "kind": "{kind}", "n": {n}, "k": {k},'
        ' "module_dim": 2, "space_dim": 2, "entries": [{"slots": ['
        + ", ".join(f'{{"{tag}": 0}}' for tag in slots)
        + '], "target": 0, "coeff": 1}]}'
    )
    return str(path)


def _semidirect_argv(path):
    algebra = path.with_name("algebra.json")
    write_document(make_e4().algebra, algebra)
    path.write_text(
        f'{{"format_version": 1, "kind": "k-module", "n": {_HUGE}, "k": 1,'
        ' "module_dim": 2, "space_dim": 2, "entries": []}'
    )
    return ["semidirect", "--algebra", str(algebra), "--action", str(path)]


@pytest.mark.parametrize("argv, code", [
    (lambda p: ["validate", _header_doc(p, f"-{_HUGE}", _HUGE)], 1),
    (lambda p: ["validate", _header_doc(p, _HUGE, 1)], 1),
    (lambda p: ["validate", _header_doc(p, 2, _HUGE)], 1),
    (lambda p: ["validate", _header_doc(p, _HUGE, 1, "module-over-algebra",
                                        ("s", "s"))], 1),
    (_semidirect_argv, 2),
    (lambda p: ["connect", _header_doc(p, 2, 1), "--from", _HUGE, "--to", "0"], 2),
    (lambda p: ["oracle", _header_doc(p, 2, 1), "--max-depth", f"-{_HUGE}"], 2),
    (lambda p: ["generate", "--seed", "0", "--n", f"-{_HUGE}", "--k", "1",
                "--dim-i", "1", "--dim-j", "1", "--density", "0", "-o", str(p)], 2),
    (lambda p: ["generate", "--seed", "0", "--n", "2", "--k", _HUGE,
                "--dim-i", "1", "--dim-j", "1", "--density", "0", "-o", str(p)], 2),
    (lambda p: ["generate", "--seed", "0", "--n", "2", "--k", "1", "--dim-i", "1",
                "--dim-j", "1", "--density", f"x{_HUGE}", "-o", str(p)], 2),
    (lambda p: ["generate", "--seed", "0", "--n", "2", "--k", "1", "--dim-i", "1",
                "--dim-j", "1", "--density", f"-{_HUGE}", "-o", str(p)], 2),
    (lambda p: ["generate", "--seed", "0", "--n", "2", "--k", "1", "--dim-i", "1",
                "--dim-j", "1", "--density", f"{_HUGE}/7", "-o", str(p)], 2),
    (lambda p: ["generate", "--seed", "0", "--n", "2", "--k", "1", "--dim-i", "1",
                "--dim-j", "1", "--density", "3/0", "-o", str(p)], 2),
], ids=["validate-n-and-k", "validate-length", "validate-k", "validate-algebra-arity",
        "semidirect-arity", "connect-from", "oracle-depth", "generate-n", "generate-k",
        "generate-density-text", "generate-density-low", "generate-density-high",
        "generate-density-zero-denominator"])
def test_every_echoed_value_is_bounded(tmp_path, capsys, argv, code):
    assert cli_main(argv(tmp_path / "doc.json")) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines and all(len(line.encode()) < 300 for line in lines)
    if code == 2:
        assert not captured.out and len(lines) == 1
        assert captured.err.startswith("error: ")
    else:
        assert all(line.startswith("invalid: ") for line in lines)


@pytest.mark.parametrize("n, space_dim", [(10**5, 3), (8, 10)])
def test_structure_commands_do_not_size_the_placement_space(
    tmp_path, capsys, n, space_dim
):
    # n * space_dim**(n - 1) possible placements, past the budget, none
    # stored: nothing is enumerated, so nothing is sized or reported.
    path = tmp_path / "doc.json"
    path.write_text(
        f'{{"format_version": 1, "kind": "k-module", "n": {n}, "k": 1,'
        f' "module_dim": 1, "space_dim": {space_dim}, "entries": []}}'
    )
    for argv in (["decompose", str(path)], ["check", str(path), "--minimal"]):
        assert cli_main(argv) == 0
    assert capsys.readouterr() == ("components: 1\n  [0]: 0\ntrue\n", "")


def test_validate_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli_main(["validate", str(missing)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    assert cli_main(["validate", str(garbage)]) == 2
    assert "error:" in capsys.readouterr().err


def test_python_m_runs_the_cli(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"format_version": 2, "kind": "k-module"}))
    env = {**os.environ, "PYTHONPATH": str(Path(modbasis.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "modbasis.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    assert not result.stdout
    assert result.stderr == "error: unsupported format_version 2\n"


def test_decompose_human_output(e1_path, capsys):
    assert cli_main(["decompose", e1_path]) == 0
    out = capsys.readouterr().out
    assert "components: 2" in out
    assert "[0]: 0 1" in out
    assert "[2]: 2" in out


def test_decompose_json_output(e1_path, capsys):
    assert cli_main(["decompose", e1_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "components": [
            {"representative": 0, "members": [0, 1]},
            {"representative": 2, "members": [2]},
        ]
    }


def test_decompose_dot_output(e1_path, tmp_path, capsys):
    out_file = tmp_path / "graph.dot"
    assert cli_main(["decompose", e1_path, "--dot", str(out_file)]) == 0
    text = out_file.read_text()
    assert "v0 -- v1;" in text
    assert "v2 -- v2;" in text


def test_connect_prints_witness(e1_path, capsys):
    assert cli_main(["connect", e1_path, "--from", "0", "--to", "1"]) == 0
    out = capsys.readouterr().out
    assert "connection 0 -> 1 (1 steps)" in out
    assert "forward" in out


def test_connect_not_connected(e1_path, capsys):
    assert cli_main(["connect", e1_path, "--from", "0", "--to", "2"]) == 1
    assert "not connected" in capsys.readouterr().out


def test_connect_self(e1_path, capsys):
    assert cli_main(["connect", e1_path, "--from", "2", "--to", "2"]) == 0
    assert "itself" in capsys.readouterr().out


def test_connect_bad_index(e1_path):
    assert cli_main(["connect", e1_path, "--from", "0", "--to", "9"]) == 2


def test_check_minimal(e1_path, e2_path, capsys):
    assert cli_main(["check", e1_path, "--minimal"]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert cli_main(["check", e2_path, "--minimal"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_mu(e1_path, tmp_path, capsys):
    assert cli_main(["check", e1_path, "--mu"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    one_way = tmp_path / "one_way.json"
    write_document(make_e1_one_way(), one_way)
    assert cli_main(["check", str(one_way), "--mu"]) == 1
    out = capsys.readouterr().out
    assert "false" in out
    assert "(1, 0)" in out


def test_check_equivalence(e1_path, tmp_path, capsys):
    assert cli_main(["check", e1_path, "--equivalence"]) == 0
    assert "agreement" in capsys.readouterr().out
    one_way = tmp_path / "one_way.json"
    write_document(make_e1_one_way(), one_way)
    assert cli_main(["check", str(one_way), "--equivalence"]) == 1
    assert "hypothesis not met" in capsys.readouterr().out


def test_check_requires_exactly_one_mode(e1_path):
    assert cli_main(["check", e1_path]) == 2
    assert cli_main(["check", e1_path, "--minimal", "--mu"]) == 2


def test_semidirect_human_output(e4_paths, capsys):
    algebra, action = e4_paths
    code = cli_main(["semidirect", "--algebra", algebra, "--action", action])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 module + 2 algebra" in out
    assert "v0 -> e0" in out
    assert "v1 -> e1" in out
    assert "violations: none" in out


def test_semidirect_json_output(e4_paths, capsys):
    algebra, action = e4_paths
    code = cli_main(
        ["semidirect", "--algebra", algebra, "--action", action, "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["module_dim"] == 2
    assert payload["algebra_dim"] == 2
    assert payload["pairing"] == [
        {"module_class": "v0", "algebra_class": "e0"},
        {"module_class": "v1", "algebra_class": "e1"},
    ]
    assert payload["violations"] == []
    assert payload["components"][0]["members"] == ["v0", "e0"]


def test_semidirect_wrong_kind(e4_paths, e1_path):
    algebra, action = e4_paths
    assert cli_main(["semidirect", "--algebra", action, "--action", action]) == 2
    # Mismatched dimensions: E1's space side has dimension 1, algebra has 2.
    assert cli_main(["semidirect", "--algebra", algebra, "--action", e1_path]) == 2


def test_generate_writes_readable_document(tmp_path, capsys):
    out = tmp_path / "random.json"
    argv = [
        "generate", "--seed", "42", "--n", "2", "--k", "1",
        "--dim-i", "4", "--dim-j", "2", "--density", "0.3",
        "-o", str(out),
    ]
    assert cli_main(argv) == 0
    structure = read_document(out)
    assert structure.n == 2
    assert structure.module_dim == 4
    # Deterministic: a second run produces identical bytes.
    first = out.read_bytes()
    assert cli_main(argv) == 0
    assert out.read_bytes() == first


def test_generate_accepts_fraction_density(tmp_path):
    out = tmp_path / "random.json"
    argv = [
        "generate", "--seed", "1", "--n", "2", "--k", "2",
        "--dim-i", "3", "--dim-j", "0", "--density", "1/2",
        "-o", str(out),
    ]
    assert cli_main(argv) == 0
    assert read_document(out).space_dim == 0


@pytest.mark.parametrize("text, same_as", [
    ("0.5", "1/2"), ("1e-3", "1/1000"), ("1E+0", "1"),
])
def test_generate_density_forms(tmp_path, text, same_as):
    def generate(density, name):
        out = tmp_path / name
        assert cli_main(["generate", "--seed", "3", "--n", "3", "--k", "1",
                         "--dim-i", "6", "--dim-j", "4", "--density", density,
                         "-o", str(out)]) == 0
        return out.read_bytes()

    assert generate(text, "text.json") == generate(same_as, "fraction.json")


@pytest.mark.parametrize("text, message", [
    ("1e-10000000", "density exponent must lie in -4300..4300, got '1e-10000000'"),
    ("1e4301", "density exponent must lie in -4300..4300, got '1e4301'"),
    ("1e-" + "1" * 5000, "density must be a number, got '1e-111111111...1111111111111'"),
])
def test_generate_bounds_the_density_exponent(tmp_path, text, message):
    # Fraction would expand 1e-10000000 into an exact 10**10**7 before the
    # range check, which takes seconds; the exponent is refused first.
    env = {**os.environ, "PYTHONPATH": str(Path(modbasis.__file__).parents[1])}
    argv = [sys.executable, "-m", "modbasis.cli", "generate", "--seed", "0",
            "--n", "2", "--k", "1", "--dim-i", "2", "--dim-j", "2",
            "--density", text, "-o", str(tmp_path / "out.json")]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_oracle_agreement(e1_path, capsys):
    assert cli_main(["oracle", e1_path]) == 0
    assert "partitions agree (2 classes)" in capsys.readouterr().out
    assert cli_main(["oracle", e1_path, "--max-depth", "1"]) == 0


def test_usage_errors():
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["connect", "x.json", "--from", "0"]) == 2


def test_help_exits_zero():
    assert cli_main(["--help"]) == 0


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["validate", "{e1}"], 0),
    (["connect", "{e1}", "--from", "0", "--to", "2"], 1),
    (["validate", "{missing}"], 2),
    (["connect", "{e1}", "--from", "0"], 2),
], ids=["exit-0", "exit-1", "exit-2-error", "exit-2-usage"])
def test_cli_leaves_the_garbage_collector_as_it_found_it(
    tmp_path, e1_path, argv, code, collecting
):
    argv = [arg.format(e1=e1_path, missing=tmp_path / "missing.json") for arg in argv]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert cli_main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_a_command_runs_with_the_garbage_collector_paused(e1_path, monkeypatch):
    seen, original = [], cli.find_connection

    def find_connection(*args):
        seen.append(gc.isenabled())
        return original(*args)

    monkeypatch.setattr(cli, "find_connection", find_connection)
    assert gc.isenabled()
    assert cli_main(["connect", e1_path, "--from", "0", "--to", "1"]) == 0
    assert seen == [False] and gc.isenabled()


def _measured(tmp_path, doc: dict, argv, budget=None) -> tuple:
    """Exit code, wall seconds, and peak RSS in MB once the library is
    imported and once the command is done, of one CLI command on ``doc``,
    run in a process of its own."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(Path(modbasis.__file__).parents[1])}
    if budget is not None:
        env["MODBASIS_BUDGET"] = str(budget)
    code = ("import resource, sys\n"
            "def peak():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "from modbasis.cli import cli_main\n"
            "imported = peak()\n"
            "code = cli_main(sys.argv[1:])\n"
            "print(imported, peak(), file=sys.stderr)\n"
            "sys.exit(code)")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", code, argv[0], str(path), *argv[1:]],
                            capture_output=True, text=True, env=env, timeout=60)
    seconds = time.perf_counter() - start
    imported, peak = map(float, result.stderr.split()[-2:])
    return result.returncode, seconds, imported, peak


def _empty_document(n, k, module_dim, space_dim) -> dict:
    return {"format_version": 1, "kind": "k-module", "n": n, "k": k,
            "module_dim": module_dim, "space_dim": space_dim, "entries": []}


def test_check_minimal_costs_nothing_per_declared_index(tmp_path):
    # is_minimal built set(range(module_dim)): 1.2 s and 579 MB here.
    code, seconds, _, peak = _measured(
        tmp_path, _empty_document(2, 1, 10**7, 1), ["check", "--minimal"])
    assert code == 1
    assert seconds < 0.5 and peak < 100


@pytest.mark.parametrize("argv", [
    ["validate"], ["decompose"], ["connect", "--from", "0", "--to", "1"],
    ["oracle"], ["check", "--minimal"], ["check", "--mu"], ["check", "--equivalence"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv[:2]))
def test_a_dimension_past_the_platform_index_size_is_no_traceback(tmp_path, argv):
    # decompose, check --equivalence and oracle size dense lists by
    # module_dim, which raised OverflowError through the CLI.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_empty_document(2, 1, 10**50, 1)))
    env = {**os.environ, "PYTHONPATH": str(Path(modbasis.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "modbasis.cli", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode in (0, 1, 2)
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) <= 1
    if result.returncode == 2:
        # Not "Python int too large to convert to C ssize_t".
        assert result.stderr.startswith("error:")
        assert "dimension" in result.stderr


def test_paused_oracle_stays_within_its_budget_memory(tmp_path):
    # No step fits the budget, so the command adds next to nothing to what
    # the interpreter and the library take (18 MB in all on CPython 3.11);
    # before the oracle charged a step's arguments it added 40 MB here.
    code, _, imported, peak = _measured(
        tmp_path, _empty_document(10**5, 1, 1, 3), ["oracle"], budget=50)
    assert code == 2
    assert peak - imported < 10
