"""The three benchmark workloads and the closed loop that drives them.

Each workload is one process with a single caller: it sends its next
call only after the previous one returned.  Every timed call is checked
against an answer the generator knows by construction; a wrong answer
or any exception counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import traceback
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gen

FAILED = object()


class Samples:
    """The durations of one metric, in bounded memory.

    Past ``CAPACITY`` values, every other kept value is dropped, and from
    then on only every second (then fourth, ...) call is kept, so the
    kept values stay an even thinning of the whole run.  Unbounded, a
    faster library would record more samples and show a larger
    ``peak_rss_mb``.
    """

    CAPACITY = 1 << 15

    def __init__(self):
        self.values = array("d")
        self.count = 0
        self._stride = 1

    def add(self, value: float):
        if self.count % self._stride == 0:
            self.values.append(value)
            if len(self.values) >= self.CAPACITY:
                self.values = self.values[::2]
                self._stride *= 2
        self.count += 1

    def __len__(self):
        return self.count


class Recorder:
    """Latencies, attempts and failures of one run.

    With a tracer, successive calls of each metric alternate between
    traced and untraced, so the two halves give the per-layer spans and
    the tracing overhead from the same mix of inputs.
    """

    def __init__(self, tracer=None):
        self.samples: dict[str, Samples] = defaultdict(Samples)
        self.traced: dict[str, Samples] = defaultdict(Samples)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.errors: list[str] = []
        self.tracer = tracer

    def run(self, metric, call, check=None):
        """Time ``call()``, then check its result outside the timing.

        ``call`` looks the library function up when it runs, so a traced
        call goes through the wrapper the tracer installed.
        """
        self.attempted += 1
        tracer = self.tracer
        traced = (tracer is not None and tracer.has_room()
                  and len(self.traced[metric]) <= len(self.samples[metric]))
        if traced:
            tracer.op += 1
            tracer.install()
        start = perf_counter()
        try:
            result = call()
        except Exception:
            self._fail(metric, traceback.format_exc(limit=3))
            return FAILED
        finally:
            elapsed = perf_counter() - start
            if traced:
                tracer.uninstall()
        self.busy += elapsed
        (self.traced if traced else self.samples)[metric].add(elapsed)
        if check is not None:
            try:
                ok = check(result)
            except Exception:
                ok = False
            if not ok:
                self._fail(metric, f"wrong answer: {_short(result)}")
                return FAILED
        return result

    def _fail(self, metric, detail):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{metric}: {detail}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 300 else text[:300] + "..."


def closed_loop(kinds: dict, seconds: float, collect: bool, min_calls: int,
                shares: dict | None = None) -> None:
    """Run the query kinds until ``seconds`` have passed.

    The kind with the least time spent so far, in proportion to its
    share (1 unless ``shares`` says otherwise), goes next, so every kind
    gets its share of the run and a kind that gets faster gets more
    samples.  Every kind first runs ``min_calls`` times; after that, a
    call is only started when its last duration still fits before the
    deadline.  With ``collect``, garbage is collected before each call,
    untimed, so each call starts from the heap a fresh process would
    have.
    """
    shares = shares or {}
    spent = dict.fromkeys(kinds, 0.0)
    calls = dict.fromkeys(kinds, 0)
    last = dict.fromkeys(kinds, 0.0)
    deadline = perf_counter() + seconds
    while True:
        behind = [kind for kind in kinds if calls[kind] < min_calls]
        name = min(behind or spent, key=lambda kind: spent[kind] / shares.get(kind, 1))
        if collect:
            gc.collect()
        start = perf_counter()
        if calls[name] >= min_calls and start + last[name] > deadline:
            return
        kinds[name](calls[name])
        last[name] = perf_counter() - start
        spent[name] += last[name]
        calls[name] += 1


@contextlib.contextmanager
def _scratch_file(path: Path, text: str):
    """A file that exists only while in use.

    Files are never truncated and rewritten, and are removed soon after
    they are written: on some file systems, deleting a file whose data
    has already gone to disk costs milliseconds, more than the calls on
    a small document take.
    """
    path.write_text(text, encoding="utf-8")
    try:
        yield str(path)
    finally:
        path.unlink()


def _cli(mb, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Looked up on every call so that a traced run sees the wrapper.
        code = mb.cli.cli_main(argv)
    return code, out.getvalue()


def _answers(workdir: Path) -> dict:
    return json.loads((workdir / "answers.json").read_text(encoding="utf-8"))


class ChainReplay:
    """Independent replay of printed chains against generated entries,
    each given as (module occupants, space occupants, target)."""

    def __init__(self, entries):
        self.forward: dict = defaultdict(set)
        self.backward: dict = defaultdict(set)
        for modules, spaces, target in entries:
            modules, spaces = sorted(modules), tuple(sorted(spaces))
            for position, occupant in enumerate(modules):
                rest = tuple(modules[:position] + modules[position + 1:])
                self.forward[(occupant, rest, spaces)].add(target)
                self.backward[(target, rest, spaces)].add(occupant)

    def reaches(self, source, steps, target) -> bool:
        image = {source}
        for direction, rest, spaces in steps:
            side = self.forward if direction == "forward" else self.backward
            image = set().union(*(side.get((i, rest, spaces), ()) for i in image))
            if not image:
                return False
        return target in image

    def check(self, source, target, steps) -> bool:
        """The chain reaches ``target`` and, flipped and reversed, comes back."""
        flipped = [("backward" if d == "forward" else "forward", r, s)
                   for d, r, s in reversed(steps)]
        return self.reaches(source, steps, target) and self.reaches(target, flipped, source)


def _parse_chain(text: str):
    steps = []
    for line in text.splitlines()[1:]:
        _, direction, modules, spaces = line.split()
        steps.append((
            direction,
            tuple(int(i) for i in modules[len("modules=("):-1].split(",") if i),
            tuple(int(i) for i in spaces[len("spaces=("):-1].split(",") if i),
        ))
    return steps


def _connect_query(mb, structure, source, target):
    """find_connection, verify_connection, reverse_connection, and a replay
    of the reversed chain: the query a library user makes to get a
    witness both ways."""
    chain = mb.find_connection(structure, source, target)
    forward_ok = mb.verify_connection(structure, chain, target)
    back = mb.reverse_connection(structure, chain, target)
    return chain, forward_ok, mb.verify_connection(structure, back, source)


def _connect_check(steps):
    return lambda r: len(r[0].steps) == steps and r[1] and r[2]


class CliLarge:
    """One-shot CLI commands on one large document; every command reads it.

    The benchmark keeps only digests of the expected outputs and the
    entries needed to replay the connect chains, so the process's peak
    resident set is mostly the library's.
    """

    name = "cli-large"
    # A one-shot command runs in a fresh process: nothing is left on the
    # heap from the command before.
    collect = True
    # The commands whose medians BENCHMARK.json gates get four times the
    # share of the others, so that each gated median has several samples.
    shares = {"read": 0.25, "dot": 0.25, "roundtrip": 0.25}

    def __init__(self, mb, workdir: Path):
        self.mb = mb
        self.path = str(workdir / "large.json")
        self.dot_path = workdir / "large.dot"
        self.answers = _answers(workdir)
        self.replay = ChainReplay(self.answers.pop("replay"))

    def load(self):
        """Nothing: a one-shot command keeps nothing from one call to the
        next, so its set-up is the import alone."""

    def kinds(self, rec: Recorder) -> dict:
        mb, path, answers = self.mb, self.path, self.answers
        steps = answers["connect_steps"]
        check_line = f"agreement: minimal=false components={answers['components']}\n"

        def command(metric, argv, check):
            rec.run(metric, lambda: _cli(mb, argv), check=check)

        def validate(i):
            command("read_ms", ["validate", path], lambda r: r == (0, "valid\n"))

        def decompose(i):
            command("decompose_ms", ["decompose", path, "--json"],
                    lambda r: r[0] == 0 and gen.digest(gen.canonical_json(json.loads(r[1])))
                    == answers["decompose"])

        def dot(i):
            # Removed first, so a command that writes nothing cannot pass
            # on the last command's file.
            self.dot_path.unlink(missing_ok=True)
            command("dot_ms", ["decompose", path, "--dot", str(self.dot_path)],
                    lambda r: r[0] == 0
                    and gen.digest(self.dot_path.read_text(encoding="utf-8")) == answers["dot"])

        def connect(i):
            a, b = answers["connect_pairs"][i % len(answers["connect_pairs"])]

            def ok(result):
                code, out = result
                chain = _parse_chain(out)
                return (code == 0 and len(chain) == steps
                        and out.startswith(f"connection {a} -> {b} ({steps} steps)\n")
                        and self.replay.check(a, b, chain))

            command("connect_ms", ["connect", path, "--from", str(a), "--to", str(b)], ok)

        def check(i):
            command("check_ms", ["check", path, "--equivalence"],
                    lambda r: r == (0, check_line))

        def roundtrip(i):
            rec.run("roundtrip_ms", lambda: mb.dumps_document(mb.read_document(path)),
                    check=lambda text: gen.digest(text) == answers["document"])

        return {"read": validate, "decompose": decompose, "dot": dot,
                "connect": connect, "check": check, "roundtrip": roundtrip}


class Session:
    """A library user who loads two structures once and queries them often."""

    name = "session"
    collect = False
    # Half shares for the two 15 ms queries leave the 2 s check at least
    # five samples.
    shares = {"decompose": 0.5, "restrict": 0.5}

    def __init__(self, mb, workdir: Path):
        self.mb, self.workdir = mb, workdir
        answers = _answers(workdir)
        self.blocks = [tuple(block) for block in answers["blocks"]]
        self.connect_pairs = [tuple(pair) for pair in answers["connect_pairs"]]
        self.restrict = [(tuple(cls), entries) for cls, entries in answers["restrict"]]
        self.minimal_warmup = answers["minimal_warmup"]

    def load(self):
        mb = self.mb
        self.paths = mb.read_document(str(self.workdir / "paths.json"))
        self.minimal = mb.read_document(str(self.workdir / "minimal.json"))
        # One warm-up query per structure: whatever the library builds
        # lazily on first use is paid here and shows in setup_s.
        a, b, _ = self.connect_pairs[0]
        c, d = self.minimal_warmup
        for structure, source, target in ((self.paths, a, b), (self.minimal, c, d)):
            chain, there, back = _connect_query(mb, structure, source, target)
            if not (there and back):
                raise RuntimeError("warm-up chain does not verify")

    def kinds(self, rec: Recorder) -> dict:
        mb = self.mb

        def connect(i):
            a, b, steps = self.connect_pairs[i % len(self.connect_pairs)]
            rec.run("connect_ms", lambda: _connect_query(mb, self.paths, a, b),
                    check=_connect_check(steps))

        def check(i):
            rec.run("check_ms", lambda: mb.check_minimality_equivalence(self.minimal),
                    check=lambda r: (r.hypothesis_met, r.minimal, r.component_count,
                                     r.agreement) == (True, True, 1, True))

        def restrict(i):
            cls, entries = self.restrict[i % len(self.restrict)]

            def query():
                part = mb.restrict(self.paths, cls)
                return part, mb.decompose(part)

            whole = [tuple(range(len(cls)))]
            rec.run("restrict_ms", query,
                    check=lambda r: r[0].module_dim == len(cls) and len(r[0].table) == entries
                    and [c.inherited_basis for c in r[1]] == whole)

        def decompose(i):
            rec.run("decompose_ms", lambda: mb.decompose(self.paths),
                    check=lambda r: [c.inherited_basis for c in r] == self.blocks)

        return {"connect": connect, "check": check, "restrict": restrict,
                "decompose": decompose}


class SmallCorpus:
    """Thousands of acceptance-size documents, each through the whole library."""

    name = "small-corpus"
    collect = False
    shares = None
    PAIR_EVERY = 8

    def __init__(self, mb, workdir: Path):
        self.mb, self.workdir = mb, workdir
        answers = _answers(workdir)
        self.docs = answers["documents"]
        for doc in self.docs:
            doc["blocks"] = [tuple(block) for block in doc["blocks"]]
        self.pair_classes = answers["pairs"]

    def load(self):
        self.pairs = []
        for number, classes in enumerate(self.pair_classes):
            pair = self.mb.read_document(str(self.workdir / f"pair{number}.json"))
            if not isinstance(pair, self.mb.ModuleOverAlgebra):
                raise RuntimeError("a pair document did not read as module-over-algebra")
            self.pairs.append((pair, classes))

    def kinds(self, rec: Recorder) -> dict:
        def document(i):
            doc = self.docs[i % len(self.docs)]
            with _scratch_file(self.workdir / f"doc{i}.json", doc["text"]) as path:
                self._document(rec, i, doc, path)

        return {"documents": document}

    def _document(self, rec, i, doc, path):
        mb = self.mb
        blocks = doc["blocks"]
        structure = rec.run("read_ms", lambda: mb.read_document(path),
                            check=lambda s: s.module_dim == doc["module_dim"])
        if structure is not FAILED:
            rec.run("decompose_ms", lambda: mb.decompose(structure),
                    check=lambda r: [c.inherited_basis for c in r] == blocks)
            depth = max(1, 2 * structure.module_dim)
            rec.run("oracle_ms", lambda: mb.components_oracle(structure, depth),
                    check=lambda p: list(p.classes()) == blocks)
            symmetric = doc["symmetric"]
            rec.run("check_ms", lambda: mb.check_minimality_equivalence(structure),
                    check=lambda r: (r.hypothesis_met, r.minimal, r.component_count,
                                     r.agreement)
                    == (symmetric, doc["minimal"], len(blocks), True if symmetric else None))
            a, b, steps = doc["connect"]
            rec.run("connect_ms", lambda: _connect_query(mb, structure, a, b),
                    check=_connect_check(steps))
        rec.run("roundtrip_ms", lambda: mb.dumps_document(mb.read_document(path)),
                check=lambda text: text == doc["text"])
        if i % self.PAIR_EVERY == 0:
            pair, classes = self.pairs[(i // self.PAIR_EVERY) % len(self.pairs)]
            rec.run("semidirect_ms", lambda: mb.pairing(pair),
                    check=lambda r: not r.violations and len(r.components) == classes)


WORKLOADS = {w.name: w for w in (CliLarge, Session, SmallCorpus)}

SIZES = {
    "full": {
        "cli-large": {"module_dim": 50_000},
        "session": {"paths_dim": 8000, "paths_entries": 20_000, "path_count": 8,
                    "path_length": 100, "minimal_dim": 1000},
        "small-corpus": {"documents": 2000, "pairs": 300},
    },
    "smoke": {
        "cli-large": {"module_dim": 2000},
        "session": {"paths_dim": 600, "paths_entries": 1500, "path_count": 3,
                    "path_length": 30, "minimal_dim": 60},
        "small-corpus": {"documents": 60, "pairs": 12},
    },
}
