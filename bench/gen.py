"""Seeded benchmark inputs whose correct answers are known by construction.

    python3 bench/gen.py <workload> <seed> <size as JSON> <directory>

writes the workload's documents into the directory, then ``answers.json``
with what the library must answer about them.  The runner starts this in
a separate process, so the memory generation takes never counts in the
peak resident set of the process that runs the workload.

Every document is written here as canonical JSON (sorted entries, fixed
key order, lowest-term coefficients), so reading it back and writing it
again must reproduce the file byte for byte.  Nothing here uses the
library: ``modbasis.generators.random_structure`` walks the whole
placement space and its random stream defines the acceptance corpus, so
it is neither fast enough at these sizes nor free to change.

Each table is grown block by block.  A block is a set of module indices
that a spanning tree of entries connects, so the component partition is
the list of blocks; extra entries only ever add self-loops or parallel
entries for an existing edge, which keeps every shortest chain as long
as the tree says.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

COEFFS = tuple(
    Fraction(c) for c in (1, -1, 2, -2, "1/2", "-3/4", "5/3", 7, "-11/6")
)


def _coeff_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f'"{value.numerator}/{value.denominator}"'


def document_text(kind, n, k, module_dim, space_dim, entries) -> str:
    """Canonical document text; ``entries`` maps placement -> (target, coeff)."""
    lines = [
        "{",
        '  "format_version": 1,',
        f'  "kind": "{kind}",',
        f'  "n": {n},',
        f'  "k": {k},',
        f'  "module_dim": {module_dim},',
        f'  "space_dim": {space_dim},',
    ]
    if entries:
        body = []
        for placement in sorted(entries):
            target, coeff = entries[placement]
            slots = ", ".join(f'{{"{tag}": {index}}}' for tag, index in placement)
            body.append(
                f'    {{"slots": [{slots}], "target": {target}, '
                f'"coeff": {_coeff_text(coeff)}}}'
            )
        lines.append('  "entries": [')
        lines.append(",\n".join(body))
        lines.append("  ]")
    else:
        lines.append('  "entries": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


class Table:
    """A placement table under construction, with its block partition."""

    def __init__(self, rng: random.Random, n: int, k: int, module_dim: int,
                 space_dim: int):
        self.rng = rng
        self.n, self.k = n, k
        self.module_dim, self.space_dim = module_dim, space_dim
        self.layouts = list(combinations(range(n), k))
        self.entries: dict = {}
        self.blocks: list[tuple[int, ...]] = []

    def add(self, modules, target: int) -> bool:
        """Add one entry with these module occupants in a free placement."""
        placement = self.free_placement(modules)
        if placement is None:
            return False
        self.entries[placement] = (target, self.rng.choice(COEFFS))
        return True

    def free_placement(self, modules, tries: int = 64):
        """A random placement of ``modules`` not yet in the table, or None."""
        rng = self.rng
        for _ in range(tries):
            layout = rng.choice(self.layouts)
            order = list(modules)
            rng.shuffle(order)
            slots = [None] * self.n
            for position, index in zip(layout, order):
                slots[position] = ("m", index)
            for position in range(self.n):
                if slots[position] is None:
                    slots[position] = ("s", rng.randrange(self.space_dim))
            placement = tuple(slots)
            if placement not in self.entries:
                return placement
        return None

    def edges(self) -> set[tuple[int, int]]:
        """Directed (occupant, target) pairs of the table."""
        return {
            (index, target)
            for placement, (target, _) in self.entries.items()
            for tag, index in placement
            if tag == "m"
        }

    def neighbours(self) -> dict[int, set[int]]:
        adjacency: dict[int, set[int]] = {}
        for a, b in self.edges():
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        return adjacency

    def text(self, kind: str = "k-module") -> str:
        return document_text(kind, self.n, self.k, self.module_dim,
                             self.space_dim, self.entries)


def _tree_edges(rng: random.Random, members, path: bool,
                max_degree: int = 5) -> list[tuple[int, int]]:
    """Spanning tree over ``members``: a path in their order, or a random
    tree whose degrees stay small enough to leave free placements."""
    if path:
        return list(zip(members, members[1:]))
    edges = []
    degree = [0] * len(members)
    for i in range(1, len(members)):
        parent = rng.randrange(i)
        while degree[parent] >= max_degree:
            parent = rng.randrange(i)
        degree[parent] += 1
        degree[i] += 1
        edges.append((members[parent], members[i]))
    return edges


def _connect_block(table: Table, members, path: bool, mode: str) -> None:
    """Join one block by a spanning tree of edges.

    ``mode`` "both" writes an entry for each direction of every tree
    edge, so the edge relation stays symmetric; "mixed" writes one
    direction or both at random, so chains take backward steps too;
    "cycle" writes both, then only forward, then only backward, in turn
    along the tree, so any chain of 3m steps along a path takes exactly
    m backward steps.
    """
    rng = table.rng
    table.blocks.append(tuple(sorted(members)))
    for number, (a, b) in enumerate(_tree_edges(rng, members, path)):
        both = ((a, b), (b, a))
        directions = {
            "both": both,
            "mixed": rng.choice((both, both[:1], both[1:])),
            "cycle": (both, both[:1], both[1:])[number % 3],
        }[mode]
        for occupant, target in directions:
            if not table.add([occupant] * table.k, target):
                raise RuntimeError(f"no free placement for edge {occupant}->{target}")


def _fill(table: Table, total: int, members) -> None:
    """Add self-loops and parallel entries until the table has ``total`` entries."""
    rng = table.rng
    edges = sorted(table.edges())
    while len(table.entries) < total:
        if rng.random() < 0.5:
            index = rng.choice(members)
            occupant, target = index, index
        else:
            occupant, target = rng.choice(edges)
        table.add([occupant] * table.k, target)


def _split(rng: random.Random, members, low: int, high: int) -> list[list[int]]:
    blocks, position = [], 0
    while position < len(members):
        size = rng.randint(low, high)
        blocks.append(members[position:position + size])
        position += size
    return blocks


def _depths(adjacency, source: int) -> dict[int, int]:
    """Shortest chain length from ``source`` to every index it reaches."""
    depth = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in depth:
                depth[nxt] = depth[node] + 1
                queue.append(nxt)
    return depth


def distance_pairs(rng, adjacency, blocks, distance: int, count: int):
    """``count`` pairs (a, b) whose shortest chain has exactly ``distance`` steps."""
    candidates = [b for b in blocks if len(b) > distance]
    pairs = []
    while len(pairs) < count:
        block = rng.choice(candidates)
        source = rng.choice(block)
        far = sorted(i for i, d in _depths(adjacency, source).items() if d == distance)
        if far:
            pairs.append((source, rng.choice(far)))
    return pairs




def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(value) -> str:
    """One spelling of a JSON value, so equal values have equal digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------- cli-large


def expected_dot(edges, blocks) -> str:
    """What ``decompose --dot`` must write: one cluster per block, then
    every undirected edge once."""
    lines = ["graph components {"]
    for block in sorted(blocks):
        lines.append(f"  subgraph cluster_{block[0]} {{")
        lines.append(f'    label="[{block[0]}]";')
        lines.extend(f"    v{i};" for i in block)
        lines.append("  }")
    undirected = sorted({(min(a, b), max(a, b)) for a, b in edges})
    lines.extend(f"  v{a} -- v{b};" for a, b in undirected)
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_cli_large(seed: int, outdir: Path, module_dim: int, space_dim: int = 10,
                    connect_steps: int = 4, max_block: int = 40) -> None:
    """``large.json``: n=2, k=1, symmetric, 2 * module_dim entries in
    blocks of 1..max_block.

    The answers hold digests of the expected outputs, and only the
    entries of the blocks that the connect pairs lie in: with k=1 a chain
    never leaves its block, so those entries are enough to replay it.
    """
    rng = random.Random(f"cli-large/{seed}")
    table = Table(rng, 2, 1, module_dim, space_dim)
    members = list(range(module_dim))
    rng.shuffle(members)
    for block in _split(rng, members, 1, max_block):
        _connect_block(table, block, path=False, mode="both")
        for _ in range(2):
            index = rng.choice(block)
            table.add([index], index)
    pairs = distance_pairs(rng, table.neighbours(), table.blocks, connect_steps, 64)
    blocks = sorted(table.blocks)
    text = table.text()
    _write(outdir / "large.json", text)

    touched = {i for pair in pairs for i in pair}
    inside = {i for block in blocks if touched.intersection(block) for i in block}
    replay = [
        [[i for tag, i in placement if tag == "m"],
         sorted(i for tag, i in placement if tag == "s"), target]
        for placement, (target, _) in sorted(table.entries.items())
        if placement_module(placement) in inside
    ]
    decomposed = {"components": [{"representative": b[0], "members": list(b)}
                                 for b in blocks]}
    answers = {
        "connect_pairs": pairs,
        "connect_steps": connect_steps,
        "components": len(blocks),
        "replay": replay,
        "document": digest(text),
        "decompose": digest(canonical_json(decomposed)),
        "dot": digest(expected_dot(table.edges(), blocks)),
    }
    _write(outdir / "answers.json", json.dumps(answers))


# ---------------------------------------------------------------- session


def write_session(seed: int, outdir: Path, paths_dim: int, paths_entries: int,
                  path_count: int, path_length: int, minimal_dim: int) -> None:
    """``paths.json``, a multi-class table with long paths, and
    ``minimal.json``, a symmetric connected one.

    The first table is n=3, k=1 over 3 space indices; tree edges point
    one way or both, so it is not symmetric and chains mix forward and
    backward steps.  Connect pairs lie 12, 15 or 18 steps apart on a
    path, a third of them backward, and restricted classes cycle through
    fixed sizes, so a query's cost does not depend on the seed.  The
    second is n=2, k=1, a random spanning tree plus extra edges, every
    edge written in both directions: minimal, one class, and symmetric
    by construction.
    """
    rng = random.Random(f"session/{seed}")
    paths = Table(rng, 3, 1, paths_dim, 3)
    members = list(range(paths_dim))
    rng.shuffle(members)
    long_part = path_count * path_length
    for p in range(path_count):
        block = members[p * path_length:(p + 1) * path_length]
        _connect_block(paths, block, path=True, mode="cycle")
    for block in _split(rng, members[long_part:], 1, 12):
        _connect_block(paths, block, path=False, mode="mixed")
    _fill(paths, paths_entries, members)

    long_blocks = [b for b in paths.blocks if len(b) == path_length]
    distances = [d for d in (12, 15, 18) if d < path_length] or [path_length - 1]
    pairs = []
    adjacency = paths.neighbours()
    for i in range(240):
        distance = distances[i % len(distances)]
        (a, b), = distance_pairs(rng, adjacency, long_blocks, distance, 1)
        pairs.append((a, b, distance))

    sizes = (path_length, 10, 7, 4, 2)
    inside: dict[int, int] = {}
    for placement in paths.entries:
        occupant = placement_module(placement)
        inside[occupant] = inside.get(occupant, 0) + 1
    restrict = []
    for i in range(60):
        size = sizes[i % len(sizes)]
        nearest = min(abs(len(b) - size) for b in paths.blocks)
        cls = rng.choice([b for b in paths.blocks if abs(len(b) - size) == nearest])
        restrict.append((cls, sum(inside.get(i, 0) for i in cls)))

    minimal = Table(rng, 2, 1, minimal_dim, 4)
    nodes = list(range(minimal_dim))
    rng.shuffle(nodes)
    _connect_block(minimal, nodes, path=False, mode="both")
    for _ in range(minimal_dim // 2):
        a, b = rng.sample(nodes, 2)
        there, back = minimal.free_placement([a]), minimal.free_placement([b])
        if there and back and there != back:
            minimal.entries[there] = (b, rng.choice(COEFFS))
            minimal.entries[back] = (a, rng.choice(COEFFS))
    # The warm-up chain has the same length for every seed, so setup_s
    # does not depend on the seed.
    warmup, = distance_pairs(rng, minimal.neighbours(), minimal.blocks, 4, 1)

    _write(outdir / "paths.json", paths.text())
    _write(outdir / "minimal.json", minimal.text())
    answers = {"blocks": sorted(paths.blocks), "connect_pairs": pairs,
               "restrict": restrict, "minimal_warmup": warmup}
    _write(outdir / "answers.json", json.dumps(answers))


def placement_module(placement) -> int:
    """The first module occupant of a placement (the only one when k=1)."""
    return next(i for tag, i in placement if tag == "m")


# ---------------------------------------------------------------- small-corpus


class _NoRoom(Exception):
    pass


def _reaches_all(edges, dim: int) -> bool:
    successors: dict[int, set[int]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    for start in range(dim):
        seen, stack = {start}, [start]
        while stack:
            for nxt in successors.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != dim:
            return False
    return True


# Shapes are drawn as the acceptance corpus draws them (the test suite's
# ``corpus_spec`` and ``random_pair``), with module_dim widened from 1..5
# to 1..8 for documents.  They depend on the document's number only, so
# every seed has the same mix of shapes and only the contents change.
DOC_SALT = 0xA5EED
PAIR_SALT = 0xBEEF


def doc_shape(index: int) -> tuple[int, int, int, int]:
    """(n, k, module_dim, space_dim) of document ``index``."""
    rng = random.Random(DOC_SALT + index)
    n = rng.randint(1, 3)
    k = rng.randint(1, n)
    module_dim = rng.randint(1, 8)
    space_dim = rng.randint(1, 3) if k < n else rng.randint(0, 3)
    return n, k, module_dim, space_dim


def pair_shape(index: int) -> tuple[int, int, Fraction]:
    """(module_dim, algebra_dim, density) of pair ``index``: arity 3, k=2."""
    rng = random.Random(PAIR_SALT + index)
    module_dim = rng.randint(1, 4)
    algebra_dim = rng.randint(1, 3)
    return module_dim, algebra_dim, Fraction(rng.randint(1, 3), 10)


def _functional_block(table: Table, block) -> None:
    """With n=1 an index has one placement, so at most one entry: tree
    edges point from child to parent, and the root's entry, if it has
    one, points anywhere in its block."""
    rng = table.rng
    for parent, child in _tree_edges(rng, block, path=False):
        table.entries[(("m", child),)] = (parent, rng.choice(COEFFS))
    if rng.random() < 0.5:
        table.entries[(("m", block[0]),)] = (rng.choice(block), rng.choice(COEFFS))


def _small_table(rng: random.Random, shape, symmetric: bool) -> Table:
    n, k, dim, space = shape
    table = Table(rng, n, k, dim, space)
    # Diagonal entries (all module occupants equal) give exactly one
    # edge each, so writing both directions keeps the relation symmetric.
    members = list(range(dim))
    rng.shuffle(members)
    for block in _split(rng, members, 1, rng.randint(1, dim)):
        table.blocks.append(tuple(sorted(block)))
        if n == 1:
            _functional_block(table, block)
            continue
        for a, b in _tree_edges(rng, block, path=symmetric):
            if symmetric:
                pairs = ((a, b), (b, a))
            else:
                pairs = (rng.choice(((a, b), (b, a))),)
            for occupant, target in pairs:
                others = [occupant] * (k - 1) if symmetric else rng.choices(block, k=k - 1)
                if not table.add([occupant, *others], target):
                    raise _NoRoom
        for _ in range(rng.randint(0, 3 * len(block))):
            occupant = rng.choice(block)
            if symmetric:
                table.add([occupant] * k, occupant)
            else:
                table.add([occupant, *rng.choices(block, k=k - 1)], rng.choice(block))
    return table


def small_document(rng: random.Random, shape, symmetric: bool):
    """One document of the given shape and its reference answers.  Unless
    it has a single index, it has a class of two or more, and the connect
    pair is two distinct members of its largest class: trivial
    self-connections stay rare, so the median connect time is that of a
    real chain."""
    while True:
        try:
            table = _small_table(rng, shape, symmetric)
        except _NoRoom:
            continue
        largest = max(table.blocks, key=len)
        if len(largest) > 1 or table.module_dim == 1:
            break
    edges = table.edges()
    if len(largest) > 1:
        a, b = rng.sample(largest, 2)
        connect = (a, b, _depths(table.neighbours(), a)[b])
    else:
        connect = (largest[0], largest[0], 0)
    return {
        "text": table.text(),
        "module_dim": table.module_dim,
        "blocks": sorted(table.blocks),
        "symmetric": all((b, a) in edges for a, b in edges),
        "minimal": _reaches_all(edges, table.module_dim),
        "connect": connect,
    }


def _placements(n: int, k: int, module_dim: int, space_dim: int):
    for layout in combinations(range(n), k):
        for modules in product(range(module_dim), repeat=k):
            for spaces in product(range(space_dim), repeat=n - k):
                fill = {"m": iter(modules), "s": iter(spaces)}
                tags = ["m" if p in layout else "s" for p in range(n)]
                yield tuple((tag, next(fill[tag])) for tag in tags)


def pair_document(rng: random.Random, v_dim: int, a_dim: int, density) -> tuple[str, int]:
    """Algebra and action tables with each placement present with
    probability ``density``, as in the acceptance pairs, and the number
    of classes of their combined structure."""
    n, k = 3, 2
    entries = {}
    for key in product(range(a_dim), repeat=n):
        if rng.random() < density:
            entries[tuple(("s", j) for j in key)] = (rng.randrange(a_dim), rng.choice(COEFFS))
    for placement in _placements(n, k, v_dim, a_dim):
        if rng.random() < density:
            entries[placement] = (rng.randrange(v_dim), rng.choice(COEFFS))
    parent = list(range(v_dim + a_dim))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    # Combined, every slot is a module slot (space indices shifted past
    # the module ones), so each entry joins its occupants and target.
    for placement, (target, _) in entries.items():
        algebra_only = all(tag == "s" for tag, _ in placement)
        group = [v_dim + target if algebra_only else target]
        group += [i if tag == "m" else v_dim + i for tag, i in placement]
        roots = [find(x) for x in group]
        for r in roots[1:]:
            parent[r] = roots[0]
    classes = len({find(x) for x in range(v_dim + a_dim)})
    return document_text("module-over-algebra", n, k, v_dim, a_dim, entries), classes


def write_small_corpus(seed: int, outdir: Path, documents: int, pairs: int) -> None:
    """``pair<j>.json``, and the documents' texts inside the answers: the
    runner writes each document just before it is read and removes it
    right after.  Every other document whose shape allows it (k < n) is
    built symmetric, so ``check`` meets its hypothesis on about a quarter
    of the corpus."""
    rng = random.Random(f"small-corpus/{seed}")
    docs = []
    for i in range(documents):
        shape = doc_shape(i)
        docs.append(small_document(rng, shape, shape[1] < shape[0] and i % 2 == 0))
    pair_classes = []
    for j in range(pairs):
        text, classes = pair_document(rng, *pair_shape(j))
        _write(outdir / f"pair{j}.json", text)
        pair_classes.append(classes)
    _write(outdir / "answers.json", json.dumps({"documents": docs, "pairs": pair_classes}))


WRITERS = {"cli-large": write_cli_large, "session": write_session,
           "small-corpus": write_small_corpus}


def main(argv) -> int:
    workload, seed, size, outdir = argv
    WRITERS[workload](int(seed), Path(outdir), **json.loads(size))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
