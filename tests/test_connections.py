"""Step images, chain witnesses, and the dual-route component computation."""

from __future__ import annotations

import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations
from types import CodeType

import pytest

from modbasis import (
    BACKWARD,
    FORWARD,
    BudgetError,
    ComponentPartition,
    Connection,
    DimensionError,
    GenSpec,
    InvalidWitness,
    KModuleStructure,
    Step,
    components,
    components_oracle,
    directed_closure,
    evaluate,
    find_connection,
    forward_edges,
    mu,
    phi,
    placement_module_multiset,
    random_structure,
    restrict,
    reverse_connection,
    support,
    verify_connection,
    verify_submodule,
)
from modbasis import connections
from modbasis import module_slot as M, space_slot as S

from conftest import make_e1, make_e2, make_e3
from helpers import (
    assert_mu_matches_scan,
    chain_table,
    corpus_spec,
    partition_problems,
    reference_connection,
    support_steps,
)


def test_step_normalizes_argument_order():
    step = Step(FORWARD, (2, 0, 1), (1, 0))
    assert step.module_args == (0, 1, 2)
    assert step.space_args == (0, 1)


def test_step_rejects_unknown_direction():
    with pytest.raises(ValueError):
        Step("sideways", (), ())


def test_step_flip_round_trips():
    step = Step(FORWARD, (1,), (0,))
    assert step.flipped().direction == BACKWARD
    assert step.flipped().flipped() == step


def test_mu_forward_fixture_values(e1):
    step = Step(FORWARD, (), (0,))
    assert mu(e1, 0, step) == {1}
    assert mu(e1, 1, step) == {0}
    assert mu(e1, 2, step) == {2}


def test_mu_backward_fixture_values(e1):
    step = Step(BACKWARD, (), (0,))
    assert mu(e1, 1, step) == {0}
    assert mu(e1, 0, step) == {1}


def test_mu_on_empty_table(e3):
    assert mu(e3, 0, Step(FORWARD, (), (0,))) == set()


def test_mu_rejects_wrong_arity(e1):
    with pytest.raises(DimensionError):
        mu(e1, 0, Step(FORWARD, (1,), (0,)))
    with pytest.raises(DimensionError):
        mu(e1, 0, Step(FORWARD, (), ()))


def test_mu_matches_multisets_not_arrangements(e2):
    # Triples (0,1,1) in any slot order all target 0; (1,1,1) targets 1.
    assert mu(e2, 0, Step(FORWARD, (1, 1), ())) == {0}
    assert mu(e2, 1, Step(FORWARD, (1, 1), ())) == {1}


def test_phi_unions_over_the_set(e1, e2):
    assert phi(e1, {0, 1}, Step(FORWARD, (), (0,))) == {0, 1}
    assert phi(e2, {0}, Step(FORWARD, (1, 1), ())) == {0}
    assert phi(e1, set(), Step(FORWARD, (), (0,))) == set()


def test_mu_matches_the_direct_scan_on_the_acceptance_corpus():
    for number in range(200):  # the acceptance corpus
        structure = random_structure(corpus_spec(number))
        steps = support_steps(structure, FORWARD) + support_steps(structure, BACKWARD)
        indices = range(structure.module_dim)
        assert_mu_matches_scan(structure, [(step, indices) for step in steps])


def test_mu_matches_the_direct_scan_on_a_large_k2_table():
    structure = random_structure(GenSpec(7, 3, 2, 60, 3, Fraction(1, 3)))
    assert len(structure.table) >= 10**4
    rng = random.Random(7)
    probes = []
    for _ in range(40):
        direction = rng.choice([FORWARD, BACKWARD])
        step = Step(direction, (rng.randrange(60),), (rng.randrange(3),))
        probes.append((step, rng.sample(range(60), 6)))
    assert_mu_matches_scan(structure, probes)


def test_the_partition_of_a_large_k2_table_passes_the_linear_check():
    structure = chain_table(1, 10_000, 50_000)
    assert partition_problems(structure, components(structure)) == []


def test_forward_edges_fixture_values(e1, e2, e3):
    assert forward_edges(e1) == {(0, 1), (1, 0), (2, 2)}
    assert forward_edges(e2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert forward_edges(e3) == set()


def _flip_biconditional_holds(structure):
    directions = [FORWARD, BACKWARD]
    steps = [
        step
        for direction in directions
        for step in support_steps(structure, direction)
    ]
    everything = range(structure.module_dim)
    for step in steps:
        for i in everything:
            for j in everything:
                forward_hit = j in mu(structure, i, step)
                backward_hit = i in mu(structure, j, step.flipped())
                if forward_hit != backward_hit:
                    return False
    return True


@pytest.mark.parametrize("factory", [make_e1, make_e2, make_e3])
def test_step_flip_biconditional(factory):
    assert _flip_biconditional_holds(factory())


@pytest.mark.parametrize("factory", [make_e1, make_e2])
def test_set_image_flip_biconditional(factory):
    structure = factory()
    everything = list(range(structure.module_dim))
    subsets = chain.from_iterable(
        combinations(everything, size) for size in range(len(everything) + 1)
    )
    steps = support_steps(structure, FORWARD) + support_steps(structure, BACKWARD)
    for subset in subsets:
        for step in steps:
            for i in everything:
                lhs = i in phi(structure, subset, step)
                rhs = bool(phi(structure, {i}, step.flipped()) & set(subset))
                assert lhs == rhs


def test_components_match_oracle_on_fixtures(e1, e2, e3):
    # The literal chain replay is the authority; check it first, then
    # freeze the expected classes.
    oracle_e1 = components_oracle(e1, 6)
    assert oracle_e1.classes() == ((0, 1), (2,))
    assert components(e1) == oracle_e1

    oracle_e2 = components_oracle(e2, 4)
    assert oracle_e2.classes() == ((0, 1),)
    assert components(e2) == oracle_e2

    oracle_e3 = components_oracle(e3, 6)
    assert oracle_e3.classes() == ((0,), (1,), (2,))
    assert components(e3) == oracle_e3


def test_oracle_with_depth_one_still_finds_direct_links(e1):
    assert components_oracle(e1, 1).classes() == ((0, 1), (2,))


def test_oracle_rejects_nonpositive_depth(e1):
    with pytest.raises(ValueError):
        components_oracle(e1, 0)


def test_oracle_budget_exhaustion(e1, monkeypatch):
    monkeypatch.setenv("MODBASIS_BUDGET", "5")
    with pytest.raises(BudgetError):
        components_oracle(e1, 6)


def test_oracle_budget_stops_the_step_list(monkeypatch):
    inputs = [
        # 2 * multichoose(20, 6) = 354,200 steps; each costs two candidates
        # at start index 0 and holds six arguments, so the budget is passed
        # after 124 of them.
        (KModuleStructure(7, 1, 1, 20, {(("m", 0),) + (("s", 0),) * 6: (0, 1)}), 1000),
        # No entries, but each step holds 99,999 space arguments (about
        # 0.8 MB): charged only for its scan, 52 such steps (44 MB) would be
        # built before the budget stopped them; charged for its arguments
        # too, none is.
        (KModuleStructure(10**5, 1, 1, 3, {}), 50),
        # k = 1 draws no module argument, yet the choices copied all 10^6
        # module indices into a tuple first (38 MB).
        (KModuleStructure(2, 1, 10**6, 1, {}), 1),
    ]
    for structure, budget in inputs:
        monkeypatch.setenv("MODBASIS_BUDGET", str(budget))
        tracemalloc.start()
        try:
            message = f"chain enumeration passed {budget} candidates$"
            with pytest.raises(BudgetError, match=message):
                components_oracle(structure, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def test_oracle_without_module_indices_takes_no_step(monkeypatch):
    monkeypatch.setenv("MODBASIS_BUDGET", "1")
    structure = KModuleStructure(7, 1, 0, 20, {})
    assert components_oracle(structure, 1) == ComponentPartition([])


def test_each_edge_lists_its_placements_once():
    # Placements that repeat an occupant, filed in no order, reach an
    # edge's list twice unless the build skips them.
    structure = chain_table(1)
    expected = {}
    for placement, target, _ in support(structure):
        for occupant in placement_module_multiset(placement):
            expected.setdefault((occupant, target), set()).add(placement)
    edges = connections._index_of(structure).edges()
    assert {edge: set(placements) for edge, placements in edges.items()} == expected
    for placements in edges.values():
        assert len(placements) == len(set(placements))


def _names(code) -> set[str]:
    # The globals and attributes a function names, nested code included.
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _names(const)
    return names


def test_the_fast_path_and_the_oracle_share_no_code():
    # The oracle is a check only while neither side calls into the other,
    # and the linear partition check only while it calls into neither.
    fast = (
        connections._edge_step, connections._step_args, connections._Index.images,
        connections._image, connections.mu, connections.phi,
        connections.find_connection, connections.verify_connection,
        connections._Index.partition, connections._Index.edges,
    )
    for function in fast:
        named = _names(function.__code__)
        assert not named & {"_multiset_minus", "_mu_by_scan"}, function.__qualname__
    fast_only = {"_index_of", "_Index", "_edge_step"}
    # A name the module no longer defines could never be called, so the
    # check would pass whatever the oracle did.
    assert all(hasattr(connections, name) for name in fast_only)
    for function in (connections.components_oracle, connections._mu_by_scan):
        named = _names(function.__code__)
        assert not named & fast_only, function.__qualname__
    # The linear partition check names nothing that connections defines or
    # imports, so it shares no code with either path.
    named = _names(partition_problems.__code__)
    assert not named & set(vars(connections)), named & set(vars(connections))


def test_partition_api(e1):
    partition = components(e1)
    assert partition.size == 3
    assert partition.representative(1) == 0
    assert partition.representative(2) == 2
    assert partition.same_class(0, 1)
    assert not partition.same_class(0, 2)
    assert partition.class_of(1) == (0, 1)
    assert ComponentPartition([0, 0, 2]) == partition
    # A negative index raised nothing: the tuple wrapped round to index 2.
    # True was read as index 1, and 0.5 raised a bare TypeError.
    for bad in (-1, 3, True, 0.5, 1.0):
        with pytest.raises(IndexError):
            partition.representative(bad)
        with pytest.raises(IndexError):
            partition.same_class(bad, 2)
        with pytest.raises(IndexError):
            partition.class_of(bad)


def test_class_of_matches_a_scan_of_the_representatives():
    rng = random.Random(22)
    for size in (1, 2, 7, 60, 400):
        for labels in range(1, size + 1, max(1, size // 6)):
            partition = ComponentPartition([rng.randrange(labels) for _ in range(size)])
            reps = [partition.representative(i) for i in range(size)]
            for index in range(size):
                scan = tuple(i for i, rep in enumerate(reps) if rep == reps[index])
                assert partition.class_of(index) == scan


def _path_orders(last: int) -> dict[str, list[int]]:
    # The edge i -- i+1 for each i in 0..last-1, in four insertion orders.
    ascending = list(range(last))
    inward = [i for pair in zip(ascending, reversed(ascending)) for i in pair]
    shuffled = ascending[:]
    random.Random(7).shuffle(shuffled)
    return {
        "ascending": ascending,
        "descending": ascending[::-1],
        "inward": inward[:last],
        "shuffled": shuffled,
    }


@pytest.mark.parametrize("cut", [None, 5000], ids=["whole", "cut"])
@pytest.mark.parametrize("order", ["ascending", "descending", "inward", "shuffled"])
def test_partition_of_a_long_path_in_every_edge_order(order, cut):
    # Descending insertion hangs each root under the next index down, a
    # tree 10^4 deep that only the final pass over the parents resolves.
    size = 10**4
    edges = [i for i in _path_orders(size - 1)[order] if i != cut]
    table = {(M(i), S(0)): (i + 1, Fraction(1)) for i in edges}
    structure = KModuleStructure(2, 1, size, 1, table)
    assert next(iter(forward_edges(structure))) == (edges[0], edges[0] + 1)
    partition = components(structure)
    if cut is None:
        assert partition.classes() == (tuple(range(size)),)
    else:
        assert partition.classes() == (tuple(range(cut + 1)), tuple(range(cut + 1, size)))
    for cls in partition.classes():
        assert all(partition.representative(i) == cls[0] for i in cls)


def test_find_connection_forward_witness(e1):
    connection = find_connection(e1, 0, 1)
    assert connection == Connection(0, (Step(FORWARD, (), (0,)),))
    assert verify_connection(e1, connection, 1)


def test_find_connection_prefers_forward(e1):
    # 1 -> 0 has its own forward entry; the backward reading of 0 -> 1
    # would also work but must not be chosen.
    connection = find_connection(e1, 1, 0)
    assert connection.steps == (Step(FORWARD, (), (0,)),)


def test_find_connection_uses_backward_when_needed(e1_one_way):
    # Only [M0,S0] -> 1 survives, so reaching 0 from 1 needs a backward step.
    connection = find_connection(e1_one_way, 1, 0)
    assert connection.steps == (Step(BACKWARD, (), (0,)),)
    assert verify_connection(e1_one_way, connection, 0)


def test_find_connection_self_marker(e1):
    connection = find_connection(e1, 2, 2)
    assert connection == Connection(2, ())
    assert verify_connection(e1, connection, 2)


def test_find_connection_absent(e1):
    assert find_connection(e1, 0, 2) is None


def test_find_connection_range_checks(e1):
    with pytest.raises(DimensionError):
        find_connection(e1, 0, 9)
    with pytest.raises(DimensionError):
        find_connection(e1, -1, 0)


@pytest.mark.parametrize("bad", [0.5, True, 1.0, 10**9, -1, False, 0.0], ids=repr)
def test_find_connection_rejects_an_index_that_is_not_an_int(e1, bad):
    # validate's test: in range is not enough, and no chain may start at
    # True or report 0.5 as "not connected".  mu read True and 1.0 as
    # index 1, and 10**9 and -1 as an index with no image.
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        find_connection(e1, bad, 1)
    with pytest.raises(DimensionError):
        find_connection(e1, 0, bad)
    step = Step(FORWARD, (), (0,))
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        mu(e1, bad, step)
    with pytest.raises(DimensionError):
        phi(e1, [0, bad], step)
    with pytest.raises(DimensionError):
        verify_connection(e1, Connection(bad, (step,)), 0)
    with pytest.raises(DimensionError):
        verify_connection(e1, Connection(bad, ()), bad)
    # The claimed target too: True and 1.0 verified as index 1.
    chain = find_connection(e1, 0, 1)
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        verify_connection(e1, chain, bad)
    with pytest.raises(DimensionError, match=f"^index {bad!r} outside 0..2$"):
        reverse_connection(e1, chain, bad)
    # A step argument too: mu read False and 0.0 as space index 0, and
    # 10**9 as one with no image.
    bad_step = Step(FORWARD, (), (bad,))
    with pytest.raises(DimensionError, match=f"^space argument {bad!r} outside 0..0$"):
        mu(e1, 0, bad_step)
    with pytest.raises(DimensionError):
        verify_connection(e1, Connection(0, (step, bad_step)), 0)
    pair = KModuleStructure(2, 2, 3, 0, {(M(0), M(1)): (2, 1)})
    with pytest.raises(DimensionError, match=f"^module argument {bad!r} outside 0..2$"):
        phi(pair, [0], Step(BACKWARD, (bad,), ()))


@pytest.mark.parametrize("header, message", [
    ((2, 1, "3", 1), "module dimension must be an int, got '3'"),
    ((2, 1, 3, None), "space dimension must be an int, got None"),
    (("2", 1, 3, 1), "arity must be an int, got '2'"),
    ((2, True, 3, 1), "k must be an int, got True"),
    ((2, 1, 3.0, 1), "module dimension must be an int, got 3.0"),
], ids=["module_dim", "space_dim", "n", "k", "float"])
def test_queries_reject_a_header_field_that_is_not_an_int(header, message):
    # A str field raised a bare TypeError from a comparison; a float or a
    # bool one compared as a number.
    structure = KModuleStructure(*header, {})
    step = Step(FORWARD, (), (0,))
    queries = [
        lambda: evaluate(structure, (M(0), S(0))),
        lambda: mu(structure, 0, step),
        lambda: phi(structure, [0], step),
        lambda: find_connection(structure, 0, 1),
        lambda: find_connection(structure, 0, 0),
        lambda: verify_connection(structure, Connection(0, (step,)), 0),
        lambda: verify_connection(structure, Connection(0, ()), 0),
        lambda: directed_closure(structure, 0),
        lambda: verify_submodule(structure, [0]),
        lambda: restrict(structure, [0]),
    ]
    for query in queries:
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            query()


def test_find_connection_multi_step():
    # 0 -> 1 -> 2 needs two hops; there is no direct entry joining 0 and 2.
    structure = KModuleStructure(
        2,
        1,
        3,
        2,
        {
            (M(0), S(0)): (1, 1),
            (M(1), S(0)): (0, 1),
            (M(1), S(1)): (2, 1),
            (M(2), S(1)): (1, 1),
        },
    )
    connection = find_connection(structure, 0, 2)
    assert len(connection.steps) == 2
    assert verify_connection(structure, connection, 2)


def test_verify_connection_rejects_wrong_target(e1):
    connection = find_connection(e1, 0, 1)
    assert not verify_connection(e1, connection, 2)


def test_verify_connection_rejects_dead_chain(e1):
    dead = Connection(2, (Step(FORWARD, (), (0,)), Step(FORWARD, (), (0,))))
    # The image never leaves {2}, so a claim of 0 must fail.
    assert not verify_connection(e1, dead, 0)
    empty = Connection(0, (Step(BACKWARD, (), (0,)), Step(BACKWARD, (), (0,))))
    assert verify_connection(e1, empty, 0)


def test_verify_connection_empty_prefix_fails(e3):
    chain_ = Connection(0, (Step(FORWARD, (), (0,)),))
    assert not verify_connection(e3, chain_, 0)


def test_reverse_connection_round_trip(e1):
    connection = find_connection(e1, 0, 1)
    reverse = reverse_connection(e1, connection, 1)
    assert reverse.source == 1
    assert verify_connection(e1, reverse, 0)
    double = reverse_connection(e1, reverse, 0)
    assert double.source == 0
    assert verify_connection(e1, double, 1)


def test_reverse_connection_flips_directions(e1_one_way):
    connection = find_connection(e1_one_way, 0, 1)
    assert connection.steps[0].direction == FORWARD
    reverse = reverse_connection(e1_one_way, connection, 1)
    assert reverse.steps[0].direction == BACKWARD
    assert verify_connection(e1_one_way, reverse, 0)


def test_reverse_connection_rejects_bad_witness(e1):
    broken = Connection(0, (Step(FORWARD, (), (0,)),))
    with pytest.raises(InvalidWitness):
        reverse_connection(e1, broken, 2)


def test_connected_pairs_equal_partition(e1, e2):
    for structure in (e1, e2):
        partition = components(structure)
        for i in range(structure.module_dim):
            for j in range(structure.module_dim):
                witness = find_connection(structure, i, j)
                assert (witness is not None) == partition.same_class(i, j)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_connection_matches_support_scan_on_large_tables(seed):
    structure = chain_table(seed)
    rng = random.Random(seed)
    dim = structure.module_dim
    pairs = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(20)]
    pairs += [(a, min(dim - 1, a + rng.randint(1, 40))) for a, _ in pairs]
    connected = 0
    for source, target in pairs:
        expected = reference_connection(structure, source, target)
        found = find_connection(structure, source, target)
        if expected is None:
            assert found is None, (source, target)
            continue
        connected += 1
        assert len(found.steps) == len(expected.steps), (source, target)
        for number, (step, reference) in enumerate(zip(found.steps, expected.steps)):
            assert step == reference, (source, target, number)
        assert verify_connection(structure, found, target)
    assert connected >= len(pairs) // 4


def test_threads_racing_on_a_fresh_structure_agree():
    pairs = [(0, 299), (17, 160), (42, 43)]
    reference = chain_table(5)
    expected = (
        components(reference),
        [find_connection(reference, a, b) for a, b in pairs],
    )
    structure = chain_table(5)
    workers = 8
    start = threading.Barrier(workers)
    results = []

    def work(replay_first):
        start.wait(timeout=60)
        # Half the workers replay precomputed chains first, so that the
        # first images call, which creates the memo, races with the edges.
        if replay_first:
            replays = [
                verify_connection(structure, c, b)
                for (_, b), c in zip(pairs, expected[1])
            ]
        partition = components(structure)
        chains = [find_connection(structure, a, b) for a, b in pairs]
        if not replay_first:
            replays = [
                verify_connection(structure, c, b) for (_, b), c in zip(pairs, chains)
            ]
        results.append(((partition, chains), replays))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(number % 2 == 0,))
            for number in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [(expected, [True] * len(pairs))] * workers
    assert components(structure) is components(structure)
