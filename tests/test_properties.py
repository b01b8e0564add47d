"""Randomized invariants over generated structures.

Each property re-states a guarantee the library claims for every input,
then hammers it with small random instances.  Structures are drawn by
generating a seed and shape, so shrinking happens over the generator
parameters rather than raw tables.
"""

import itertools
import os
import tempfile
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from modbasis import (
    BACKWARD,
    FORWARD,
    GenSpec,
    Step,
    SymmetrizeConflict,
    check_minimality_equivalence,
    components,
    components_oracle,
    decompose,
    dumps_document,
    find_connection,
    forward_edges,
    is_mu_multiplicative,
    mu,
    phi,
    random_structure,
    read_document,
    restrict,
    reverse_connection,
    symmetrize,
    verify_connection,
    verify_orthogonality,
    verify_submodule,
    write_document,
)
from helpers import assert_mu_matches_scan, support_steps


@st.composite
def structures(draw, symmetric=False):
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=n))
    module_dim = draw(st.integers(min_value=1, max_value=4))
    if k < n:
        space_dim = draw(st.integers(min_value=1, max_value=3))
    else:
        space_dim = draw(st.integers(min_value=0, max_value=3))
    density = Fraction(draw(st.integers(min_value=1, max_value=4)), 10)
    seed = draw(st.integers(min_value=0, max_value=99_999))
    structure = random_structure(
        GenSpec(seed=seed, n=n, k=k, module_dim=module_dim,
                space_dim=space_dim, density=density)
    )
    if symmetric:
        try:
            structure = symmetrize(structure)
        except SymmetrizeConflict as exc:
            assert exc.edges
            assume(False)
    return structure


def _arbitrary_step(data, structure):
    direction = data.draw(st.sampled_from([FORWARD, BACKWARD]))
    modules = data.draw(
        st.tuples(*[st.integers(0, structure.module_dim - 1)] * (structure.k - 1))
    )
    spaces = ()
    if structure.space_dim > 0:
        spaces = data.draw(
            st.tuples(
                *[st.integers(0, structure.space_dim - 1)]
                * (structure.n - structure.k)
            )
        )
    elif structure.n > structure.k:
        # No space vectors exist, so only the empty tuple is admissible
        # and only when there are no space positions to fill.
        assume(False)
    return Step(direction, modules, spaces)


@settings(deadline=None, max_examples=60)
@given(structure=structures())
def test_fast_partition_matches_oracle(structure):
    expected = components_oracle(structure, 2 * structure.module_dim)
    assert components(structure) == expected


@settings(deadline=None, max_examples=60)
@given(structure=structures())
def test_every_class_is_a_closed_orthogonal_piece(structure):
    pieces = decompose(structure)
    assert sorted(i for piece in pieces for i in piece.members) == list(
        range(structure.module_dim)
    )
    for piece in pieces:
        assert verify_submodule(structure, piece.members)
    assert verify_orthogonality(structure, components(structure))


@settings(deadline=None, max_examples=50)
@given(structure=structures(), data=st.data())
def test_step_flip_biconditional(structure, data):
    steps = list(support_steps(structure, FORWARD))
    steps += [step.flipped() for step in steps]
    steps.append(_arbitrary_step(data, structure))
    indices = range(structure.module_dim)
    for step in steps:
        for i, j in itertools.product(indices, repeat=2):
            assert (j in mu(structure, i, step)) == (
                i in mu(structure, j, step.flipped())
            )


@settings(deadline=None, max_examples=50)
@given(structure=structures(), data=st.data())
def test_mu_matches_the_direct_scan(structure, data):
    steps = support_steps(structure, FORWARD) + support_steps(structure, BACKWARD)
    steps.append(_arbitrary_step(data, structure))
    indices = range(structure.module_dim)
    assert_mu_matches_scan(structure, [(step, indices) for step in steps])


@settings(deadline=None, max_examples=50)
@given(structure=structures(), data=st.data())
def test_set_image_is_union_of_pointwise_images(structure, data):
    subset = data.draw(
        st.frozensets(st.integers(0, structure.module_dim - 1), max_size=4)
    )
    for step in support_steps(structure, FORWARD):
        expected = set()
        for i in subset:
            expected |= mu(structure, i, step)
        assert phi(structure, subset, step) == expected


@settings(deadline=None, max_examples=60)
@given(structure=structures())
def test_serialization_round_trips_byte_for_byte(structure):
    text = dumps_document(structure)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "doc.json")
        write_document(structure, path)
        back = read_document(path)
    assert back == structure
    assert dumps_document(back) == text


@settings(deadline=None, max_examples=60)
@given(structure=structures())
def test_symmetrize_extends_and_balances(structure):
    try:
        balanced = symmetrize(structure)
    except SymmetrizeConflict as exc:
        assert exc.edges
        assume(False)
        return
    for placement, value in structure.table.items():
        assert balanced.table[placement] == value
    ok, missing = is_mu_multiplicative(balanced)
    assert ok and missing == []


@settings(deadline=None, max_examples=40)
@given(structure=structures())
def test_each_class_restricts_to_a_connected_whole(structure):
    for piece in decompose(structure):
        part = restrict(structure, piece.members)
        assert part.module_dim == len(piece.members)
        assert len(components(part).classes()) == 1


@settings(deadline=None, max_examples=40)
@given(structure=structures())
def test_connection_witnesses_verify_both_ways(structure):
    partition = components(structure)
    for a, b in itertools.product(range(structure.module_dim), repeat=2):
        witness = find_connection(structure, a, b)
        if not partition.same_class(a, b):
            assert witness is None
            continue
        assert witness is not None and witness.source == a
        assert verify_connection(structure, witness, b)
        back = reverse_connection(structure, witness, b)
        assert back.source == b
        assert verify_connection(structure, back, a)


@settings(deadline=None, max_examples=50)
@given(structure=structures(symmetric=True))
def test_symmetric_structures_satisfy_the_equivalence(structure):
    report = check_minimality_equivalence(structure)
    assert report.hypothesis_met
    assert report.agreement is True
    assert report.minimal == (report.component_count <= 1)


@settings(deadline=None, max_examples=40)
@given(structure=structures())
def test_edge_symmetry_decides_mu_multiplicativity(structure):
    edges = forward_edges(structure)
    ok, missing = is_mu_multiplicative(structure)
    assert ok == all((b, a) in edges for a, b in edges)
    assert ok == (missing == [])
