"""The theorem every oracle check stands on, checked on graphs.

A positive sequence with sum 2(n + c - 1) is the degree sequence of a
connected graph with c independent cycles exactly when it is graphical, so a
class's members are those candidates that pass Erdos-Gallai.  Here the
members are checked against graphs: against the degree sequences of every
connected graph with n vertices and n - 1 + c edges, listed edge set by edge
set, by realizing each member and counting its cycles, and by drawing
random connected graphs far past the orders that can be enumerated.

The two checks are functions so that they can also run at larger sizes than
the tests use, for instance::

    PYTHONPATH=src:tests python -c 'import test_graph_anchor as t; print(t.check_edge_sets(7))'
"""

import random

from ccyclic.degree_sequences import (
    MAX_SUPPORTED_CYCLES,
    CyclomaticClass,
    enumerate_sequences,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
    min_order,
)
from ccyclic.majorization import expand_runs, runs_of
from ccyclic.realization import cyclomatic_number, realize

from oracles import connected_degree_sequences, random_connected_degrees


def check_edge_sets(n):
    """Check the members of every class of order n against its connected graphs.

    Each member must be the degree sequence of a connected graph with n
    vertices and n - 1 + c edges, and each such graph's degree sequence a
    member. Where c <= 6 both membership tables must accept every member.
    Returns the number of classes and the number of members.
    """
    classes = members = 0
    for c in range((n - 1) * (n - 2) // 2 + 1):
        klass = CyclomaticClass(c=c, n=n)
        population = enumerate_sequences(klass, cap=n)
        expected = connected_degree_sequences(n, n - 1 + c)
        assert {expand_runs(runs) for runs in population} == expected, klass
        if c <= MAX_SUPPORTED_CYCLES:
            for runs in population:
                assert is_ccyclic_sequence(runs, klass), (klass, runs)
                assert is_ccyclic_sequence_via_inequalities(runs, klass), (klass, runs)
        classes += 1
        members += len(population)
    return classes, members


def check_realizations(c_max, n_max):
    """Realize every member of every class with c <= c_max and n <= n_max.

    Each graph must give every vertex its entry's degree and have c
    independent cycles. Returns the number of members realized.
    """
    realized = 0
    for c in range(c_max + 1):
        for n in range(min_order(c), n_max + 1):
            for runs in enumerate_sequences(CyclomaticClass(c=c, n=n), cap=n):
                seq = expand_runs(runs)
                graph = realize(seq)
                assert graph.vertex_degrees() == list(seq), (c, seq)
                assert cyclomatic_number(graph) == c, (c, seq)
                realized += 1
    return realized


def test_members_are_the_degree_sequences_of_connected_graphs():
    counts = [check_edge_sets(n) for n in range(2, 7)]
    assert counts == [(1, 1), (2, 2), (4, 6), (7, 19), (11, 68)]


def test_every_member_is_realized_with_its_cycles():
    assert check_realizations(6, 12) == 4343


def test_random_connected_graphs_are_members():
    rng = random.Random(13)
    for _ in range(400):
        c = rng.randint(0, 15)
        n = rng.randint(min_order(c), 40)
        runs = runs_of(random_connected_degrees(rng, n, c))
        assert is_graphical(runs), (c, runs)
        if c <= MAX_SUPPORTED_CYCLES:
            klass = CyclomaticClass(c=c, n=n)
            assert is_ccyclic_sequence(runs, klass), (klass, runs)
            assert is_ccyclic_sequence_via_inequalities(runs, klass), (klass, runs)
