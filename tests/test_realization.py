"""Tests for graph construction, cyclomatic counting, and DOT export."""

import random
from itertools import combinations_with_replacement

import pytest

from ccyclic import realization
from ccyclic.degree_sequences import CyclomaticClass, enumerate_sequences, min_order
from ccyclic.majorization import expand_runs
from ccyclic.realization import (
    RealizationError,
    SimpleGraph,
    cyclomatic_number,
    export_dot,
    is_connected,
    realize,
)
from oracles import _reach, random_connected_degrees, rescanning_lay_off, textbook_is_graphical


class TestRealize:
    def test_star(self):
        graph = realize((4, 1, 1, 1, 1))
        assert graph.edges == frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})

    def test_triangle(self):
        graph = realize((2, 2, 2))
        assert graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_tricyclic_minimal(self):
        seq = (3, 3, 3, 3, 2, 2, 2, 2)
        graph = realize(seq)
        assert graph.vertex_degrees() == list(seq)
        assert graph.edge_count == 10
        assert cyclomatic_number(graph) == 3

    def test_non_graphical_rejected(self):
        with pytest.raises(RealizationError):
            realize((3, 1, 1))

    def test_disconnected_sum_rejected(self):
        with pytest.raises(RealizationError):
            realize((1, 1, 1, 1))

    def test_zero_degree_rejected(self):
        with pytest.raises(RealizationError):
            realize((2, 1, 1, 0))

    def test_deterministic(self):
        seq = (5, 4, 3, 3, 2, 2, 2, 1)
        assert realize(seq).edges == realize(seq).edges

    def test_all_twos_give_one_cycle(self):
        # two triangles also have these degrees; laying off the least degree first gives a hexagon
        graph = realize((2, 2, 2, 2, 2, 2))
        assert is_connected(graph)
        assert graph.vertex_degrees() == [2] * 6

    def test_a_vertex_given_another_entrys_degree_is_caught(self, monkeypatch):
        # swapping vertices 0 and 4 keeps the degree multiset: only a per-vertex check sees it
        original, swap = realization._lay_off, {0: 4, 4: 0}
        monkeypatch.setattr(realization, "_lay_off", lambda degrees: [
            tuple(sorted((swap.get(u, u), swap.get(v, v)))) for u, v in original(degrees)
        ])
        with pytest.raises(AssertionError, match="a degree other than its entry"):
            realize((3, 2, 2, 2, 1))


class TestCyclomaticNumber:
    def test_triangle(self):
        assert cyclomatic_number(realize((2, 2, 2))) == 1

    def test_path(self):
        assert cyclomatic_number(realize((2, 2, 2, 2, 1, 1))) == 0

    def test_tricyclic_widest(self):
        assert cyclomatic_number(realize((7, 4, 2, 2, 2, 1, 1, 1))) == 3

    def test_disconnected_rejected(self):
        graph = SimpleGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        with pytest.raises(ValueError):
            cyclomatic_number(graph)


class TestExportDot:
    def test_triangle_document(self):
        doc = export_dot(realize((2, 2, 2)))
        assert doc == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"

    def test_star_hub_first(self):
        doc = export_dot(realize((4, 1, 1, 1, 1)), label="star")
        lines = doc.splitlines()
        assert lines[1] == '  label="star";'
        edge_lines = [line for line in lines if "--" in line]
        assert len(edge_lines) == 4
        assert all(line.strip().startswith("0 --") for line in edge_lines)

    def test_edge_count_matches_class(self):
        for c, seq in [(3, (7, 3, 3, 3, 1, 1, 1, 1)), (5, (8, 6, 2, 2, 2, 2, 2, 1, 1))]:
            doc = export_dot(realize(seq))
            n = len(seq)
            assert doc.count("--") == n + c - 1

    def test_deterministic(self):
        seq = (6, 5, 3, 3, 2, 2, 1)
        assert export_dot(realize(seq)) == export_dot(realize(seq))


def test_roundtrip_all_classes():
    """Every enumerated class sequence realizes with the right degrees and c,
    and with the edges the rescanning oracle picks."""
    for c in range(7):
        for n in range(min_order(c), 11):
            klass = CyclomaticClass(c=c, n=n)
            for seq in map(expand_runs, enumerate_sequences(klass)):
                graph = realize(seq)
                assert graph.edges == rescanning_lay_off(seq), (c, n, seq)
                assert graph.vertex_degrees() == list(seq), (c, n, seq)
                assert is_connected(graph)
                assert cyclomatic_number(graph) == c, (c, n, seq)


def test_edges_match_rescanning_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(2, 40)
        c = rng.randrange(0, min(7, (n - 1) * (n - 2) // 2 + 1))
        seq = random_connected_degrees(rng, n, c)
        assert realize(seq).edges == rescanning_lay_off(seq), seq


@pytest.mark.parametrize("threes, leaves", [(0, 0), (2, 0), (4, 2), (6, 0), (10, 0), (12, 2)])
def test_long_path_like_sequences_match_rescanning_oracle(threes, leaves):
    # a few 3s among 2s: long runs of equal degrees, so the tie rule picks most partners
    seq = (3,) * threes + (2,) * (150 - threes - leaves) + (1,) * leaves
    assert realize(seq).edges == rescanning_lay_off(seq)


@pytest.mark.parametrize("twos, ones", [(0, 2), (8, 4), (20, 20)])
def test_hub_like_sequences_match_rescanning_oracle(twos, ones):
    n = 120
    seq = (n - 1,) + (3,) * twos + (2,) * ones + (1,) * (n - 1 - twos - ones)
    assert realize(seq).edges == rescanning_lay_off(seq)


def test_every_connectable_sequence_realizes_connected():
    """Every graphical sequence with positive entries and sum >= 2(n - 1), n <= 10,
    comes out with exactly its degrees and connected by an independent search."""
    count = 0
    for n in range(2, 11):
        for seq in combinations_with_replacement(range(n - 1, 0, -1), n):
            if sum(seq) >= 2 * (n - 1) and textbook_is_graphical(seq):
                graph = realize(seq)
                assert graph.vertex_degrees() == list(seq), seq
                assert len(_reach(n, graph.edges, 0)) == n, seq
                count += 1
    assert count == 15968
