"""Deterministic construction of connected simple graphs from degree sequences.

The builder is the classic greedy attachment (largest remaining degree first,
ties broken by vertex index) followed by a connectivity repair that trades a
cycle edge of one component against an edge of another.  Both phases preserve
the degree multiset, and the repair always terminates because a disconnected
graph with at least ``n - 1`` edges must own a component containing a cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .degree_sequences import is_graphical


class RealizationError(ValueError):
    """The sequence cannot be realized as a connected simple graph."""


def _edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or misordered")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_degrees(self) -> list:
        degrees = [0] * self.n
        for u, v in self.edges:
            degrees[u] += 1
            degrees[v] += 1
        return degrees

    def degree_sequence(self) -> tuple:
        return tuple(sorted(self.vertex_degrees(), reverse=True))


def _components(n: int, edges) -> list:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(comp))
    return components


def is_connected(graph: SimpleGraph) -> bool:
    return len(_components(graph.n, graph.edges)) == 1


def cyclomatic_number(graph: SimpleGraph) -> int:
    """Number of independent cycles, ``m - n + 1``; defined for connected graphs."""
    if not is_connected(graph):
        raise ValueError("cyclomatic number is only counted for connected graphs")
    return graph.edge_count - graph.n + 1


def _is_cycle_edge(n: int, edges: set, edge: tuple) -> bool:
    """True when removing the edge keeps its endpoints connected."""
    u, v = edge
    remaining = edges - {edge}
    adjacency = [[] for _ in range(n)]
    for a, b in remaining:
        adjacency[a].append(b)
        adjacency[b].append(a)
    queue = deque([u])
    seen = {u}
    while queue:
        x = queue.popleft()
        if x == v:
            return True
        for w in adjacency[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def realize(seq) -> SimpleGraph:
    """Build a connected simple graph whose sorted degree list equals ``seq``.

    Raises :class:`RealizationError` when the sequence is not graphical, has
    an entry below 1, or has too small a sum for any connected graph.  The
    construction is deterministic: identical input yields identical edges.
    """
    degrees = tuple(int(d) for d in seq)
    n = len(degrees)
    if n == 0:
        raise RealizationError("empty degree sequence")
    if any(a < b for a, b in zip(degrees, degrees[1:])):
        raise RealizationError("degrees must be sorted nonincreasing")
    if not is_graphical(degrees):
        raise RealizationError(f"{list(degrees)} is not graphical")
    if degrees[-1] < 1:
        raise RealizationError("connected graphs have no isolated vertices")
    if sum(degrees) < 2 * (n - 1):
        raise RealizationError("fewer edge endpoints than any spanning tree needs")

    remaining = list(degrees)
    edges: set = set()
    while True:
        center = max(range(n), key=lambda v: (remaining[v], -v))
        need = remaining[center]
        if need == 0:
            break
        partners = sorted(
            (
                v
                for v in range(n)
                if v != center and remaining[v] > 0 and _edge(center, v) not in edges
            ),
            key=lambda v: (-remaining[v], v),
        )
        if len(partners) < need:
            raise AssertionError("greedy attachment ran out of partners on graphical input")
        remaining[center] = 0
        for v in partners[:need]:
            edges.add(_edge(center, v))
            remaining[v] -= 1

    components = _components(n, edges)
    while len(components) > 1:
        swap = None
        for comp in components:
            comp_set = set(comp)
            for edge in sorted(e for e in edges if e[0] in comp_set):
                if _is_cycle_edge(n, edges, edge):
                    swap = (comp_set, edge)
                    break
            if swap:
                break
        if swap is None:
            raise AssertionError("no cycle edge found while reconnecting components")
        donor_set, (u, v) = swap
        receiver = next(c for c in components if c[0] not in donor_set)
        receiver_set = set(receiver)
        x, y = min(e for e in edges if e[0] in receiver_set)
        edges.discard((u, v))
        edges.discard((x, y))
        edges.add(_edge(u, x))
        edges.add(_edge(v, y))
        components = _components(n, edges)

    graph = SimpleGraph(n=n, edges=frozenset(edges))
    if graph.degree_sequence() != degrees:
        raise AssertionError("construction changed the degree multiset")
    return graph


def export_dot(graph: SimpleGraph, label: str = "") -> str:
    """Render the graph as DOT text, deterministically.

    Vertices are renumbered 0..n-1 in order of decreasing degree (original
    index breaking ties) and edges are listed lexicographically, so equal
    graphs produce byte-identical documents.
    """
    degrees = graph.vertex_degrees()
    order = sorted(range(graph.n), key=lambda v: (-degrees[v], v))
    relabel = {old: new for new, old in enumerate(order)}
    edges = sorted(_edge(relabel[u], relabel[v]) for u, v in graph.edges)
    lines = ["graph G {"]
    if label:
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  label="{escaped}";')
    for v in range(graph.n):
        lines.append(f"  {v};")
    for u, v in edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
