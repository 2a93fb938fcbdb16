"""Deterministic construction of connected simple graphs from degree sequences.

The builder is the classic greedy attachment (largest remaining degree first,
ties broken by vertex index) followed by a connectivity repair that trades a
cycle edge of one component against an edge of another.  Both phases preserve
the degree multiset, and the repair always terminates because a disconnected
graph with at least ``n - 1`` edges must own a component containing a cycle.

Attachment keeps the vertices in a heap, so it costs O(m log n) for m edges.
The repair keeps each component's cycle edges and updates them at each swap;
a component is searched again only after a swap that leaves it with new
bridges.  Neither phase rescans the whole graph per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .degree_sequences import is_graphical
from .majorization import runs_of


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


def _adjacency(n: int, edges) -> list:
    """Neighbour sets of the vertices 0..n-1."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def is_connected(graph: SimpleGraph) -> bool:
    return len(_cycle_edges(_adjacency(graph.n, graph.edges), range(graph.n))) == 1


def cyclomatic_number(graph: SimpleGraph) -> int:
    """Number of independent cycles, ``m - n + 1``; defined for connected graphs."""
    if not is_connected(graph):
        raise ValueError("cyclomatic number is only counted for connected graphs")
    return graph.edge_count - graph.n + 1


def _attach(degrees) -> set:
    """Greedy attachment: the vertex of largest remaining degree (smallest index
    among equals) is joined to the next ``need`` vertices in the same order.

    The order is a heap of keys ``v - remaining * n``, so a step pops its
    center and partners and pushes back the partners still short of degree.
    """
    n = len(degrees)
    heap = [v - d * n for v, d in enumerate(degrees)]  # sorted, so a heap: degrees are nonincreasing
    edges = set()
    while heap:
        key = heappop(heap)
        center, need = key % n, -(key // n)
        if len(heap) < need:
            raise AssertionError("greedy attachment ran out of partners on graphical input")
        partners = [heappop(heap) for _ in range(need)]
        for key in partners:
            edges.add(_edge(center, key % n))
            if key + n < 0:
                heappush(heap, key + n)
    return edges


def _cycle_edges(adjacency, roots) -> list:
    """``(root, cycle edges)`` of the component of each root not reached from an earlier root.

    The cycle edges are all edges but the bridges, found by an iterative
    depth-first search with low points: a tree edge lies on a cycle exactly
    when the subtree below it reaches its upper end or above.
    """
    index, low, found = {}, {}, []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        cycle = set()
        stack = [(root, None, iter(adjacency[root]))]
        while stack:
            v, parent, neighbours = stack[-1]
            for w in neighbours:
                if w == parent:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append((w, v, iter(adjacency[w])))
                    break
                if index[w] < index[v]:  # back edge to an ancestor
                    cycle.add(_edge(v, w))
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                stack.pop()
                if parent is not None and low[v] <= index[parent]:
                    cycle.add(_edge(parent, v))
                    if low[v] < low[parent]:
                        low[parent] = low[v]
        found.append((root, cycle))
    return found


def _reconnect(n: int, edges: set) -> None:
    """Join the components in place by edge swaps that keep every degree.

    While components remain, the smallest cycle edge ``(u, v)`` of the first
    component that has a cycle and the smallest edge ``(x, y)`` of the first
    other component (components ordered by smallest vertex) are replaced by
    ``(u, x)`` and ``(v, y)``, which merges the two.  As no vertex is
    isolated, ``x`` is that component's smallest vertex.  Each component
    keeps its cycle edges, in a set and a lazily pruned heap.  A swap
    updates them directly: ``(u, v)`` lies on a cycle, so when ``(x, y)``
    does too, every other edge keeps its status and the new edges close a
    cycle.  When ``(x, y)`` is a bridge, the merged component is searched
    again, and only if a later swap needs it.
    """
    adjacency = _adjacency(n, edges)
    # (smallest vertex, cycle edges or None for not yet searched, heap of them) per component,
    # ordered by smallest vertex
    parts = [(root, cycle, sorted(cycle)) for root, cycle in _cycle_edges(adjacency, range(n))]
    while len(parts) > 1:
        for donor, (root, cycle, heap) in enumerate(parts):
            if cycle is None:
                [(_, cycle)] = _cycle_edges(adjacency, (root,))
                heap = sorted(cycle)
                parts[donor] = (root, cycle, heap)
            while heap and heap[0] not in cycle:
                heappop(heap)
            if heap:
                break
        else:
            raise AssertionError("no cycle edge found while reconnecting components")
        receiver = 1 if donor == 0 else 0
        x, receiver_cycle, _ = parts[receiver]
        (u, v), y = heap[0], min(adjacency[x])
        for a, b in ((u, v), (x, y)):
            adjacency[a].discard(b)
            adjacency[b].discard(a)
            edges.discard((a, b))
        for a, b in ((u, x), (v, y)):
            adjacency[a].add(b)
            adjacency[b].add(a)
            edges.add(_edge(a, b))
        if (x, y) in receiver_cycle:
            cycle.discard((u, v))
            receiver_cycle.discard((x, y))
            receiver_cycle.update((_edge(u, x), _edge(v, y)))
            cycle |= receiver_cycle
            for e in receiver_cycle:
                heappush(heap, e)
        else:  # the new edges are bridges, and (u, v) may have closed the donor's last cycles
            cycle = None
        parts[0] = (min(root, x), cycle, heap)  # the merge holds the smallest vertex left
        del parts[max(donor, receiver)]


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
    if not is_graphical(runs_of(degrees)):
        raise RealizationError(f"{list(degrees)} is not graphical")
    if degrees[-1] < 1:
        raise RealizationError("connected graphs have no isolated vertices")
    if sum(degrees) < 2 * (n - 1):
        raise RealizationError("fewer edge endpoints than any spanning tree needs")

    edges = _attach(degrees)
    _reconnect(n, edges)
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
