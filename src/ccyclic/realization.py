"""Deterministic construction of connected simple graphs from degree sequences.

One pass lays off vertex v = n-1, ..., 1 onto the earlier vertices of largest
remaining degree, as many as v still needs, taking the highest indices within
the run of equal degrees where those partners end.  So the remaining degrees
stay nonincreasing in index order, v has the least positive one, and the run's
ends are two bisections: the pass costs O(m + n log n) for m edges.

Why a graphical, positive, nonincreasing input with sum at least 2(n - 1)
gives a connected graph with exactly its degrees:

* Laying off any vertex onto the largest remaining degrees keeps the rest
  graphical (Kleitman & Wang, "Algorithms for constructing graphs and digraphs
  with given valences and factors", *Discrete Math.* 6, 1973), so no step runs
  out of partners and every degree is met.
* Call a vertex live while its remaining degree is positive.  The live degrees
  keep a sum of at least 2(live - 1), Hakimi's condition for a connected
  realization ("On realizability of a set of integers as degrees of the
  vertices of a linear graph I", *J. SIAM* 10, 1962).  Laying off v with
  remaining degree r lowers the sum by 2r and live by at least one.  If r = 1,
  the bound holds.  If r >= 2, every live degree is at least r, so the sum
  was at least r * live and stays at least r(live - 2) >= 2(live - 2).
* By induction the later steps join the vertices still live after v into one
  component, and v is adjacent to it unless all of v's partners leave.  That
  needs every live degree to be 1, which the bound allows only for v and one
  partner.  Partners that leave are adjacent to v, so the graph is connected.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

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


def is_connected(graph: SimpleGraph) -> bool:
    """Whether a search from vertex 0 reaches every vertex; the empty graph is not connected."""
    if graph.n == 0:
        return False
    adjacency = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


def cyclomatic_number(graph: SimpleGraph) -> int:
    """Number of independent cycles, ``m - n + 1``; defined for connected graphs."""
    if not is_connected(graph):
        raise ValueError("cyclomatic number is only counted for connected graphs")
    return graph.edge_count - graph.n + 1


def _lay_off(degrees) -> list:
    """The edges of the one pass.  ``negated`` holds the remaining degrees negated,
    so its entries before v stay nondecreasing and bisect without a key function."""
    negated = [-d for d in degrees]
    edges = []
    for v in range(len(negated) - 1, 0, -1):
        need = -negated[v]
        if need:
            if need > v or negated[need - 1] == 0:
                raise AssertionError("laying off ran out of partners on graphical input")
            low = bisect_left(negated, negated[need - 1], 0, v)
            high = bisect_right(negated, negated[need - 1], low, v)
            for u in chain(range(low), range(high - need + low, high)):
                negated[u] += 1
                edges.append((u, v))
    return edges


def realize(seq) -> SimpleGraph:
    """Build a connected simple graph in which vertex i has degree ``seq[i]``.

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

    graph = SimpleGraph(n=n, edges=frozenset(_lay_off(degrees)))
    if graph.vertex_degrees() != list(degrees):
        raise AssertionError("construction gave a vertex a degree other than its entry")
    if not is_connected(graph):
        raise AssertionError("construction left the graph disconnected")
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
