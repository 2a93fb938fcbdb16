"""Independent brute-force oracles and random generators shared by the tests.

Everything here deliberately avoids the library's own algorithms: candidates
come from itertools or a tuple-per-level recursion, box points from a plain
bounded recursion, and comparable vectors from explicit mass transfers, so
library results can be checked against genuinely separate computations.
The exceptions are :func:`reference_extremality_report`, the former
pairwise report kept as a reference, built on the library's ``compare``, and
:func:`per_coordinate_compare`, the former entry-by-entry ``compare``, which
validates its input with the library's ``check_vector``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from operator import sub

from ccyclic.degree_sequences import ExtremalityReport
from ccyclic.majorization import Relation, check_vector, compare, expand_runs, is_majorized_by


def cwr_candidates(n, total, max_part=None):
    """All nonincreasing positive length-n tuples with the given sum.

    Uses combinations_with_replacement over a descending alphabet, which is
    a different mechanism than the library's pruned recursion.
    """
    cap = n - 1 if max_part is None else max_part
    out = []
    for tup in combinations_with_replacement(range(cap, 0, -1), n):
        if sum(tup) == total:
            out.append(tup)
    return out


def tuple_candidates(n, total):
    """The same candidates as ``candidate_sequences``, as tuples, by a recursion that
    builds one tuple per level.

    Yielded in descending lexicographic order; the recursion prunes on the
    amount of sum the remaining slots can still absorb.
    """

    def rec(slots, remaining, bound):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        high = min(bound, remaining - (slots - 1))
        low = -(-remaining // slots)  # ceil: parts below this cannot stay nonincreasing
        for part in range(high, max(low, 1) - 1, -1):
            for rest in rec(slots - 1, remaining - part, part):
                yield (part,) + rest

    if n < 1:
        return
    yield from rec(n, total, n - 1)


def published_inequalities(runs, klass):
    """Edge count plus prefix-sum inequalities, each written out as published, for c <= 6.

    The reference for the library's table form; ``runs`` is a valid
    run-length form of order n, missing entries count as zero.
    """
    n, c = klass.n, klass.c
    total = sum(degree * count for degree, count in runs)
    if total % 2:
        return False
    m = total // 2
    if m != n + c - 1:
        return False
    head = []
    for degree, count in runs:
        head += [degree] * min(count, 6)
    head += [0] * 6

    def d(i):
        return head[i - 1]

    if c == 0:
        return m >= 1
    if c == 1:
        return m >= 3 and d(1) + d(2) <= n + 1
    if c == 2:
        return m >= 5 and d(1) + d(2) <= n + 2 and d(1) + d(2) + d(3) <= n + 4
    if c == 3:
        return m >= 6 and d(1) + d(2) <= n + 3 and d(1) + d(2) + d(3) <= n + 5
    if c == 4:
        return (
            m >= 8
            and d(1) + d(2) <= n + 4
            and d(1) + d(2) + d(3) <= n + 6
            and d(1) + d(2) + d(3) + d(4) <= n + 9
        )
    if c == 5:
        return (
            m >= 9
            and d(1) + d(2) <= n + 5
            and d(1) + d(2) + d(3) <= n + 7
            and d(1) + d(2) + d(3) + d(4) <= n + 10
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) <= 2 * n + 16
        )
    if c == 6:
        return (
            m >= 10
            and d(1) + d(2) <= n + 6
            and d(1) + d(2) + d(3) <= n + 8
            and d(1) + d(2) + d(3) + d(4) <= n + 11
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) <= 2 * n + 18
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) + d(6) <= 2 * n + 20
        )
    raise ValueError(f"no inequality characterization implemented for c={c}")


def textbook_is_graphical(seq):
    """Erdos-Gallai as stated: every k, each tail sum recomputed, O(n^2).

    Same contract as the library's test: any order, False for an empty
    sequence or an entry outside [0, n-1].
    """
    degrees = sorted((int(d) for d in seq), reverse=True)
    n = len(degrees)
    if n == 0 or degrees[-1] < 0 or degrees[0] > n - 1:
        return False
    if sum(degrees) % 2:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += degrees[k - 1]
        slack = k * (k - 1) + sum(min(d, k) for d in degrees[k:])
        if prefix > slack:
            return False
    return True


def per_entry_power_sum(seq, alpha):
    """``sum(d ** alpha)`` with one Fraction power per entry."""
    return sum(Fraction(d) ** alpha for d in seq)


def random_connected_degrees(rng, n, c):
    """Degree sequence of a random connected graph with n vertices and n - 1 + c edges.

    A random recursive tree plus c random extra edges; c must fit the
    complete graph.
    """
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + c:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return tuple(sorted(degrees, reverse=True))


def box_integer_points(lower, upper, total):
    """All nonincreasing integer points of a box with the given component sum."""
    n = len(lower)
    points = []

    def rec(i, remaining, bound, prefix):
        if i == n:
            if remaining == 0:
                points.append(tuple(prefix))
            return
        lo = max(int(lower[i]), 0)
        hi = min(int(upper[i]), bound, remaining - sum(int(lower[j]) for j in range(i + 1, n)))
        for value in range(hi, lo - 1, -1):
            prefix.append(value)
            rec(i + 1, remaining - value, value, prefix)
            prefix.pop()

    rec(0, int(total), int(total), [])
    return points


def pinned_split_minimal(lower, upper, total):
    """The minimal element of a box by search over pinned prefixes and suffixes.

    Tries the flat vector at the average, then every split of ``span``
    coordinates into a prefix pinned at its lower bounds and a suffix pinned
    at its upper bounds, with the middle run at the one level that restores
    the sum; the first split that is a nonincreasing member of the box wins.
    Quadratic in the dimension, and independent of the library's water-level
    clamp.
    """
    lower = tuple(Fraction(v) for v in lower)
    upper = tuple(Fraction(v) for v in upper)
    total = Fraction(total)
    n = len(lower)
    flat = total / n
    if lower[0] <= flat <= upper[-1]:
        return (flat,) * n
    for span in range(1, n):
        for pin_low in range(span + 1):
            pin_high = span - pin_low
            middle = n - span
            level = (total - sum(lower[:pin_low]) - sum(upper[n - pin_high :])) / middle
            if not lower[pin_low] <= level <= upper[n - pin_high - 1]:
                continue
            vec = lower[:pin_low] + (level,) * middle + upper[n - pin_high :]
            if any(b > a for a, b in zip(vec, vec[1:])):
                continue
            if all(low <= x <= high for x, low, high in zip(vec, lower, upper)):
                return vec
    raise AssertionError(f"no pinned split of the box {lower}, {upper} sums to {total}")


def prefix_dominates(big, small):
    """Plain prefix-sum check that ``small`` is majorized by ``big`` (equal sums)."""
    if sum(big) != sum(small):
        return False
    acc_b = acc_s = 0
    for b, s in zip(big, small):
        acc_b += b
        acc_s += s
        if acc_s > acc_b:
            return False
    return True


def per_coordinate_compare(left, right):
    """The majorization order of two nonincreasing tuples from their prefix-sum gaps.

    One gap per entry, left minus right; the last is the difference of the totals.
    """
    if len(left) != len(right):
        raise ValueError(f"dimension mismatch: {len(left)} vs {len(right)}")
    check_vector(left)
    check_vector(right)
    gaps = list(accumulate(map(sub, left, right)))
    if not any(gaps):
        return Relation.EQUAL
    if gaps[-1]:
        return Relation.INCOMPARABLE
    if max(gaps) <= 0:
        return Relation.LESS_OR_EQUAL
    return Relation.GREATER_OR_EQUAL if min(gaps) >= 0 else Relation.INCOMPARABLE


def with_a_maximal_as_minimal(family):
    """The family with its first maximal put in as the minimal, which no check can pass."""
    if not family.maximal_runs:
        return family
    return replace(family, minimal_runs=family.maximal_runs[0])


def random_nonincreasing(rng, n, low=1, high=9):
    return tuple(sorted((rng.randint(low, high) for _ in range(n)), reverse=True))


def transfer_down(rng, vec, steps=None):
    """Random balancing transfers: the result is majorized by the input.

    Each step moves mass from a strictly larger entry to a strictly smaller
    one (at most their gap), which can only flatten the sorted vector.
    """
    values = list(vec)
    n = len(values)
    if steps is None:
        steps = rng.randint(0, 2 * n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if values[i] == values[j]:
            continue
        if values[i] < values[j]:
            i, j = j, i
        delta = rng.randint(0, values[i] - values[j])
        values[i] -= delta
        values[j] += delta
    return tuple(sorted(values, reverse=True))


def random_nested_boxes(rng, n_max=6, value_max=8):
    """A random integer box pair (inner, outer) with inner contained in outer.

    Returns (total, inner_lower, inner_upper, outer_lower, outer_upper); the
    total is feasible for the inner box and therefore for the outer one.
    """
    n = rng.randint(1, n_max)
    inner_upper = sorted((rng.randint(0, value_max) for _ in range(n)), reverse=True)
    inner_lower = []
    previous = None
    for i in range(n):
        cap = inner_upper[i] if previous is None else min(inner_upper[i], previous)
        low = rng.randint(0, cap)
        inner_lower.append(low)
        previous = low
    outer_upper = [u + rng.randint(0, 3) for u in inner_upper]
    for i in range(n - 2, -1, -1):  # re-sort upward without dropping below inner
        outer_upper[i] = max(outer_upper[i], outer_upper[i + 1])
    outer_lower = [max(0, low - rng.randint(0, 3)) for low in inner_lower]
    for i in range(1, n):  # re-sort downward without rising above inner
        outer_lower[i] = min(outer_lower[i], outer_lower[i - 1])
    total = rng.randint(sum(inner_lower), sum(inner_upper))
    return total, tuple(inner_lower), tuple(inner_upper), tuple(outer_lower), tuple(outer_upper)


# ---------------------------------------------------------------------------
# Per-coordinate box computations: the library works on segments and runs,
# these walk every coordinate of the expanded bound tuples.
# ---------------------------------------------------------------------------


def per_coordinate_contains(lower, upper, total, vec):
    """Box membership checked entry by entry: length, order, bounds and sum."""
    if len(vec) != len(lower):
        return False
    if any(b > a for a, b in zip(vec, vec[1:])):
        return False
    if any(not (low <= x <= high) for x, low, high in zip(vec, lower, upper)):
        return False
    return sum(vec) == total


def per_coordinate_maximal(lower, upper, total):
    """The maximal element by one pass over the coordinates.

    The first coordinate whose move to its upper bound would overshoot the
    total takes the filler; everything before it sits at its upper bound and
    everything after at its lower bound.
    """
    if total == sum(upper):
        return tuple(upper)
    top, tail = 0, sum(lower)
    for take in range(len(lower)):
        tail_next = tail - lower[take]
        if total < top + upper[take] + tail_next:
            return tuple(upper[:take]) + (total - top - tail_next,) + tuple(lower[take + 1 :])
        top += upper[take]
        tail = tail_next
    raise AssertionError("feasible box without a maximal element")


def per_coordinate_minimal(lower, upper, total):
    """The minimal element as one water level clamped into every coordinate's bounds.

    The level is found by bisection over the sorted bound values, with the
    clamped sum recomputed coordinate by coordinate at each probe.
    """

    def clamped_sum(level):
        return sum(min(high, max(low, level)) for low, high in zip(lower, upper))

    levels = sorted(set(lower) | set(upper))
    lo, hi = 0, len(levels) - 1
    while lo < hi:  # the least bound value whose clamped sum reaches the total
        mid = (lo + hi) // 2
        if clamped_sum(levels[mid]) < total:
            lo = mid + 1
        else:
            hi = mid
    level = levels[lo]
    reached = clamped_sum(level)
    if reached != total:
        below = levels[lo - 1]
        base = clamped_sum(below)
        level = below + Fraction((total - base) * (level - below), reached - base)
    return tuple(min(high, max(low, level)) for low, high in zip(lower, upper))


def per_coordinate_integerize(vec):
    """Round a minimal element: each run of equal entries becomes its two nearest integers.

    The larger integers come first and the run keeps its sum; runs are found
    by a scan over the entries.
    """
    out = []
    i = 0
    while i < len(vec):
        j = i
        while j < len(vec) and vec[j] == vec[i]:
            j += 1
        value, length = Fraction(vec[i]), j - i
        base = math.floor(value)
        bumped = int(value * length) - base * length
        out += [base + 1] * bumped + [base] * (length - bumped)
        i = j
    return tuple(out)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def _reach(n, edges, start):
    """Vertices reachable from ``start``, by a breadth-first search of the whole edge set."""
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen, queue = {start}, deque([start])
    while queue:
        for w in adjacency[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _rescanned_components(n, edges):
    out, seen = [], set()
    for start in range(n):
        if start not in seen:
            comp = _reach(n, edges, start)
            seen |= comp
            out.append(sorted(comp))
    return out


def rescanning_attach(degrees):
    """Greedy attachment by full rescans: every step scans all vertices for the
    center (largest remaining degree, smallest index) and sorts its partners afresh.
    """
    n = len(degrees)
    remaining = list(degrees)
    edges = set()
    while True:
        center = max(range(n), key=lambda v: (remaining[v], -v))
        need = remaining[center]
        if need == 0:
            return edges
        partners = sorted(
            (v for v in range(n) if v != center and remaining[v] > 0 and _edge(center, v) not in edges),
            key=lambda v: (-remaining[v], v),
        )
        remaining[center] = 0
        for v in partners[:need]:
            edges.add(_edge(center, v))
            remaining[v] -= 1


def rescanning_reconnect(n, edges):
    """The swap repair by full rescans; returns the new edge set.

    Each swap re-finds the components and tests every candidate edge by a
    breadth-first search of the whole graph without it.  The first component
    with a cycle gives its smallest cycle edge (u, v), the first other
    component its smallest edge (x, y); they become (u, x) and (v, y).
    """
    edges = set(edges)
    comps = _rescanned_components(n, edges)
    while len(comps) > 1:
        donor, (u, v) = next(
            (set(comp), e)
            for comp in comps
            for e in sorted(f for f in edges if f[0] in comp)
            if e[1] in _reach(n, edges - {e}, e[0])
        )
        receiver = next(set(c) for c in comps if c[0] not in donor)
        x, y = min(e for e in edges if e[0] in receiver)
        edges -= {(u, v), (x, y)}
        edges |= {_edge(u, x), _edge(v, y)}
        comps = _rescanned_components(n, edges)
    return edges


def rescanning_realization_edges(degrees):
    """Edges of the greedy attachment and swap repair, both redone by full rescans.

    ``degrees`` must be graphical, nonincreasing and positive, with enough
    edges for a spanning tree; ``realize`` must return exactly these edges.
    """
    return rescanning_reconnect(len(degrees), rescanning_attach(degrees))


def reference_extremality_report(family, population):
    """The extremality report by one ``compare`` per member and maximal, on expanded tuples."""
    maximals, minimal = family.maximals, family.minimal
    members_valid = all(runs in population for runs in family.maximal_runs) and (
        minimal is None or family.minimal_runs in population
    )
    incomparable = all(
        compare(a, b) is Relation.INCOMPARABLE
        for i, a in enumerate(maximals)
        for b in maximals[i + 1 :]
    )
    tops = list(zip(maximals, family.maximal_runs))
    uncovered = []
    witnesses = {}
    below = []
    for runs in population:
        # Expanded once: against a few fixed maximals, comparing tuples is
        # cheaper than comparing runs pair by pair.
        seq = expand_runs(runs)
        covered = False
        for top, top_runs in tops:
            rel = compare(seq, top)
            if rel is Relation.GREATER_OR_EQUAL:
                witnesses.setdefault(top_runs, runs)
            elif rel is not Relation.INCOMPARABLE:
                covered = True
                # Below one of pairwise incomparable maximals, seq cannot
                # strictly majorize another: that one would lie below this one.
                if incomparable:
                    break
        if not covered:
            uncovered.append(runs)
        if minimal is not None and not is_majorized_by(minimal, seq):
            below.append(runs)
    return ExtremalityReport(
        c=family.klass.c,
        n=family.klass.n,
        sequence_count=len(population),
        members_valid=members_valid,
        pairwise_incomparable=incomparable,
        not_below_any_maximal=tuple(uncovered),
        dominated_patterns=tuple(
            (top, witnesses[top]) for top in family.maximal_runs if top in witnesses
        ),
        not_above_minimal=tuple(below),
    )
