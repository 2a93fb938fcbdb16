"""Independent brute-force oracles and random generators shared by the tests.

Everything here deliberately avoids the library's own algorithms: candidates
come from itertools or a tuple-per-level recursion, box points from a plain
bounded recursion, and comparable vectors from explicit mass transfers, so
library results can be checked against genuinely separate computations.
The exception is :func:`per_coordinate_compare`, the former entry-by-entry
``compare``, which validates its input with the library's ``check_vector``.
:func:`reference_extremality_report` is the former pairwise report, kept as a
reference on :func:`prefix_sum_relation`.  :func:`tuple_patterns`
is the former tuple builder of the closed-form patterns, kept as a reference.
:func:`reference_verify_bounds` is the former oracle index check, one
``evaluate`` per member, kept as a reference for the ranking keys.
:func:`reference_equivalence_check` is the former first pass of ``verify``,
the three membership tests per candidate; with the two references above it
is the separate-pass oracle that ``walk_class`` is checked against.
:func:`walks_without_population` makes a front end prove that it walks.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from operator import sub

from ccyclic import degree_sequences
from ccyclic.bounds import EXACT_MATCH, MISMATCH, OracleOutcome
from ccyclic.degree_sequences import (
    ExtremalityReport,
    class_candidates,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
)
from ccyclic.indices import INVERSE_DEGREE, evaluate, same_value
from ccyclic.majorization import Relation, check_vector, expand_runs


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
    """The majorization order of two nonincreasing tuples from their prefix-sum gaps."""
    if len(left) != len(right):
        raise ValueError(f"dimension mismatch: {len(left)} vs {len(right)}")
    check_vector(left)
    check_vector(right)
    return prefix_sum_relation(left, right)


def prefix_sum_relation(left, right):
    """The order of two equal-length tuples' prefix sums, taken as given, sorted or not.

    One gap per entry, left minus right; the last is the difference of the totals.
    """
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


def upside_down(family):
    """The family with its minimal as the only maximal and its first maximal as the minimal."""
    return replace(
        family, maximal_runs=(family.minimal_runs,), minimal_runs=family.maximal_runs[0]
    )


def tuple_patterns(c, n):
    """The closed-form patterns at (c, n) as ``(maximals, minimal or None)``, in tuples.

    The former tuple builder of ``parametric_extremal_family``, kept as a
    reference: each pattern is written entry by entry, its zero entries are
    dropped, and it is kept only if it is a nonincreasing length-n sequence
    in [1, n-1] with the class total 2(n + c - 1).
    """
    total = 2 * (n + c - 1)

    def valid(seq):
        return (
            len(seq) == n
            and sum(seq) == total
            and all(a >= b for a, b in zip(seq, seq[1:]))
            and 1 <= seq[-1]
            and seq[0] <= n - 1
        )

    maximals = []

    def push(*parts):
        seq = tuple(d for d in parts if d > 0)
        if valid(seq):
            maximals.append(seq)

    if n - c - 2 >= 0:
        push(n - 1, c + 1, *([2] * c), *([1] * (n - c - 2)))
    if c >= 3 and n - c - 1 >= 0:
        push(n - 1, c, 3, 3, *([2] * (c - 3)), *([1] * (n - c - 1)))
    if c >= 5 and n - c >= 0:
        push(n - 1, c - 1, 4, 3, 3, *([2] * (c - 5)), *([1] * (n - c)))
    minimal = None
    if c >= 1 and 2 * c - 2 <= n:
        seq = (3,) * (2 * c - 2) + (2,) * (n - 2 * c + 2)
        if valid(seq):
            minimal = seq
    return tuple(maximals), minimal


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


def rescanning_lay_off(degrees):
    """The edges of ``realize``'s one pass, redone by full rescans.

    Every step scans for the last vertex with a positive remaining degree,
    sorts the other live vertices by (-remaining, -index) and joins it to the
    first ``need`` of them.  No bisection, and no reliance on the remaining
    degrees staying sorted.  ``degrees`` must be graphical, nonincreasing and
    positive, with enough edges for a spanning tree.
    """
    remaining = list(degrees)
    edges = set()
    while any(remaining):
        v = max(u for u in range(len(remaining)) if remaining[u] > 0)
        partners = sorted(
            (u for u in range(len(remaining)) if u != v and remaining[u] > 0),
            key=lambda u: (-remaining[u], -u),
        )
        need, remaining[v] = remaining[v], 0
        if len(partners) < need:
            raise ValueError(f"{list(degrees)} ran out of partners")
        for u in partners[:need]:
            edges.add((u, v))  # u < v: v is the last live vertex
            remaining[u] -= 1
    return edges


def expanded_family(family):
    """The family as ``(maximals, minimal or None)``, each sequence expanded into a tuple."""
    minimal = family.minimal_runs
    return (
        tuple(map(expand_runs, family.maximal_runs)),
        None if minimal is None else expand_runs(minimal),
    )


def reference_extremality_report(family, population):
    """The extremality report by one :func:`prefix_sum_relation` per member and maximal.

    On expanded tuples, taken as given: for a family out of order, or off the
    class total, the prefix sums decide as they do for a sorted one.
    """
    maximals, minimal = expanded_family(family)
    members_valid = all(runs in population for runs in family.maximal_runs) and (
        minimal is None or family.minimal_runs in population
    )
    incomparable = all(
        prefix_sum_relation(a, b) is Relation.INCOMPARABLE
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
            rel = prefix_sum_relation(seq, top)
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
        if minimal is not None and prefix_sum_relation(minimal, seq) not in (
            Relation.EQUAL, Relation.LESS_OR_EQUAL
        ):
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


def reference_verify_bounds(report, population):
    """The oracle index check by one ``evaluate`` per member, ties by ``same_value``.

    Ranks members by their values, so a multiplicative Zagreb tie is decided
    by the float log sums, within a relative 1e-12.
    """
    index = report.index
    values = [(runs, evaluate(index, runs)) for runs in population]
    minimum = min(v for _, v in values)
    maximum = max(v for _, v in values)
    minimizers = tuple(s for s, v in values if same_value(v, minimum))
    maximizers = tuple(s for s, v in values if same_value(v, maximum))
    ok = (
        same_value(report.lower, minimum)
        and same_value(report.upper, maximum)
        and report.lower_attainer in minimizers
        and report.upper_attainer in maximizers
    )
    refined = None
    if report.refined_upper is not None:
        c = report.klass.c
        spread = [v for runs, v in values if sum(m for d, m in runs if d >= 2) >= c + 2]
        if index.kind == INVERSE_DEGREE and spread:
            refined = max(spread)
        ok = ok and refined is not None and same_value(report.refined_upper, refined)
    return OracleOutcome(
        status=EXACT_MATCH if ok else MISMATCH,
        minimum=minimum,
        maximum=maximum,
        minimizers=minimizers,
        maximizers=maximizers,
        refined_maximum=refined,
    )


def reference_equivalence_check(klass, cap):
    """Compare the three membership tests on every candidate with the right sum.

    Returns the candidate count, the candidates on which the tests disagree
    as ``(runs, counting, inequalities, graphical)``, and the candidates the
    Erdos-Gallai test accepts, as runs: the class population.  Raises
    ``EnumerationCapError`` above the cap.
    """
    failures = []
    members = []
    count = 0
    for runs in class_candidates(klass, cap):
        count += 1
        counting = is_ccyclic_sequence(runs, klass)
        inequalities = is_ccyclic_sequence_via_inequalities(runs, klass)
        graphical = is_graphical(runs)
        if not (counting == inequalities == graphical):
            failures.append((runs, counting, inequalities, graphical))
        if graphical:
            members.append(runs)
    return count, failures, members


def walks_without_population(monkeypatch):
    """Record each ``walk_class`` call's (c, n), and make every population builder raise.

    Patches the names in every loaded ``ccyclic`` module; returns the list of
    walked classes, in call order.
    """
    walk = degree_sequences.walk_class
    walked = []

    def counting_walk(klass, *args, **kwargs):
        walked.append((klass.c, klass.n))
        return walk(klass, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a population was built")

    replaced = {
        walk: counting_walk,
        degree_sequences.graphical_class_sequences: refused,
        degree_sequences.enumerate_sequences: refused,
        degree_sequences.candidate_sequences: refused,
    }
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "ccyclic":
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    monkeypatch.setattr(module, attr, replaced[value])
    return walked
