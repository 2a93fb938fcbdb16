"""The benchmark's workloads: op lists, seeded inputs and output checks.

One op is one ``ccyclic.cli.main(argv)`` call.  A workload is a fixed list
of ops run one after another (a closed loop with a single client).  The
seed permutes the op order of every pass and generates the two ``realize``
inputs of ``large-order``; every other op is fixed, and its exit code and
stdout digest were recorded from the code the benchmark was written
against (``expected.json``).  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.json")

ORACLE_ORDER = 16
CONJECTURE_ORDER = 14
LARGE_ORDER = 1000
PATH_ORDER = 400
HUB_ORDER = 200


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str  # "verify" | "conjecture" | "fixed" | "realize"
    degrees: tuple = ()  # requested degree sequence of a realize op

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def fixed_ops(workload: str) -> list:
    if workload == "oracle-verify":
        n = str(ORACLE_ORDER)
        return [Op(("verify", "--n", n, "--c", str(c), "--cap", n), "verify") for c in range(7)]
    if workload == "conjecture-scan":
        n = str(CONJECTURE_ORDER)
        return [
            Op(("verify", "--conjecture", "--n-max", n, "--cap", n, "--c", str(c)), "conjecture")
            for c in range(7, 11)
        ]
    if workload == "large-order":
        n = str(LARGE_ORDER)
        ops = [Op(("extremal", "--n", n, "--c", str(c)), "fixed") for c in range(7)]
        ops.append(
            Op(("bounds", "--n", n, "--c", "3..6", "--index", "inverse-degree", "--refined"), "fixed")
        )
        for alpha in ("2", "3", "1/2"):
            ops.append(Op(("bounds", "--n", n, "--c", "1..6", "--alpha", alpha), "fixed"))
        ops.append(Op(("bounds", "--n", n, "--c", "1..6", "--index", "mult-zagreb-log"), "fixed"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("oracle-verify", "conjecture-scan", "large-order")


def _realize_op(degrees: tuple) -> Op:
    return Op(("realize", "--seq", ",".join(map(str, degrees))), "realize", degrees)


def path_like(rng, n: int = PATH_ORDER) -> tuple:
    """A long path-like sequence: a few 3s among 2s, ending in zero or two leaves."""
    threes = rng.choice((2, 4, 6, 8, 10, 12))
    leaves = rng.choice((0, 2))
    return (3,) * threes + (2,) * (n - threes - leaves) + (1,) * leaves


def hub_like(rng, n: int = HUB_ORDER) -> tuple:
    """One vertex adjacent to all others; the rest carry a linear forest on top.

    Removing the hub leaves degrees 2^b 1^a 0^rest with a even and a >= 2,
    which a union of a/2 paths realizes, so the sequence is graphical.
    """
    twos = rng.randrange(0, 21)
    ones = 2 * rng.randrange(1, 11)
    return (n - 1,) + (3,) * twos + (2,) * ones + (1,) * (n - 1 - twos - ones)


def build_ops(workload: str, rng) -> list:
    """Every op of one pass, in recorded order; passes shuffle it with the same rng."""
    ops = fixed_ops(workload)
    if workload == "large-order":
        ops += [_realize_op(path_like(rng)), _realize_op(hub_like(rng))]
    return ops


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"^summary: (\d+) checks, (\d+) ok, 0 mismatched, skipped=no$")
_EXTREMALITY = re.compile(r"^extremality c=\d+ n=\d+: ok \((\d+) sequences\)$")
_CONJECTURE = re.compile(
    r"^CONJECTURE c=\d+ n=\d+: closed-form patterns extremal over (\d+) sequences: holds$"
)
_SEQUENCE = re.compile(r"\[[^\]]*\]")
_DOT_VERTEX = re.compile(r"^  (\d+);$")
_DOT_EDGE = re.compile(r"^  (\d+) -- (\d+);$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def sequences_checked(op: Op, stdout: str) -> int:
    """Degree sequences an op's output vouches for.

    ``verify`` ops: class members enumerated and checked.  ``extremal`` and
    ``bounds`` ops: degree sequences reported.  ``realize`` ops: one.
    """
    lines = stdout.splitlines()
    if op.kind == "verify":
        return sum(int(m.group(1)) for m in map(_EXTREMALITY.match, lines) if m)
    if op.kind == "conjecture":
        return sum(int(m.group(1)) for m in map(_CONJECTURE.match, lines) if m)
    if op.kind == "realize":
        return 1
    return len(_SEQUENCE.findall(stdout))


def check_dot(text: str, degrees: tuple) -> str:
    """Parse DOT back; return '' for a connected simple graph with the requested degrees."""
    lines = text.splitlines()
    if not lines or lines[0] != "graph G {" or lines[-1] != "}":
        return "not a DOT graph document"
    vertices = set()
    edges = set()
    for line in lines[1:-1]:
        if line.startswith("  label="):
            continue
        vertex = _DOT_VERTEX.match(line)
        edge = _DOT_EDGE.match(line)
        if vertex:
            vertices.add(int(vertex.group(1)))
        elif edge:
            u, v = sorted((int(edge.group(1)), int(edge.group(2))))
            if u == v:
                return f"self-loop at {u}"
            if (u, v) in edges:
                return f"repeated edge {u} -- {v}"
            edges.add((u, v))
        else:
            return f"unexpected DOT line {line!r}"
    n = len(degrees)
    if vertices != set(range(n)):
        return f"vertex set is not 0..{n - 1}"
    adjacency = {v: [] for v in vertices}
    for u, v in edges:
        if v not in adjacency:
            return f"edge {u} -- {v} leaves the vertex set"
        adjacency[u].append(v)
        adjacency[v].append(u)
    if tuple(sorted((len(a) for a in adjacency.values()), reverse=True)) != degrees:
        return "degrees differ from the requested sequence"
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adjacency[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        return "graph is not connected"
    if len(edges) - n + 1 != sum(degrees) // 2 - n + 1:
        return "cyclomatic number differs from sum/2 - n + 1"
    return ""


def check_op(op: Op, code: int, stdout: str, expected: dict) -> str:
    """Return '' when the op's exit code and output are right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if op.kind == "realize":
        return check_dot(stdout, op.degrees)
    want = expected.get(op.key)
    if want is None:
        return "no recorded output"
    if (code, digest(stdout)) != (want["exit"], want["sha256"]):
        return "output differs from the recorded digest"
    lines = stdout.splitlines()
    if op.kind == "verify" and not (lines and _SUMMARY.match(lines[-1])):
        return "summary line lacks '0 mismatched'"
    if op.kind == "conjecture" and not all(map(_CONJECTURE.match, lines)):
        return "a conjecture line does not hold"
    return ""
