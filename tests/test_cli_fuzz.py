"""Bounded fuzz of the CLI: any argv from a small hostile grammar ends cleanly.

Every run must return an exit code in {0, 1, 2, 3} without an exception
escaping ``main``, and a second run of the same argv must print the same
stdout.  ``extremal``, and ``bounds`` and ``tables`` without ``--verify``,
also draw n from {100, 1000, 5000}: their cost grows with the runs of the
extremal sequences, not with n.  ``realize`` also draws sequences of those
orders: path-like, hub-like, all 2s, or two hubs over leaves, which is not
graphical.  ``verify``, ``bounds --verify`` and ``tables --verify`` stay at
n <= 9 because the CLI has no work budget yet: the enumeration cap bounds
the order, not the number of candidates visited (ROADMAP item 5).  The
bound keeps this test under a few seconds; it does not mean larger orders
are handled well there.
"""

import contextlib
import io

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ccyclic.cli import main

ORDERS = st.integers(0, 9).map(str)
ALL_ORDERS = st.one_of(ORDERS, st.sampled_from(["100", "1000", "5000"]))
CYCLES = st.integers(-1, 8).map(str)
HOSTILE_TEXT = st.sampled_from(["", "x", "1..", "..", "3..1", "1..2..3", "1.5", "-"])
CYCLE_TEXT = st.one_of(
    st.integers(0, 6).map(str),
    CYCLES,
    st.tuples(st.integers(-1, 8), st.integers(-1, 8)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
    HOSTILE_TEXT,
)
ALPHAS = st.sampled_from([
    "0", "1", "x", "1e400", "1000000/3", "-1/2", "2", "1/2", "-1",
    "0.9999999999999999", "1.0000000000000002",
])
CAPS = st.integers(-1, 9).map(str)


@st.composite
def long_sequences(draw):
    """A degree sequence of order 100, 1000 or 5000, as ``--seq`` text."""
    n = draw(st.sampled_from([100, 1000, 5000]))
    threes, leaves = draw(st.sampled_from([0, 2, 12])), draw(st.sampled_from([0, 2]))
    seq = draw(
        st.sampled_from(
            [
                (3,) * threes + (2,) * (n - threes - leaves) + (1,) * leaves,
                (n - 1,) + (3,) * threes + (2,) * 2 + (1,) * (n - 3 - threes),
                (2,) * n,
                (n - 1, n - 1) + (1,) * (n - 2),
            ]
        )
    )
    return ",".join(map(str, seq))


SEQUENCES = st.one_of(
    st.lists(st.integers(-1, 9), min_size=1, max_size=9).map(
        lambda ds: ",".join(map(str, sorted(ds, reverse=True)))
    ),
    st.lists(st.integers(0, 9), min_size=1, max_size=9).map(lambda ds: ",".join(map(str, ds))),
    st.sampled_from(["", ",", "3,,1", "a", "2,2,2", "3,3,2,2,2", "7,3,3,3,1,1,1,1"]),
    long_sequences(),
)
FORMATS = st.sampled_from(["text", "csv", "json", "text", "csv", "json", "yaml"])
#: index options: mostly well-formed pairs, then any index with any exponent
INDEX_OPTIONS = st.one_of(
    ALPHAS.map(lambda alpha: ["--index=general-zagreb", f"--alpha={alpha}"]),
    st.just(["--index=inverse-degree"]),
    st.just(["--index=mult-zagreb-log"]),
    st.tuples(
        st.sampled_from(["general-zagreb", "inverse-degree", "mult-zagreb-log", "wiener"]),
        ALPHAS,
    ).map(lambda pair: [f"--index={pair[0]}", f"--alpha={pair[1]}"]),
)


def _option(draw, name, values):
    """``--name=value`` half of the time, otherwise nothing."""
    return [f"--{name}={draw(values)}"] if draw(st.booleans()) else []


def _flag(draw, name):
    return [f"--{name}"] if draw(st.booleans()) else []


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["extremal", "bounds", "verify", "realize", "tables"]))
    argv = [command]
    if command == "extremal":
        argv += [f"--n={draw(ALL_ORDERS)}", f"--c={draw(st.one_of(CYCLES, HOSTILE_TEXT))}"]
        argv += _option(draw, "format", FORMATS)
    elif command == "bounds":
        verify = _flag(draw, "verify")
        argv += [f"--n={draw(ORDERS if verify else ALL_ORDERS)}", f"--c={draw(CYCLE_TEXT)}"]
        argv += draw(INDEX_OPTIONS)
        argv += draw(st.sampled_from([[], [], [], ["--refined"]])) + verify
        argv += _option(draw, "cap", CAPS) + _option(draw, "format", FORMATS)
    elif command == "verify":
        argv += _option(draw, "n", ORDERS) + _option(draw, "n-max", ORDERS)
        argv += _option(draw, "c", CYCLE_TEXT)
        argv += _flag(draw, "equivalence-only") + _flag(draw, "conjecture")
        argv += _option(draw, "cap", CAPS)
    elif command == "tables":
        verify = _flag(draw, "verify")
        argv += [f"--n={draw(ORDERS if verify else ALL_ORDERS)}"] + verify
        argv += _option(draw, "alpha", ALPHAS) + _option(draw, "cap", CAPS)
    else:
        argv += [f"--seq={draw(SEQUENCES)}"]
        argv += _option(draw, "check-c", CYCLES)
        argv += _option(draw, "label", st.sampled_from(["", 'a"b', "x\\y"]))
    return [command] + draw(st.permutations(argv[1:]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=800)
@given(argvs())
# a class whose power sums tie to within rounding, which the draws need not reach
@example(["bounds", "--verify", "--alpha=0.9999999999999999", "--c=1", "--n=9"])
def test_any_argv_ends_in_a_documented_exit_code(argv):
    code, out, err = _run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert _run(argv)[1] == out, argv
