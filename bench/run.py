#!/usr/bin/env python3
"""Benchmark of the ccyclic command line and of each library layer below it.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 20 --trace 0

Workloads: oracle-verify, conjecture-scan, large-order (see README.md).
With ``--trace 0`` the run reports the end-to-end metrics: the seconds of
one pass over the workload's op list, degree sequences checked per second,
interpreter start plus ``import ccyclic.cli``, and peak memory.  Times are
medians over the run, in reference seconds: each measured interval is scaled
by the machine speed that ``gauge.py`` samples right before and after it.
With ``--trace 1`` it alternates traced and untraced passes and reports the
per-layer counts and self times.  Every op's exit code and output are
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, pass times, span table) goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from gauge import Gauge
from tracer import INDEX_KINDS, LAYERS, Tracer

MIN_PASSES = 3
#: fresh interpreters timed after each timed pass
SETUPS_PER_PASS = 3
#: stop starting passes once this much of a run has gone, so a slow build still exits in time
RUN_CEILING_S = 140.0
RESULTS_DIR = ".bench_results"


class Runner:
    """Runs passes over one workload's ops and checks every op's output."""

    def __init__(self, ops, rng, expected):
        self.ops = ops
        self.rng = rng
        self.expected = expected
        self.attempted = 0
        self.failed = 0  # ops whose exit code or output check failed
        self.problems = []  # (op or check, reason)
        self.sequences = None  # degree sequences checked by one pass
        self.op_times = {}  # op -> reference seconds of each gauged run of it
        self.raw_op_times = {}  # op -> measured seconds of the same runs

    def run_pass(self, gauge: Gauge | None = None) -> float:
        """One pass in a freshly shuffled order; returns the summed measured op time.

        With a gauge, the gauge is sampled after every op and each op's
        reference time is kept.
        """
        order = list(self.ops)
        self.rng.shuffle(order)
        wall = 0.0
        sequences = 0
        for op in order:
            out, err = io.StringIO(), io.StringIO()
            main = sys.modules["ccyclic.cli"].main  # looked up per call so tracing sees it
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = main(list(op.argv))
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    code, problem = None, f"raised {exc!r}"
                elapsed = time.perf_counter() - start
            wall += elapsed
            if gauge is not None:
                self.op_times.setdefault(op, []).append(gauge.scale(elapsed))
                self.raw_op_times.setdefault(op, []).append(elapsed)
            if code is not None:
                problem = workloads.check_op(op, code, out.getvalue(), self.expected)
            self.attempted += 1
            if problem:
                self.failed += 1
                self.problems.append((op.key[:80], problem))
            sequences += workloads.sequences_checked(op, out.getvalue())
        if self.sequences is None:
            self.sequences = sequences
        elif sequences != self.sequences:
            self.problems.append(("<pass>", "sequence count changed between passes"))
        return wall


def time_setup(root: Path, gauge: Gauge) -> tuple:
    """Measured and reference seconds for a fresh interpreter to start and import ``ccyclic.cli``."""
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import ccyclic.cli"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=root, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    return elapsed, gauge.scale(elapsed)


def _keep_going(passes: int, since: float, seconds: float, started: float, last: float) -> bool:
    """Whether to start another pass; ``last`` is how long the previous one took."""
    now = time.perf_counter()
    if now - started + last > RUN_CEILING_S and passes >= 1:
        return False
    return passes < MIN_PASSES or now - since + last / 2 < seconds


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    ds = "degree_sequences."
    count = tr.counters
    candidates = count[ds + "candidates"]
    members = count[ds + "members"]
    m = {
        "cli.ops": (tr.calls("cli.main"), "count"),
        "cli.self_s": (tr.layer_self_time("cli"), "s"),
        "bounds.bounds_calls": (tr.calls("bounds.bounds"), "count"),
        "bounds.bounds_s": (tr.layer_self_time("bounds", exclude=("bounds.verify_bounds",)), "s"),
        "bounds.verify_calls": (tr.calls("bounds.verify_bounds"), "count"),
        "bounds.verify_s": (tr.self_time("bounds.verify_bounds"), "s"),
        ds + "enumerations": (
            tr.calls(ds + "enumerate_sequences") + tr.calls(ds + "graphical_class_sequences"),
            "count",
        ),
        ds + "candidates": (candidates, "count"),
        ds + "candidates_s": (tr.self_time(ds + "candidate_sequences"), "s"),
        ds + "members": (members, "count"),
        ds + "keep_ratio": (members / candidates if candidates else 0.0, "ratio"),
        ds + "counting_calls": (tr.calls(ds + "is_ccyclic_sequence"), "count"),
        ds + "counting_s": (tr.self_time(ds + "is_ccyclic_sequence"), "s"),
        ds + "inequalities_calls": (tr.calls(ds + "is_ccyclic_sequence_via_inequalities"), "count"),
        ds + "inequalities_s": (tr.self_time(ds + "is_ccyclic_sequence_via_inequalities"), "s"),
        ds + "graphical_calls": (tr.calls(ds + "is_graphical"), "count"),
        ds + "graphical_s": (tr.self_time(ds + "is_graphical"), "s"),
        ds + "graphical_rejects": (count[ds + "graphical_rejects"], "count"),
        ds + "coverage_s": (
            tr.self_time(ds + "check_family_extremality", ds + "check_pattern_extremality"), "s"
        ),
        ds + "extremal_family_calls": (tr.calls(ds + "extremal_family"), "count"),
        ds + "extremal_family_distinct": (len(tr.classes), "count"),
        ds + "extremal_family_s": (tr.self_time(ds + "extremal_family"), "s"),
    }
    for kind in INDEX_KINDS:
        name = f"indices.evaluate.{kind}"
        m[name + "_calls"] = (tr.calls(name), "count")
        m[name + "_s"] = (tr.self_time(name), "s")
    m["indices.entries"] = (count["indices.entries"], "count")
    m["majorization.compare_calls"] = (tr.calls("majorization.compare"), "count")
    m["majorization.compare_s"] = (tr.layer_self_time("majorization"), "s")
    m["majorization.entries"] = (count["majorization.entries"], "count")
    m["extremal.box_calls"] = (
        sum(tr.calls(f"extremal.{f}") for f in ("maximal_box", "minimal_box", "integerize_minimal")),
        "count",
    )
    m["extremal.box_s"] = (tr.layer_self_time("extremal"), "s")
    m["realization.realize_calls"] = (tr.calls("realization.realize"), "count")
    m["realization.realize_s"] = (
        tr.layer_self_time("realization", exclude=("realization.export_dot",)), "s"
    )
    m["realization.edges"] = (count["realization.edges"], "count")
    m["realization.export_dot_s"] = (tr.self_time("realization.export_dot"), "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (count[f"{layer}.errors"], "count")
    evaluate = tuple(f"indices.evaluate.{kind}" for kind in INDEX_KINDS)
    m["share.indices_evaluate"] = (tr.inclusive_time(*evaluate) / wall, "ratio")
    m["share.graphical_majorization"] = (
        (tr.inclusive_time(ds + "is_graphical") + tr.layer_inclusive_time("majorization")) / wall,
        "ratio",
    )
    m["share.extremal_family"] = (tr.inclusive_time(ds + "extremal_family") / wall, "ratio")
    return m


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def run_untraced(runner: Runner, args, started: float, root: Path, gauge: Gauge):
    """Gauged passes, each followed by a few set-up measurements, for ``--seconds`` in all.

    Spreading the set-up samples over the run exposes them to the same
    machine load as the passes, instead of to the load of its first second.
    """
    time_setup(root, gauge)  # warm-up: the first fresh interpreter may still compile bytecode
    passes, setups = [], []
    since = time.perf_counter()
    last = 0.0
    while _keep_going(len(passes), since, args.seconds, started, last):
        start = time.perf_counter()
        passes.append(runner.run_pass(gauge))
        setups += [time_setup(root, gauge) for _ in range(SETUPS_PER_PASS)]
        last = time.perf_counter() - start
    return passes, setups


def run_traced(runner: Runner, args, started: float):
    """Alternate traced and untraced passes; counts must repeat exactly between traced ones."""
    tracer = Tracer()
    untraced, traced, snapshots, spans = [], [], [], None
    since = time.perf_counter()
    last = 0.0
    while _keep_going(len(traced), since, args.seconds, started, last):
        start = time.perf_counter()
        tracer.reset()
        tracer.install()
        try:
            wall = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.append(wall)
        snapshots.append(layer_metrics(tracer, wall))
        if spans is None:
            spans = tracer.span_table()
        untraced.append(runner.run_pass())  # after uninstall: digests must still match
        last = time.perf_counter() - start
    counts = [{k: v for k, (v, unit) in snap.items() if unit == "count"} for snap in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        runner.problems.append(("<trace>", "counts differ between traced passes"))
    metrics = {}
    for name, (value, unit) in snapshots[0].items():
        if unit != "count":
            value = statistics.median([snap[name][0] for snap in snapshots])
        metrics[name] = (value, unit)
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, {"untraced": untraced, "traced": traced}, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "ccyclic" / "cli.py").is_file():
        print(f"error: {root} holds no ccyclic source tree (src/ccyclic)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ccyclic.cli  # noqa: F401  (imported after the source tree is on the path)

    if Path(sys.modules["ccyclic"].__file__).resolve().parent != (src / "ccyclic").resolve():
        print("error: ccyclic was imported from outside the checkout", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    ops = workloads.build_ops(args.workload, rng)
    runner = Runner(ops, rng, workloads.load_expected())
    runner.run_pass()  # warm-up: lazy imports and caches settle before timing

    setup_times = spans = gauge = None
    measured = {}  # the untraced figures as measured, before scaling to reference seconds
    if args.trace:
        metrics, passes, spans = run_traced(runner, args, started)
    else:
        gauge = Gauge()
        pass_times, setups = run_untraced(runner, args, started, root, gauge)
        # Each op's median over the run, summed: one pass at reference speed.
        wall = sum(statistics.median(times) for times in runner.op_times.values())
        metrics = {
            "wall_s": (wall, "s"),
            "seqs_per_s": (runner.sequences / wall, "1/s"),
            "setup_s": (statistics.median(ref for _, ref in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        measured = {
            "wall_s": sum(statistics.median(times) for times in runner.raw_op_times.values()),
            "setup_s": statistics.median(raw for raw, _ in setups),
        }
        passes = {"measured": pass_times}
        setup_times = {"measured": [raw for raw, _ in setups],
                       "reference": [ref for _, ref in setups]}

    failed = runner.failed
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "sequences_per_pass": runner.sequences,
        "realize_orders": [len(op.degrees) for op in ops if op.kind == "realize"],
    }
    record = {
        "environment": environment,
        "pass_times_s": passes,
        "setup_times_s": setup_times,
        "op_times_s": {op.key[:80]: times for op, times in runner.op_times.items()},
        "measured_op_times_s": {op.key[:80]: times for op, times in runner.raw_op_times.items()},
        "measured": measured,
        "gauge_samples_s": gauge.samples if gauge else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": runner.problems,
        "spans": spans,
    }
    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for key, value in environment.items():
        print(f"# {key}: {value}")
    for key, reason in runner.problems[:20]:
        print(f"FAILED {key}: {reason}")
    print(f"fail_ratio: {failed / runner.attempted:.6g} ({failed}/{runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    for name, value in measured.items():
        print(f"# {name} as measured, before scaling to reference speed: {value:.6g} s")
    print(f"# full record: {out_file.relative_to(root)}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
