"""Span tracer that wraps the public functions of each ``ccyclic`` layer from outside.

A span is one call of a wrapped function.  Spans are kept in memory as
aggregates keyed by (name, parent name): call count, total time and self
time (total minus the time covered by child spans).  Per-call counters
(candidates visited, vector entries compared, edges built, ...) are recorded
at the same boundaries.  Nothing inside the package is edited: every module
namespace that holds a binding of a wrapped function is patched, and
:meth:`Tracer.uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ccyclic"
ROOT = "<root>"

INDEX_KINDS = ("inverse-degree", "general-zagreb-int", "general-zagreb-frac", "mult-zagreb-log")


def _evaluate_span(args, kwargs) -> str:
    """Span name of one ``evaluate`` call: exact-integer and fractional powers apart."""
    index = args[0] if args else kwargs["index"]
    kind = index.kind
    if kind == "general-zagreb":
        kind += "-int" if index.alpha.denominator == 1 else "-frac"
    return f"indices.evaluate.{kind}"


# Counter hooks run after the wrapped call returns: (tracer, args, kwargs, result).
def _on_evaluate(tr, args, kwargs, result):
    tr.counters["indices.entries"] += len(args[1] if len(args) > 1 else kwargs["seq"])


def _on_compare(tr, args, kwargs, result):
    left = args[0] if args else kwargs["left"]
    right = args[1] if len(args) > 1 else kwargs["right"]
    tr.counters["majorization.entries"] += len(left) + len(right)


def _on_graphical(tr, args, kwargs, result):
    if not result:
        tr.counters["degree_sequences.graphical_rejects"] += 1


def _on_enumeration(tr, args, kwargs, result):
    tr.counters["degree_sequences.members"] += len(result)


def _on_extremal_family(tr, args, kwargs, result):
    tr.classes.add(args[0] if args else kwargs["klass"])


def _on_realize(tr, args, kwargs, result):
    tr.counters["realization.edges"] += result.edge_count


#: (module, function, counter hook) for every wrapped public function.
TARGETS = (
    ("cli", "main", None),
    ("bounds", "bounds", None),
    ("bounds", "verify_bounds", None),
    ("bounds", "with_verification", None),
    ("bounds", "annotate_orientation", None),
    ("bounds", "refined_inverse_degree_upper", None),
    ("bounds", "closed_form_inverse_degree", None),
    ("bounds", "bounds_table", None),
    ("degree_sequences", "candidate_sequences", None),
    ("degree_sequences", "enumerate_sequences", _on_enumeration),
    ("degree_sequences", "graphical_class_sequences", _on_enumeration),
    ("degree_sequences", "is_ccyclic_sequence", None),
    ("degree_sequences", "is_ccyclic_sequence_via_inequalities", None),
    ("degree_sequences", "is_graphical", _on_graphical),
    ("degree_sequences", "extremal_family", _on_extremal_family),
    ("degree_sequences", "check_family_extremality", None),
    ("degree_sequences", "check_pattern_extremality", None),
    ("degree_sequences", "parametric_extremal_family", None),
    ("indices", "evaluate", _on_evaluate),
    ("majorization", "compare", _on_compare),
    ("majorization", "is_majorized_by", None),
    ("extremal", "maximal_box", None),
    ("extremal", "minimal_box", None),
    ("extremal", "integerize_minimal", None),
    ("extremal", "maximal_two_block", None),
    ("extremal", "minimal_two_block", None),
    ("realization", "realize", _on_realize),
    ("realization", "cyclomatic_number", None),
    ("realization", "export_dot", None),
)

LAYERS = ("cli", "bounds", "degree_sequences", "indices", "majorization", "extremal", "realization")

#: generator functions, with the counter that their yielded items add to
GENERATORS = {"degree_sequences.candidate_sequences": "degree_sequences.candidates"}

#: wrapped functions whose span name depends on the arguments
SPAN_NAMERS = {"indices.evaluate": _evaluate_span}


class Tracer:
    """In-memory span aggregates plus work counters for one traced pass."""

    def __init__(self):
        self.reset()
        self._patches = []  # (module object, attribute, original)

    def reset(self) -> None:
        #: (name, parent) -> [count, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = Counter()
        self.classes = set()
        self.stack = [[ROOT, 0.0]]  # frames: [name, seconds covered by children]

    # -- recording ---------------------------------------------------------

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        parent = self.stack[-1]
        parent[1] += elapsed
        record = self.spans[(name, parent[0])]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[1]

    def _wrap(self, name: str, fn, hook):
        tracer = self
        layer = name.split(".", 1)[0]
        namer = SPAN_NAMERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            frame = [span, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[f"{layer}.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer._close(span, frame, elapsed)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _wrap_generator(self, name: str, fn, counter: str):
        """Time a generator's iteration: one span per generator, summed over next() calls."""
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = None
            items = 0
            busy = 0.0
            try:
                while True:
                    tracer.stack.append(frame)
                    if parent is None:
                        parent = tracer.stack[-2][0]
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    except BaseException:
                        tracer.counters[f"{layer}.errors"] += 1
                        raise
                    finally:
                        elapsed = time.perf_counter() - start
                        tracer.stack.pop()
                        tracer.stack[-1][1] += elapsed
                        busy += elapsed
                    items += 1
                    yield item
            finally:
                inner.close()
                record = tracer.spans[(name, parent or tracer.stack[-1][0])]
                record[0] += 1
                record[1] += busy
                record[2] += busy
                tracer.counters[counter] += items

        wrapper.__bench_wrapper__ = True
        return wrapper

    # -- patching ----------------------------------------------------------

    def _package_modules(self) -> list:
        # sys.modules, not attribute access: ``ccyclic/__init__.py`` rebinds
        # ``ccyclic.bounds`` to the function of that name.
        return [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Patch every namespace that binds a target function with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        for module_name, func_name, hook in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original, GENERATORS[name])
            else:
                wrapper = self._wrap(name, original, hook)
            # Every `from .x import y` made its own binding; patch all of them.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding and check that no wrapper is left behind."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
        for module in self._package_modules():
            for attr, value in vars(module).items():
                if getattr(value, "__bench_wrapper__", False):
                    raise RuntimeError(f"wrapper left on {module.__name__}.{attr}")

    # -- reporting ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (span, _), rec in self.spans.items() if span == name)

    def self_time(self, *names: str) -> float:
        return sum((rec[2] for (span, _), rec in self.spans.items() if span in names), 0.0)

    def layer_self_time(self, layer: str, exclude=()) -> float:
        return sum(
            (
                rec[2]
                for (span, _), rec in self.spans.items()
                if span.split(".", 1)[0] == layer and span not in exclude
            ),
            0.0,
        )

    def inclusive_time(self, *names: str) -> float:
        """Time inside the named spans, counted once where they nest in each other."""
        return sum(
            (
                rec[1]
                for (span, parent), rec in self.spans.items()
                if span in names and parent not in names
            ),
            0.0,
        )

    def layer_inclusive_time(self, layer: str) -> float:
        return sum(
            (
                rec[1]
                for (span, parent), rec in self.spans.items()
                if span.split(".", 1)[0] == layer and parent.split(".", 1)[0] != layer
            ),
            0.0,
        )

    def span_table(self) -> list:
        return [
            {"name": span, "parent": parent, "count": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (span, parent), rec in sorted(self.spans.items())
        ]
