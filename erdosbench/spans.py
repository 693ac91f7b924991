"""Spans around erdosmat's public functions, recorded from outside the package.

``Tracer.install`` replaces each listed function, in every loaded
``erdosmat`` module that refers to it, with a wrapper that records a
span (operation, name, start, end, parent span) and per-name totals:
calls, inclusive seconds, and self seconds, the span's duration minus the
part its child spans and their wrappers cover.  The wrappers' own work,
outside the calls they wrap, is timed too (``bookkeeping_s``).  ``Tracer.remove`` puts the originals back.
A listed function the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "erdosmat"
# (module, function) pairs, by layer.  Each module of the package that
# does work of its own is a layer; ``rational``, ``sampling`` and ``surd``
# are not (see README.md).
TARGETS = (
    ("cli", "main"),
    ("enumeration", "enumerate_erdos"),
    ("enumeration", "canonical_form"),
    ("enumeration", "get_tables"),
    ("enumeration", "_build_classes"),
    ("kernels", "run_shard"),
    ("gram", "pipeline"),
    ("gram", "_pipeline_known_independent"),
    ("assignment", "max_trace"),
    ("assignment", "is_erdos"),
    ("birkhoff", "decompose"),
    ("birkhoff", "reduce_affine"),
    ("birkhoff", "reduce_linear"),
    ("linalg", "parse_matrix"),
    ("linalg", "solve"),
    ("linalg", "solve_tall"),
    ("linalg", "inverse"),
    ("linalg", "det"),
    ("linalg", "rank"),
    ("linalg", "kernel_vector"),
    ("linalg", "linear_independent"),
    ("linalg", "affine_independent"),
    ("perms", "all_permutations"),
)


class Tracer:
    """Spans and per-name totals of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans = []  # [op, name, start, end, parent span index]
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.results = {}  # name -> list of len(result), for counted results
        self.present = set()
        self.op = 0
        self._stack = []  # [span index, child seconds]
        self._patched = []  # (module, attribute, original)
        self._bookkeeping = [0.0]  # seconds spent in the wrappers outside the calls

    @property
    def bookkeeping_s(self) -> float:
        """Seconds the wrappers spent on their own work, outside the wrapped calls."""
        return self._bookkeeping[0]

    def install(self, count_results=()) -> None:
        """Wrap every target the package has; record len() of ``count_results``."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, func_name in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                continue
            name = f"{mod_name}.{func_name}"
            self.present.add(name)
            wrapper = self._wrap(name, original, name in count_results)
            for m in modules + [module]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def remove(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, count_result):
        spans = self.spans
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        sizes = self.results.setdefault(name, []) if count_result else None
        clock = time.perf_counter

        bookkeeping = self._bookkeeping

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                spans[index] = [self.op, name, start, end, parent]
                if done and sizes is not None:
                    sizes.append(len(result))
                leave = clock()
                # the parent's child time includes this wrapper's own work
                if stack:
                    stack[-1][1] += leave - enter
                bookkeeping[0] += leave - enter - duration
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "totals": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.totals.items())
            },
            "bookkeeping_s": self.bookkeeping_s,
            "spans": self.spans,
        }
