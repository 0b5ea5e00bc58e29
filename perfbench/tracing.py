"""Spans and counts around dfao's layer functions, recorded from outside.

`traced(tracer)` swaps each layer function listed in LAYERS for a wrapper
that opens a span, calls the original and closes the span; every module
attribute bound to the original is swapped, so calls made through any
import path are seen, and everything is put back on exit.  The program
itself is not changed.  Spans stay in memory until `dump` writes them
out; `layer_times` turns them into self times (a span's duration minus
its children's).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _count_sweep(args, kwargs, result) -> dict[str, int]:
    """Work done by one oracle sweep.  It scans lengths 1, 2, ... and stops
    at the first length where some word clashes, which is the shortest
    clash length e + 1 of a value 2^-e; a zero value means it ran to the
    bound.  Each length m compares k^m words with k^n relabelings over m
    positions."""
    a = args[0]
    max_len = args[1] if len(args) > 1 else kwargs["max_len"]
    lengths = max_len if result.exponent is None else result.exponent + 1
    k, relabelings = a.k, a.k ** len(a.states)
    return {
        "oracle.lengths_swept": lengths,
        "oracle.words_swept": sum(k**m for m in range(1, lengths + 1)),
        "oracle.relabelings": relabelings,
        "oracle.cells": sum(k**m * relabelings * m for m in range(1, lengths + 1)),
    }


# (module, attribute, span name, counter); "Class.method" patches the class.
LAYERS = (
    ("dfao.autfile", "parse_raw", "autfile.parse_raw", None),
    ("dfao.automaton", "validate", "automaton.validate",
     lambda a, kw, r: {"automaton.pruned_states": len(r[1])}),
    ("dfao.automaton", "Dfao.normalize_zero", "automaton.normalize_zero", None),
    ("dfao.minimize", "moore_partition", "minimize.moore",
     lambda a, kw, r: {"minimize.moore_blocks": r.n_blocks}),
    ("dfao.minimize", "minimize", "minimize.quotient_canon",
     lambda a, kw, r: {"minimize.states_out": len(r.target.states)}),
    ("dfao.opacity", "shortest_inhomogeneous_path", "opacity.witness",
     lambda a, kw, r: {"opacity.witness_len": 0 if r is None else len(r.word)}),
    ("dfao.opacity", "state_homogeneity", "opacity.homogeneity",
     lambda a, kw, r: {"opacity.inhomogeneous_states": sum(not v.homogeneous for v in r)}),
    ("dfao.automaton", "Automaton.is_strictly_accessible", "automaton.accessible", None),
    ("dfao.oracle", "brute_force_opacity", "oracle.sweep", _count_sweep),
    ("dfao.automaton", "Dfao.generate", "automaton.generate",
     lambda a, kw, r: {"automaton.terms": len(r)}),
    ("dfao.corpus", "evaluate_all", "corpus.evaluate_all", None),
)
OP_SPAN = "cli"


class Tracer:
    """Spans as [name, op index, parent span, start, end], plus counts per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.op, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, counter, too_large: type):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except too_large:
                self.counts[self.op][f"{name.split('.')[0]}.skipped"] += 1
                raise
            finally:
                self.end(index)
            if counter is not None:
                self.counts[self.op].update(counter(args, kwargs, result))
            return result

        return traced_call

    def layer_times(self) -> tuple[dict[str, float], dict[tuple[int, str], float]]:
        """Self seconds per span name, and per (op, span name)."""
        child = [0.0] * len(self.spans)
        for name, _op, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        per_op: dict[tuple[int, str], float] = defaultdict(float)
        for i, (name, op, _parent, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            total[name] += own
            per_op[(op, name)] += own
        return total, per_op

    def dump(self, path, op_keys: list[str]) -> None:
        """Write the spans as JSON: per span its name, op, parent, and start
        and duration in ms from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        spans = [
            [name, op, parent, (start - t0) * 1000, (end - start) * 1000]
            for name, op, parent, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"ops": op_keys, "spans": spans}) + "\n")

    def coverage(self) -> float:
        """Share of the op spans' time that their direct children cover."""
        ops = [s for s in self.spans if s[2] is None]
        covered = sum(s[4] - s[3] for s in self.spans if s[2] is not None and self.spans[s[2]][2] is None)
        return covered / sum(s[4] - s[3] for s in ops)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the LAYERS wrappers for the duration of the block.

    Yields the layer attributes that could not be found, so a caller can
    report a layer the program no longer has.
    """
    too_large = importlib.import_module("dfao.errors").InstanceTooLarge
    undo = []
    missing = []
    modules = [m for name, m in list(sys.modules.items()) if name == "dfao" or name.startswith("dfao.")]
    for module_name, attr, span, counter in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(cls, method, tracer.wrap(original, span, counter, too_large))
            undo.append((cls, method, original))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, span, counter, too_large)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))
    try:
        yield missing
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
