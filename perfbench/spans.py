"""Spans around calls into the dipolepair modules, recorded from outside.

A `Tracer` replaces module attributes such as `dipolepair.scan.spectrum`
with timing wrappers, in every loaded dipolepair module that holds the same
function object, and puts the originals back on `close()`.  A target that a
later version of the package no longer has is skipped, so its span simply
never occurs and its counts read 0.

Spans (name, start, end, parent, op id) are kept in flat arrays while the
workload runs and summarised or written out afterwards.  A span's self time
is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute path); the coarse set adds a handful of
# spans per command, so a run with it installed counts as untraced
COARSE = {
    "cli.run_cli": ("dipolepair.cli", "run_cli"),
    "scan.scan_grid": ("dipolepair.scan", "scan_grid"),
    "scan.dominant_map": ("dipolepair.scan", "dominant_map"),
    "scan.trace_boundary": ("dipolepair.scan", "trace_boundary"),
}
FULL = {
    **COARSE,
    "scan.evaluate_point": ("dipolepair.scan", "evaluate_point"),
    "scan.bisect_root": ("dipolepair.scan", "bisect_root"),
    "dipolar.spectrum": ("dipolepair.dipolar", "spectrum"),
    "dipolar.correlations": ("dipolepair.dipolar", "CorrelationTriple.from_weights"),
    "measures.chsh": ("dipolepair.measures", "chsh_from_correlations"),
    "measures.negativity": ("dipolepair.measures", "negativity_bell_diagonal"),
    "teleport.best_fidelity": ("dipolepair.teleport", "best_fidelity"),
}
# CSV row generators: each next() is a span, so streaming output that pulls
# evaluation lazily still nests correctly
FORMATTERS = ("scan_rows", "dominant_rows", "boundary_rows")


class Tracer:
    """Wraps the COARSE targets, or with `full` every target, the CSV
    formatters, the boundary fields and a call counter on each public
    function of `dipolepair.linalg`."""

    def __init__(self, full: bool):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = 0
        self.counts: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []
        for span_name, (module, path) in (FULL if full else COARSE).items():
            self._wrap(module, path, lambda fn, n=span_name: self._span(n, fn))
        if full:
            for attr in FORMATTERS:
                self._wrap("dipolepair.scan", attr, self._format)
            self._wrap("dipolepair.scan", "boundary_field", self._field_factory)
            linalg = sys.modules.get("dipolepair.linalg")
            for attr, fn in list(vars(linalg).items()) if linalg else ():
                if (inspect.isfunction(fn) and fn.__module__ == linalg.__name__
                        and not attr.startswith("_")):
                    self._wrap(linalg.__name__, attr, self._counter)

    # -- installing -------------------------------------------------------

    def _wrap(self, module: str, path: str, make) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
        elif inspect.isfunction(raw) and owners:
            self._set(owner, attr, make(raw))
        elif inspect.isfunction(raw):
            # rebind every module-level alias, e.g. scan.spectrum imported
            # from dipolar, so calls through any of them are seen
            wrapped = make(raw)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name == "dipolepair" or mod_name.startswith("dipolepair."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            if stack[-1] < 0:  # a root span starts a new operation
                self.op_id += 1
            names.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _format(self, fn):
        timed = self._span("scan.format", fn)
        step = self._span("scan.format", next)

        def wrapper(*args, **kwargs):
            rows = timed(*args, **kwargs)
            if not inspect.isgenerator(rows):
                return rows
            return self._rows(rows, step)

        return wrapper

    def _rows(self, rows, step):
        while True:
            try:
                line = step(rows)
            except StopIteration:
                return
            self.counts["scan.format.bytes"] += len(line) + 1
            yield line

    def _field_factory(self, boundary_field):
        def wrapper(quantity):
            return self._span("scan.field", boundary_field(quantity))
        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["linalg.production_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- summarising ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds, and
        `under_bisect_s`, the self time spent inside a bisection span."""
        a = self.arrays()
        n, k = len(a["name"]), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=n)
        self_s = dur - child_sum
        bisect = self._ids.get("scan.bisect_root", -1)
        in_bisect = np.zeros(n, dtype=bool)
        if bisect >= 0:
            flags = [False] * n
            for i, (nid, p) in enumerate(zip(a["name"].tolist(), a["parent"].tolist())):
                flags[i] = nid == bisect or (p >= 0 and flags[p])  # parents come first
            in_bisect[:] = flags
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        bis = np.bincount(a["name"][in_bisect], weights=self_s[in_bisect], minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]),
                   "self_s": float(own[i]), "under_bisect_s": float(bis[i])}
            for i, name in enumerate(self.names)
        }

    def bisection_field_evals(self) -> int:
        """Field evaluations made directly by bisection."""
        field, bisect = self._ids.get("scan.field"), self._ids.get("scan.bisect_root")
        if field is None or bisect is None:
            return 0
        a = self.arrays()
        mask = (a["name"] == field) & (a["parent"] >= 0)
        return int(np.count_nonzero(a["name"][a["parent"][mask]] == bisect))

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
