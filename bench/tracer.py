"""Span recorder for the benchmark's traced run.

The simulator carries no instrumentation of its own, so the traced run wraps
public functions of ``roundabout_sim`` from outside.  A wrapper only records
calls if it is installed where the caller looks the name up: ``agent.py``
calls ``rollout``, ``payoff_tensors``, ``tensor_equilibrium``, ``step`` and
``estimate_path`` through its own module globals, ``sim.py`` does the same
for ``observe``, ``update_estimates``, ``decide`` and ``step``, and ``cli.py``
for ``run_simulation``, ``write_trace`` and ``trace_stats``.  Patching
``dynamics.rollout`` would therefore record nothing.  The geometry methods are
wrapped on the ``NavigationPath`` class, which every instance looks up.

Every call becomes one span: name, start, end, parent span, one run id per
simulation, and an optional integer attribute (game size ``K`` for the
game-building layers, step count for a run, bytes for a trace file).  Spans
are kept in memory.  Pool workers inherit the wrappers through ``fork``;
because a pool is torn down with ``terminate``, a worker appends its spans
to a spool file each time a root span ends, and :meth:`Tracer.collect`
merges those files with the spans of the main process.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

_FIELDS = ("name", "t0", "t1", "parent", "run", "attr")


@dataclass
class Spans:
    """Merged spans as parallel arrays; ``parent`` indexes into them (-1 = root)."""

    names: List[str]
    name: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    parent: np.ndarray
    run: np.ndarray
    attr: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.t1 - self.t0

    @property
    def self_time(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        dur = self.duration
        has = self.parent >= 0
        child = np.bincount(self.parent[has], weights=dur[has],
                            minlength=len(dur))
        return dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self, spool_dir: str):
        self._spool_dir = spool_dir
        self._owner_pid = os.getpid()
        self._pid = self._owner_pid
        self._names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self._cols: Dict[str, list] = {f: [] for f in _FIELDS}
        self._stack: List[int] = []
        self._run = -1
        self._runs = 0
        self._undo: list = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self._names)
            self._names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn: Callable,
             attr: Optional[Callable] = None, new_run: bool = False) -> Callable:
        """``fn`` recording one span per call.

        ``attr(args, kwargs, result)`` gives the span's integer attribute;
        ``new_run`` starts a new run id (one per simulation).
        """
        nid = self._intern(name)
        cols, stack = self._cols, self._stack
        c_name, c_t0, c_t1 = cols["name"], cols["t0"], cols["t1"]
        c_parent, c_run, c_attr = cols["parent"], cols["run"], cols["attr"]
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and os.getpid() != self._pid:
                self._forget_parent_spans()
            if new_run:
                self._runs += 1
                self._run = (self._pid << 20) | self._runs
            idx = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1] if stack else -1)
            c_run.append(self._run)
            c_attr.append(-1)
            c_t1.append(0.0)
            stack.append(idx)
            ok = False
            c_t0.append(perf())
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                c_t1[idx] = perf()
                stack.pop()
                if ok and attr is not None:
                    c_attr[idx] = attr(args, kwargs, out)
                if not stack and os.getpid() != self._owner_pid:
                    self._spool()
        return traced

    def patch(self, owner, attr_name: str, span: str, **kw) -> None:
        """Replace ``owner.attr_name`` by a traced version until :meth:`restore`."""
        orig = getattr(owner, attr_name)
        self._undo.append((owner, attr_name, orig))
        setattr(owner, attr_name, self.wrap(span, orig, **kw))

    def restore(self) -> None:
        while self._undo:
            owner, attr_name, orig = self._undo.pop()
            setattr(owner, attr_name, orig)

    def _forget_parent_spans(self) -> None:
        # a forked worker inherits the parent's columns; they are not its spans
        self._pid = os.getpid()
        for col in self._cols.values():
            col.clear()

    def _spool(self) -> None:
        chunk = {"names": list(self._names)}
        chunk.update({f: list(col) for f, col in self._cols.items()})
        path = os.path.join(self._spool_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "ab") as fh:
            pickle.dump(chunk, fh, protocol=pickle.HIGHEST_PROTOCOL)
        for col in self._cols.values():
            col.clear()

    def collect(self) -> Spans:
        """Merge the main process's spans with every worker's spool file."""
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        chunks = [dict(names=self._names, **self._cols)]
        for fname in sorted(os.listdir(self._spool_dir)):
            if fname.startswith("spans-") and fname.endswith(".pkl"):
                with open(os.path.join(self._spool_dir, fname), "rb") as fh:
                    while True:
                        try:
                            chunks.append(pickle.load(fh))
                        except EOFError:
                            break
        names: List[str] = []
        merged: Dict[str, list] = {f: [] for f in _FIELDS}
        for chunk in chunks:
            remap = []
            for nm in chunk["names"]:
                if nm not in names:
                    names.append(nm)
                remap.append(names.index(nm))
            offset = len(merged["name"])
            merged["name"].extend(remap[i] for i in chunk["name"])
            merged["parent"].extend(p + offset if p >= 0 else -1
                                    for p in chunk["parent"])
            for f in ("t0", "t1", "run", "attr"):
                merged[f].extend(chunk[f])
        return Spans(
            names=names,
            name=np.asarray(merged["name"], dtype=np.int64),
            t0=np.asarray(merged["t0"], dtype=float),
            t1=np.asarray(merged["t1"], dtype=float),
            parent=np.asarray(merged["parent"], dtype=np.int64),
            run=np.asarray(merged["run"], dtype=np.int64),
            attr=np.asarray(merged["attr"], dtype=np.int64),
        )
