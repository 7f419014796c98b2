"""Spans recorded from outside psq, and the per-layer figures derived from them.

A span is one call into a layer: its name, start and end, the span that was
open when it began (its parent) and the outermost open span (its root, one
per benchmark point).  Spans come from wrappers the benchmark installs at run
time, either around its own calls into psq or on the names a psq module
imported from another (``psq.subcritical.tanh_sinh``); psq itself is not
edited.  Spans are kept in memory, in columns, and written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

# (consumer module, attribute, layer name, count the callable passed first).
# Each consumer imported these names from psq.specfun, so each binding gets
# its own wrapper; psq.specfun is listed too because its quad_to_infinity and
# parabolic_cylinder_H call its own tanh_sinh.  A name missing from a module
# (deleted by a later change) is skipped, and its figures read zero.
_SPECFUN_NAMES = (
    ("tanh_sinh", "specfun.tanh_sinh", True),
    ("quad_to_infinity", "specfun.quad_to_infinity", False),
    ("find_root_bracketed", "specfun.find_root_bracketed", True),
    ("elliptic_KE", "specfun.elliptic_KE", False),
    ("parabolic_cylinder_H", "specfun.parabolic_cylinder_H", False),
    ("cut_integral", "specfun.cut_integral", False),
)
MODULE_WRAPPERS = tuple(
    (module, attr, layer, counted)
    for module in ("psq.specfun", "psq.subcritical", "psq.infinite", "psq.supercritical")
    for attr, layer, counted in _SPECFUN_NAMES
) + (("psq.infinite", "transform_phat", "infinite.transform_phat", False),)


class Tracer:
    """Column store of spans.  `phase` tags each span with the part of the run
    it belongs to: 0 for set-up, k >= 1 for the k-th traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.phase_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.error = array("i")
        self.phase = 0
        self._stack: list[int] = []
        self.name_id("")  # id 0: no error

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, layer: str, fn, count_first_arg: bool = False):
        """Return fn recording one span per call under the name `layer`.

        With count_first_arg, the callable passed as the first argument is
        itself wrapped to count its evaluations into the span.  A call made
        while a span of the same layer is already innermost (a layer calling
        itself) is passed through, so it is neither a second call nor a child.
        """
        nid = self.name_id(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            evals = [0]
            if count_first_arg and args:
                inner = args[0]

                def counted(*a):
                    evals[0] += 1
                    return inner(*a)

                args = (counted,) + args[1:]
            sid = self._open(nid)
            err = 0
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = self.name_id(type(exc).__name__)
                raise
            finally:
                self._close(sid, evals[0], err)

        traced.__wrapped__ = fn
        return traced

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else sid)
        self.phase_of.append(self.phase)
        self.end.append(0)
        self.count.append(0)
        self.error.append(0)
        stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int, count: int, err: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.count[sid] = count
        self.error[sid] = err
        self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Install the MODULE_WRAPPERS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer, counted in MODULE_WRAPPERS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(layer, fn, counted))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        """Write every span, one array per column, to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            root=np.frombuffer(self.root, dtype=np.int64),
            phase=np.frombuffer(self.phase_of, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            count=np.frombuffer(self.count, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int32),
        )


@dataclass(frozen=True)
class LayerStat:
    """One layer's totals per repetition (set-up plus one traced pass)."""

    calls: float
    inclusive_s: float
    self_s: float
    count: float
    errors: dict

    @property
    def mean_us(self) -> float:
        return 1e6 * self.inclusive_s / self.calls if self.calls else 0.0


def layer_stats(tracer: Tracer, traced_passes: int) -> dict[str, LayerStat]:
    """Totals per layer name: set-up spans count once, pass spans are averaged.

    Self time is a span's duration minus the durations of its direct child
    spans; the code is single-threaded, so children never overlap.
    """
    n = len(tracer.start)
    if n == 0:
        return {}
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    phase = np.frombuffer(tracer.phase_of, dtype=np.int32)
    dur = (
        np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
    ).astype(float) * 1e-9
    count = np.frombuffer(tracer.count, dtype=np.int64).astype(float)
    error = np.frombuffer(tracer.error, dtype=np.int32)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    weight = np.where(phase == 0, 1.0, 1.0 / max(traced_passes, 1))
    k = len(tracer.names)

    def per_name(values: np.ndarray) -> np.ndarray:
        return np.bincount(name, weights=values * weight, minlength=k)

    calls = per_name(np.ones(n))
    incl = per_name(dur)
    self_s = per_name(dur - child)
    counts = per_name(count)
    out = {}
    for nid in np.unique(name):
        failed = (name == nid) & (error != 0)
        errors = {
            tracer.names[eid]: float(weight[failed & (error == eid)].sum())
            for eid in np.unique(error[failed])
        }
        out[tracer.names[nid]] = LayerStat(
            calls=float(calls[nid]),
            inclusive_s=float(incl[nid]),
            self_s=float(self_s[nid]),
            count=float(counts[nid]),
            errors=errors,
        )
    return out
