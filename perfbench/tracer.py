"""Outside-in tracer: spans around calls into the geoindex layers.

``install`` replaces every public function a layer module binds -- its
own and the ones it imports -- with a wrapper that records a span, so a
call is seen at the name the calling module looks up
(``geoindex.anosov.index_at``, ``geoindex.iteration.ceil_int``, ...).
``remove`` puts the original objects back.  Nothing under ``src/`` is
edited, and no private helper of the library is named.

A span is (function, calling layer, start, end, parent span, operation
id).  Spans live in flat arrays until the run ends; ``summary`` turns
them into counts, inclusive times and self times per layer.
"""

from __future__ import annotations

import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Tuple

NO_PARENT = -1

# Public methods traced on their class, by defining layer and class name.
TRACED_METHODS = {("iteration", "IndexProfile"): ("rows",)}


def _public_callables(module: ModuleType, layers: Dict[str, str]
                      ) -> Iterator[Tuple[str, Callable, str]]:
    """(bound name, object, defining layer) for each public function the
    module binds whose definition lives in a layer module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        layer = layers.get(getattr(obj, "__module__", None) or "")
        if layer is not None:
            yield name, obj, layer


class Tracer:
    """Records one span per call into a layer while installed."""

    def __init__(self, modules: Dict[str, ModuleType]):
        self.modules = modules                     # layer -> module
        self._layer_of = {m.__name__: layer for layer, m in modules.items()}
        self._saved: List[Tuple[object, str, Callable]] = []
        self.keys: List[Tuple[str, str]] = []      # (function, caller layer)
        self._key_ids: Dict[Tuple[str, str], int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._op_id = -1
        # work read from arguments and results, by span id
        self.covered: Dict[int, int] = {}          # search: N range decided
        self.iterates: Dict[int, int] = {}         # verify_jump: iterates
        self.rows: Dict[int, int] = {}             # IndexProfile.rows: rows

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for caller, module in self.modules.items():
            for name, fn, layer in list(_public_callables(module,
                                                          self._layer_of)):
                function = f"{layer}.{getattr(fn, '__name__', name)}"
                self._replace(module, name, self._wrap(fn, function, caller))
        for (layer, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            for name in methods:
                self._replace(cls, name, self._wrap(
                    vars(cls)[name], f"{layer}.{cls_name}.{name}", layer))

    def _replace(self, owner, name: str, wrapper: Callable) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _key(self, function: str, caller: str) -> int:
        k = (function, caller)
        if k not in self._key_ids:
            self._key_ids[k] = len(self.keys)
            self.keys.append(k)
        return self._key_ids[k]

    def _wrap(self, fn: Callable, function: str, caller: str) -> Callable:
        kid = self._key(function, caller)
        hook = self._HOOKS.get(function)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            sid = self._open(kid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(self, sid, sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _open(self, kid: int) -> int:
        sid = len(self.key)
        self.key.append(kid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    # -- work counted from arguments and results --------------------------

    def _on_search(self, sid: int, args: dict, cert) -> None:
        """N range the search decided: multiples of M0 in [n_min, N]."""
        first = max(int(args["n_min"]), 1)
        self.covered[sid] = cert.N // cert.M0 - (first - 1) // cert.M0

    def _on_verify_jump(self, sid: int, args: dict, report) -> None:
        """Iterates the verification covers: curves times m_bar."""
        self.iterates[sid] = len(args["cert"].m) * int(args["m_bar"])

    def _on_rows(self, sid: int, args: dict, rows) -> None:
        self.rows[sid] = len(rows)

    _HOOKS = {"jump.search": _on_search,
              "jump.verify_jump": _on_verify_jump,
              "iteration.IndexProfile.rows": _on_rows}

    # -- spans opened by the benchmark itself -----------------------------

    @contextmanager
    def span(self, function: str, op_id: int, caller: str = "bench"):
        """A root span for one operation or check; calls inside it share
        its operation id."""
        self._op_id = op_id
        sid = self._open(self._key(function, caller))
        try:
            yield sid
        finally:
            self._close(sid)
            self._op_id = -1

    # -- output ----------------------------------------------------------------

    def summary(self, first_op: int, stop_op: int) -> "TraceSummary":
        return TraceSummary(self, first_op, stop_op)

    def dump(self, stem: Path) -> None:
        """Write the spans: ``<stem>.json`` describes the layout of the
        flat arrays in ``<stem>.bin`` (native byte order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        fields = ("key", "parent", "op", "start", "end")
        with open(f"{stem}.bin", "wb") as fh:
            for name in fields:
                getattr(self, name).tofile(fh)
        index = {"spans": len(self.key),
                 "arrays": [[name, getattr(self, name).typecode,
                             getattr(self, name).itemsize] for name in fields],
                 "keys": [list(k) for k in self.keys],
                 "clock": "time.perf_counter, seconds",
                 "no_parent": NO_PARENT}
        Path(f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n",
                                        encoding="utf-8")


class TraceSummary:
    """Counts and times over the spans of operations first_op..stop_op-1.

    A span's self time is its duration minus the durations of its
    children; calls run one at a time, so children never overlap.
    """

    def __init__(self, tracer: Tracer, first_op: int, stop_op: int):
        t = self.tracer = tracer
        n = len(t.key)
        self.dur = array("d", (t.end[i] - t.start[i] for i in range(n)))
        self.child = array("d", bytes(8 * n))
        by_key: Dict[int, array] = {}
        for i in range(n):
            p = t.parent[i]
            if p != NO_PARENT:
                self.child[p] += self.dur[i]
            if first_op <= t.op[i] < stop_op:
                by_key.setdefault(t.key[i], array("i")).append(i)
        self._by_key = by_key
        self._function = [k[0] for k in t.keys]

    def spans(self, function: str, not_from: str = "") -> List[int]:
        """Spans of a function, leaving out calls made from `not_from`."""
        out: List[int] = []
        for kid, ids in self._by_key.items():
            name, caller = self.tracer.keys[kid]
            if name == function and caller != not_from:
                out.extend(ids)
        return out

    def count(self, function: str) -> int:
        return len(self.spans(function))

    def _has_ancestor(self, i: int, function: str) -> bool:
        p = self.tracer.parent[i]
        while p != NO_PARENT:
            if self._function[self.tracer.key[p]] == function:
                return True
            p = self.tracer.parent[p]
        return False

    def time(self, function: str) -> float:
        """Inclusive time of the outermost spans of a function."""
        return sum(self.dur[i] for i in self.spans(function)
                   if not self._has_ancestor(i, function))

    def within(self, function: str, ancestor: str) -> int:
        """Spans of a function that have a span of `ancestor` above them."""
        return sum(self._has_ancestor(i, ancestor)
                   for i in self.spans(function))

    def self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.dur[i] - self.child[i]
                   for kid, ids in self._by_key.items()
                   if self._function[kid].startswith(prefix) for i in ids)
