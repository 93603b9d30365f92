"""Span tracer for the benchmark's traced run.

The tracer rebinds layer functions to timing wrappers at every import site
(every ``cadorder`` module attribute that is the original function object),
so calls made through ``from cadorder.polys import resultant`` in another
module are caught as well as calls inside the defining module.  Nothing in
the package itself is edited; ``uninstall`` puts every original back.

Each call is one span: name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans are kept in memory in flat arrays
(the first ``MAX_SPANS`` of them; the rest are only aggregated) and written
out at the end.  Aggregates are exact for every call: the call count, the
number of distinct argument tuples for the functions listed in
``KEYED``, the busy (inclusive) time and the self time, which is the span's
duration minus the time covered by its child spans.  Calls run on one
thread and nest strictly, so the covered time is the sum of the children's
durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (span prefix, module, names).  The kernel is the active backend module,
# reached as an attribute of ``cadorder._backend``; only its multiply and
# exact-division entry points are traced, because its other helpers run
# hundreds of thousands of times per problem and would swamp the trace.
# For the other layers, every public function in the module's __all__ is
# traced (classes are skipped; CostTable.load is added by hand).  A function
# reached through a stored reference, such as the heuristic dispatch table,
# shows only inside its caller's span.
LAYERS = (
    ("kernel", "cadorder._backend:kernel", ("kmul", "kexact_div")),
    ("polys", "cadorder.polys", None),
    ("projection", "cadorder.projection", None),
    ("realroots", "cadorder.realroots", None),
    ("heuristics", "cadorder.heuristics", None),
    ("probio", "cadorder.probio", None),
    ("generator", "cadorder.generator", None),
    ("harness", "cadorder.harness", None),
)

# Functions whose distinct argument tuples are counted.
KEYED = frozenset({
    "polys.resultant",
    "polys.squarefree_part",
    "projection.project_cascade",
    "projection.mccallum_project",
    "projection.ttiprojection",
    "realroots.count_real_roots",
})

ROOT_SPAN = "bench.op"

# Spans kept in memory and written out (about 8 MB gzipped); later spans
# are only aggregated.
MAX_SPANS = 500_000


def _freeze(x):
    """Hashable stand-in for one argument; polynomial collections compare as
    sets because the projection operators do not depend on their order."""
    if isinstance(x, (list, set, frozenset)):
        return frozenset(x)
    return x


def _resolve(spec: str):
    mod_name, _, attr = spec.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, attr) if attr else mod


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.busy_s: list[float] = []
        self.keys: dict[int, set] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.busy_s.append(0.0)
            if name in KEYED:
                self.keys[nid] = set()
        return nid

    def _enter(self, nid: int) -> list:
        stack = self._stack
        idx = -1
        if len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        frame = [idx, 0.0, nid, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        self._stack.pop()
        idx, child, nid, t0 = frame
        dur = t1 - t0
        if idx >= 0:
            self.span_start[idx] = t0 - self._t0
            self.span_end[idx] = t1 - self._t0
        self.calls[nid] += 1
        self.busy_s[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name, fn, name_of=None):
        nid = self._id(name) if name_of is None else -1
        keys = self.keys.get(nid)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((tuple(map(_freeze, args)),
                          tuple(sorted(kwargs.items()))))
            frame = enter(nid if name_of is None else self._id(name_of(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    # -- installation -----------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original, name_of) for every traced
        function, owner being the defining module or class."""
        from cadorder.harness import CostTable
        from cadorder.heuristics import HeuristicId

        def suggest_name(args, kwargs):
            hid = args[1] if len(args) > 1 else kwargs["heuristic"]
            return f"heuristics.suggest.{HeuristicId(hid).value}"

        out = []
        for prefix, spec, names in LAYERS:
            home = _resolve(spec)
            if names is None:
                names = [n for n in home.__all__
                         if callable(getattr(home, n)) and not isinstance(getattr(home, n), type)]
            for attr in names:
                name_of = suggest_name if (prefix, attr) == ("heuristics", "suggest") else None
                out.append((f"{prefix}.{attr}", home, attr, getattr(home, attr), name_of))
        out.append(("harness.CostTable.load", CostTable, "load",
                    CostTable.__dict__["load"], None))
        return out

    def install(self) -> None:
        """Rebind every traced function at each site that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cadorder" or n.startswith("cadorder."))]
        for name, owner, attr, original, name_of in self._targets():
            if isinstance(original, classmethod):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                continue
            wrapped = self._wrap(name, original, name_of)
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                if site.__dict__.get(attr) is original:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s and (when keyed) distinct."""
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": self.calls[nid], "busy_s": self.busy_s[nid],
                   "self_s": self.self_s[nid]}
            if nid in self.keys:
                row["distinct"] = len(self.keys[nid])
            out[name] = row
        return out

    def write(self, spans_path, stats_path) -> None:
        """Spans as gzipped CSV (times in seconds from tracer creation) and the
        aggregates as JSON."""
        with gzip.open(spans_path, "wt", compresslevel=3) as fh:
            fh.write("span,op,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_op[i]},{self.span_parent[i]},"
                         f"{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f}\n")
        with open(stats_path, "w") as fh:
            json.dump({"spans_kept": len(self.span_name), "spans_dropped": self.dropped,
                       "stats": self.stats()}, fh, indent=1, sort_keys=True)
