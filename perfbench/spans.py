"""Span tracing of pmcat from outside the package.

``Tracer.install`` replaces every public module-level function of the
pmcat modules, plus a few named methods, with a wrapper that records a
span (name, start, end, parent span, call id).  A function is rebound in
every module namespace that holds it, because ``cli``, ``segal``,
``hammock`` and ``yoneda`` bind names with ``from .x import y``:
patching the defining module alone would miss those calls.

Spans stay in memory until ``write``; ``layer_metrics`` derives
inclusive and self times from them.  Nothing under ``src/`` is changed.
"""

import functools
import gzip
import itertools
import os
import time

# Modules whose public functions are layers.  ``fixtures`` and ``_util``
# are set-up helpers and stay unwrapped.
LAYERS = ("cli", "document", "fincat", "relcat", "pmc", "segal", "sset",
          "smith", "hammock", "yoneda")

# Methods that are layer boundaries in their own right.
METHODS = (
    ("fincat", "FinCategory", "build"),
    ("fincat", "FinCategory", "opposite"),
    ("sset", "TruncatedBisimplicialSet", "validate_identities"),
)


def _bk_morphisms(args, result):
    return "segal.bk_morphisms", len(result.morphisms)


def _rezk_cells(args, result):
    return "sset.rezk_cells", sum(len(v) for v in result.simplices.values())


def _smith_nonzeros(args, result):
    return "smith.nonzeros_in", sum(len(col) for col in args[0])


def _boundary_nonzeros(args, result):
    _dims, boundaries = result
    return "sset.boundary_nonzeros", sum(
        len(col) for cols in boundaries.values() for col in cols)


def _nerve_simplices(args, result):
    return "sset.nerve_simplices", sum(len(level) for level in result.simplices)


def _input_bytes(args, result):
    return "document.input_bytes", os.path.getsize(args[0])


# Size counters taken from a wrapped function's arguments or result.
COUNTERS = {
    "segal.zigzag_chain_category": _bk_morphisms,
    "sset.rezk_nerve": _rezk_cells,
    "smith.smith_invariants": _smith_nonzeros,
    "sset.normalized_boundaries": _boundary_nonzeros,
    "sset.nerve": _nerve_simplices,
    "document.parse_file": _input_bytes,
}


class Tracer:
    """Records spans of wrapped pmcat functions in one thread."""

    def __init__(self):
        self.names = []          # span name table
        self._name_ids = {}
        self.spans = []          # (id, parent, name index, start, end, call id)
        self.counts = {}
        self.call_id = 0
        self._ids = itertools.count(1)
        self._stack = [0]        # span id 0 is the root
        self._patched = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, nid, start, end, self.call_id))
            if counter is not None:
                self.add_count(*counter(args, result))
            return result

        return traced

    def install(self, package):
        """Wrap the layer functions of an imported pmcat package."""
        modules = {m: getattr(package, m) for m in LAYERS}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", obj)
                for other in modules.values():
                    if vars(other).get(attr) is obj:
                        self._patched.append((other, attr, obj))
                        setattr(other, attr, traced)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = vars(cls)[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw)
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write spans as gzipped CSV: id,parent,name,start,end,call."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,call\n")
            names = self.names
            for sid, parent, nid, start, end, call in self.spans:
                fh.write(f"{sid},{parent},{names[nid]},{start:.9f},{end:.9f},{call}\n")

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice; self time is
        a span's duration minus the durations of its direct children.
        """
        by_id = {}
        child_time = {}
        for sid, parent, nid, start, end, _call in self.spans:
            by_id[sid] = (parent, nid)
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for sid, parent, nid, start, end, _call in self.spans:
            calls, incl, own = out.get(nid, (0, 0.0, 0.0))
            duration = end - start
            p = parent
            while p and by_id[p][1] != nid:
                p = by_id[p][0]
            if not p:
                incl += duration
            out[nid] = (calls + 1, incl, own + duration - child_time.get(sid, 0.0))
        return {self.names[nid]: v for nid, v in out.items()}

    def outermost_seconds(self, names, calls_only=False):
        """Seconds spent inside any of ``names``, nested spans counted
        once; with ``calls_only``, only inside the measured calls."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        by_id = {sid: (parent, nid) for sid, parent, nid, *_ in self.spans}
        total = 0.0
        for sid, parent, nid, start, end, call in self.spans:
            if nid not in wanted or (calls_only and not call):
                continue
            p = parent
            while p and by_id[p][1] not in wanted:
                p = by_id[p][0]
            if not p:
                total += end - start
        return total


# Per-layer metrics that are not "<span name>.<s|self_s|calls>".
GROUPS = {
    "relcat.laws.s": ("relcat.validate_relative", "relcat.check_two_of_three",
                      "relcat.check_two_of_six"),
}
RATES = {   # microseconds of a span per unit of a counter
    "segal.bk_us_per_morphism": ("segal.zigzag_chain_category", "segal.bk_morphisms"),
    "sset.rezk_us_per_cell": ("sset.rezk_nerve", "sset.rezk_cells"),
    "smith.us_per_nonzero": ("smith.smith_invariants", "smith.nonzeros_in"),
}
COUNT_NAMES = {"segal.bk_morphisms", "sset.rezk_cells", "smith.nonzeros_in",
               "sset.boundary_nonzeros", "sset.nerve_simplices", "document.input_bytes",
               "cli.report_bytes"}
STATS = {"calls": 0, "s": 1, "self_s": 2}


def layer_value(tracer, totals, name):
    """Value of one per-layer metric, by the naming rules of BENCHMARK.json."""
    if name in GROUPS:
        return tracer.outermost_seconds(GROUPS[name])
    if name in RATES:
        span, counter = RATES[name]
        n = tracer.counts.get(counter, 0)
        return 1e6 * totals.get(span, (0, 0.0, 0.0))[1] / n if n else 0.0
    if name in COUNT_NAMES:
        return tracer.counts.get(name, 0)
    span, _, stat = name.rpartition(".")
    if stat in STATS and span in tracer.names:
        return totals.get(span, (0, 0.0, 0.0))[STATS[stat]]
    raise KeyError(f"no rule for per-layer metric {name!r}")
