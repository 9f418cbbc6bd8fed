"""Layer tracer installed from outside the program, in the worker process.

It rebinds algcat's public functions to timing wrappers. ``from .perms import
perm_set`` gives every importing module its own binding, and a few modules
keep functions inside dicts and frozen dataclasses (the CLI's dispatch tables,
catcheck's category plumbing), so a wrapper replaces the original everywhere
it is reachable from a module global, not only in the defining module.

Three kinds of wrapper:

* spans, for calls at layer boundaries: one record per call with name, start,
  end, parent span and request id, kept in memory and written out at the end;
* hot counters, for ``Perm.__mul__`` and ``PermSet.index``/``__contains__``,
  which run hundreds of thousands of times: a call count and aggregate time,
  plus a running total that lets self time exclude them;
* call counters, for the morphism predicates whose accept ratio matters:
  calls and accepts keyed by the innermost enclosing span.

A function the program no longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from time import perf_counter

SPANNED = {
    "perms": ("closure", "subgroup_failure"),
    "s2t": (
        "check_s2t",
        "affine_group",
        "canonical_isomorphism",
        "is_s2t_morphism",
        "enumerate_s2t_morphisms",
        "enumerate_s2t_morphisms_direct",
        "derived_neardomain",
    ),
    "neardomain": ("check_neardomain", "enumerate_nd_morphisms"),
    "loops": ("canonical_table", "enumerate_loops", "enumerate_loop_morphisms"),
    "rps": ("enumerate_rps_morphisms", "enumerate_rps_morphisms_direct"),
    "fileio": ("parse_structure",),
    "zoo": ("standard_zoo",),
    "catcheck": ("run_all",),
}
COUNTED = {"neardomain": ("is_nd_morphism",), "rps": ("is_rps_morphism",)}
HOT = (
    ("Perm", "__mul__", "compose"),
    ("PermSet", "index", "lookup"),
    ("PermSet", "__contains__", "lookup"),
)
# Return values kept for the caller: run_all's verdicts carry the per-family
# timings that the verify-all report drops.
KEEP_RESULTS = ("catcheck.run_all",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent, request, hot_start, hot_end]
        self.stack: list[int] = []
        self.request = -1
        self.hot_clock = [0.0]  # total seconds spent in hot primitives so far
        self.hot = {"compose": [0, 0.0], "lookup": [0, 0.0]}
        self.counts: dict[str, list[int]] = {}  # "fn<parent" -> [calls, accepts]
        self.kept: dict[str, list] = {}
        self.missing: list[str] = []

    # ---------------------------------------------------------- wrappers

    def _open(self, name_idx: int) -> list:
        rec = [name_idx, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.request, self.hot_clock[0], 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        rec[6] = self.hot_clock[0]
        self.stack.pop()

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def span_wrapper(self, name: str, fn):
        idx = self._name(name)
        keep = self.kept.setdefault(name, []) if name in KEEP_RESULTS else None

        def wrapper(*args, **kwargs):
            rec = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts, spans, names, stack = self.counts, self.spans, self.names, self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            parent = names[spans[stack[-1]][0]] if stack else "-"
            slot = counts.setdefault(f"{name}<{parent}", [0, 0])
            slot[0] += 1
            slot[1] += result is True
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_wrapper(self, kind: str, fn):
        slot, clock = self.hot[kind], self.hot_clock

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            slot[0] += 1
            slot[1] += dt
            clock[0] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def request_span(self, name: str):
        """One request: a root span with a fresh request id."""
        self.request += 1
        rec = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(rec)

    # ------------------------------------------------------- installation

    def install(self, package: str = "algcat") -> None:
        loaded = {n: m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))}
        by_name = {n.rsplit(".", 1)[-1]: m for n, m in loaded.items()}
        replace: dict[int, object] = {}
        for table, make in ((SPANNED, self.span_wrapper), (COUNTED, self.count_wrapper)):
            for mod_name, fn_names in table.items():
                mod = by_name.get(mod_name)
                for fn_name in fn_names:
                    qual = f"{mod_name}.{fn_name}"
                    fn = getattr(mod, fn_name, None) if mod is not None else None
                    if fn is None:
                        self.missing.append(qual)
                        continue
                    replace[id(fn)] = make(qual, fn)
        seen: set[int] = set()
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                new = _rebind(value, replace, seen)
                if new is not value:
                    setattr(mod, attr, new)
        perms = by_name.get("perms")
        for cls_name, meth, kind in HOT:
            cls = getattr(perms, cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"perms.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self.hot_wrapper(kind, fn))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "hot": self.hot,
            "counts": self.counts,
            "missing": self.missing,
        }


def _rebind(value, replace: dict[int, object], seen: set[int]):
    """The wrapper for value if it is a traced function; otherwise value,
    with traced functions inside dicts and dataclass instances rebound in
    place."""
    if id(value) in replace:
        return replace[id(value)]
    if id(value) in seen:
        return value
    if isinstance(value, dict):
        seen.add(id(value))
        for k, v in list(value.items()):
            new = _rebind(v, replace, seen)
            if new is not v:
                value[k] = new
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.add(id(value))
        for field in dataclasses.fields(value):
            v = getattr(value, field.name)
            new = _rebind(v, replace, seen)
            if new is not v:
                object.__setattr__(value, field.name, new)
    return value


def self_times(trace: dict) -> dict[str, list]:
    """name -> [calls, self seconds, inclusive seconds of outermost calls].

    Self time is a span's duration minus the part covered by its child spans
    and by hot primitives that ran inside it but outside those children.
    """
    names, spans = trace["names"], trace["spans"]
    child_dur = [0.0] * len(spans)
    child_hot = [0.0] * len(spans)
    for name, start, end, parent, _req, hot0, hot1 in spans:
        if parent >= 0:
            child_dur[parent] += end - start
            child_hot[parent] += hot1 - hot0
    out: dict[str, list] = {}
    for i, (name, start, end, parent, _req, hot0, hot1) in enumerate(spans):
        key = names[name]
        slot = out.setdefault(key, [0, 0.0, 0.0])
        slot[0] += 1
        slot[1] += (end - start) - child_dur[i] - ((hot1 - hot0) - child_hot[i])
        if not _has_ancestor(spans, parent, name):
            slot[2] += end - start
    return out


def _has_ancestor(spans: list[list], parent: int, name: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
