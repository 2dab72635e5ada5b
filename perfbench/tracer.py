"""Span tracing of cyclesplit's public functions, from outside the package.

``Tracer.install`` replaces each traced function in its defining module and
in every other ``cyclesplit`` module that bound the same object at import
time (``pipeline.split_to_k``, ``embedding.count_h_edges``, the package
namespace, ...), so calls between modules are seen too.  ``uninstall`` puts
the originals back.

A span is ``[name, start, end, parent, solve, self_s, work, raised]``.  Spans
opened inside a ``pipeline.solve`` span carry that solve's number; others
carry None.  Self time is the span's duration minus the time its children
cover.  The pattern iterators are generators whose work interleaves with the
caller's loop, so their span covers only the time spent inside ``next``;
that busy time is both their self time and what they cover in the parent.
Spans stay in memory until ``write`` dumps them, gzipped.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter
from typing import Callable

FIELDS = ("name", "start", "end", "parent", "solve", "self_s", "work", "raised")
NAME, START, END, PARENT, SOLVE, SELF, WORK, RAISED = range(len(FIELDS))
SOLVE_SPAN = "pipeline.solve"

# (module, attribute path, is a generator function)
TARGETS = (
    ("graphs", "validate_cover", False),
    ("graphs", "CycleCover.from_edge_set", False),
    ("graphs", "load_graph", False),
    ("graphs", "load_cover", False),
    ("graphs", "dump_cover", False),
    ("instances", "gen_planted", False),
    ("instances", "oracle_component_counts", False),
    ("switching", "count_h_edges", False),
    ("switching", "enumerate_implanted", False),
    ("switching", "increase_by_one_with_diag", False),
    ("switching", "split_to_k", False),
    ("patterns", "iter_interleaved_pairs", True),
    ("patterns", "iter_increasing_triples", True),
    ("patterns", "iter_decreasing_triples", True),
    ("pipeline", "solve", False),
    ("pipeline", "merge_cover", False),
    ("pipeline", "unmerge", False),
    ("embedding", "partition_vertices", False),
    ("embedding", "cover_graph", False),
    ("embedding", "close_graph", False),
    ("embedding", "enrich", False),
    ("rewire", "second_hamilton_cycle", False),
    ("rewire", "sample_switch_set", False),
)

# work count taken from a call's return value
WORK_OF = {
    "switching.enumerate_implanted": len,
    "embedding.partition_vertices": lambda part: part.s,
    "embedding.enrich": lambda res: res.iterations,  # accepted rewires
    "rewire.second_hamilton_cycle": lambda res: int(res is not None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.solves = 0
        self._stack: list[int] = []  # open spans
        self._child: list[float] = []  # time covered by children, per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            solve = self.spans[parent][SOLVE]
        elif name == SOLVE_SPAN:
            solve = self.solves
            self.solves += 1
        else:
            solve = None
        self.spans.append([name, 0.0, 0.0, parent, solve, 0.0, 0, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._child.append(0.0)
        self.spans[idx][START] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        child = self._child.pop()
        span = self.spans[idx]
        span[END] = end
        duration = end - span[START]
        span[SELF] = duration - child
        if self._child:
            self._child[-1] += duration

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK_OF.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx][RAISED] = True
                raise
            finally:
                self._close(idx)
            if work is not None:
                self.spans[idx][WORK] = work(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            solve = self.spans[parent][SOLVE] if parent is not None else None
            span = [name, 0.0, 0.0, parent, solve, 0.0, 0, False]
            self.spans.append(span)
            return self._drive(inner, span)

        return traced

    def _drive(self, inner, span):
        while True:
            t0 = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                self._busy(span, t0, perf_counter())
                return
            self._busy(span, t0, perf_counter())
            span[WORK] += 1
            yield item

    def _busy(self, span, t0: float, t1: float) -> None:
        if not span[START]:
            span[START] = t0
        span[END] = t1
        span[SELF] += t1 - t0
        if self._child:
            self._child[-1] += t1 - t0

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the package lacks."""
        missing = []
        for module, path, is_gen in TARGETS:
            mod = sys.modules.get(f"cyclesplit.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{module}.{path}")
                continue
            name = f"{module}.{path}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
                self._set(owner, attr, wrapped)
                continue
            wrap = self._wrap_generator if is_gen else self._wrap
            wrapped = wrap(name, raw)
            for other in _package_modules():
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._set(other, key, wrapped)
        return missing

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per line: a header of field names, then the spans."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "cyclesplit" or key.startswith("cyclesplit."))
    ]


def totals(spans: list[list]) -> dict[str, list]:
    """name -> [calls, self_s, work, raised, duration] over spans inside solves."""
    out: dict[str, list] = {}
    for span in spans:
        if span[SOLVE] is None:
            continue
        agg = out.setdefault(span[NAME], [0, 0.0, 0, 0, 0.0])
        agg[0] += 1
        agg[1] += span[SELF]
        agg[2] += span[WORK]
        agg[3] += span[RAISED]
        agg[4] += span[END] - span[START]
    return out


def mean_outside_solves(spans: list[list], name: str) -> float:
    """Mean duration of the named spans opened outside any solve (0 if none)."""
    durations = [s[END] - s[START] for s in spans if s[NAME] == name and s[SOLVE] is None]
    return sum(durations) / len(durations) if durations else 0.0
