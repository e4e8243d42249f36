"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` wraps functions from outside the program: each call of a
wrapped function is one span with a name, a start, an end and the span
that was open when it started (its parent).  Self time is computed as the
span's duration minus the part of it that its child spans cover; calls run
on one thread, so children never overlap and their coverage is the sum of
their durations.  Self time, inclusive time and call counts are aggregated
per span name as spans close, so every span counts however long the run.
Raw spans are also kept, up to ``raw_cap`` per run, in flat arrays, and
written out once the run ends (:meth:`Tracer.write_spans`).

Nothing here imports the program under test.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Raw spans kept per run.  Aggregates cover every span regardless.
RAW_CAP = 200_000


class Tracer:
    """Span recorder shared by every wrapper of one run."""

    def __init__(self, raw_cap: int = RAW_CAP):
        self.raw_cap = raw_cap
        #: False in forked pool workers: wrappers then call straight through.
        self.active = True
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self._depth: List[int] = []
        # Open spans: child coverage so far, and raw index (-1 when not kept).
        self._cov: List[float] = []
        self._open: List[int] = []
        self.r_name = array("i")
        self.r_parent = array("i")
        self.r_start = array("d")
        self.r_end = array("d")
        #: Identifier of the workload pass the next spans belong to.
        self.pass_id = -1
        self.r_pass = array("i")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._depth.append(0)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name`` on every call.

        ``on_call(args, result)`` runs after each completed call, outside
        the span, for counters that need an argument or the result.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        tracer = self
        # Bookkeeping is inlined with locals bound here: a traced pass runs
        # this millions of times.
        open_, cov, depth = self._open, self._cov, self._depth
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        r_name, r_parent, r_pass = self.r_name, self.r_parent, self.r_pass
        r_start, r_end, cap = self.r_start, self.r_end, self.raw_cap

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(r_name)
            if index < cap:
                r_name.append(nid)
                r_parent.append(open_[-1] if open_ else -1)
                r_pass.append(tracer.pass_id)
                r_start.append(0.0)
                r_end.append(0.0)
            else:
                index = -1
            open_.append(index)
            cov.append(0.0)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                open_.pop()
                child = cov.pop()
                if index >= 0:
                    r_start[index] = t0
                    r_end[index] = t1
                calls[nid] += 1
                self_s[nid] += dur - child
                depth[nid] -= 1
                if not depth[nid]:
                    incl_s[nid] += dur
                if cov:
                    cov[-1] += dur
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def self_total(self, prefix: str) -> float:
        """Summed self seconds of spans named ``prefix*``."""
        return sum(v for name, v in zip(self.names, self.self_s) if name.startswith(prefix))

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def inclusive(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl_s[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def raw_self_times(self) -> Dict[str, float]:
        """Self time per name recomputed from the kept raw spans alone."""
        cover = [0.0] * len(self.r_name)
        for i in range(len(self.r_name)):
            parent = self.r_parent[i]
            if parent >= 0:
                cover[parent] += self.r_end[i] - self.r_start[i]
        out: Dict[str, float] = {}
        for i in range(len(self.r_name)):
            name = self.names[self.r_name[i]]
            dur = self.r_end[i] - self.r_start[i]
            out[name] = out.get(name, 0.0) + dur - cover[i]
        return out

    def write_spans(self, path) -> None:
        """Write kept spans as gzipped JSON lines: id, parent, pass, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "kept": len(self.r_name),
                                  "cap": self.raw_cap}) + "\n")
            for i in range(len(self.r_name)):
                out.write(
                    f"[{i},{self.r_parent[i]},{self.r_pass[i]},{self.r_name[i]},"
                    f"{self.r_start[i]!r},{self.r_end[i]!r}]\n"
                )
