"""Which program functions the traced run wraps, and the per-layer metrics.

A layer is a module of the ``repro`` package.  :meth:`Instrumentation.install`
wraps, from outside, every public module-level function of each layer module and
every public method of the classes listed for it, then rebinds each wrapped
function wherever the package holds a reference to it: module globals
(``from .x import f``), the ``check`` of registered isolation levels, and the
closure cells of derived level checks.  Generator functions are left alone
(a wrapper would time only their creation).  :meth:`Instrumentation.restore`
puts every original back.

Forked pool workers inherit the wrappers; the worker entry point is wrapped
to switch the tracer off in the child, so worker time shows up only as the
coordinator's wait.
"""

from __future__ import annotations

import importlib
import inspect
import multiprocessing.connection
import sys
from typing import Callable, Dict, List, Tuple

from spans import Tracer

#: layer (module under ``repro``) -> classes whose public methods are wrapped.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "dpor.algorithms": (),
    "dpor.explore": ("StepEngine", "SwappingExplorer"),
    "dpor.swaps": (),
    "dpor.optimality": (),
    "dpor.parallel": ("ParallelExplorer",),
    "dpor.pool": ("PersistentPool",),
    "core.wire": (),
    "core.canonical": ("HistorySet",),
    "core.history": ("History", "TransactionLog"),
    "core.ordered_history": ("OrderedHistory",),
    "core.bitrel": ("RelationMatrix",),
    "semantics.scheduler": (),
    "semantics.executor": (),
    "isolation.saturation": ("IncrementalSaturation",),
    "isolation.summaries": (),
    "isolation.serializability": (),
    "isolation.snapshot": (),
    "isolation.liveness": (
        "EvictionPolicy", "FreshCapablePolicy", "WriterPinningPolicy", "InertOnlyPolicy",
    ),
    "trace.format": ("TraceEvent", "TraceReplayer"),
    "checking.online": ("OnlineChecker",),
    "monitor.core": ("Monitor",),
}

#: Private methods wrapped as well, because a metric names them.
PRIVATE: Dict[str, Tuple[str, ...]] = {
    "dpor.parallel": ("ParallelExplorer._seed", "ParallelExplorer._fan_out"),
    "dpor.pool": ("PersistentPool._dispatch", "PersistentPool._receive"),
}

#: Span the benchmark records around decoding each stream line (layer trace.stream).
DECODE_SPAN = "trace.stream.stream_events"
#: Root span of one workload pass; its self time is the ``other`` bucket.
PASS_SPAN = "bench.pass"
#: Span around the pool coordinator's blocking wait for worker frames.
WAIT_SPAN = "dpor.pool.conn_wait"


class Instrumentation:
    """The wrappers installed for one traced run, with their undo list."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.worker_explore_s = 0.0
        self.frame_bytes = 0
        self._undo: List[Callable[[], None]] = []

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _hook(self, qualname: str):
        if qualname in ("core.wire.encode_frame", "core.wire.encode_seed_batch"):
            return self._count_sent
        if qualname == "core.wire.decode_frame":
            return self._count_received
        return None

    def _count_sent(self, args, result) -> None:
        self.frame_bytes += len(result)

    def _count_received(self, args, result) -> None:
        self.frame_bytes += len(args[0])

    def _record_task(self, args, result) -> None:
        self.worker_explore_s += args[1]  # GranularityController.record(explore_s, ...)

    def install(self) -> None:
        tracer = self.tracer
        wrapped: Dict[Callable, Callable] = {}
        for layer, classes in LAYERS.items():
            module = importlib.import_module("repro." + layer)
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                qualname = f"{layer}.{name}"
                wrapper = tracer.wrap(obj, qualname, self._hook(qualname))
                wrapped[obj] = wrapper
                self._set(module, name, wrapper)
            private = PRIVATE.get(layer, ())
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and f"{cls_name}.{attr}" not in private:
                        continue
                    self._wrap_method(cls, attr, raw, f"{layer}.{cls_name}.{attr}")
        self._wrap_special()
        self._rebind(wrapped)

    def _wrap_method(self, cls, attr: str, raw, qualname: str) -> None:
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            if inspect.isgeneratorfunction(fn):
                return
            self._set(cls, attr, type(raw)(self.tracer.wrap(fn, qualname)))
        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
            self._set(cls, attr, self.tracer.wrap(raw, qualname))

    def _wrap_special(self) -> None:
        tracer = self.tracer
        pool = sys.modules["repro.dpor.pool"]
        controller = pool.GranularityController
        self._set(
            controller,
            "record",
            tracer.wrap(vars(controller)["record"], "dpor.pool.GranularityController.record",
                        self._record_task),
        )
        worker_main = pool._worker_main

        def untraced_worker_main(*args, **kwargs):
            tracer.active = False  # runs in the forked child only
            return worker_main(*args, **kwargs)

        self._set(pool, "_worker_main", untraced_worker_main)
        # The coordinator imports ``wait`` inside PersistentPool.explore, so
        # the module attribute is what it resolves.
        self._set(
            multiprocessing.connection,
            "wait",
            tracer.wrap(multiprocessing.connection.wait, WAIT_SPAN),
        )

    def _rebind(self, wrapped: Dict[Callable, Callable]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(module, name, wrapped[value])
        from repro.isolation.base import registered_levels

        for level in registered_levels():
            check = getattr(level, "_check", None)
            if check is None:
                continue
            if check in wrapped:
                self._set(level, "_check", wrapped[check])
                continue
            for cell in check.__closure__ or ():
                contents = cell.cell_contents
                if inspect.isfunction(contents) and contents in wrapped:
                    cell.cell_contents = wrapped[contents]
                    self._undo.append(lambda c=cell, v=contents: setattr(c, "cell_contents", v))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, inst: Instrumentation, obs: Dict
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics for one traced run, per traced pass.

    ``obs`` carries what the benchmark observed outside the spans: the pass
    count, traced and untraced wall time per pass, the work counters of one
    pass, and the pool's worker balance.
    """
    passes = obs["passes"]
    t = tracer
    c = obs["counters"]

    def per(x: float) -> float:
        return x / passes

    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per(t.self_total(f"{layer}.")), "s")
    out["trace.stream.self_s"] = (per(t.self_total("trace.stream.")), "s")
    out["other.self_s"] = (per(t.self_time(PASS_SPAN)), "s")

    for counter, metric in COUNTER_METRICS.items():
        out[metric] = (c[counter], "count")
    out["dpor.explore.step_self_s"] = (per(t.self_time("dpor.explore.StepEngine.step")), "s")
    out["dpor.explore.kept_ratio"] = (_ratio(c["outputs"], c["end_states"]), "ratio")

    sched = "semantics.scheduler."
    out[sched + "valid_writes_s"] = (per(t.inclusive(sched + "valid_writes")), "s")
    out[sched + "valid_writes_calls"] = (per(t.count(sched + "valid_writes")), "count")
    out[sched + "next_action_s"] = (per(t.inclusive(sched + "next_action")), "s")
    out[sched + "apply_action_s"] = (per(t.inclusive(sched + "apply_action")), "s")
    out["core.ordered_history.extended_s"] = (
        per(t.inclusive("core.ordered_history.OrderedHistory.extended")), "s")
    out["core.history.causal_matrix_calls"] = (
        per(t.count("core.history.History.causal_matrix")), "count")
    out["core.bitrel.copy_calls"] = (
        per(t.count("core.bitrel.RelationMatrix.copy")
            + t.count("core.bitrel.RelationMatrix.copy_mutable")), "count")
    out["dpor.optimality.applied_ratio"] = (
        _ratio(c["swaps_applied"], c["swap_candidates"]), "ratio")
    out["isolation.serializability.calls"] = (
        per(t.count("isolation.serializability.satisfies_ser")), "count")
    out["isolation.snapshot.calls"] = (
        per(t.count("isolation.snapshot.satisfies_si")
            + t.count("isolation.snapshot.satisfies_pc")), "count")

    fan_out = t.inclusive("dpor.pool.PersistentPool.explore")
    workers = obs["workers"]
    out["dpor.parallel.seed_s"] = (per(t.inclusive("dpor.parallel.ParallelExplorer._seed")), "s")
    out["dpor.parallel.worker_busy_frac"] = (
        _ratio(inst.worker_explore_s, workers * fan_out) if workers > 1 else 0.0, "ratio")
    out["dpor.parallel.worker_balance"] = (obs["worker_balance"], "ratio")
    out["dpor.parallel.coordinator_wait_s"] = (per(t.inclusive(WAIT_SPAN)), "s")
    encode = sum(
        t.incl_s[i] for i, name in enumerate(t.names)
        if name.startswith("core.wire.") and (".encode" in name or name.endswith("_to_wire"))
    )
    out["core.wire.encode_s"] = (per(encode), "s")
    out["core.wire.frame_bytes"] = (per(inst.frame_bytes), "B")

    out["trace.stream.decode_s"] = (per(t.inclusive(DECODE_SPAN)), "s")
    online = "checking.online.OnlineChecker."
    out["checking.online.feed_self_s"] = (per(t.self_time(online + "feed")), "s")
    out["checking.online.history_s"] = (per(t.inclusive(online + "history")), "s")
    out["checking.online.prune_settled_s"] = (per(t.inclusive(online + "prune_settled")), "s")
    out["checking.online.evict_s"] = (per(t.inclusive(online + "evict")), "s")
    out["monitor.core.collect_s"] = (per(t.inclusive("monitor.core.Monitor.collect")), "s")
    out["isolation.liveness.evictable_s"] = (
        per(t.inclusive("isolation.liveness.evictable_transactions")), "s")

    traced = obs["traced_pass_s"]
    untraced = obs["untraced_pass_s"]
    out["tracing.wall_s"] = (traced, "s")
    out["tracing.untraced_wall_s"] = (untraced, "s")
    out["tracing.overhead_s"] = (traced - untraced, "s")
    out["tracing.overhead_frac"] = (_ratio(traced - untraced, untraced), "ratio")
    out["tracing.spans"] = (per(sum(t.calls)), "count")
    for name in WORK_COUNTERS:
        if name not in COUNTER_METRICS:
            out[f"work.{name}"] = (c[name], "count")
    return out


#: Work counters reported under the name of the layer that does the work;
#: the others are reported as ``work.<counter>``.
COUNTER_METRICS: Dict[str, str] = {
    "explore_calls": "dpor.explore.nodes",
    "peak_stack": "dpor.explore.peak_stack",
    "blocked": "semantics.scheduler.blocked",
    "executor_instructions": "semantics.executor.instructions",
    "closure_word_ops": "core.bitrel.word_ops",
    "saturation_ticks": "isolation.saturation.ticks",
    "swap_candidates": "dpor.swaps.candidates",
    "collections": "monitor.core.collections",
    "evicted": "monitor.core.evicted",
    "gc_paused_events": "monitor.core.gc_paused_events",
}

#: The work counters recorded for every workload (0 where a counter does
#: not apply).  Monitor saturation ticks and closure word-ops are deltas of
#: the program's process-wide counters over one pass.
WORK_COUNTERS: Tuple[str, ...] = (
    "explore_calls",
    "end_states",
    "outputs",
    "consistency_checks",
    "swap_candidates",
    "swaps_applied",
    "saturation_ticks",
    "closure_word_ops",
    "executor_instructions",
    "peak_stack",
    "blocked",
    "events",
    "evicted",
    "collections",
    "peak_live",
    "gc_paused_events",
)
