"""Per-layer tracing of ncsim from outside the program.

The tracer replaces the public names that ncsim's modules look up in one
another (``ncsim.engine.resolve_slot``, ``MseTable.mse``, ...) with shims
that count and time each call and then call straight through.  Nothing
is drawn, reordered or rounded, so a traced run produces the same bytes
as an untraced one; the benchmark checks that on every traced run.

Two kinds of shim exist.  A *leaf* calls nothing else that is traced and
only adds its duration to the caller.  A *span* opens a frame, so the
time of traced calls made inside it is subtracted to give its self time,
and is kept as a (name, start, end, parent) record.  Counting-only shims
(packets built, heap pushes, reliability queries) are not timed: they sit
on the hottest paths, where two clock reads would cost more than the
call.

A name the program no longer has is skipped and its metrics read zero,
so the benchmark keeps running when a later change removes a layer.
"""
from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
import types

import ncsim.aoi
import ncsim.cli
import ncsim.engine
import ncsim.experiments
import ncsim.mac
import ncsim.metrics

# (module, attribute) -> layer name, for functions traced as spans.
_SPANS = [
    (ncsim.cli, "main", "cli.main"),
    (ncsim.cli, "emit_results", "experiments.emit"),
    (ncsim.cli, "emit_validation", "experiments.emit"),
    (ncsim.cli, "emit_pendulum", "experiments.emit"),
    (ncsim.cli, "emit_nmse_curves", "experiments.emit"),
    (ncsim.experiments, "emit_results", "experiments.emit"),
    (ncsim.experiments, "optimize_adra", "aoi.optimize_adra"),
    (ncsim.aoi, "optimize_adra", "aoi.optimize_adra"),
    (ncsim.engine, "make_preset", "systems.make_preset"),
    (ncsim.experiments, "make_preset", "systems.make_preset"),
    (ncsim.engine, "mef_build_schedule", "mac.mef_build_schedule"),
    (ncsim.engine, "pmef_next", "mac.pmef_next"),
]

# Functions that call nothing traced: timed, no frame of their own.
_LEAVES = [
    (ncsim.engine, "rr_next", "mac.rr_next"),
    (ncsim.engine, "wifresh_next", "mac.wifresh_next"),
    (ncsim.engine, "draw_offsets", "channel.draw_offsets"),
    (ncsim.engine, "resolve_pointtopoint", "channel.resolve_pointtopoint"),
    (ncsim.metrics.MetricsAccumulator, "record_step", "metrics.record_step"),
    (ncsim.metrics.MetricsAccumulator, "finalize", "metrics.finalize"),
]

# Timed layers reported as <name>.calls and <name>.s.
TIMED = ["engine.run", "metrics.mse", "metrics.record_step",
         "metrics.finalize", "mac.rr_next", "mac.mef_build_schedule",
         "mac.wifresh_next", "mac.pmef_next", "channel.draw_offsets",
         "channel.resolve_slot", "channel.resolve_pointtopoint",
         "systems.make_preset", "aoi.optimize_adra"]
COUNTS = ["engine.loop_steps", "engine.heap.pushes", "engine.pool.created",
          "metrics.mse.tables", "mac.packets", "mac.reliability.calls",
          "mac.polls", "mac.polled_deliveries", "channel.slot_offered",
          "channel.slot_decoded"]


class Tracer:
    """Counting and timing shims around ncsim's layer boundaries."""

    def __init__(self):
        self._acc = {}          # layer -> [calls, seconds, self seconds]
        self._cnt = {n: [0] for n in COUNTS}
        self._stack = [0.0]     # traced child seconds of each open span
        self._open = [-1]       # span index of each open span
        self._depth = {}        # id(MseTable) -> deepest age requested
        self._retired = [0]     # depth of tables whose id was reused
        self._polling = [False]  # whether the current run polls
        self._undo = []
        self.spans = []

    # ---- shims ------------------------------------------------------------

    def _slot(self, name):
        return self._acc.setdefault(name, [0, 0.0, 0.0])

    def _leaf(self, fn, name):
        acc, stack, clock = self._slot(name), self._stack, time.perf_counter

        def leaf(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            acc[0] += 1
            acc[1] += dt
            acc[2] += dt
            stack[-1] += dt
            return out
        return leaf

    def _span(self, fn, name):
        acc, stack, clock = self._slot(name), self._stack, time.perf_counter
        spans, open_ = self.spans, self._open

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(idx)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                open_.pop()
                stack[-1] += t1 - t0
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += t1 - t0 - child
                spans[idx] = (name, t0, t1, parent)
        return span

    def _count(self, fn, name, gate=None):
        cnt = self._cnt[name]
        if gate is None:
            def counted(*args, **kwargs):
                cnt[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                if gate[0]:
                    cnt[0] += 1
                return fn(*args, **kwargs)
        return counted

    def _set(self, owner, attr, make):
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # ---- install / uninstall ---------------------------------------------

    def install(self):
        """Put every shim in place; :meth:`uninstall` restores the program."""
        for owner, attr, name in _SPANS:
            self._set(owner, attr, lambda fn, n=name: self._span(fn, n))
        for owner, attr, name in _LEAVES:
            self._set(owner, attr, lambda fn, n=name: self._leaf(fn, n))
        self._set(ncsim.engine, "run", self._traced_run)
        self._set(ncsim.experiments, "run", self._traced_run)
        self._set(ncsim.engine, "resolve_slot", self._traced_resolve_slot)
        self._set(ncsim.metrics.MseTable, "mse", self._traced_mse)
        self._set(ncsim.metrics.MseTable, "__init__", self._traced_table)
        mac = ncsim.mac
        if hasattr(mac, "Packet"):
            self._set(mac.Packet, "__post_init__",
                      lambda fn: self._count(fn, "mac.packets"))
        view = getattr(mac, "GwLoopView", None)
        if view is not None:
            self._set(view, "reliability",
                      lambda fn: self._count(fn, "mac.reliability.calls"))
            self._set(view, "record_poll",
                      lambda fn: self._count(fn, "mac.polls", self._polling))
            self._set(view, "record_data", lambda fn: self._count(
                fn, "mac.polled_deliveries", self._polling))
        self._set(ncsim.engine, "heapq", self._counting_heapq)
        self._set(concurrent.futures, "ProcessPoolExecutor",
                  self._counting_pool)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced_run(self, fn):
        steps, polling = self._cnt["engine.loop_steps"], self._polling
        span = self._span(fn, "engine.run")

        def run(cfg, *args, **kwargs):
            steps[0] += cfg.n_loops * round(cfg.duration_s / cfg.T_s)
            polling[0] = cfg.policy.is_polling
            try:
                return span(cfg, *args, **kwargs)
            finally:
                polling[0] = False
        return run

    def _traced_resolve_slot(self, fn):
        offered = self._cnt["channel.slot_offered"]
        decoded = self._cnt["channel.slot_decoded"]

        def resolve_slot(transmissions, *args, **kwargs):
            out = fn(transmissions, *args, **kwargs)
            offered[0] += len(transmissions)
            decoded[0] += len(out)
            return out
        return self._leaf(resolve_slot, "channel.resolve_slot")

    def _traced_mse(self, fn):
        depth = self._depth

        def mse(table, delta):
            key = id(table)
            if delta > depth.get(key, 0):
                depth[key] = delta
            return fn(table, delta)
        return self._leaf(mse, "metrics.mse")

    def _traced_table(self, fn):
        depth, retired = self._depth, self._retired
        tables = self._cnt["metrics.mse.tables"]

        def __init__(table, *args, **kwargs):
            # An id is reused only after its table is freed: bank the old
            # table's depth before the new one starts from zero.
            retired[0] += depth.pop(id(table), 0)
            tables[0] += 1
            return fn(table, *args, **kwargs)
        return __init__

    def _counting_heapq(self, module):
        pushes, push = self._cnt["engine.heap.pushes"], module.heappush

        def heappush(heap, item):
            pushes[0] += 1
            push(heap, item)
        return types.SimpleNamespace(heappush=heappush,
                                     heappop=module.heappop)

    def _counting_pool(self, base):
        created, tracer = self._cnt["engine.pool.created"], self
        forked = multiprocessing.get_start_method() == "fork"

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                created[0] += 1
                if forked and len(args) < 3 and "initializer" not in kwargs:
                    # Forked workers inherit the shims; their counts could
                    # never reach this process, so they run untraced.
                    kwargs["initializer"] = tracer.uninstall
                super().__init__(*args, **kwargs)
        return CountingPool

    # ---- readout ------------------------------------------------------------

    def reset(self):
        """Zero every counter; spans are kept for the whole run."""
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0.0]
        for cnt in self._cnt.values():
            cnt[0] = 0
        self._depth.clear()
        self._retired[0] = 0

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last :meth:`reset`."""
        out = {}
        for name in TIMED:
            calls, secs, _ = self._acc.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".s"] = secs
        out["engine.self_s"] = self._acc.get("engine.run", (0, 0, 0.0))[2]
        for name in ("experiments.emit", "cli.main"):
            out[name + ".s"] = self._acc.get(name, (0, 0.0))[1]
        out.update({name: cnt[0] for name, cnt in self._cnt.items()})
        out["metrics.mse.grow_steps"] = (self._retired[0]
                                         + sum(self._depth.values()))
        out["mac.poll_success_ratio"] = _ratio(
            out.pop("mac.polled_deliveries"), out.pop("mac.polls"))
        out["channel.slot_success_ratio"] = _ratio(
            out["channel.slot_decoded"], out["channel.slot_offered"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0
