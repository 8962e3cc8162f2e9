"""Layer map of the traced run: which public callables are wrapped,
and the memory pass that follows it.

Each layer of the program is timed at the calls into its public
functions, from the benchmark's side (``spans.Tracer``).  Class
attributes are patched before the simulator is built, so the engine's
own method lookups go through the wrappers; the simulator, its
injection model, hop kernel and algorithm are patched on the instance
once they exist.

Row accounting on ``RoutingTables``: a *lookup* is one key the engine
asks for (every key of a ``central_rids`` batch, or one outermost
``central_row`` / ``entry_row`` / ``injection_row`` call); a *build* is
an outermost row call that grew the tables, or a ``central_rid`` call
(the batch path only calls it on a miss).
"""

from __future__ import annotations

import gc
import statistics
import sys
import types

from spans import Tracer

MB = 1024.0 * 1024.0


class LayerTrace:
    """Wraps every layer's entry points and turns spans into metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.t = Tracer()
        self.active: list[int] = []
        self.render = None

    # -- before the simulator exists -----------------------------------
    def before_setup(self) -> None:
        from repro.serve.admission import AdmissionController
        from repro.sim.plans import RoutingPlanCache
        from repro.sim.tables import RoutingTables
        from repro.telemetry import TelemetryProbe, prometheus_text
        from repro.telemetry.probe import _MetricsSink

        t = self.t
        t.patch(self.workload.topology_class(), "__init__", "topology.build")
        t.patch(RoutingTables, "__init__", "tables.build")
        t.patch(RoutingTables, "central_rids", "tables.central_rids",
                after=self._lookup_batch)
        for attr in ("central_rid", "central_row", "entry_row",
                     "injection_row"):
            t.patch(RoutingTables, attr, "tables." + attr, group="tables.row",
                    before=_table_size, after=self._row_call(attr))
        for attr in ("central_plan", "entry", "injection_plan"):
            t.patch(RoutingPlanCache, attr, "plans." + attr, group="plans")
        t.patch(AdmissionController, "admit", "admission.admit")
        t.patch(TelemetryProbe, "on_run_end", "telemetry.run_end")
        t.patch(_MetricsSink, "append", "telemetry.sink")
        self.render = t.wrap(prometheus_text, "telemetry.render")

    def _lookup_batch(self, args, token, result, seconds) -> None:
        self.t.count("tables.lookups", len(args[1]))

    def _row_call(self, attr: str):
        t = self.t

        def after(args, size_before, result, seconds):
            if attr != "central_rid":
                t.count("tables.lookups")
            if attr == "central_rid" or args[0].size > size_before:
                t.count("tables.builds")
                t.count("tables.row_build_s", seconds)

        return after

    # -- once the simulator exists -------------------------------------
    def after_setup(self, handle, sim) -> None:
        t = self.t
        t.patch(sim, "step", "engine.step", keep=True,
                after=lambda *_: self.active.append(sim.active))
        t.patch(sim, "run", "engine.run", keep=True)
        t.patch(sim.injection, "attempt", "injection.attempt")
        if self.workload.kind == "serve":
            t.patch(handle.model, "on_tick", "serve.tick")
        tables = getattr(sim, "tables", None)
        if tables is not None and tables.kernel is not None:
            for attr in ("central_row", "entry_row", "injection_row"):
                t.patch(tables.kernel, attr, "hops." + attr,
                        group="hops.kernel", after=self._kernel_row)
        for attr in ("static_hops", "dynamic_hops"):
            t.patch(sim.algorithm, attr, "routing." + attr,
                    group="routing.hops")

    def _kernel_row(self, args, token, result, seconds) -> None:
        if result is not None:
            self.t.count("hops.kernel_rows")
            self.t.count("hops.kernel_row_s", seconds)

    # -- metrics ---------------------------------------------------------
    def metrics(self, handle, sim, outcome: dict) -> dict:
        t = self.t
        c = t.counts
        sp = t.spans

        def group_total(prefix, field="total"):
            return sum(
                getattr(s, field) for k, s in sp.items()
                if k.startswith(prefix)
            )

        tables = getattr(sim, "tables", None)
        plans = getattr(sim, "plan_cache", None) or getattr(
            tables, "plans", None
        )
        row_builds = tables.size if tables is not None else 0
        lookups = c.get("tables.lookups", 0)
        steps = [e - s for s, e, _ in sp["engine.step"].items]
        quarter = max(1, len(steps) // 4)
        run_items = sp["engine.run"].items
        finish = (
            run_items[-1][1] - sp["engine.step"].items[-1][1]
            if run_items and steps else 0.0
        )
        m = {
            "topology.build_s": t.total("topology.build"),
            "tables.build_s": t.total("tables.build"),
            "tables.rows": tables.rows_packed if tables is not None else 0,
            "tables.row_builds": row_builds,
            "tables.row_build_s": c.get("tables.row_build_s", 0.0),
            "tables.lookups": lookups,
            "tables.hit_ratio": (
                1.0 - c.get("tables.builds", 0) / lookups if lookups else 0.0
            ),
            "tables.est_bytes": (
                tables.memory_bytes() if tables is not None else 0
            ),
            "hops.kernel_rows": c.get("hops.kernel_rows", 0),
            "hops.kernel_row_s": c.get("hops.kernel_row_s", 0.0),
            "hops.kernel_row_frac": (
                c.get("hops.kernel_rows", 0) / row_builds
                if row_builds else 0.0
            ),
            "plans.plan_calls": group_total("plans.", "calls"),
            "plans.plan_s": group_total("plans."),
            "plans.entries": plans.size if plans is not None else 0,
            "plans.est_bytes": (
                plans.memory_bytes() if plans is not None else 0
            ),
            "routing.hops_calls": group_total("routing.", "calls"),
            "routing.hops_s": group_total("routing."),
            "engine.cycles": len(steps),
            "engine.step_s": sum(steps),
            "engine.step_self_s": sp["engine.step"].self_time,
            "engine.step_p50_ms": 1e3 * statistics.median(steps),
            "engine.step_p95_ms": 1e3 * percentile(steps, 95),
            "engine.active_mean": statistics.fmean(self.active),
            "engine.finish_s": finish,
            "engine.cold_warm_ratio": (
                statistics.fmean(steps[:quarter])
                / statistics.fmean(steps[-quarter:])
            ),
            "injection.attempt_s": t.total("injection.attempt"),
            "injection.placed": sim.injected_count,
            "admission.admit_s": t.total("admission.admit"),
            "serve.ticks": t.calls("serve.tick"),
            "serve.tick_s": t.total("serve.tick"),
            "telemetry.events": t.calls("telemetry.sink"),
            "telemetry.sink_s": t.total("telemetry.sink"),
            "telemetry.run_end_s": t.total("telemetry.run_end"),
            "telemetry.render_s": t.total("telemetry.render"),
        }
        adm = outcome.get("admission")
        m["admission.offers"] = sum(adm["offered"].values()) if adm else 0
        m["admission.deferred"] = sum(adm["deferred"].values()) if adm else 0
        m["admission.refused"] = sum(
            sum(adm[k].values()) for k in ("dropped", "shed", "cancelled")
        ) if adm else 0
        final = outcome.get("final_latency_count", 0)
        m["serve.live_latency_frac"] = (
            outcome["live_latency_count"] / final if final else 0.0
        )
        return m


def _table_size(args) -> int:
    return args[0].size


def memory(handle, sim) -> dict:
    """``mem.*`` metrics: retained bytes per owning layer, in MB.

    Owners in priority order: the plan cache, the routing tables, the
    telemetry probe and registry, the engine (everything else the
    simulator holds), then ``other`` -- the algorithm, topology,
    injection model and service.
    """
    tables = getattr(sim, "tables", None)
    plans = getattr(sim, "plan_cache", None) or getattr(tables, "plans", None)
    service = handle if handle is not sim else None
    probe = getattr(service, "probe", None)
    registry = getattr(service, "registry", None)
    other = [sim.algorithm, sim.topology, sim.injection, service]
    sizes = retained_by_owner(
        [
            ("plans", [plans]),
            ("tables", [tables]),
            ("telemetry", [probe, registry]),
            ("engine", [sim]),
            ("other", other),
        ],
        boundary=[plans, tables, probe, registry, sim, *other],
    )
    m = {f"mem.{k}_mb": v / MB for k, v in sizes.items()}
    m["mem.retained_mb"] = sum(sizes.values()) / MB
    m["mem.tables_vs_est"] = (
        sizes["tables"] / tables.memory_bytes() if tables is not None else 0.0
    )
    m["mem.plans_vs_est"] = (
        sizes["plans"] / plans.memory_bytes() if plans is not None and
        plans.size else 0.0
    )
    return m


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def retained_by_owner(owners, boundary) -> dict[str, int]:
    """Bytes each owner keeps alive, measured object by object.

    ``owners`` is ``[(name, roots), ...]`` in priority order; an object
    reachable from several owners counts for the first.  Traversal
    follows ``gc.get_referents`` and never enters a ``boundary`` object
    other than the owner's own roots, nor code, classes or modules.
    ``sys.getsizeof`` of a numpy array includes the data it owns.
    """
    skip_types = (
        type, types.ModuleType, types.FunctionType, types.MethodType,
        types.BuiltinFunctionType, types.CodeType,
    )
    fence = {id(b) for b in boundary if b is not None}
    seen: set[int] = set()
    out = {}
    for name, roots in owners:
        roots = [r for r in roots if r is not None]
        own = {id(r) for r in roots}
        total = 0
        stack = list(roots)
        while stack:
            obj = stack.pop()
            key = id(obj)
            if key in seen or (key in fence and key not in own):
                continue
            seen.add(key)
            if isinstance(obj, skip_types):
                continue
            total += sys.getsizeof(obj)
            stack.extend(gc.get_referents(obj))
        out[name] = total
    return out
