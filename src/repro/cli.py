"""Command-line interface.

Examples
--------
Regenerate a paper table (optionally choosing sizes and seed)::

    python -m repro table 9 --ns 6,8 --seed 7

Regenerate a figure as text or DOT::

    python -m repro figure 1
    python -m repro figure 4 --dot

Machine-verify an algorithm instance::

    python -m repro verify hypercube-adaptive 4
    python -m repro verify torus 3x3
    python -m repro verify shuffle-exchange 4

Trace an offered-load sweep (``--telemetry`` adds occupancy and
link-utilization columns)::

    python -m repro sweep --n 6 --pattern complement
    python -m repro sweep --n 6 --telemetry

Run a fault-degradation sweep (beyond the paper; docs/RESILIENCE.md)::

    python -m repro faults --family hypercube --size 5 --counts 0,2,4,8
    python -m repro faults --family mesh --size 6 --verify

Dump full telemetry artifacts for one run on both engines and check
the event logs are byte-identical (docs/OBSERVABILITY.md)::

    python -m repro telemetry --n 4 --out telemetry-out
    python -m repro telemetry --n 4 --faults 3 --engine both

Run a streaming traffic service from a YAML scenario, with a live
``/metrics`` + ``/healthz`` endpoint; SIGINT/SIGTERM drain gracefully
(docs/SERVING.md)::

    python -m repro serve examples/scenarios/smoke.yaml --port 9100
    python -m repro serve examples/scenarios/smoke.yaml --validate
    python -m repro serve scenario.yaml --duration 5000 --record out/
"""

from __future__ import annotations

import argparse
import sys

# Each subcommand imports what it runs inside its handler, so a
# ``table`` or ``serve`` process never loads networkx or the
# verification, static-analysis and figure stacks (docs/ARCHITECTURE.md).


def _parse_ns(text: str | None) -> tuple[int, ...] | None:
    if not text:
        return None
    return tuple(int(x) for x in text.replace(",", " ").split())


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (workers)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _build_algorithm(name: str, size: str):
    """Instantiate an algorithm by CLI name and size spec."""
    from .routing.buffer_pool import StructuredBufferPoolRouting
    from .routing.hypercube import (
        HypercubeAdaptiveRouting,
        HypercubeHungRouting,
        HypercubeObliviousRouting,
    )
    from .routing.mesh import Mesh2DAdaptiveRouting, Mesh2DRestrictedRouting
    from .routing.shuffle_exchange import ShuffleExchangeRouting
    from .routing.torus import TorusRouting
    from .topology.hypercube import Hypercube
    from .topology.mesh import Mesh2D
    from .topology.shuffle_exchange import ShuffleExchange
    from .topology.torus import Torus

    if name.startswith("hypercube") or name == "buffer-pool":
        topo = Hypercube(int(size))
        return {
            "hypercube-adaptive": HypercubeAdaptiveRouting,
            "hypercube-hung": HypercubeHungRouting,
            "hypercube-oblivious": HypercubeObliviousRouting,
            "buffer-pool": StructuredBufferPoolRouting,
        }[name](topo)
    if name.startswith("mesh"):
        rows = int(size.split("x")[0])
        topo = Mesh2D(rows)
        return {
            "mesh-adaptive": Mesh2DAdaptiveRouting,
            "mesh-restricted": Mesh2DRestrictedRouting,
        }[name](topo)
    if name == "torus":
        shape = tuple(int(x) for x in size.split("x"))
        return TorusRouting(Torus(shape))
    if name == "shuffle-exchange":
        return ShuffleExchangeRouting(ShuffleExchange(int(size)))
    raise SystemExit(f"unknown algorithm {name!r}")


VERIFY_CHOICES = (
    "hypercube-adaptive",
    "hypercube-hung",
    "hypercube-oblivious",
    "buffer-pool",
    "mesh-adaptive",
    "mesh-restricted",
    "torus",
    "shuffle-exchange",
)


def cmd_table(args) -> int:
    """``repro table``: regenerate one of the paper's Tables 1-12."""
    from .experiments.paper import run_table

    table = run_table(
        args.number,
        ns=_parse_ns(args.ns),
        seed=args.seed,
        workers=args.workers,
    )
    print(table.render(with_reference=not args.no_reference))
    return 0


def cmd_figure(args) -> int:
    """``repro figure``: regenerate a Figure 1-6 as text or DOT."""
    from .analysis.figures import ALL_FIGURES

    fig = ALL_FIGURES[f"figure{args.number}"]()
    print(fig.dot if args.dot else fig.text)
    return 0


def cmd_verify(args) -> int:
    """``repro verify``: machine-check deadlock-freedom conditions."""
    from .core.verification import verify_algorithm

    alg = _build_algorithm(args.algorithm, args.size)
    report = verify_algorithm(
        alg,
        check_minimal=None if not args.fast else False,
        check_fully_adaptive=None if not args.fast else False,
    )
    print(report.summary())
    for err in report.errors[:10]:
        print("  !", err)
    return 0 if report.deadlock_free else 1


def cmd_sweep(args) -> int:
    """``repro sweep``: trace an offered-load curve."""
    from .analysis.sweeps import load_sweep
    from .analysis.tables import format_rows
    from .routing.hypercube import HypercubeAdaptiveRouting
    from .sim.rng import make_rng
    from .sim.traffic import hypercube_pattern
    from .topology.hypercube import Hypercube

    cube = Hypercube(args.n)
    points = load_sweep(
        lambda: HypercubeAdaptiveRouting(cube),
        lambda: hypercube_pattern(args.pattern, cube, make_rng(args.seed)),
        rates=tuple(float(x) for x in args.rates.split(",")),
        seed=args.seed,
        telemetry=args.telemetry,
    )
    print(format_rows([p.row() for p in points]))
    return 0


def cmd_faults(args) -> int:
    """``repro faults``: resilience/degradation sweep under link faults."""
    from .analysis.tables import format_rows
    from .faults.adapters import verify_under_faults
    from .faults.experiments import RESILIENCE_FAMILIES, degradation_sweep
    from .faults.models import FaultSchedule

    counts = [int(x) for x in args.counts.replace(",", " ").split()]
    rows = degradation_sweep(
        args.family,
        args.size,
        counts,
        seed=args.seed,
        packets_per_node=args.packets,
        detour=not args.no_detour,
        workers=args.workers,
        telemetry=args.telemetry,
    )
    keep = (
        "failed_links",
        "delivered",
        "generated",
        "delivered_frac",
        "delivered_of_deliverable",
        "undeliverable",
        "L_avg",
        "latency_x",
        "reroute_overhead",
        "cycles",
        "halt",
        "stuck",
        "stuck_deliverable",
        "link_util",
        "dyn_hops(%)",
        "occ_mean",
        "occ_peak",
    )
    print(format_rows(rows, [k for k in keep if any(k in r for r in rows)]))
    if args.verify:
        build, make_alg = RESILIENCE_FAMILIES[args.family]
        topo = build(args.size)
        worst = max(c for c in counts + [0])
        if worst:
            schedule = FaultSchedule.random_links(topo, worst, args.seed)
        else:
            schedule = FaultSchedule.healthy(topo)
        fv = verify_under_faults(make_alg(topo), schedule.final)
        print()
        print("verify under faults:", fv.summary())
        for err in fv.report.errors[:10]:
            print("  !", err)
    return 1 if any("halt" in r for r in rows) else 0


def cmd_telemetry(args) -> int:
    """``repro telemetry``: instrumented run + artifact dump + identity check.

    Runs one hypercube workload on the requested engine(s) with a full
    :class:`~repro.telemetry.TelemetryProbe` attached, writes the JSONL
    event log, Prometheus metrics dump, CSV occupancy time series, and
    JSON summary per engine, and — when both engines ran — verifies the
    event logs are byte-identical (exit code 1 if not).
    """
    from pathlib import Path

    from .core.message import reset_message_ids
    from .experiments.runner import build_simulator
    from .routing.hypercube import HypercubeAdaptiveRouting
    from .sim.injection import StaticInjection
    from .sim.rng import make_rng
    from .sim.traffic import hypercube_pattern
    from .telemetry.exporters import write_artifacts
    from .telemetry.probe import TelemetryProbe
    from .topology.hypercube import Hypercube

    if args.faults and args.engine == "vector":
        # Fault injection needs the reference engine's observer loop.
        print("error: --faults runs on the reference engine only; use "
              "--engine reference or both", file=sys.stderr)
        return 2
    if args.engine == "both":
        engines = ("reference",) if args.faults else ("reference", "vector")
    else:
        engines = (args.engine,)
    outdir = Path(args.out)
    logs: dict[str, str] = {}
    for engine in engines:
        # Fresh topology/uids/RNG per engine so runs are comparable
        # packet-for-packet.
        reset_message_ids()
        topo = Hypercube(args.n)
        alg = HypercubeAdaptiveRouting(topo)
        pattern = hypercube_pattern(args.pattern, topo, make_rng(args.seed))
        model = StaticInjection(
            args.packets, pattern, make_rng(args.seed, "inj")
        )
        probe = TelemetryProbe(occupancy_every=args.sample_every)
        if args.faults:
            from .faults.experiments import make_fault_simulator
            from .faults.models import FaultSchedule

            schedule = FaultSchedule.random_links(
                topo, args.faults, args.seed
            )
            sim = make_fault_simulator(alg, model, schedule, telemetry=probe)
        else:
            sim = build_simulator(alg, model, engine=engine, telemetry=probe)
        result = sim.run(max_cycles=2_000_000)
        paths = write_artifacts(probe, outdir, prefix=f"{engine}-")
        print(
            f"[{engine}] cycles={result.cycles} "
            f"delivered={result.delivered}/{result.injected} "
            f"events={len(probe.log)} "
            f"dyn_hops={probe.summary['hops']['dynamic_fraction']:.3f}"
        )
        tables = probe.summary.get("routing_compile")
        if tables:
            print(
                f"  tables: kernel={tables['kernel']} "
                f"rows={tables['rows']} bytes={tables['bytes']} "
                f"compile_s={tables['compile_seconds']:.3f}"
            )
        for name in sorted(paths):
            print(f"  {name}: {paths[name]}")
        logs[engine] = probe.log.to_jsonl()
    if len(logs) >= 2:
        baseline = logs["reference"]
        identical = all(log == baseline for log in logs.values())
        print(
            "event logs byte-identical across engines:",
            "yes" if identical else "NO",
        )
        return 0 if identical else 1
    return 0


def cmd_lint(args) -> int:
    """``repro lint``: the static deadlock-freedom + determinism gate.

    With ``--all`` (or no targets) sweeps every registered
    topology/algorithm pair — packet schemes, worm-hole schemes, and
    fault-epoch adapters — through the static analyzer, then runs the
    AST determinism lint over ``src/repro/``.  Exit code 0 iff every
    instance matches its registered expectation and the determinism
    lint is clean.  ``--graph FILE`` instead decides the
    Mendlovic–Matias existence condition for a user-supplied digraph
    (one ``u v`` edge per line) and verifies a synthesized scheme.
    """
    import json

    from .core.verification import verify_algorithm
    from .statics.existence import deadlock_free_routing_exists
    from .statics.lint import run_determinism_lint
    from .statics.registry import gate_ok, lint_targets, target_by_key
    from .statics.report import to_json_report, to_sarif
    from .statics.synthesis import synthesize_routing

    if args.graph:
        edges = []
        with open(args.graph) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 2:
                    edges.append((parts[0], parts[1]))
        rep = deadlock_free_routing_exists(
            edges, classes=args.classes, name=args.graph
        )
        print(rep.summary())
        if args.json:
            print(json.dumps(rep.to_dict(), indent=2))
        if rep.exists and args.synthesize:
            alg = synthesize_routing(edges, name=args.graph)
            vr = verify_algorithm(
                alg, check_minimal=False, check_fully_adaptive=False
            )
            print(f"synthesized scheme: {vr.summary()}")
            return 0 if vr.deadlock_free else 1
        return 0 if rep.exists else 1

    if args.all or not args.targets:
        targets = lint_targets()
    else:
        try:
            targets = [target_by_key(k) for k in args.targets]
        except KeyError as exc:
            known = ", ".join(t.key for t in lint_targets())
            raise SystemExit(
                f"unknown lint target {exc.args[0]!r}; known: {known}"
            )

    analyses = []
    expectations: dict[str, str] = {}
    ok = True
    for t in targets:
        a = t.analyze()
        analyses.append(a)
        expectations[a.name] = t.expect
        t_ok = gate_ok(a, t.expect)
        ok = ok and t_ok
        mark = "ok " if t_ok else "GATE"
        print(f"[{mark}] ({t.expect:8}) {t.key}: {a.report.summary()}")
        for w in a.witnesses:
            print(f"         witness: {w.describe()}")

    findings = [] if args.no_determinism else run_determinism_lint()
    for f in findings:
        print(f"[GATE] determinism: {f}")
    ok = ok and not findings

    if args.json:
        print(
            json.dumps(
                to_json_report(analyses, findings, expectations), indent=2
            )
        )
    if args.sarif:
        with open(args.sarif, "w") as fh:
            json.dump(to_sarif(analyses, findings, expectations), fh, indent=2)
        print(f"SARIF report written to {args.sarif}")

    n_cert = sum(1 for a in analyses if a.certified)
    print(
        f"{n_cert}/{len(analyses)} instances certified deadlock-free; "
        f"{len(findings)} determinism finding(s); gate "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """``repro serve``: run a streaming traffic service from a scenario.

    Validates the YAML up front (``--validate`` stops there), builds
    the requested engine through the ordinary factory, and serves the
    open-loop workload with admission control and a live ``/metrics``
    + ``/healthz`` endpoint until the duration budget runs out or a
    SIGINT/SIGTERM triggers the graceful drain (docs/SERVING.md).
    """
    from .serve.scenario import ScenarioError, load_scenario
    from .serve.service import TrafficService

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario invalid: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        print(f"scenario ok: {scenario.describe()}")
        return 0
    try:
        service = TrafficService(
            scenario,
            engine=args.engine,
            record=True if args.record else None,
            emit=print,
        )
    except Exception as exc:
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 2
    if args.duration is not None:
        service.model.duration = args.duration
    service.install_signal_handlers()
    return service.serve(
        port=args.port, host=args.host, outdir=args.record
    )


def cmd_report(args) -> int:
    """``repro report``: emit the full Markdown reproduction report."""
    from .analysis.report import full_report

    text = full_report(seed=args.seed, include_figures=not args.no_figures)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="SPAA'91 fully-adaptive deadlock-free routing reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="regenerate a paper table (1-12)")
    t.add_argument("number", type=int, choices=range(1, 13))
    t.add_argument("--ns", help="hypercube dimensions, e.g. '6,8'")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--no-reference", action="store_true")
    t.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="fan per-n cells out to this many worker processes "
        "(results are identical to a serial run)",
    )
    t.set_defaults(fn=cmd_table)

    f = sub.add_parser("figure", help="regenerate a paper figure (1-6)")
    f.add_argument("number", type=int, choices=range(1, 7))
    f.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    f.set_defaults(fn=cmd_figure)

    v = sub.add_parser("verify", help="machine-verify an algorithm")
    v.add_argument("algorithm", choices=VERIFY_CHOICES)
    v.add_argument("size", help="e.g. 4 (hypercube/SE), 3x3 (mesh/torus)")
    v.add_argument("--fast", action="store_true",
                   help="skip minimality/adaptivity path enumeration")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("sweep", help="offered-load sweep on a hypercube")
    s.add_argument("--n", type=int, default=6)
    s.add_argument("--pattern", default="random")
    s.add_argument("--rates", default="0.1,0.25,0.5,0.75,1.0")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument(
        "--telemetry",
        action="store_true",
        help="attach a metrics probe per point (adds occupancy and "
        "link-utilization columns)",
    )
    s.set_defaults(fn=cmd_sweep)

    ft = sub.add_parser(
        "faults",
        help="fault-degradation sweep: delivery/latency vs failed links",
    )
    ft.add_argument(
        "--family", choices=("hypercube", "mesh"), default="hypercube"
    )
    ft.add_argument(
        "--size", type=int, default=4,
        help="hypercube dimension or mesh side length",
    )
    ft.add_argument("--counts", default="0,1,2,4",
                    help="failed-link counts, e.g. '0,2,4,8'")
    ft.add_argument("--packets", type=int, default=1,
                    help="static packets per node")
    ft.add_argument("--seed", type=int, default=12345)
    ft.add_argument("--no-detour", action="store_true",
                    help="filter faulty hops but never detour")
    ft.add_argument("--workers", type=_positive_int, default=None)
    ft.add_argument("--verify", action="store_true",
                    help="also re-verify Section-2 conditions at the "
                    "largest fault set (expect honest failures)")
    ft.add_argument(
        "--telemetry",
        action="store_true",
        help="attach a metrics probe per cell (adds occupancy and "
        "link-utilization columns)",
    )
    ft.set_defaults(fn=cmd_faults)

    tm = sub.add_parser(
        "telemetry",
        help="instrumented run: event log + Prometheus + CSV artifacts, "
        "with a cross-engine identity check",
    )
    tm.add_argument("--n", type=int, default=4, help="hypercube dimension")
    tm.add_argument("--pattern", default="random")
    tm.add_argument("--packets", type=int, default=2,
                    help="static packets per node")
    tm.add_argument("--seed", type=int, default=0)
    tm.add_argument(
        "--engine",
        choices=("reference", "vector", "both"),
        default="both",
        help="engine(s) to run; 'both' (reference+vector) also checks "
        "the event logs are byte-identical (with --faults it runs the "
        "reference engine alone)",
    )
    tm.add_argument("--out", default="telemetry-out",
                    help="artifact output directory")
    tm.add_argument("--sample-every", type=int, default=1,
                    help="occupancy sampling stride in cycles")
    tm.add_argument("--faults", type=int, default=0,
                    help="inject this many random link faults")
    tm.set_defaults(fn=cmd_telemetry)

    sv = sub.add_parser(
        "serve",
        help="run a streaming traffic service from a YAML scenario",
    )
    sv.add_argument("scenario", help="scenario YAML file (docs/SERVING.md)")
    sv.add_argument(
        "--validate",
        action="store_true",
        help="validate the scenario and exit without serving",
    )
    sv.add_argument(
        "--engine",
        default=None,
        choices=("reference", "vector"),
        help="override the scenario's engine (see docs/SERVING.md)",
    )
    sv.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve /metrics + /healthz on this port (0 = ephemeral; "
        "omit for no endpoint)",
    )
    sv.add_argument(
        "--host", default="127.0.0.1", help="endpoint bind address"
    )
    sv.add_argument(
        "--duration",
        type=_positive_int,
        default=None,
        help="override the scenario's duration_cycles budget",
    )
    sv.add_argument(
        "--record",
        metavar="OUTDIR",
        default=None,
        help="record the full event log and write artifacts to OUTDIR "
        "(byte-identical for identical scenario + seed + budget)",
    )
    sv.set_defaults(fn=cmd_serve)

    r = sub.add_parser(
        "report", help="regenerate every table/figure as one Markdown report"
    )
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--no-figures", action="store_true")
    r.add_argument("--output", "-o", help="write to a file instead of stdout")
    r.set_defaults(fn=cmd_report)

    ln = sub.add_parser(
        "lint",
        help="statically certify deadlock-freedom + determinism lint",
    )
    ln.add_argument(
        "targets",
        nargs="*",
        help="registry keys to analyze (default: all)",
    )
    ln.add_argument(
        "--all", action="store_true", help="sweep every registered target"
    )
    ln.add_argument(
        "--json", action="store_true", help="print the JSON report"
    )
    ln.add_argument(
        "--sarif", metavar="FILE", help="write a SARIF 2.1.0 report to FILE"
    )
    ln.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the AST determinism lint",
    )
    ln.add_argument(
        "--graph",
        metavar="FILE",
        help="decide deadlock-free-routing existence for an edge-list file",
    )
    ln.add_argument(
        "--classes",
        type=int,
        default=2,
        help="central-queue classes available for --graph (default 2)",
    )
    ln.add_argument(
        "--synthesize",
        action="store_true",
        help="with --graph: synthesize and verify a concrete scheme",
    )
    ln.set_defaults(fn=cmd_lint)
    return p


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
