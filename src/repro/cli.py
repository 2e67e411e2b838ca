"""Command-line interface: ``mctop`` (or ``python -m repro``).

Mirrors the workflow of the real libmctop tool: run the inference once
(``infer``), store a description file, then ``show``/``dot``/``place``
against either a stored topology or a catalog machine.

Examples
--------
::

    mctop list
    mctop infer ivy --seed 1 --out ivy.mct
    mctop infer testbox --trace out.json     # + Chrome trace_event file
    mctop show ivy.mct
    mctop dot opteron --view cross
    mctop place ivy.mct --policy CON_HWC --threads 30
    mctop validate opteron
    mctop trace testbox                      # observability report
    mctop trace out.json                     # report from a saved trace
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import MctopError


def _table_config(args: argparse.Namespace):
    """The measurement config the common CLI flags describe.

    Routed through :meth:`LatencyTableConfig.from_dict` so the CLI and
    the service share one parsing/validation path.
    """
    from repro.core.algorithm import LatencyTableConfig

    doc = {"repetitions": args.repetitions}
    if getattr(args, "jobs", 1) != 1:
        doc["jobs"] = args.jobs
    if getattr(args, "sampling", "auto") != "auto":
        doc["sampling"] = args.sampling
    return LatencyTableConfig.from_dict(doc)


def _load_topology(args: argparse.Namespace, target: str):
    """A topology from a .mct file or by inferring a catalog machine."""
    from repro import infer
    from repro.core.serialize import load_mctop
    from repro.hardware import machine_names

    if Path(target).suffix == ".mct" or Path(target).is_file():
        return load_mctop(target)
    if target in machine_names() or target.startswith("synth:"):
        return infer(target, seed=args.seed, table=_table_config(args))
    raise MctopError(
        f"{target!r} is neither a description file nor a catalog machine "
        f"(known machines: {', '.join(machine_names())}; "
        "synth:<seed> generates one)"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.hardware import get_machine, machine_names

    for name in machine_names():
        print(get_machine(name).describe())
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro import infer, save_mctop
    from repro.core.algorithm import InferenceReport

    report = InferenceReport()
    mctop = infer(
        args.machine, seed=args.seed, table=_table_config(args),
        report=report,
    )
    print(mctop.summary())
    print(f"samples taken : {report.samples_taken}")
    if report.os_comparison is not None:
        print(report.os_comparison.report())
    if args.out:
        path = save_mctop(mctop, args.out)
        print(f"description written to {path}")
    if args.trace:
        path = report.obs.write_chrome_trace(args.trace)
        print(f"trace written to {path} (open with chrome://tracing "
              "or https://ui.perfetto.dev)")
    return 0


def _client(args: argparse.Namespace, command: str):
    """A client for ``--unix``/``--host``/``--port``/``--timeout``;
    ``command`` names the subcommand in the missing-endpoint error."""
    from repro.service import MctopClient

    if args.unix is None and args.host is None:
        raise MctopError(f"{command} needs --unix PATH or --host HOST")
    return MctopClient(unix_path=args.unix, host=args.host, port=args.port,
                       timeout=args.timeout)


def _cmd_trace_show(args: argparse.Namespace) -> int:
    """Fetch a retained per-request trace from a daemon or router."""
    import json

    from repro.obs import render_timeline, timeline_to_chrome

    if args.rid is None:
        raise MctopError(
            "trace show needs a REQUEST_ID (grab one from the /metrics "
            "exemplars, mctop top's slowest-requests panel, or "
            "client.last_request_ids)"
        )
    with _client(args, "trace show") as client:
        result = client.trace(args.rid)
    if not result.get("enabled"):
        raise MctopError("the daemon runs without a trace store "
                         "(started with --no-trace-store)")
    if not result.get("found"):
        raise MctopError(
            f"no retained trace for request {args.rid!r} "
            "(evicted, expired, or finished before tracing was on)"
        )
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        print(render_timeline(result))
    if args.chrome:
        path = Path(args.chrome)
        path.write_text(
            json.dumps(timeline_to_chrome(result), indent=1,
                       sort_keys=True) + "\n"
        )
        print(f"Chrome trace written to {path} (open with chrome://tracing "
              "or https://ui.perfetto.dev)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced inference (or summarize a saved trace file, or show
    a retained per-request trace from a running daemon)."""
    import json

    from repro import infer
    from repro.core.algorithm import InferenceReport
    from repro.hardware import machine_names

    if args.target == "show":
        return _cmd_trace_show(args)

    target = Path(args.target)
    if target.is_file():
        # Standalone report printer for a saved Chrome trace.
        try:
            doc = json.loads(target.read_text())
            events = doc["traceEvents"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MctopError(f"cannot read trace file {target}: {exc}")
        spans = [e for e in events if e.get("ph") == "X"]
        counters = [e for e in events if e.get("ph") == "C"]
        print(f"trace {target}: {len(events)} events")
        print("spans:")
        for e in sorted(spans, key=lambda e: e["ts"]):
            print(f"  {e['name']:<44}{e.get('dur', 0.0) / 1000.0:10.3f} ms")
        if counters:
            print("counters:")
            for e in counters:
                print(f"  {e['name']:<44}{e['args']['value']}")
        return 0

    if args.target not in machine_names():
        raise MctopError(
            f"{args.target!r} is neither a trace file nor a catalog machine "
            f"(known machines: {', '.join(machine_names())})"
        )
    report = InferenceReport()
    infer(args.target, seed=args.seed, table=_table_config(args),
          report=report)
    print(report.obs.report())
    if args.out:
        path = report.obs.write_chrome_trace(args.out)
        print(f"trace written to {path}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    mctop = _load_topology(args, args.target)
    print(mctop.summary())
    if args.ascii:
        from repro.core.viz import topology_ascii

        print(topology_ascii(mctop))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.core.viz import cross_socket_dot, intra_socket_dot

    mctop = _load_topology(args, args.target)
    if args.view in ("intra", "both"):
        print(intra_socket_dot(mctop))
    if args.view in ("cross", "both"):
        print(cross_socket_dot(mctop))
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    from repro.place import Placement

    mctop = _load_topology(args, args.target)
    placement = Placement(
        mctop, args.policy, n_threads=args.threads, n_sockets=args.sockets
    )
    print(placement.print_stats())
    return 0


def _cmd_revalidate(args: argparse.Namespace) -> int:
    """Check a stored description against the live machine (cheaply)."""
    from repro.core.algorithm.changes import detect_changes
    from repro.core.serialize import load_mctop
    from repro.hardware import MeasurementContext, get_machine

    mctop = load_mctop(args.description)
    probe = MeasurementContext(get_machine(args.machine), seed=args.seed)
    report = detect_changes(mctop, probe)
    print(report.summary())
    return 0 if report.topology_still_valid else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    """Semantic drift diff between two topologies (files or machines)."""
    import json

    from repro.obs.diff import DriftThresholds, compare_mctops

    thresholds = None
    if args.threshold_warn is not None or args.threshold_critical is not None:
        warn = args.threshold_warn if args.threshold_warn is not None \
            else 0.10
        critical = args.threshold_critical \
            if args.threshold_critical is not None else 0.30
        thresholds = DriftThresholds.uniform(warn, critical)
    a = _load_topology(args, args.a)
    b = _load_topology(args, args.b)
    report = compare_mctops(a, b, thresholds)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro import infer
    from repro.core.algorithm import InferenceReport

    report = InferenceReport()
    infer(args.machine, seed=args.seed, table=_table_config(args),
          report=report)
    print(report.os_comparison.report())
    return 0 if report.os_comparison.all_match else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Property-based fuzzing: generated machines through the full
    measure → infer → compare loop (see docs/FUZZING.md)."""
    import json

    from repro.fuzz import run_fuzz, run_spec_case, shrink_spec
    from repro.fuzz.shrink import promote_spec
    from repro.hardware.synth import SynthParams, generate_spec

    def on_case(case: dict) -> None:
        verdict = "ok" if case["ok"] else "FAIL"
        print(f"  synth:{case['seed']:<7} {case['n_contexts']:>3} ctx "
              f"{case['n_sockets']}s x {case['cores_per_socket']}c "
              f"x {case['smt_per_core']}t {case['interconnect']:>10} "
              f"{case['wall_seconds']:7.2f}s  {verdict}")
        for violation in case["violations"]:
            print(f"    violation: {violation}")

    doc = run_fuzz(
        count=args.count,
        seed=args.seed,
        repetitions=args.repetitions,
        jobs=args.jobs,
        quick=args.quick,
        artifacts_dir=args.artifacts,
        progress=None if args.json else on_case,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        verdict = "ok" if doc["ok"] else (
            f"{len(doc['failures'])} of {doc['count']} cases FAILED "
            f"({doc['n_violations']} violations)"
        )
        print(f"fuzz: {doc['count']} machines from seed {doc['seed']} "
              f"at {doc['repetitions']} repetitions: {verdict}")
        print(f"digest        : {doc['digest']}")
        print(f"throughput    : {doc['machines_per_sec']} machines/s "
              f"({doc['wall_seconds']}s, jobs={doc['jobs']})")
        if args.out:
            print(f"report written to {args.out}")
        if args.artifacts and doc["failures"]:
            print(f"failing specs written to {args.artifacts}/")

    if doc["failures"] and args.shrink:
        params = SynthParams.quick() if args.quick else SynthParams()
        spec = generate_spec(doc["failures"][0], params)
        reps = doc["repetitions"]

        def still_fails(candidate) -> bool:
            return not run_spec_case(candidate, repetitions=reps)["ok"]

        print(f"shrinking failing seed {spec.seed} "
              f"({spec.n_contexts} contexts)...")
        result = shrink_spec(spec, still_fails)
        print(f"shrunk to {result.spec.n_contexts} contexts in "
              f"{result.evals} evals via {' -> '.join(result.steps) or '-'}")
        target = args.artifacts or "."
        path = promote_spec(result.spec, target,
                            stem=f"shrunk-{spec.seed}")
        print(f"minimal failing spec written to {path}")

    return 0 if doc["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the mctopd topology-and-placement daemon until SIGTERM."""
    from repro.service import ServeConfig, run_daemon

    if args.unix is None and args.host is None:
        raise MctopError("serve needs --unix PATH and/or --host HOST")
    config = ServeConfig(
        unix_path=args.unix,
        host=args.host,
        port=args.port,
        store_dir=args.store,
        max_memory_entries=args.cache_entries,
        default_repetitions=args.repetitions,
        request_timeout=args.timeout,
        max_pending=args.max_pending,
        drain_timeout=args.drain_timeout,
        metrics_port=args.metrics_port,
        metrics_host=args.metrics_host,
        access_log=args.access_log,
        event_log=args.event_log,
        watch_interval=args.watch_interval,
        watch_machines=tuple(
            m.strip() for m in (args.watch_machines or "").split(",")
            if m.strip()
        ),
        watch_repetitions=args.watch_repetitions,
        watch_seed=args.watch_seed,
        member_id=args.member_id,
        peers=tuple(args.peer or ()),
        peer_timeout=args.peer_timeout,
        peer_fanout=args.peer_fanout,
        trace_store=not args.no_trace_store,
        trace_max_traces=args.trace_max_traces,
        trace_max_bytes=args.trace_max_bytes,
        trace_ttl=args.trace_ttl,
        trace_sample_every=args.trace_sample_every,
        slo=not args.no_slo,
        slo_objectives=tuple(args.slo_objective or ()),
        profile=args.profile,
        profile_hz=args.profile_hz,
        profile_max_bytes=args.profile_max_bytes,
    )
    if config.watch_interval is not None and not config.watch_machines:
        raise MctopError("--watch-interval needs --watch-machines M1,M2,...")
    if config.slo_objectives:
        # Validate here so a typo dies with a usage error, not a
        # traceback from inside the daemon's startup.
        from repro.obs.slo import parse_objectives

        try:
            parse_objectives(config.slo_objectives)
        except ValueError as exc:
            raise MctopError(str(exc)) from None

    def announce(daemon) -> None:
        if args.unix is not None:
            print(f"mctopd listening on unix:{args.unix}", flush=True)
        if args.host is not None:
            print(f"mctopd listening on tcp:{args.host}:{daemon.tcp_port}",
                  flush=True)
        if daemon.bound_metrics_port is not None:
            print(f"metrics on http://{args.metrics_host}:"
                  f"{daemon.bound_metrics_port}/metrics", flush=True)
        if args.access_log is not None:
            print(f"access log at {args.access_log}", flush=True)
        if args.event_log is not None:
            print(f"event log at {args.event_log}", flush=True)
        if daemon.watcher is not None:
            print(f"drift watcher every {args.watch_interval}s on "
                  f"{', '.join(daemon.watcher.states)}", flush=True)
        if config.peers:
            print(f"member {config.member_id or '(unnamed)'} peering "
                  f"with {', '.join(config.peers)}", flush=True)
        if config.profile:
            print(f"profiler sampling at {config.profile_hz:g}Hz",
                  flush=True)

    run_daemon(config, ready_callback=announce)
    print("mctopd drained, bye")
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Run a fleet router (optionally spawning its members in-process)."""
    from repro.fleet import RouterConfig, run_fleet

    if args.unix is None and args.host is None:
        raise MctopError("fleet serve needs --unix PATH and/or --host HOST")
    if not args.members and not args.member:
        raise MctopError(
            "fleet serve needs --members N (spawn in-process) and/or "
            "--member ENDPOINT (front an external mctopd)"
        )
    config = RouterConfig(
        members=tuple(args.member or ()),
        unix_path=args.unix,
        host=args.host,
        port=args.port,
        request_timeout=args.timeout,
        max_pending=args.max_pending,
        drain_timeout=args.drain_timeout,
        default_repetitions=args.repetitions,
        health_interval=args.health_interval,
        probe_timeout=args.probe_timeout,
        fail_threshold=args.fail_threshold,
        access_log=args.access_log,
        event_log=args.event_log,
    )

    def announce(router, daemons) -> None:
        for daemon in daemons:
            print(f"member {daemon.config.member_id} listening on "
                  f"unix:{daemon.config.unix_path}", flush=True)
        if args.unix is not None:
            print(f"fleet router listening on unix:{args.unix}", flush=True)
        if args.host is not None:
            print(f"fleet router listening on "
                  f"tcp:{args.host}:{router.tcp_port}", flush=True)
        print(f"fleet: {len(router.health.ring)}/"
              f"{len(router.health.states)} members in ring", flush=True)

    run_fleet(config, n_members=args.members, state_dir=args.state_dir,
              ready_callback=announce)
    print("fleet drained, bye")
    return 0


def _render_fleet(result: dict) -> str:
    """Human text for the router's ``fleet`` verb document."""
    lines = [
        f"fleet: {result.get('in_ring', 0)}/{result.get('total', 0)} "
        f"members in ring, {result.get('rebalances', 0)} rebalances "
        f"(health every {result.get('interval', 0):g}s, eject after "
        f"{result.get('fail_threshold', 0)} failures)"
    ]
    for member_id, state in sorted(result.get("members", {}).items()):
        severity = state.get("drift_severity") or "-"
        error = state.get("last_error")
        lines.append(
            f"  {member_id:<12} {state.get('status', 'unknown'):<9} "
            f"{state.get('endpoint', ''):<32} drift={severity:<9} "
            f"checks={state.get('checks', 0)}"
            + (f"  last_error={error}" if error else "")
        )
    ring = result.get("ring", {})
    lines.append(
        f"ring: {', '.join(ring.get('members', [])) or '(empty)'} "
        f"({ring.get('replicas', 0)} replicas per member)"
    )
    return "\n".join(lines)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """The router's membership/ring/health document."""
    import json

    with _client(args, "fleet status") as client:
        result = client.request("fleet")
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        print(_render_fleet(result))
    return 0


def _render_drift(result: dict) -> str:
    """Human text for the ``drift`` verb's status document."""
    if not result.get("enabled"):
        return "drift watcher: disabled (daemon started without --watch-*)"
    lines = [
        f"drift watcher: worst={result['worst_severity']} "
        f"interval={result['interval']:g}s"
    ]
    for name, state in sorted(result.get("machines", {}).items()):
        age = state.get("age_seconds")
        age_text = f"{age:.1f}s ago" if age is not None else "never"
        lines.append(
            f"  {name:<12} {state['severity']:<9} "
            f"checks={state['checks']:<4} last={age_text}"
        )
        report = state.get("report")
        for finding in (report or {}).get("findings", []):
            lines.append(f"    [{finding['severity']:>8}] "
                         f"{finding['category']}: {finding['message']}")
    return "\n".join(lines)


def _cmd_query(args: argparse.Namespace) -> int:
    """One request against a running mctopd."""
    import json

    client = _client(args, "query")
    params: dict = {}
    if args.verb == "drift":
        # The drift verb takes an optional machine and no measurement
        # knobs (the watcher owns its own quick config).
        if args.machine is not None:
            params["machine"] = args.machine
    elif args.verb == "trace":
        # The positional argument is the request id, not a machine.
        if args.machine is None:
            raise MctopError("query trace needs a REQUEST_ID argument")
        params["request_id"] = args.machine
    elif args.verb == "slo":
        pass  # no parameters: the engine's whole status document
    elif args.verb == "profile":
        # The optional positional argument is a request id (use the
        # richer `mctop profile` subcommand for verb filters/exports).
        if args.machine is not None:
            params["request_id"] = args.machine
    elif args.machine is not None:
        params["machine"] = args.machine
        params["seed"] = args.seed
        params["repetitions"] = args.repetitions
        if args.jobs != 1:
            params["jobs"] = args.jobs
        if args.sampling != "auto":
            params["table"] = {"sampling": args.sampling}
    elif args.verb in ("infer", "show", "place", "place_many",
                       "pool_switch", "validate"):
        raise MctopError(f"query {args.verb} needs a MACHINE argument")
    if args.verb in ("place", "pool_switch"):
        params["policy"] = args.policy
        if args.threads is not None:
            params["threads"] = args.threads
        if args.sockets is not None:
            params["sockets"] = args.sockets
    elif args.verb == "place_many":
        queries_json = getattr(args, "queries", None)
        if queries_json is not None:
            try:
                queries = json.loads(queries_json)
            except json.JSONDecodeError as exc:
                raise MctopError(f"--queries is not JSON: {exc}") from None
            if not isinstance(queries, list):
                raise MctopError("--queries must be a JSON list of "
                                 "{policy, threads, sockets} objects")
        else:
            # Without --queries, a batch of one from the place flags.
            query = {"policy": args.policy}
            if args.threads is not None:
                query["threads"] = args.threads
            if args.sockets is not None:
                query["sockets"] = args.sockets
            queries = [query]
        params["queries"] = queries
    prom = args.verb == "metrics" and args.format in ("prom", "prometheus")
    if prom:
        params["format"] = "prometheus"
    elif args.format != "json" and args.verb != "metrics":
        raise MctopError("--format applies to the metrics verb only")

    with client:
        result = client.request(args.verb, **params)

    if prom:
        print(result["prometheus"], end="")
        return 0
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
        return 0
    if args.verb == "drift":
        print(_render_drift(result))
        return 0
    if args.verb == "trace":
        from repro.obs import render_timeline

        if not result.get("enabled"):
            print("trace store: disabled (daemon started with "
                  "--no-trace-store)")
            return 1
        if not result.get("found"):
            print(f"no retained trace for request {params['request_id']!r}")
            return 1
        print(render_timeline(result))
        return 0
    if args.verb == "slo":
        from repro.service.top import render_slo_lines

        lines = render_slo_lines(result)
        if not lines:
            print("slo engine: disabled (daemon started with --no-slo)")
            return 1
        print("\n".join(lines))
        return 0
    if args.verb == "profile":
        from repro.service.top import render_profile_lines

        lines = render_profile_lines(result, top=10)
        if not lines:
            print("profiler: disabled (daemon started without --profile)")
            return 1
        print("\n".join(lines))
        return 0
    for text_key in ("summary", "stats", "report"):
        if text_key in result:
            print(result.pop(text_key))
    for key in sorted(result):
        print(f"{key:<22}: {result[key]}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard against a running mctopd."""
    from repro.service.top import run_top

    with _client(args, "top") as client:
        return run_top(
            client,
            interval=args.interval,
            count=args.count,
            clear=not args.no_clear,
            fleet=args.fleet,
        )


def _cmd_profile(args: argparse.Namespace) -> int:
    """Inspect (or reset/export) a daemon's continuous profile."""
    import json

    from repro.obs.profiler import collapsed_stacks, speedscope_doc
    from repro.service.top import render_profile_lines

    with _client(args, "profile") as client:
        if args.profile_command == "reset":
            result = client.profile(action="reset")
            if not result.get("enabled"):
                raise MctopError(
                    "the daemon runs without --profile; nothing to reset"
                )
            print("profiler reset")
            return 0
        params: dict = {"limit": args.limit}
        if args.verb is not None:
            params["verb"] = args.verb
        if args.request is not None:
            params["request_id"] = args.request
        result = client.profile(**params)

    if not result.get("enabled"):
        print("profiler: disabled (daemon started without --profile)")
        return 1
    if args.request is not None and not result.get("found"):
        print(f"no profiled samples for request {args.request!r} "
              "(too fast to be sampled, or evicted)")
        return 1
    wrote = False
    if getattr(args, "collapsed", None):
        Path(args.collapsed).write_text(collapsed_stacks(result))
        print(f"collapsed stacks written to {args.collapsed} "
              "(flamegraph.pl input)")
        wrote = True
    if getattr(args, "speedscope", None):
        name = f"mctop profile ({args.request})" if args.request \
            else "mctop profile"
        Path(args.speedscope).write_text(
            json.dumps(speedscope_doc(result, name=name), indent=1,
                       sort_keys=True) + "\n"
        )
        print(f"speedscope profile written to {args.speedscope} "
              "(open at https://www.speedscope.app)")
        wrote = True
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
        return 0
    if args.profile_command == "top":
        print("\n".join(render_profile_lines(result, top=args.limit)))
        return 0
    if wrote:
        return 0
    # show: header plus one collapsed line per stack, heaviest first.
    header = render_profile_lines(result, top=0)[0]
    if args.request is not None:
        header += f"  request {result.get('request_id', args.request)}"
    print(header)
    for entry in result.get("stacks") or []:
        stack = entry.get("stack") or []
        verb = entry.get("verb")
        tag = f" [{verb}]" if verb else ""
        print(f"  {entry.get('count', 0):>7}{tag}  {';'.join(stack)}")
    return 0


def _cmd_events_tail(args: argparse.Namespace) -> int:
    """Filtered view of a rotating NDJSON event log, tail -f style."""
    import json
    import time as _time

    from repro.obs.events import (
        follow_log_records,
        iter_log_records,
        log_segments,
    )

    if not log_segments(args.path):
        raise MctopError(f"no event log at {args.path}")

    def _show(record: dict) -> None:
        if args.json:
            print(json.dumps(record, sort_keys=True), flush=True)
            return
        ts = record.get("ts")
        when = _time.strftime("%H:%M:%S", _time.localtime(ts)) \
            if isinstance(ts, (int, float)) else "--:--:--"
        rid = record.get("request_id") or "-"
        rest = " ".join(
            f"{key}={record[key]}" for key in sorted(record)
            if key not in ("ts", "kind", "request_id")
        )
        print(f"{when}  {record.get('kind', '?'):<22} {rid:<18} "
              f"{rest}".rstrip(), flush=True)

    records = list(iter_log_records(args.path, kind=args.kind,
                                    request_id=args.request))
    if args.lines > 0:
        records = records[-args.lines:]
    for record in records:
        _show(record)
    if args.follow:
        try:
            for record in follow_log_records(args.path, kind=args.kind,
                                             request_id=args.request):
                _show(record)
        except KeyboardInterrupt:
            pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctop",
        description="MCTOP: infer, inspect and use multi-core topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--repetitions", type=int, default=75,
                       help="latency samples per context pair")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for latency-table "
                            "collection (> 1 switches to pair sampling)")
        p.add_argument("--sampling", choices=("auto", "sequential", "pair"),
                       default="auto",
                       help="measurement sampling scheme (auto resolves "
                            "to pair when --jobs > 1)")

    p_list = sub.add_parser("list", help="list catalog machines")
    p_list.set_defaults(func=_cmd_list)

    p_infer = sub.add_parser("infer", help="run MCTOP-ALG on a machine")
    p_infer.add_argument("machine")
    p_infer.add_argument("--out", help="write a .mct description file")
    p_infer.add_argument("--trace",
                         help="write a Chrome trace_event file of the run")
    common(p_infer)
    p_infer.set_defaults(func=_cmd_infer)

    p_show = sub.add_parser("show", help="summarize a topology")
    p_show.add_argument("target", help=".mct file or machine name")
    p_show.add_argument("--ascii", action="store_true",
                        help="also print the ASCII topology tree")
    common(p_show)
    p_show.set_defaults(func=_cmd_show)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT (Figures 1-3)")
    p_dot.add_argument("target")
    p_dot.add_argument("--view", choices=("intra", "cross", "both"),
                       default="both")
    common(p_dot)
    p_dot.set_defaults(func=_cmd_dot)

    p_place = sub.add_parser("place", help="compute a thread placement")
    p_place.add_argument("target")
    p_place.add_argument("--policy", default="CON_HWC")
    p_place.add_argument("--threads", type=int, default=None)
    p_place.add_argument("--sockets", type=int, default=None)
    common(p_place)
    p_place.set_defaults(func=_cmd_place)

    p_val = sub.add_parser("validate",
                           help="compare MCTOP against the OS topology")
    p_val.add_argument("machine")
    common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_diff = sub.add_parser(
        "diff",
        help="semantic drift diff between two topologies; exit code "
             "0 ok / 1 warn / 2 critical",
    )
    p_diff.add_argument("a", help=".mct file or catalog machine")
    p_diff.add_argument("b", help=".mct file or catalog machine")
    p_diff.add_argument("--json", action="store_true",
                        help="print the DriftReport as JSON")
    p_diff.add_argument("--threshold-warn", type=float, default=None,
                        metavar="REL",
                        help="uniform relative warn threshold "
                             "(default 0.10)")
    p_diff.add_argument("--threshold-critical", type=float, default=None,
                        metavar="REL",
                        help="uniform relative critical threshold "
                             "(default 0.30)")
    common(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    p_reval = sub.add_parser(
        "revalidate",
        help="cheaply check a stored .mct against the live machine "
             "(detects SMT/BIOS/context changes without a full re-run)",
    )
    p_reval.add_argument("description", help=".mct file")
    p_reval.add_argument("machine", help="catalog machine to probe")
    common(p_reval)
    p_reval.set_defaults(func=_cmd_revalidate)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced inference and print the observability report "
             "(or summarize a saved trace file; 'trace show REQUEST_ID' "
             "fetches a retained per-request trace from a daemon)",
    )
    p_trace.add_argument("target",
                         help="catalog machine, trace .json file, or "
                              "'show'")
    p_trace.add_argument("rid", nargs="?", metavar="REQUEST_ID",
                         help="request id for 'trace show' (from "
                              "/metrics exemplars or "
                              "client.last_request_ids)")
    p_trace.add_argument("--out", help="also write a Chrome trace_event file")
    p_trace.add_argument("--unix", help="trace show: unix socket path")
    p_trace.add_argument("--host", help="trace show: TCP host")
    p_trace.add_argument("--port", type=int, default=0,
                         help="trace show: TCP port")
    p_trace.add_argument("--timeout", type=float, default=30.0,
                         help="trace show: client-side socket timeout "
                              "(seconds)")
    p_trace.add_argument("--chrome", metavar="PATH",
                         help="trace show: also write the stitched "
                              "timeline as a Chrome trace_event file")
    p_trace.add_argument("--json", action="store_true",
                         help="trace show: print the raw trace document")
    common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="property-based fuzzing: generated machines through the "
             "full measure/infer/compare loop; exit 1 on any violation",
    )
    p_fuzz.add_argument("--count", type=int, default=25,
                        help="number of generated machines (default 25)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first generator seed; case i uses seed+i")
    p_fuzz.add_argument("--repetitions", type=int, default=None,
                        help="latency samples per context pair "
                             "(default: 15, or 11 with --quick)")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="fan cases out over N worker processes "
                             "(the report digest is jobs-independent)")
    p_fuzz.add_argument("--quick", action="store_true",
                        help="small machines and fewer samples for CI")
    p_fuzz.add_argument("--out", help="write the fuzz report JSON here")
    p_fuzz.add_argument("--artifacts", metavar="DIR",
                        help="write failing specs + report to this "
                             "directory (what CI uploads)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="minimize the first failing spec and write "
                             "it next to the artifacts")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    def endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--unix", help="unix socket path")
        p.add_argument("--host", help="TCP host")
        p.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one when serving)")

    def query_parser(subparsers, help_text: str, format_help: str) -> None:
        """``query`` under ``subparsers``: ``mctop query`` and
        ``mctop fleet query`` differ only in their help."""
        from repro.service.protocol import VERBS

        p = subparsers.add_parser("query", help=help_text)
        p.add_argument("verb", choices=VERBS)
        p.add_argument("machine", nargs="?",
                       help="catalog machine (topology verbs)")
        endpoint(p)
        p.add_argument("--policy", default="CON_HWC")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--sockets", type=int, default=None)
        p.add_argument("--queries", metavar="JSON",
                       help="place_many verb: JSON list of "
                            "{policy, threads, sockets} query objects")
        p.add_argument("--timeout", type=float, default=120.0,
                       help="client-side socket timeout (seconds)")
        p.add_argument("--json", action="store_true",
                       help="print the raw JSON result")
        p.add_argument("--format", choices=("json", "prom", "prometheus"),
                       default="json", help=format_help)
        common(p)
        p.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="run mctopd: the topology-and-placement daemon "
             "(NDJSON over --unix and/or --host; SIGTERM drains)",
    )
    endpoint(p_serve)
    p_serve.add_argument("--store", help="on-disk .mct.gz cache directory")
    p_serve.add_argument("--cache-entries", type=int, default=32,
                         help="in-memory topology LRU size")
    p_serve.add_argument("--timeout", type=float, default=60.0,
                         help="per-request timeout (seconds)")
    p_serve.add_argument("--max-pending", type=int, default=64,
                         help="in-flight request bound before "
                              "backpressure errors")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="grace period for in-flight requests on "
                              "shutdown (seconds)")
    p_serve.add_argument("--repetitions", type=int, default=75,
                         help="default latency samples per context pair")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve Prometheus text on this HTTP port "
                              "(0 picks a free one); off by default")
    p_serve.add_argument("--metrics-host", default="127.0.0.1",
                         help="bind address for --metrics-port")
    p_serve.add_argument("--access-log",
                         help="rotating NDJSON access log path "
                              "(one line per request)")
    p_serve.add_argument("--event-log",
                         help="rotating NDJSON event log path (drift "
                              "checks, severity transitions, cache "
                              "evictions, watcher errors)")
    p_serve.add_argument("--watch-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="run the topology drift watcher this often "
                              "(needs --watch-machines)")
    p_serve.add_argument("--watch-machines", default=None,
                         metavar="M1,M2",
                         help="comma-separated catalog machines the drift "
                              "watcher re-checks")
    p_serve.add_argument("--watch-repetitions", type=int, default=15,
                         help="latency samples per pair for the watcher's "
                              "quick checks")
    p_serve.add_argument("--watch-seed", type=int, default=0,
                         help="seed for the watcher's checks (must match "
                              "the cached baseline's)")
    p_serve.add_argument("--member-id", default=None,
                         help="this daemon's fleet member id (names it on "
                              "the consistent-hash ring)")
    p_serve.add_argument("--peer", action="append", metavar="ENDPOINT",
                         help="fleet peer endpoint ([ID=]unix:PATH or "
                              "[ID=]tcp:HOST:PORT) to ask for cached "
                              "topologies before inferring; repeatable")
    p_serve.add_argument("--peer-timeout", type=float, default=5.0,
                         help="per-peer cache_fetch budget (seconds)")
    p_serve.add_argument("--peer-fanout", type=int, default=2,
                         help="ring-adjacent peers asked per cache miss")
    p_serve.add_argument("--no-trace-store", action="store_true",
                         help="skip the per-request trace store (the "
                              "trace verb answers enabled=false)")
    p_serve.add_argument("--trace-max-traces", type=int, default=512,
                         help="retained-trace count budget (default 512)")
    p_serve.add_argument("--trace-max-bytes", type=int, default=4_000_000,
                         help="retained-trace byte budget "
                              "(default 4000000)")
    p_serve.add_argument("--trace-ttl", type=float, default=600.0,
                         metavar="SECONDS",
                         help="retained traces expire after this long, "
                              "pinned or not (default 600)")
    p_serve.add_argument("--trace-sample-every", type=int, default=64,
                         metavar="N",
                         help="pin 1-in-N healthy traces as a baseline "
                              "sample (default 64)")
    p_serve.add_argument("--no-slo", action="store_true",
                         help="skip the SLO burn-rate engine (the slo "
                              "verb answers enabled=false)")
    p_serve.add_argument("--slo-objective", action="append",
                         metavar="VERB:p99=MS[,avail=PCT]",
                         help="per-verb objective, e.g. place:p99=50 or "
                              "infer:p99=5000,avail=99; repeatable "
                              "(default: built-in place/place_many/"
                              "infer objectives)")
    p_serve.add_argument("--profile", action="store_true",
                         help="run the continuous sampling profiler (the "
                              "profile verb, per-verb/per-request "
                              "flamegraphs; off by default)")
    p_serve.add_argument("--profile-hz", type=float, default=100.0,
                         help="profiler sampling rate (default 100)")
    p_serve.add_argument("--profile-max-bytes", type=int,
                         default=2_000_000,
                         help="profile store byte budget; new stacks "
                              "beyond it are dropped (default 2000000)")
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run or inspect a sharded mctopd fleet (consistent-hash "
             "router + member daemons; see docs/FLEET.md)",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_fserve = fleet_sub.add_parser(
        "serve",
        help="run the fleet router (--members N spawns member daemons "
             "in-process; --member ENDPOINT fronts external ones)",
    )
    endpoint(p_fserve)
    p_fserve.add_argument("--members", type=int, default=0, metavar="N",
                          help="spawn N member daemons in-process "
                               "(sockets and stores under --state-dir)")
    p_fserve.add_argument("--member", action="append", metavar="ENDPOINT",
                          help="external member endpoint ([ID=]unix:PATH "
                               "or [ID=]tcp:HOST:PORT); repeatable")
    p_fserve.add_argument("--state-dir", default="mctop-fleet",
                          help="spawned members' sockets, stores and "
                               "event logs live here")
    p_fserve.add_argument("--timeout", type=float, default=120.0,
                          help="per-member forwarded-request budget "
                               "(seconds); keep above the members' own "
                               "request timeout")
    p_fserve.add_argument("--max-pending", type=int, default=64,
                          help="router in-flight bound before "
                               "backpressure errors")
    p_fserve.add_argument("--drain-timeout", type=float, default=10.0,
                          help="grace period on shutdown (seconds)")
    p_fserve.add_argument("--repetitions", type=int, default=75,
                          help="default latency samples per context pair "
                               "(must match the members')")
    p_fserve.add_argument("--health-interval", type=float, default=5.0,
                          help="seconds between member health sweeps")
    p_fserve.add_argument("--probe-timeout", type=float, default=5.0,
                          help="per-member health probe budget (seconds)")
    p_fserve.add_argument("--fail-threshold", type=int, default=2,
                          help="consecutive failures before a member is "
                               "ejected from the ring")
    p_fserve.add_argument("--access-log",
                          help="router access log (NDJSON; lines carry "
                               "member and upstream_ms)")
    p_fserve.add_argument("--event-log",
                          help="router event log (NDJSON; member joins/"
                               "ejects, rebalances)")
    p_fserve.set_defaults(func=_cmd_fleet_serve)

    p_fstatus = fleet_sub.add_parser(
        "status",
        help="membership, ring and health of a running fleet router",
    )
    endpoint(p_fstatus)
    p_fstatus.add_argument("--timeout", type=float, default=30.0,
                           help="client-side socket timeout (seconds)")
    p_fstatus.add_argument("--json", action="store_true",
                           help="print the raw JSON document")
    p_fstatus.set_defaults(func=_cmd_fleet_status)

    query_parser(
        fleet_sub,
        "send one request through the fleet router (same protocol "
        "as mctop query; the router shards it by content address)",
        "metrics verb only (the router merges JSON metrics fleet-wide)",
    )
    query_parser(
        sub,
        "send one request to a running mctopd",
        "metrics verb only: 'prom' prints the Prometheus text exposition",
    )

    p_top = sub.add_parser(
        "top",
        help="live dashboard for a running mctopd (rates, latency "
             "quantiles, cache hit ratio; polls the metrics verb)",
    )
    endpoint(p_top)
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls")
    p_top.add_argument("--count", type=int, default=None,
                       help="stop after N frames (default: until ^C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the screen "
                            "(e.g. when piping to a file)")
    p_top.add_argument("--timeout", type=float, default=30.0,
                       help="client-side socket timeout (seconds)")
    p_top.add_argument("--fleet", action="store_true",
                       help="against a fleet router: add the membership "
                            "section (polls the fleet verb)")
    p_top.set_defaults(func=_cmd_top)

    p_profile = sub.add_parser(
        "profile",
        help="inspect a running mctopd's continuous sampling profiler "
             "(per-verb / per-request flamegraphs; see "
             "docs/OBSERVABILITY.md)",
    )
    profile_sub = p_profile.add_subparsers(dest="profile_command",
                                           required=True)

    def profile_common(p: argparse.ArgumentParser) -> None:
        endpoint(p)
        p.add_argument("--timeout", type=float, default=30.0,
                       help="client-side socket timeout (seconds)")

    p_pshow = profile_sub.add_parser(
        "show",
        help="dump the collapsed stacks (optionally filtered to one "
             "verb or one request id, e.g. a /metrics exemplar)",
    )
    profile_common(p_pshow)
    p_pshow.add_argument("--verb", default=None,
                        help="only stacks sampled while this verb was "
                             "dispatching")
    p_pshow.add_argument("--request", default=None, metavar="REQUEST_ID",
                        help="this request's samples only (ids from "
                             "mctop top, /metrics exemplars or "
                             "client.last_request_ids)")
    p_pshow.add_argument("--limit", type=int, default=200,
                        help="stack entries kept, heaviest first "
                             "(default 200)")
    p_pshow.add_argument("--json", action="store_true",
                        help="print the raw profile document")
    p_pshow.add_argument("--collapsed", metavar="PATH",
                        help="write flamegraph.pl collapsed-stack "
                             "input here")
    p_pshow.add_argument("--speedscope", metavar="PATH",
                        help="write a speedscope JSON profile here")
    p_pshow.set_defaults(func=_cmd_profile)

    p_ptop = profile_sub.add_parser(
        "top",
        help="the hottest leaf functions (the mctop top panel, "
             "standalone)",
    )
    profile_common(p_ptop)
    p_ptop.add_argument("--verb", default=None,
                        help="only stacks sampled while this verb was "
                             "dispatching")
    p_ptop.add_argument("--request", default=None, metavar="REQUEST_ID",
                        help="this request's samples only")
    p_ptop.add_argument("--limit", type=int, default=15,
                        help="rows shown (default 15)")
    p_ptop.add_argument("--json", action="store_true",
                        help="print the raw profile document")
    p_ptop.set_defaults(func=_cmd_profile)

    p_preset = profile_sub.add_parser(
        "reset", help="clear the profiler's sample store",
    )
    profile_common(p_preset)
    p_preset.set_defaults(func=_cmd_profile)

    p_events = sub.add_parser(
        "events",
        help="inspect a rotating NDJSON event log (drift checks, SLO "
             "burns, fleet membership) without jq",
    )
    events_sub = p_events.add_subparsers(dest="events_command",
                                         required=True)
    p_etail = events_sub.add_parser(
        "tail",
        help="print the last events (across rotated segments), "
             "optionally filtered and followed",
    )
    p_etail.add_argument("path", help="event log path (the daemon's "
                                      "--event-log value)")
    p_etail.add_argument("--kind", default=None,
                         help="only this event kind (e.g. drift.check, "
                              "slo.alert, fleet.member_eject)")
    p_etail.add_argument("--request", default=None, metavar="REQUEST_ID",
                         help="only events stamped with this request id")
    p_etail.add_argument("-n", "--lines", type=int, default=10,
                         help="existing lines shown before following "
                              "(default 10; 0 = all)")
    p_etail.add_argument("--follow", action="store_true",
                         help="keep printing new events until ^C "
                              "(survives rotation)")
    p_etail.add_argument("--json", action="store_true",
                         help="print raw JSON records, one per line")
    p_etail.set_defaults(func=_cmd_events_tail)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MctopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
