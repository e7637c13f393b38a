"""``ring``: many short tenants routed to a 3-node ring.

``ClusterClient`` routes each session to its owner in a ring of three
``repro serve --cluster`` subprocesses (successor replication on, each
node with its own spool). One load-generator thread submits one session
at a time, closed loop: trace-zoo specimens (about 11 events each) mixed
with small Table 2 rows (1.5–2.4k events, a few findings each), in a
seed-shuffled cycle with seed-derived session ids, until the run's time
is spent.

Per-session costs dominate here — ring refresh, HELLO, analysis
construction, CLOSE and report, checkpoint at open — and findings are
few, so a change to the findings path should barely move this workload
and a change to per-session cost should barely move ``stream``. Only one
node is busy at a time, so three nodes fit two cores.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Dict, List

import ledger
from common import ANALYSES, Server, compare, digest, percentile

#: Table 2 row scale: 1.5k–2.4k events per row.
ROW_SCALE = 0.15

#: Sessions per run at least.
MIN_SESSIONS = 100

#: Events per EVENTS frame (the client SDK's default).
BATCH = 512

#: Single-node launches before the ring's three, for ``setup_s`` samples.
EXTRA_LAUNCHES = 2


def run(ctx) -> Dict[str, Any]:
    from repro.api.session import Session
    from repro.sim import trace_zoo
    from repro.sim.workloads import TABLE2
    from repro.trace import pack

    cal = ctx.cal
    traces = [s.trace() for s in trace_zoo.all_specimens()]
    traces += [c.generate(seed=ctx.seed, scale=ROW_SCALE * ctx.scale) for c in TABLE2]
    random.Random(ctx.seed).shuffle(traces)
    cycle = [(t.name, list(t)) for t in traces]
    references = [digest(Session(pack(t), ANALYSES).run().to_json()) for t in traces]
    gc.collect()
    gc.freeze()  # keeps the per-session collections short

    nodes: List[Server] = []
    warms: List[Server] = []
    launches = []
    try:
        # Two throwaway single-node launches first, so ``setup_s`` is the
        # median of five launch-to-accept times.
        for i in range(EXTRA_LAUNCHES):
            spool = ctx.tmp / f"warm{i}"
            spool.mkdir()
            cal.slice()
            warm = Server(ctx.tmp, f"warm{i}", ["--spool", str(spool), "--cluster"])
            warms.append(warm)
            try:
                t0 = warm.start()
                launches.append((t0, t0 + warm.launch_s))
            finally:
                warm.stop()
        for i in range(3):
            spool = ctx.tmp / f"node{i + 1}"
            spool.mkdir()
            args = ["--spool", str(spool), "--node-id", f"node{i + 1}"]
            args += ["--join", nodes[0].address] if nodes else ["--cluster"]
            cal.slice()
            node = Server(ctx.tmp, f"node{i + 1}", args)
            nodes.append(node)
            t0 = node.start()
            launches.append((t0, t0 + node.launch_s))
        cal.slice()
        _converge(nodes)
        out = _measure(ctx, nodes, cycle, references, launches, traces)
    finally:
        for node in nodes:
            node.stop()
    out["noise_controls"] = {
        "session_ids": f"ring-{ctx.seed}-<i>",
        "node_ids": [n.name for n in nodes],
        "jitter_seed": ctx.seed,
        "busy_replies": out["stats"]["busy_replies"],
        "spool": "fresh per node",
        "servers_reaped": {n.name: n.exit_code for n in warms + nodes},
    }
    out["server_cpu_s"] = {n.name: n.cpu_s for n in warms + nodes}
    return out


def _converge(nodes: List[Server], timeout: float = 60.0) -> None:
    """Wait (untimed) until every node's ring holds all three nodes at
    one epoch: gossip rounds are 0.5 s, so this is not part of set-up
    time."""
    from repro.service.client import ServiceClient

    deadline = time.monotonic() + timeout
    while True:
        views = []
        for node in nodes:
            with ServiceClient("127.0.0.1", node.port) as client:
                cluster = client.stats()["cluster"]
            views.append((cluster["epoch"], tuple(cluster["ring"]["nodes"])))
        if len(set(views)) == 1 and len(views[0][1]) == len(nodes):
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"ring did not converge: {views}")
        time.sleep(0.1)


def _measure(ctx, nodes, cycle, references, launches, traces) -> Dict[str, Any]:
    from repro.cluster import ClusterClient
    from repro.service import protocol
    from repro.service.client import ServiceClient, SessionHandle

    cal, tracer = ctx.cal, ctx.tracer
    client = ClusterClient([n.address for n in nodes], jitter_seed=ctx.seed)
    sessions: List[tuple] = []  # (t0, t1, events, traced)
    problems: List[str] = []
    failed = 0
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while i < MIN_SESSIONS or i % len(cycle) or time.perf_counter() < deadline:
        position = i % len(cycle)
        traced = ctx.traced and (i // len(cycle)) % 2 == 1
        name, events = cycle[position]
        cal.tick()
        gc.collect()
        with ledger.maybe_timed(traced, ClusterClient, "refresh", tracer,
                                "cluster.client.refresh"), \
                ledger.maybe_timed(traced, ServiceClient, "open_session",
                                   tracer, "service.client.open"), \
                ledger.maybe_timed(traced, SessionHandle, "result", tracer,
                                   "service.client.close"), \
                ledger.maybe_timed(traced, protocol.DeltaEncoder, "encode",
                                   tracer, "service.protocol.encode"):
            t0 = time.perf_counter()
            report = client.submit_trace(
                events, list(ANALYSES), name=name, batch=BATCH,
                encoding="delta", session_id=f"ring-{ctx.seed}-{i:05d}",
            )
            t1 = time.perf_counter()
        sessions.append((t0, t1, len(events), traced))
        errors = compare(references[position], report)
        if report.get("service", {}).get("restarted_from_zero"):
            errors.append("session restarted from zero (lenient resume)")
        if errors:
            failed += 1
            problems.extend(f"session {i} ({name}): {e}" for e in errors)
        i += 1
    cal.slice()

    stats = {}
    for node in nodes:
        with ServiceClient("127.0.0.1", node.port) as each:
            stats[node.name] = each.stats()
    counters = {
        "redirects": sum(s["cluster"]["redirects"] + s["server"]["redirects"]
                         for s in stats.values()),
        "handoff_bytes": sum(s["cluster"]["handoff_bytes"] for s in stats.values()),
        "lenient_restarts": sum(s["lenient_restarts"] for s in stats.values()),
        "busy_replies": sum(s["server"]["busy_replies"] for s in stats.values()),
        # Shard command failures. Replicating a session that closed
        # between the coordinator's list and its export counts here too,
        # so it is recorded, not treated as a failed session.
        "shard_errors": sum(s["errors"] for s in stats.values()),
        "tenant_series": sum(len(row.get("tenant_violations", {}))
                             for s in stats.values() for row in s["shards"]),
        "sessions_closed": sum(s["sessions_closed"] for s in stats.values()),
    }
    for key in ("lenient_restarts", "busy_replies"):
        if counters[key]:
            problems.append(f"ring STATS {key} = {counters[key]}, expected 0")
    rss = sum(node.peak_rss_mb() for node in nodes)

    plain = [s for s in sessions if not s[3]]
    seconds = [cal.scaled(a, b) for a, b, _n, _t in plain]
    raw = [b - a for a, b, _n, _t in plain]
    events = sum(n for _a, _b, n, _t in plain)
    # Throughput per whole cycle (every trace once), median over cycles.
    size = len(cycle)
    cycles = [
        (sum(s[2] for s in plain[k:k + size]),
         sum(seconds[k:k + size]), sum(raw[k:k + size]))
        for k in range(0, len(plain), size)
    ]
    setup = [cal.scaled(a, b) for a, b in launches]
    out: Dict[str, Any] = {
        "attempted": len(sessions),
        "failed": failed,
        "problems": problems,
        "latency_name": "session_ms",
        "latency_what": "one session: submit to report",
        "stats": counters,
        "e2e": {
            "events_per_s": {
                "value": statistics.median([n / c for n, c, _r in cycles]),
                "unit": "events/s",
                "raw": statistics.median([n / r for n, _c, r in cycles]),
                "n": len(cycles), "events": events,
            },
            "setup_s": {
                "value": statistics.median(setup), "unit": "s",
                "raw": statistics.median([b - a for a, b in launches]), "n": len(setup),
                "samples": setup,
            },
            "peak_rss_mb": {"value": rss, "unit": "MB", "n": len(nodes)},
            "latency_ms.p50": {
                "value": percentile(seconds, 50) * 1000.0, "unit": "ms",
                "raw": percentile(raw, 50) * 1000.0, "n": len(seconds),
            },
            "latency_ms.p90": {
                "value": percentile(seconds, 90) * 1000.0, "unit": "ms",
                "raw": percentile(raw, 90) * 1000.0, "n": len(seconds),
            },
        },
    }
    if ctx.traced:
        out["layers"], out["ledger"] = _ledger(ctx, sessions, cycle, counters, traces)
    return out


def _ledger(ctx, sessions, cycle, counters, traces):
    """Per-layer values for one cycle of sessions: client spans from the
    traced cycles, server-side layers from a replay of one cycle."""
    cal, tracer = ctx.cal, ctx.tracer
    traced = [s for s in sessions if s[3]]
    plain = [s for s in sessions if not s[3]]
    cycles = len(traced) / len(cycle)
    replay = ledger.Replay(ctx, ctx.tmp / "replay-spool")
    gc.collect()
    cal.slice()
    for k, (name, events) in enumerate(cycle):
        batches = [events[i:i + BATCH] for i in range(0, len(events), BATCH)]
        replay.run(f"replay-{k}", name, batches)
    ledger.solo_runs(ctx, traces)
    cal.slice()

    spans = tracer.spans()
    values = replay.values(spans)
    span = lambda name: ledger.span_seconds(spans, cal, name)  # noqa: E731
    count = lambda name: sum(1 for s in spans if s.name == name)  # noqa: E731
    values["service.protocol.encode_s"] = span("service.protocol.encode") / cycles
    for _name, layer in ledger.SOLO:
        values[layer + "_s"] = span(layer)
    refresh = span("cluster.client.refresh")
    opened = span("service.client.open")
    closed = span("service.client.close")
    values["cluster.client.refresh_ms"] = refresh / count("cluster.client.refresh") * 1000.0
    values["service.client.open_ms"] = opened / count("service.client.open") * 1000.0
    values["service.client.close_ms"] = closed / count("service.client.close") * 1000.0
    values["cluster.redirects"] = counters["redirects"]
    values["cluster.handoff_bytes"] = counters["handoff_bytes"]
    values["cluster.lenient_restarts"] = counters["lenient_restarts"]
    values["service.tenant_series"] = counters["tenant_series"]
    values["service.router.busy_replies"] = counters["busy_replies"]
    values["calib.slice_ms"] = cal.summary()["measured_slice_ms.p50"]
    traced_s = sum(cal.scaled(a, b) for a, b, _n, _t in traced) / cycles
    plain_s = sum(cal.scaled(a, b) for a, b, _n, _t in plain) / (len(plain) / len(cycle))
    values["tracing.overhead"] = traced_s / plain_s - 1.0
    # The blocking steps of one cycle as the client sees them. The
    # replayed checkpoint freeze/spool is left out: the save at open
    # runs inside the HELLO round trip, which is already counted.
    parts = {
        "cluster.client.refresh_s": refresh / cycles,
        "service.client.open_s": opened / cycles,
        "service.protocol.encode_s": values["service.protocol.encode_s"],
        "service.protocol.decode_s": values["service.protocol.decode_s"],
        "api.session.feed_s": values["api.session.feed_s"],
        "service.session.observe_s": values["service.session.observe_s"],
        "service.client.close_s": closed / cycles,
    }
    values = ledger.finish(values, traced_s, parts)
    return values, {"e2e_s": traced_s, "parts": parts}
