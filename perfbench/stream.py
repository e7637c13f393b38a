"""``stream``: one long durable session with many findings, per stream.

A raytracer-shaped trace of a fixed number of events goes in positioned
delta frames to a ``repro serve`` subprocess that has a spool (so the
default auto-checkpoint runs every 1000 events). The load generator is
one thread over one connection, closed loop: it sends a window of
batches, then a FLUSH barrier, and waits for the reply before the next
window. The window stays far below the shard inbox bound, so the
server never answers BUSY (asserted from STATS). Streams repeat, each a
fresh session with a seed-derived id, until the run's time is spent.

Here the streaming session's per-batch findings observation and the
checkpoint freeze/spool do most of the work; per-batch cost grows with
stream position, which is why the stream length is fixed in events.
"""

from __future__ import annotations

import gc
import socket
import statistics
import time
from typing import Any, Dict, List

import ledger
from common import ANALYSES, Server, compare, compare_delivered, digest, percentile

#: Raytracer scale: 16,000 events and about 4,700 race findings.
SCALE = 0.32

#: Events per EVENTS frame, and frames per FLUSH window (the shard inbox
#: holds 64 frames).
BATCH = 128
WINDOW = 2

#: Streams per run at least (≥100 windows for the tail percentile).
MIN_STREAMS = 2

#: Server launches in set-up; ``setup_s`` is their median.
SETUP_REPS = 5


def run(ctx) -> Dict[str, Any]:
    from repro.api.session import Session
    from repro.sim.workloads import get_case
    from repro.trace import pack

    cal = ctx.cal
    trace = get_case("raytracer").generate(seed=ctx.seed, scale=SCALE * ctx.scale)
    events = list(trace)
    batches = [events[i:i + BATCH] for i in range(0, len(events), BATCH)]
    windows = [batches[i:i + WINDOW] for i in range(0, len(batches), WINDOW)]
    reference = digest(Session(pack(trace), ANALYSES).run().to_json())
    gc.collect()
    gc.freeze()  # keeps the per-stream collections short

    # -- set-up: launch-to-accept, SETUP_REPS fresh servers, keep the last -
    launches = []
    server = None
    servers = []
    try:
        for rep in range(SETUP_REPS):
            spool = ctx.tmp / f"spool{rep}"
            spool.mkdir()
            if server is not None:
                server.stop()
            cal.slice()
            server = Server(ctx.tmp, f"serve{rep}", ["--spool", str(spool)])
            servers.append(server)
            t0 = server.start()
            launches.append((t0, t0 + server.launch_s))
            cal.slice()
        out = _measure(ctx, server, trace.name, windows, reference, launches)
        if ctx.traced:
            out["layers"], out["ledger"] = _ledger(
                ctx, out.pop("_streams"), trace, batches, out["stats"],
            )
        out.pop("_streams", None)
    finally:
        for each in servers:
            each.stop()
    out["noise_controls"] = {
        "session_ids": f"stream-{ctx.seed}-<k>",
        "jitter_seed": ctx.seed,
        "window": f"{WINDOW} frames of {BATCH} events; shard inbox holds 64",
        "busy_replies": out["stats"]["busy_replies"],
        "spool": "fresh per server launch",
        "servers_reaped": {s.name: s.exit_code for s in servers},
    }
    out["server_cpu_s"] = {s.name: s.cpu_s for s in servers}
    return out


def _measure(ctx, server, name, windows, reference, launches) -> Dict[str, Any]:
    from repro.service import protocol
    from repro.service.client import ServiceClient

    cal, tracer = ctx.cal, ctx.tracer
    streams: List[Dict[str, Any]] = []
    problems: List[str] = []
    attempted = failed = 0
    depth_hwm = 0
    deadline = time.perf_counter() + ctx.seconds
    k = 0
    while k < MIN_STREAMS or time.perf_counter() < deadline:
        traced = ctx.traced and k % 2 == 1
        gc.collect()
        cal.tick()
        record = {"traced": traced, "windows": [], "events": 0}
        side = _SideStats(server.port) if traced else None
        with ServiceClient("127.0.0.1", server.port, jitter_seed=ctx.seed) as client:
            t0 = time.perf_counter()
            with ledger.maybe_span(traced, tracer, "service.client.open"):
                handle = client.open_session(
                    list(ANALYSES), name=name, encoding="delta",
                    session_id=f"stream-{ctx.seed}-{k}",
                )
            record["open"] = (t0, time.perf_counter())
            with ledger.maybe_timed(traced, protocol.DeltaEncoder, "encode",
                                    tracer, "service.protocol.encode"):
                for window in windows:
                    cal.tick()
                    attempted += 1
                    t0 = time.perf_counter()
                    for i, batch in enumerate(window):
                        handle.send(batch)
                        if side is not None and i == 0:
                            side.ask()
                        record["events"] += len(batch)
                    if side is not None:
                        depth_hwm = max(depth_hwm, side.depth())
                    with ledger.maybe_span(traced, tracer, "service.client.flush"):
                        handle.flush()
                    record["windows"].append((t0, time.perf_counter()))
            cal.tick()
            t0 = time.perf_counter()
            with ledger.maybe_span(traced, tracer, "service.client.close"):
                report = handle.result()
            record["close"] = (t0, time.perf_counter())
            errors = compare(reference, report) + compare_delivered(
                reference, handle.findings
            )
        if side is not None:
            side.close()
        if errors:
            failed += len(record["windows"])
            problems.extend(f"stream {k}: {e}" for e in errors)
        streams.append(record)
        k += 1
    cal.slice()
    with ServiceClient("127.0.0.1", server.port) as client:
        stats = client.stats()
    busy = stats["server"]["busy_replies"]
    for key, value in (("busy_replies", busy),
                       ("lenient_restarts", stats["lenient_restarts"]),
                       ("errors", stats["errors"])):
        if value:
            problems.append(f"server STATS {key} = {value}, expected 0")
    rss = server.peak_rss_mb()

    plain = [s for s in streams if not s["traced"]]
    stream_s = [_stream_seconds(cal, s) for s in plain]
    stream_raw = [_stream_seconds(None, s) for s in plain]
    flush = [cal.scaled(a, b) for s in plain for a, b in s["windows"]]
    flush_raw = [b - a for s in plain for a, b in s["windows"]]
    total_events = sum(s["events"] for s in plain)
    setup = [cal.scaled(a, b) for a, b in launches]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latency_name": "flush_ms",
        "latency_what": "one window: first EVENTS frame to the FLUSH reply",
        "stats": {"busy_replies": busy, "queue_depth_hwm": depth_hwm},
        "e2e": {
            "events_per_s": {
                "value": statistics.median([s["events"] / t for s, t in zip(plain, stream_s)]),
                "unit": "events/s",
                "raw": statistics.median([s["events"] / t for s, t in zip(plain, stream_raw)]),
                "n": len(plain), "events": total_events,
            },
            "setup_s": {
                "value": statistics.median(setup), "unit": "s",
                "raw": statistics.median([b - a for a, b in launches]), "n": len(setup),
                "samples": setup,
            },
            "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
            "latency_ms.p50": {
                "value": percentile(flush, 50) * 1000.0, "unit": "ms",
                "raw": percentile(flush_raw, 50) * 1000.0, "n": len(flush),
            },
            "latency_ms.p90": {
                "value": percentile(flush, 90) * 1000.0, "unit": "ms",
                "raw": percentile(flush_raw, 90) * 1000.0, "n": len(flush),
            },
        },
        "_streams": streams,
    }


def _stream_seconds(cal, record) -> float:
    """Open + every window + close (calibrated unless ``cal`` is None)."""
    spans = [record["open"], *record["windows"], record["close"]]
    if cal is None:
        return sum(b - a for a, b in spans)
    return sum(cal.scaled(a, b) for a, b in spans)


class _SideStats:
    """A second connection for STATS samples taken mid-window.

    STATS is queued behind the window's first batch, so the inbox depth
    it reports counts the batches that arrived while that one ran.
    """

    def __init__(self, port: int) -> None:
        from repro.service import protocol

        self._protocol = protocol
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self._reader = self._sock.makefile("rb")
        self._frames = protocol.FrameStream(self._reader)

    def ask(self) -> None:
        self._sock.sendall(self._protocol.encode_frame(self._protocol.FrameType.STATS))

    def depth(self) -> int:
        """The deepest shard inbox (batches) in the pending STATS reply."""
        _ftype, payload = self._frames.read_frame()
        stats = self._protocol.decode_json(payload)["stats"]
        return max((row.get("queue_depth", 0) for row in stats["shards"]), default=0)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _ledger(ctx, streams, trace, batches, stats):
    """Per-layer values for one stream: client spans from the traced
    streams, server-side layers from an in-process replay of the same
    batches (:class:`ledger.Replay`)."""
    cal, tracer = ctx.cal, ctx.tracer
    traced = [s for s in streams if s["traced"]]
    plain = [s for s in streams if not s["traced"]]
    replay = ledger.Replay(ctx, ctx.tmp / "replay-spool")
    gc.collect()
    cal.slice()
    replay.run("replay", trace.name, batches)
    ledger.solo_runs(ctx, [trace])
    cal.slice()

    spans = tracer.spans()
    values = replay.values(spans)
    values["service.protocol.encode_s"] = (
        ledger.span_seconds(spans, cal, "service.protocol.encode") / len(traced)
    )
    for _name, layer in ledger.SOLO:
        values[layer + "_s"] = ledger.span_seconds(spans, cal, layer)
    per_batch = [cal.scaled(a, b) for a, b in replay.feed_times]
    quarter = max(1, len(per_batch) // 4)
    values["service.session.batch_cost_growth"] = (
        sum(per_batch[-quarter:]) / sum(per_batch[:quarter])
    )
    values["service.router.busy_replies"] = stats["busy_replies"]
    values["service.router.queue_depth_hwm"] = stats["queue_depth_hwm"]
    values["calib.slice_ms"] = cal.summary()["measured_slice_ms.p50"]
    traced_s = sum(_stream_seconds(cal, s) for s in traced) / len(traced)
    plain_s = sum(_stream_seconds(cal, s) for s in plain) / len(plain)
    values["tracing.overhead"] = traced_s / plain_s - 1.0
    parts = {name: values[name] for name in (
        "service.protocol.encode_s", "service.protocol.decode_s",
        "api.session.feed_s", "service.session.observe_s",
        "service.session.freeze_s", "service.recovery.spool_write_s",
    )}
    values = ledger.finish(values, traced_s, parts)
    return values, {"e2e_s": traced_s, "parts": parts}
