"""The per-layer ledger of a traced run.

Spans are recorded by the benchmark around its calls into each
module's public functions (never inside ``src/``) on a private
:class:`repro.obs.tracing.Tracer` with a ``perf_counter`` clock, and
counters are read from the STATS document the servers already export.

:data:`LAYERS` is the catalogue: every per-layer metric, its unit and
direction, and the end-to-end metric and workload it should move. A
traced run reports every metric in it; a layer that a workload never
enters reads 0 there (no call was made).
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from calib import Calibrator
from common import ANALYSES

#: name -> (unit, better, end-to-end metrics it moves, workloads)
LAYERS: Dict[str, Tuple[str, str, str, str]] = {
    "trace.load_s": ("s", "lower", "setup_s", "offline"),
    "core.aerodrome_s": ("s", "lower", "events_per_s", "offline (stream, ring once findings are cheap)"),
    "analysis.races_s": ("s", "lower", "events_per_s", "offline (stream, ring once findings are cheap)"),
    "analysis.lockset_s": ("s", "lower", "events_per_s", "offline (stream, ring once findings are cheap)"),
    "api.session.sweep_s": ("s", "lower", "events_per_s", "offline"),
    "api.session.events_stepped": ("count", "lower", "events_per_s", "offline"),
    "service.protocol.encode_s": ("s", "lower", "events_per_s", "stream"),
    "service.protocol.decode_s": ("s", "lower", "events_per_s", "stream"),
    "api.session.feed_s": ("s", "lower", "events_per_s", "stream, ring"),
    "service.session.observe_s": ("s", "lower", "events_per_s, latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.session.batch_cost_growth": ("ratio", "lower", "latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.session.findings": ("count", "higher", "events_per_s", "stream"),
    "api.report.finding_dict_calls": ("count", "lower", "events_per_s", "stream"),
    "service.session.serializations_per_finding": ("ratio", "lower", "events_per_s", "stream"),
    "service.session.freeze_s": ("s", "lower", "events_per_s, latency_ms.p90 (flush_ms.p90)", "stream (ring: session_ms.p50)"),
    "service.session.checkpoint_bytes.max": ("bytes", "lower", "events_per_s, latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.session.checkpoint_bytes.total": ("bytes", "lower", "events_per_s, latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.recovery.spool_write_s": ("s", "lower", "events_per_s, latency_ms.p90 (flush_ms.p90)", "stream (ring: session_ms.p50)"),
    "service.router.busy_replies": ("count", "lower", "latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.router.queue_depth_hwm": ("batches", "lower", "latency_ms.p90 (flush_ms.p90)", "stream"),
    "service.client.open_ms": ("ms", "lower", "latency_ms.p50 (session_ms.p50)", "ring"),
    "service.client.close_ms": ("ms", "lower", "latency_ms.p50 (session_ms.p50)", "ring"),
    "cluster.client.refresh_ms": ("ms", "lower", "latency_ms.p50 (session_ms.p50)", "ring"),
    "cluster.redirects": ("count", "lower", "events_per_s, peak_rss_mb", "ring"),
    "cluster.handoff_bytes": ("bytes", "lower", "events_per_s, peak_rss_mb", "ring"),
    "cluster.lenient_restarts": ("count", "lower", "events_per_s, peak_rss_mb", "ring"),
    "service.tenant_series": ("count", "lower", "events_per_s, peak_rss_mb", "ring"),
    "ledger.residual_s": ("s", "lower", "all", "each workload"),
    "ledger.residual_share": ("ratio", "lower", "all", "each workload"),
    "calib.slice_ms": ("ms", "lower", "diagnostic", "each workload"),
    "tracing.overhead": ("ratio", "lower", "diagnostic", "each workload"),
}

#: The server's default auto-checkpoint interval (events), which the
#: replay mirrors.
CHECKPOINT_EVERY = 1000

#: A ledger that leaves more than this share of end-to-end time
#: unexplained is flagged.
RESIDUAL_FLAG = 0.10


def span_seconds(
    spans: Iterable[Any], cal: Calibrator, name: str
) -> float:
    """Calibrated seconds spent in spans called ``name``."""
    return sum(cal.scaled(s.start, s.end) for s in spans if s.name == name)


def finish(
    values: Dict[str, float], e2e_s: float, parts: Dict[str, float]
) -> Dict[str, float]:
    """Fill the residual (end-to-end time minus the ``parts``, in
    calibrated seconds) and default every catalogued metric the workload
    did not touch to 0."""
    explained = sum(parts.values())
    values["ledger.residual_s"] = e2e_s - explained
    values["ledger.residual_share"] = (
        (e2e_s - explained) / e2e_s if e2e_s > 0 else 0.0
    )
    return {name: float(values.get(name, 0.0)) for name in LAYERS}


def table(
    workload: str, values: Dict[str, float], e2e_s: float, parts: Dict[str, float]
) -> str:
    """The per-layer table as Markdown: the ledger's parts and residual
    (seconds per unit of end-to-end work) first, then every metric."""
    lines = [
        f"### {workload}: per-layer ledger (end-to-end {e2e_s:.4f} s, calibrated)",
        "",
        "| ledger part | seconds | share of e2e |",
        "|---|---|---|",
    ]
    rows = dict(parts)
    rows["ledger.residual_s"] = values["ledger.residual_s"]
    for name, value in rows.items():
        share = f"{value / e2e_s:.1%}" if e2e_s > 0 else ""
        lines.append(f"| {name} | {value:.6g} | {share} |")
    share = values["ledger.residual_share"]
    if abs(share) > RESIDUAL_FLAG:
        lines.append("")
        lines.append(
            f"FLAG: the ledger leaves {share:.1%} of end-to-end time "
            f"unexplained (more than {RESIDUAL_FLAG:.0%})."
        )
    lines += [
        "",
        "| layer metric | value | unit | moves | on |",
        "|---|---|---|---|---|",
    ]
    for name, (unit, _better, moves, on) in LAYERS.items():
        lines.append(f"| {name} | {values[name]:.6g} | {unit} | {moves} | {on} |")
    return "\n".join(lines) + "\n"


# -- instrumentation from outside the program ---------------------------------


@contextmanager
def patched(owner: Any, name: str, make):
    """Temporarily replace ``owner.name`` with ``make(original)``."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def timed(tracer, span: str):
    """Wrapper factory: a span around every call of the wrapped function."""
    def make(original):
        def wrapper(*args, **kwargs):
            with tracer.span(span):
                return original(*args, **kwargs)
        return wrapper
    return make


def maybe_span(on: bool, tracer, name: str):
    """A span called ``name`` when ``on``, else nothing."""
    return tracer.span(name) if on else nullcontext()


def maybe_timed(on: bool, owner: Any, attr: str, tracer, name: str):
    """:func:`patched` with :func:`timed` when ``on``, else nothing."""
    return patched(owner, attr, timed(tracer, name)) if on else nullcontext()


class Replay:
    """The shard's server-side work for a stream, replayed in-process
    through the same public calls the shard makes, with spans around
    each: ``decode_events_ex`` (``service.protocol.decode``),
    ``StreamingSession.feed`` (``service.session.feed``),
    ``RecoveryManager.save`` at open and every CHECKPOINT_EVERY events
    (``service.recovery.save``, with ``checkpoint_session`` inside it as
    ``service.session.freeze``), and a plain ``Session.feed`` of the
    same batches (``api.session.feed``). It also counts the
    ``finding_dict`` calls the streaming session's findings observation
    makes and the bytes of every checkpoint."""

    def __init__(self, ctx, spool) -> None:
        self.ctx = ctx
        self.spool = spool
        spool.mkdir(exist_ok=True)
        self.finding_dict_calls = 0
        self.checkpoint_bytes: List[int] = []
        #: ``(t0, t1)`` of every ``StreamingSession.feed`` call.
        self.feed_times: List[Tuple[float, float]] = []
        self.findings = 0
        self.events_stepped = 0

    def _count(self, original):
        def wrapper(finding):
            self.finding_dict_calls += 1
            return original(finding)
        return wrapper

    def _freeze(self, original):
        tracer = self.ctx.tracer

        def wrapper(session):
            with tracer.span("service.session.freeze"):
                checkpoint = original(session)
            self.checkpoint_bytes.append(len(checkpoint))
            return checkpoint
        return wrapper

    def run(self, session_id: str, name: str, batches: Sequence[Sequence[Any]]) -> None:
        from repro.api.session import Session
        from repro.service import protocol, recovery
        from repro.service import session as service_session
        from repro.service.recovery import RecoveryManager
        from repro.service.session import StreamingSession

        cal, tracer = self.ctx.cal, self.ctx.tracer
        manager = RecoveryManager(self.spool)
        encoder, decoder = protocol.DeltaEncoder(), protocol.DeltaDecoder()
        live = StreamingSession(session_id, list(ANALYSES), name=name)
        alone = Session(None, list(ANALYSES), name=name)
        position = last_checkpoint = 0
        with patched(service_session, "finding_dict", self._count), \
                patched(recovery, "checkpoint_session", self._freeze):
            with tracer.span("service.recovery.save"):
                manager.save(live)
            for batch in batches:
                cal.tick()
                payload = encoder.encode(batch, base=position)
                with tracer.span("service.protocol.decode"):
                    decoded, base = protocol.decode_events_ex(payload, decoder)
                t0 = time.perf_counter()
                with tracer.span("service.session.feed"):
                    live.feed(decoded, base=base)
                self.feed_times.append((t0, time.perf_counter()))
                with tracer.span("api.session.feed"):
                    alone.feed(decoded)
                position += len(decoded)
                if position - last_checkpoint >= CHECKPOINT_EVERY:
                    with tracer.span("service.recovery.save"):
                        manager.save(live)
                    last_checkpoint = position
            live.finish()
        alone.finish()
        manager.delete(session_id)
        self.findings += len(live.findings)
        self.events_stepped += live.session.events_swept

    def values(self, spans) -> Dict[str, float]:
        """Layer totals (calibrated seconds) and counts of every replay."""
        cal = self.ctx.cal
        span = lambda name: span_seconds(spans, cal, name)  # noqa: E731
        out: Dict[str, float] = {}
        out["service.protocol.decode_s"] = span("service.protocol.decode")
        out["api.session.feed_s"] = span("api.session.feed")
        out["service.session.observe_s"] = (
            span("service.session.feed") - out["api.session.feed_s"]
        )
        out["service.session.freeze_s"] = span("service.session.freeze")
        out["service.recovery.spool_write_s"] = (
            span("service.recovery.save") - out["service.session.freeze_s"]
        )
        out["service.session.findings"] = self.findings
        out["api.report.finding_dict_calls"] = self.finding_dict_calls
        out["service.session.serializations_per_finding"] = (
            self.finding_dict_calls / self.findings if self.findings else 0.0
        )
        out["service.session.checkpoint_bytes.max"] = max(self.checkpoint_bytes)
        out["service.session.checkpoint_bytes.total"] = sum(self.checkpoint_bytes)
        out["api.session.events_stepped"] = self.events_stepped
        return out


SOLO = (
    ("aerodrome", "core.aerodrome"),
    ("races", "analysis.races"),
    ("lockset", "analysis.lockset"),
)


def solo_runs(ctx, traces: Sequence[Any]) -> None:
    """Each analysis alone over ``traces`` (packed), one span per run."""
    from repro.api.session import Session
    from repro.trace import PackedTrace, pack

    packs = [t if isinstance(t, PackedTrace) else pack(t) for t in traces]
    for name, layer in SOLO:
        for packed in packs:
            gc.collect()
            ctx.cal.tick()
            with ctx.tracer.span(layer):
                Session(packed, [name]).run()
