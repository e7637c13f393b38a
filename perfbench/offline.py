"""``offline``: the paper's Table 1 + Table 2 corpus through ``Session.run``.

Set-up writes the 21 traces to ``.std`` files (in a child process),
then loads and packs them the way ``repro check --packed`` does; that
load-and-pack is timed as ``setup_s``. The measured unit is one trace's
``Session.run`` with the service's three analyses, over whole passes of
the corpus; the latency is that of the batch job, one whole pass. Only the analysis layers (``core``, ``analysis``,
``api.session``) work here: the single-threaded baseline of the job the
service does.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import ledger
from common import ANALYSES, HERE, child_env, digest, percentile, vmhwm_mb

#: Corpus scale: about 245k events over 21 traces.
SCALE = 0.5

#: Times the corpus is loaded and packed in set-up; ``setup_s`` is the
#: median.
SETUP_REPS = 3

def run(ctx) -> Dict[str, Any]:
    from repro.api.session import Session
    from repro.trace import load_any, pack

    cal, tracer = ctx.cal, ctx.tracer
    corpus = ctx.tmp / "corpus"
    subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--seed", str(ctx.seed),
         "--scale", repr(SCALE * ctx.scale), "--out", str(corpus)],
        check=True, env=child_env(), timeout=600,
    )
    manifest = json.loads((corpus / "manifest.json").read_text())

    # -- set-up: load and pack every file, SETUP_REPS times ---------------
    cal.slice()
    setup_runs: List[List[tuple]] = []
    packs: List[Any] = []
    for rep in range(SETUP_REPS):
        packs = []
        intervals = []
        for entry in manifest:
            cal.tick()
            gc.collect()
            path = str(corpus / entry["file"])
            with ledger.maybe_span(ctx.traced and rep == 0, tracer, "trace.load"):
                t0 = time.perf_counter()
                packed = pack(load_any(path))
                t1 = time.perf_counter()
            intervals.append((t0, t1))
            packs.append(packed)
        setup_runs.append(intervals)
    cal.slice()

    # -- measured passes ----------------------------------------------------
    units: List[tuple] = []  # (t0, t1, events, traced, trace name, pass)
    problems: List[str] = []
    attempted = failed = 0
    first: Dict[str, Any] = {}
    stepped = 0
    deadline = time.perf_counter() + ctx.seconds
    passes = 0
    while passes < (2 if ctx.traced else 1) or time.perf_counter() < deadline:
        traced_pass = ctx.traced and passes % 2 == 1
        for entry, packed in zip(manifest, packs):
            cal.tick()
            gc.collect()
            attempted += 1
            with ledger.maybe_span(traced_pass, tracer, "api.session.run"):
                t0 = time.perf_counter()
                result = Session(packed, ANALYSES).run()
                t1 = time.perf_counter()
            units.append((t0, t1, len(packed), traced_pass, entry["name"], passes))
            errors = _check(entry, result.to_json(), first)
            if errors:
                failed += 1
                problems.extend(f"{entry['name']}: {e}" for e in errors)
            if traced_pass:
                stepped += result.events_swept
                ledger.solo_runs(ctx, [packed])
        passes += 1
    cal.slice()

    untraced = [u for u in units if not u[3]]
    seconds = [cal.scaled(u[0], u[1]) for u in untraced]
    raw = [u[1] - u[0] for u in untraced]
    events = sum(u[2] for u in untraced)
    # The latency of this batch job is one whole pass: the corpus from
    # input to its last report.
    jobs: Dict[int, List[float]] = {}
    for u, cal_s, raw_s in zip(untraced, seconds, raw):
        job = jobs.setdefault(u[5], [0.0, 0.0, 0])
        job[0] += cal_s
        job[1] += raw_s
        job[2] += u[2]
    job_ms = [cal_s * 1000.0 for cal_s, _raw, _n in jobs.values()]
    job_raw_ms = [raw_s * 1000.0 for _cal, raw_s, _n in jobs.values()]
    setup_cal = [sum(cal.scaled(a, b) for a, b in rep) for rep in setup_runs]
    setup_raw = [sum(b - a for a, b in rep) for rep in setup_runs]
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latency_name": "job_ms",
        "latency_what": "one pass: Session.run over the whole corpus",
        "units": [
            [u[4], u[5], raw_s * 1000.0, cal_s * 1000.0, u[2]]
            for u, cal_s, raw_s in zip(untraced, seconds, raw)
        ],
        "e2e": {
            "events_per_s": {
                "value": statistics.median([n / c for c, _r, n in jobs.values()]),
                "unit": "events/s",
                "raw": statistics.median([n / r for _c, r, n in jobs.values()]),
                "n": len(jobs), "events": events,
            },
            "setup_s": {
                "value": statistics.median(setup_cal), "unit": "s",
                "raw": statistics.median(setup_raw), "n": len(setup_cal),
                "samples": setup_cal,
            },
            "peak_rss_mb": {"value": vmhwm_mb(), "unit": "MB", "n": 1},
            "latency_ms.p50": {
                "value": percentile(job_ms, 50), "unit": "ms",
                "raw": percentile(job_raw_ms, 50), "n": len(job_ms),
            },
            "latency_ms.p90": {
                "value": percentile(job_ms, 90), "unit": "ms",
                "raw": percentile(job_raw_ms, 90), "n": len(job_ms),
            },
        },
    }
    if ctx.traced:
        out["layers"], out["ledger"] = _ledger(ctx, units, stepped)
    out["noise_controls"] = {"corpus": f"seed {ctx.seed}, scale {SCALE * ctx.scale}"}
    return out


def _check(entry: Dict[str, Any], report: Dict[str, Any], first: Dict[str, Any]) -> List[str]:
    """Offline reference: the row's ground-truth verdict, and the same
    digest on every pass."""
    got = digest(report)
    errors = []
    want = "pass" if entry["serializable"] else "fail"
    if got["aerodrome"]["verdict"] != want:
        errors.append(
            f"aerodrome verdict {got['aerodrome']['verdict']}, "
            f"ground truth {want}"
        )
    reference = first.setdefault(entry["name"], got)
    if got != reference:
        errors.append("report differs from the first pass")
    return errors


def _ledger(ctx, units, stepped):
    cal, spans = ctx.cal, ctx.tracer.spans()
    values: Dict[str, float] = {}
    values["trace.load_s"] = ledger.span_seconds(spans, cal, "trace.load")
    for _name, layer in ledger.SOLO:
        values[layer + "_s"] = ledger.span_seconds(spans, cal, layer)
    run3 = ledger.span_seconds(spans, cal, "api.session.run")
    values["api.session.sweep_s"] = run3 - sum(
        values[layer + "_s"] for _name, layer in ledger.SOLO
    )
    values["api.session.events_stepped"] = stepped
    traced = sum(cal.scaled(a, b) for a, b, _n, t, _name, _p in units if t)
    untraced = sum(cal.scaled(a, b) for a, b, _n, t, _name, _p in units if not t)
    traced_n = sum(1 for u in units if u[3])
    untraced_n = sum(1 for u in units if not u[3])
    values["tracing.overhead"] = (traced / traced_n) / (untraced / untraced_n) - 1.0
    values["calib.slice_ms"] = cal.summary()["measured_slice_ms.p50"]
    parts = {name: values[name] for name in (
        "trace.load_s", "core.aerodrome_s", "analysis.races_s",
        "analysis.lockset_s", "api.session.sweep_s",
    )}
    e2e = values["trace.load_s"] + run3
    values = ledger.finish(values, e2e, parts)
    return values, {"e2e_s": e2e, "parts": parts}
