"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``offline`` — the Table 1 + Table 2 corpus through ``Session.run``;
* ``stream``  — one long durable session per stream, positioned delta
  frames and FLUSH windows to a ``repro serve`` subprocess with a spool;
* ``ring``    — many short tenants routed by ``ClusterClient`` to a
  3-node ring of ``repro serve --cluster`` subprocesses.

With ``--trace 0`` it measures the end-to-end metrics (calibrated, see
calib.py); with ``--trace 1`` it measures the per-layer ledger instead
and writes ``trace.jsonl`` and ``layers.md`` beside ``result.json``
under ``perfbench/_work/out/``. Every report is checked against an
offline reference; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A correct run exits
0; a run that fails the correctness gate still prints its result, and
exits 1. A checkout without the program's ``src/`` exits 2 without a
result. ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

from calib import Calibrator
from common import out_dir, pin_to_one_cpu, provenance, run_tmp, src_present, use_src, write_json
import ledger

WORKLOADS = ("offline", "stream", "ring")

#: End-to-end metric names every ``--trace 0`` result carries.
END_TO_END = (
    "events_per_s", "setup_s", "peak_rss_mb", "latency_ms.p50", "latency_ms.p90",
)


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    scale: float
    cal: Calibrator
    tracer: Any
    tmp: Path


def _workload(name: str):
    if name == "offline":
        import offline as module
    elif name == "stream":
        import stream as module
    else:
        import ring as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run the three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload size (smoke tests use a small one)",
    )
    args = parser.parse_args(argv)
    if not src_present():
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    use_src()
    from repro.obs.tracing import Tracer

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()

    ctx = Context(
        seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        scale=args.scale, cal=Calibrator(),
        tracer=Tracer(clock=time.perf_counter), tmp=run_tmp(),
    )
    started = time.perf_counter()
    try:
        result = _workload(args.workload).run(ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    result["wall_s"] = time.perf_counter() - started
    result["provenance"] = provenance(ctx.cal.summary(), nproc, cpu)
    result["workload"] = args.workload
    result["seed"] = args.seed
    result["seconds"] = args.seconds
    result["scale"] = args.scale
    result["noise_controls"].update({
        "calibration": "kernel slice at least every "
                       f"{ctx.cal.every}s between units (calib.py)",
        "pinned_cpu": cpu,
        "gc": "collect() before each timed unit; set-up objects frozen",
    })

    out = out_dir(args.workload, args.seed, ctx.traced)
    correct = result["failed"] == 0 and not result["problems"]
    if ctx.traced:
        metrics = {
            name: {"value": value, "unit": ledger.LAYERS[name][0]}
            for name, value in result["layers"].items()
        }
        result["trace_spans"] = ctx.tracer.dump_jsonl(str(out / "trace.jsonl"))
        layers_md = ledger.table(
            args.workload, result["layers"], result["ledger"]["e2e_s"],
            result["ledger"]["parts"],
        )
        (out / "layers.md").write_text(layers_md)
    else:
        metrics = {
            name: {"value": result["e2e"][name]["value"],
                   "unit": result["e2e"][name]["unit"]}
            for name in END_TO_END
        }
    write_json(out / "result.json", result)
    _print_human(args.workload, result, ctx.traced)
    if ctx.traced:
        print(layers_md)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Run every workload in its own process and merge the results, the
    metric names prefixed with the workload."""
    merged: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            # No result line: the workload crashed rather than failed its
            # correctness gate.
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        for metric, entry in doc["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _print_human(workload: str, result: Dict[str, Any], traced: bool) -> None:
    prov = result["provenance"]
    calib = prov["calibration"]
    print(
        f"perfbench {workload} seed={result['seed']} "
        f"seconds={result['seconds']} trace={int(traced)} "
        f"wall={result['wall_s']:.1f}s"
    )
    print(
        f"  provenance: nproc={prov['nproc']} pinned_cpu={prov['pinned_cpu']} python={prov['python']} "
        f"platform={prov['platform']} commit={prov['git_commit']} "
        f"src={prov['src_sha256']} calib ref={calib['reference_slice_ms']:.3f}ms "
        f"measured p50={calib['measured_slice_ms.p50']:.3f}ms "
        f"({calib['slices']} slices)"
    )
    attempted, failed = result["attempted"], result["failed"]
    rows = []
    if not traced:
        e2e = result["e2e"]
        alias = result["latency_name"]
        for name in END_TO_END:
            entry = e2e[name]
            shown = name.replace("latency_ms", alias)
            raw = f"; raw {entry['raw']:.6g}" if "raw" in entry else ""
            rows.append(
                f"  {workload}/{shown} = {entry['value']:.6g} {entry['unit']} "
                f"(n={entry['n']}{raw})"
            )
        rows.insert(3, f"  {workload}/error_rate = {failed / attempted:.6g} "
                       f"ratio (n={attempted}; {failed} failed)")
        rows.append(f"  ({alias} = {result['latency_what']}; "
                    "timings are calibrated)")
    else:
        rows.append(f"  {workload}/error_rate = {failed / attempted:.6g} "
                    f"ratio (n={attempted}; {failed} failed)")
    print("\n".join(rows))
    for problem in result["problems"][:20]:
        print(f"  MISMATCH {problem}")


if __name__ == "__main__":
    raise SystemExit(main())
