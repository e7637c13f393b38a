"""Smoke tests of the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs and prints every named metric, a second seed runs,
the traced run reports every per-layer metric, a corrupted report is
caught by the correctness gate (on its own, and end to end, where it
makes the run exit 1), and a directory without the program exits
non-zero without a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import ROOT, compare, compare_delivered, digest, use_src

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

#: The names the human-readable report prints, per workload.
HUMAN = {
    "offline": ["job_ms.p50", "job_ms.p90"],
    "stream": ["flush_ms.p50", "flush_ms.p90"],
    "ring": ["session_ms.p50", "session_ms.p90"],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout[-3000:]
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", ["offline", "stream", "ring"])
def test_workload_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--scale", "0.05")
    doc = result_of(proc)
    assert list(doc["metrics"]) == END_TO_END
    for entry in doc["metrics"].values():
        assert entry["value"] > 0
    for name in ["events_per_s", "setup_s", "peak_rss_mb", "error_rate"] + HUMAN[workload]:
        assert f"{workload}/{name} = " in proc.stdout


@pytest.mark.parametrize("workload", ["offline", "stream", "ring"])
def test_traced_run_reports_every_layer(workload):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                 "--trace", "1", "--scale", "0.05")
    doc = result_of(proc)
    assert list(doc["metrics"]) == PER_LAYER
    out = ROOT / "perfbench" / "_work" / "out" / f"{workload}-seed2-trace"
    assert (out / "trace.jsonl").stat().st_size > 0
    assert "ledger.residual_s" in (out / "layers.md").read_text()
    if workload == "stream":
        assert doc["metrics"]["service.session.findings"]["value"] > 0
        assert doc["metrics"]["api.report.finding_dict_calls"]["value"] > 0


def _reference_report():
    use_src()
    from repro.api.session import Session
    from repro.sim.workloads import get_case
    from repro.trace import pack

    trace = get_case("hedc").generate(seed=1, scale=0.2)
    return Session(pack(trace), ["aerodrome", "races", "lockset"]).run().to_json()


def test_gate_accepts_an_identical_report():
    report = _reference_report()
    assert compare(digest(report), copy.deepcopy(report)) == []


def test_gate_catches_a_corrupted_report():
    report = _reference_report()
    reference = digest(report)
    flipped = copy.deepcopy(report)
    races = next(a for a in flipped["analyses"] if a["analysis"] == "races")
    assert races["violations"], "the fixture must have race findings"
    races["violations"][0]["event_idx"] += 1
    assert any("races.events" in p for p in compare(reference, flipped))
    dropped = copy.deepcopy(report)
    races = next(a for a in dropped["analyses"] if a["analysis"] == "races")
    races["violations"].pop()
    assert any("races.findings" in p for p in compare(reference, dropped))
    verdict = copy.deepcopy(report)
    verdict["analyses"][0]["verdict"] = "pass"
    assert any("aerodrome.verdict" in p for p in compare(reference, verdict))
    delivered = [
        {"analysis": "races", "finding": v}
        for v in races["violations"]  # one finding short
    ]
    assert compare_delivered(reference, delivered)


#: Runs the stream workload with every server report corrupted before
#: the gate compares it: the first analysis's verdict is replaced.
CORRUPTED_RUN = """
import sys
sys.path.insert(0, "perfbench")
import common
honest = common.compare

def compare(reference, report):
    report["analyses"][0]["verdict"] = "corrupted"
    return honest(reference, report)

common.compare = compare
import run
raise SystemExit(run.main(sys.argv[1:]))
"""


def test_corrupted_run_fails_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-c", CORRUPTED_RUN, "--workload", "stream",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "0.05"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] >= 1 and doc["failed"] <= doc["attempted"]
    assert list(doc["metrics"]) == END_TO_END
    assert "MISMATCH" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = bench("--workload", "offline", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
