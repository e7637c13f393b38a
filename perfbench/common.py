"""Shared pieces of the benchmark: paths, provenance, percentiles, the
correctness gate and server subprocess management."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: The service's analysis set; every workload runs exactly these.
ANALYSES = ("aerodrome", "races", "lockset")


def src_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_src() -> None:
    """Import the program from this checkout's ``src/``."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    The load generator, the servers and the calibration kernel then all
    run on the core whose speed the kernel measures. Every workload is a
    closed loop with one busy process at a time, so little overlap is
    lost.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_tmp() -> Path:
    """This run's scratch directory (corpus files, spools, server logs)."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=str(WORK)))


def out_dir(workload: str, seed: int, traced: bool) -> Path:
    path = WORK / "out" / f"{workload}-seed{seed}{'-trace' if traced else ''}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``q`` in 1..99), interpolated between the
    closest ranks. Interpolation keeps a percentile of a few samples
    (offline's passes) from reading a single extreme one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- provenance ---------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def _src_digest() -> str:
    """sha256 over ``src/**/*.py`` — identifies the code under test when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(calibration: Dict[str, Any], nproc: int, cpu: int) -> Dict[str, Any]:
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "calibration": calibration,
    }


# -- memory -------------------------------------------------------------------


def vmhwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a process so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15; ``fields`` starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- the correctness gate -----------------------------------------------------


def digest(report: Dict[str, Any]) -> Dict[str, Any]:
    """What must agree between a report and its offline reference:
    per analysis, the verdict, the violating event indices (in order)
    and the number of findings."""
    out = {}
    for entry in report["analyses"]:
        out[entry["analysis"]] = {
            "verdict": entry["verdict"],
            "events": [v.get("event_idx") for v in entry["violations"]],
            "findings": len(entry["violations"]),
        }
    return out


def compare(reference: Dict[str, Any], report: Dict[str, Any]) -> List[str]:
    """Mismatches between a report and the reference digest (empty = ok)."""
    got = digest(report)
    problems = []
    for name in sorted(set(reference) | set(got)):
        want, have = reference.get(name), got.get(name)
        if want is None or have is None:
            problems.append(f"{name}: present in only one report")
            continue
        for key in ("verdict", "findings", "events"):
            if want[key] != have[key]:
                shown_want = want[key] if key != "events" else want[key][:5]
                shown_have = have[key] if key != "events" else have[key][:5]
                problems.append(
                    f"{name}.{key}: expected {shown_want}, got {shown_have}"
                )
    return problems


def compare_delivered(
    reference: Dict[str, Any], findings: List[Dict[str, Any]]
) -> List[str]:
    """Findings shipped by FLUSH/CLOSE frames must be the report's own,
    in order, for every analysis that delivers any mid-stream."""
    by_analysis: Dict[str, List[Any]] = {}
    for entry in findings:
        by_analysis.setdefault(entry["analysis"], []).append(
            entry["finding"].get("event_idx")
        )
    problems = []
    for name, events in sorted(by_analysis.items()):
        want = reference.get(name, {}).get("events")
        if events != want:
            problems.append(
                f"{name}: delivered {len(events)} findings, "
                f"report has {len(want or [])}"
            )
    return problems


# -- servers ------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess, given only deployment settings."""

    def __init__(self, workdir: Path, name: str, args: Sequence[str]) -> None:
        self.workdir = workdir
        self.name = name
        self.ready = workdir / f"{name}.ready"
        self.log_path = workdir / f"{name}.log"
        self.args = list(args)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.launch_s: Optional[float] = None  # raw launch-to-accept
        self.exit_code: Optional[int] = None  # set once reaped
        self.cpu_s: Optional[float] = None  # utime + stime, read at stop

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until the server accepts a connection.

        Returns the ``perf_counter`` time at launch; :attr:`launch_s`
        holds the raw launch-to-accept time.
        """
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--ready-file", str(self.ready), *self.args,
        ]
        log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=child_env(), cwd=str(ROOT),
            )
        finally:
            log.close()
        deadline = t0 + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server {self.name} exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server {self.name} not ready in {timeout}s")
            text = self.ready.read_text() if self.ready.exists() else ""
            if text.endswith("\n"):
                self.port = int(text.split()[1])
                try:
                    with socket.create_connection(
                        ("127.0.0.1", self.port), timeout=5.0
                    ):
                        pass
                except OSError:
                    pass
                else:
                    break
            time.sleep(0.002)
        self.launch_s = time.perf_counter() - t0
        # Untimed: one STATS round trip proves the serve loop is running.
        # The listening socket accepts before it is, and a SIGINT sent in
        # that gap leaves the server running until it is killed.
        from repro.service.client import ServiceClient

        with ServiceClient("127.0.0.1", self.port) as client:
            client.stats()
        return t0

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Record the CPU time used, then interrupt, wait, and kill if it
        does not exit; always reaps."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            self.cpu_s = cpu_seconds(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        self.exit_code = proc.returncode
        self.proc = None


def write_json(path: Path, doc: Dict[str, Any]) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
