"""Write the offline corpus: every Table 1 and Table 2 row as a ``.std``
trace file, plus ``manifest.json`` with each row's expected verdict.

Run as a separate process so the benchmark process that loads and
analyzes the files never holds the generator's objects (its VmHWM is
the analysis footprint).

    python3 perfbench/corpus.py --seed 1 --scale 1.0 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from common import use_src


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    use_src()
    from repro.sim.workloads import ALL_CASES
    from repro.trace import save_trace

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for case in ALL_CASES:
        trace = case.generate(seed=args.seed, scale=args.scale)
        path = out / f"{case.name}.std"
        save_trace(trace, path)
        manifest.append({
            "name": case.name,
            "file": path.name,
            "events": len(trace),
            "serializable": case.violation_at is None,
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
