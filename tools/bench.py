"""Record the benchmark's figures for the current checkout in one JSON-lines file.

For every workload that BENCHMARK.json declares, this runs the
benchmark's own command (perfbench/run.py) twice, one run at a time:
with --trace 0 for the end-to-end metrics, then with --trace 1 for the
per-layer figures. Each run's result line is copied unchanged under
"result", next to the workload, seed, run length, trace flag and the
host the run took place on. Every run uses seed 1 and the run length
BENCHMARK.json sets, so files written at different commits compare.
Nothing is timed here; every figure comes from perfbench/run.py.

Run from anywhere in a source checkout:

    python3 tools/bench.py --out BENCH.json

A run that prints no result line stops the script with exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1


def run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One benchmark run: its last stdout line, or None if it printed none. Its stderr passes through."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False).stdout.splitlines()
    return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=pathlib.Path, help="JSON-lines file to write.")
    args = parser.parse_args(argv)

    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(spec["command"], workload, SEED, spec["run_seconds"], trace)
            if result is None:
                print(f"error: the {workload} run with --trace {trace} printed no result", file=sys.stderr)
                return 2
            record = {"workload": workload, "seed": SEED, "seconds": spec["run_seconds"], "trace": trace, "host": host}
            records.append({**record, "result": result})
            print(f"{workload} trace={trace}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
    args.out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
