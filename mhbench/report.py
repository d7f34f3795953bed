"""Print every benchmark metric, by name and with its unit, for each workload.

    python3 mhbench/report.py [--seed N] [--seconds S] [--trace] [--json PATH]

Runs ``run.py`` once per workload, each in its own process (so peak RSS
is that workload's alone), untraced, and with ``--trace`` also traced.
``--json`` also writes all results, with the machine they ran on, to PATH.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            res = run_one(workload, args.seed, args.seconds, trace)
            results.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = res
            print(f"{workload} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    if args.json:
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": {
                "platform": platform.platform(),
                "cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "workloads": results,
        }
        Path(args.json).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
