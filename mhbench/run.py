"""Benchmark of the ``mhardy`` subcommands on four seeded workloads.

    python3 mhbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run first times SETUP_REPEATS fresh
set-ups of the workload in child processes, then runs rounds of the
workload's subcommands in this process, closed loop, until S seconds have
passed (at least MIN_ROUNDS rounds).  Every operation's report is checked
(see README.md), then a small probe operation runs with one and with two
worker threads.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced rounds alternate, and the metrics are the per-layer
ones from the traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".mhbench"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_bar": "1",
    "var_s": "s",
}


def _fail(message: str) -> int:
    print(f"mhbench: {message}", file=sys.stderr)
    return 2


def _prepare_environment() -> None:
    """Cap BLAS threads and restore the program's default worker count.

    Must run before numpy is imported.
    """
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("MHARDY_WORKERS", None)
    sys.path[:0] = [str(SRC), str(HERE)]


def measure_setup(workload: str, seed: int, directory: Path) -> list[float]:
    """Wall seconds of SETUP_REPEATS child processes running setup_probe.

    The child prints the system-wide monotonic clock when it is done;
    waiting for its exit with a timeout would poll in steps of 50 ms.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(directory)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                              capture_output=True, text=True)
        times.append(float(done.stdout) - t0)
    return times


class Session:
    """Runs one workload's operations and checks every report they write."""

    def __init__(self, workload: str, seed: int, directory: Path):
        import workloads
        from multipolar_hardy import cli

        self.w = workloads
        self.main = cli.main
        self.workload = workload
        self.directory = directory
        self.ops = [self._write(op) for op in workloads.operations(workload, seed)]
        self.probe = self._write(workloads.probe_operation(seed))
        reference = {}
        if REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text())
        self.reference = reference.get(workload, {}).get(str(seed))
        self.probe_reference = reference.get("probe", {}).get(str(seed))
        if self.reference is None:
            print(f"mhbench: no stored reference for {workload} seed {seed}; "
                  f"checking invariants only", file=sys.stderr)
        self.first_body: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def _write(self, op):
        label, cmd, config = op
        path = self.directory / f"{label}.json"
        path.write_text(json.dumps(config))
        return label, cmd, config, path

    def run_round(self, ops=None) -> tuple[float, list]:
        """Run operations back to back; returns (wall seconds, exit codes)."""
        codes = []
        t0 = time.perf_counter()
        for label, cmd, _, path in ops or self.ops:
            out = self.directory / "out" / label
            try:
                codes.append(self.main([cmd, "--config", str(path), "--out", str(out), "--quiet"]))
            except Exception:  # an operation that raises is a failed operation
                codes.append(traceback.format_exc())
        return time.perf_counter() - t0, codes

    def check(self, codes, ops, reference) -> dict[str, str]:
        """Count and check the operations of one round; returns their bodies."""
        bodies = {}
        for (label, cmd, config, _), code in zip(ops, codes):
            self.attempted += 1
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            else:
                body = self.w.csv_body(
                    str(self.directory / "out" / label / f"{self.w.report_name(cmd)}.csv")
                )
                bodies[label] = body
                first = self.first_body.setdefault(label, body)
                if body != first:
                    problems.append("report body differs from the first run of this operation")
                elif body not in self.problems:
                    found = self.w.check_invariants(label, config, body)
                    if reference is not None:
                        found += self.w.compare_reference(
                            self.w.headline(cmd, body), reference[label]
                        )
                    self.problems[body] = found
                problems += self.problems.get(body, [])
            if problems:
                self.failed += 1
                print(f"mhbench: {self.workload} {label} failed: " + "; ".join(problems),
                      file=sys.stderr)
        return bodies

    def run_probe(self) -> None:
        """The probe operation with one and with two worker threads."""
        workers = ["1"] + (["2"] if len(os.sched_getaffinity(0)) >= 2 else [])
        for count in workers:
            os.environ["MHARDY_WORKERS"] = count
            try:
                _, codes = self.run_round([self.probe])
            finally:
                os.environ.pop("MHARDY_WORKERS", None)
            self.check(codes, [self.probe], self.probe_reference)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    directory = WORK / workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    setups = measure_setup(workload, seed, directory / "setup")
    session = Session(workload, seed, directory)

    tracer = None
    if trace:
        from tracer import Tracer, traced

        tracer = Tracer()
    walls = {False: [], True: []}
    cpu = []  # CPU seconds of the untraced rounds
    bodies = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced_round = trace and rounds % 2 == 1
        c0 = time.process_time()
        if traced_round:
            tracer.round = rounds
            with traced(tracer):
                wall, codes = session.run_round()
        else:
            wall, codes = session.run_round()
            cpu.append(time.process_time() - c0)
        walls[traced_round].append(wall)
        bodies = session.check(codes, session.ops, session.reference) or bodies
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.run_probe()

    wall_s = _median(walls[False])
    try:
        err_bar = workloads.err_bar(workload, bodies)
    except (KeyError, ValueError, IndexError):
        err_bar = 0.0
    values = {
        "wall_s": wall_s,
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb,
        "err_bar": err_bar,
        "var_s": err_bar * err_bar * wall_s,
    }
    units = dict(END_TO_END)
    notes = {
        "wall_s": f"median of {len(walls[False])} untraced rounds, "
        f"range {min(walls[False]):.3f} .. {max(walls[False]):.3f}",
        "setup_s": f"median of {len(setups)} set-ups, "
        f"range {min(setups):.3f} .. {max(setups):.3f}",
    }
    if trace:
        values, units, notes = _layer_values(tracer, walls, cpu, rounds)
        (directory / "trace.json").write_text(json.dumps(tracer.to_json()))

    print(f"mhbench {workload} seed {seed} trace {int(trace)}: {rounds} rounds, "
          f"{session.attempted} operations, {session.failed} failed")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>16.6g} {units[name]}{note}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in values.items()
        },
    }


def _layer_values(tracer, walls, cpu, rounds):
    """Per-layer metrics: medians over the traced rounds."""
    from tracer import layer_metrics

    per_round = [layer_metrics(tracer.spans, r) for r in range(1, rounds, 2)]
    values = {}
    for name in per_round[0]:
        samples = [m[name] for m in per_round]
        values[name] = _median(samples)
        if metric_unit(name) == "count" and len(set(samples)) > 1:
            print(f"mhbench: count {name} differs between rounds: {samples}", file=sys.stderr)
    values["proc.cpu_s"] = _median(cpu)
    values["trace_overhead_s"] = _median(walls[True]) - _median(walls[False])
    units = {name: metric_unit(name) for name in values}
    notes = {"trace_overhead_s": f"{len(walls[True])} traced, {len(walls[False])} untraced rounds"}
    return values, units, notes


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_per_node"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multipolar_hardy" / "cli.py").is_file():
        return _fail(f"no program source at {SRC}; run from the root of a checkout")
    _prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
