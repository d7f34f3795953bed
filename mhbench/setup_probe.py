"""One set-up of a benchmark workload, timed from outside by ``run.py``.

Covers what every ``mhardy`` call pays before its first integral:
interpreter start, package import, input generation and config load.
Prints the monotonic clock at the end, for the parent to subtract.

    PYTHONPATH=src python3 mhbench/setup_probe.py WORKLOAD SEED DIR
"""

import json
import os
import sys
import time

from multipolar_hardy import cli

import workloads


def main(argv) -> int:
    workload, seed, directory = argv[0], int(argv[1]), argv[2]
    os.makedirs(directory, exist_ok=True)
    for label, _, config in workloads.operations(workload, seed):
        path = os.path.join(directory, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        cli.load_run_config(path)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
