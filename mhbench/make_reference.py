"""Regenerate ``reference.json``: headline values and error bars per seed.

    python3 mhbench/make_reference.py [FIRST_SEED LAST_SEED [NAME ...]]

Runs one round of every workload, and the probe operation, for each seed
in the range (default 0..39) and stores the headline cells of every report
(see workloads.HEADLINE).  Given NAMEs (workloads, or ``probe``), only
their entries are regenerated and the rest of the file is kept.  ``run.py`` checks each later run against them
with an error-scaled tolerance.  Regenerate only when the workloads change,
never to make a program change pass.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 39)
    run._prepare_environment()
    import workloads

    names = argv[2:] or [*workloads.WORKLOADS, "probe"]
    table = json.loads(run.REFERENCE.read_text()) if argv[2:] else {}
    for name in names:
        table[name] = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for seed in range(first, last + 1):
            for name in names:
                workload = "mc-bump" if name == "probe" else name
                session = run.Session(workload, seed, Path(tmp))
                ops = [session.probe] if name == "probe" else session.ops
                _, codes = session.run_round(ops)
                entry = {}
                for (label, cmd, config, _), code in zip(ops, codes):
                    if code != 0:
                        print(f"{name} seed {seed} {label}: exit {code}", file=sys.stderr)
                        return 1
                    body = workloads.csv_body(
                        str(Path(tmp) / "out" / label / f"{workloads.report_name(cmd)}.csv")
                    )
                    problems = workloads.check_invariants(label, config, body)
                    if problems:
                        print(f"{name} seed {seed} {label}: {problems}", file=sys.stderr)
                        return 1
                    entry[label] = workloads.headline(cmd, body)
                table[name][str(seed)] = entry
            print(f"seed {seed} done", file=sys.stderr, flush=True)
    run.REFERENCE.write_text(json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
