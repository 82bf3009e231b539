"""Record reference.json, the values every benchmark operation is checked against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each named workload's operation (default: all) once (the correspondence workload once per
program seed) on the checkout's source tree and stores what
workloads.extract reads from its outputs.  Record only from a commit whose
outputs are trusted: a later run passes its check only if it reproduces
these values to the tolerances in workloads.py.  Entries of workloads not
named are kept from the existing file.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main(names: list) -> int:
    reference: dict = {}
    if names and os.path.exists(workloads.REFERENCE_PATH):
        reference = workloads.load_reference()
    for name in names or workloads.WORKLOADS:
        seeded = workloads.workload(name, 0).seeded
        entry = {}
        for seed in range(len(workloads.PROGRAM_SEEDS)) if seeded else (0,):
            session = run.Session(name, seed, None)
            try:
                op = session.operation()
                if not op["ok"]:
                    return 1
                values = workloads.extract(session.workload, session.out_dir,
                                           op["stdout"])
            finally:
                session.close()
            entry[str(workloads.program_seed(seed))] = values
        reference[name] = entry if seeded else values
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
