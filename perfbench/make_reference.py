"""Write perfbench/reference.json from the seed-0 outputs of the sources.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

The output checks compare every seed-0 run with these values, so run this
only when a change to the program is meant to move them, and say so.
"""
import json
import os
import sys
import tempfile

import hardyheat.cli as cli

import workloads


def main() -> int:
    reference = {}
    work = os.path.join(os.path.dirname(workloads.REFERENCE), os.pardir,
                        ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in workloads.WORKLOADS:
            outdir = f"{tmp}/{workload}"
            with workloads.capturing_profiles(cli) as profiles:
                for argv in workloads.commands(workload, 0):
                    code = cli.main(["--outdir", outdir, *argv])
                    if code != 0:
                        print(f"{argv} exited with {code}", file=sys.stderr)
                        return 1
            reference[workload] = workloads.observe(workload, outdir,
                                                    profiles)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
