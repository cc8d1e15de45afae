"""Write bench/reference.json: the exact results of one seed-0 operation of
every workload.  The file is recorded once, on the commit that defines the
benchmark; later runs compare against it.

    python3 bench/record_reference.py
"""

import json
import shutil
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name, wl in run.WORKLOADS.items():
        outdir = run.WORK / name
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            reference[name] = run.run_op(wl, wl.prepare(0), outdir)["exact"]
        finally:
            shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
