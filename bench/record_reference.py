"""Record the reference outputs that the checks of `coarse` and `wide` compare with.

    PYTHONPATH=src python3 bench/record_reference.py

Run it from the checkout root, on the commit whose outputs are the reference.
It writes bench/reference/{coarse,wide}_{full,tiny}.json.gz; `wide` gets one
entry per input seed (0 .. WIDE_INPUT_SEEDS - 1).  Only jobs without an oracle
at the workload's size have a reference.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import workloads


def record(workload: str, scale: str, seed: int) -> dict:
    shutil.rmtree(workloads.WORK_DIR / workload, ignore_errors=True)
    jobs, _ = workloads.build(workload, seed, scale)
    return {job.name: job.result(job.run()) for job in jobs if job.result is not None}


def main() -> int:
    if not workloads.WORK_DIR.parent.is_dir():
        print("run this from the checkout root", file=sys.stderr)
        return 2
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for scale in workloads.SCALES:
        refs = {
            "coarse": record("coarse", scale, 0),
            "wide": {str(s): record("wide", scale, s)
                     for s in range(workloads.WIDE_INPUT_SEEDS)},
        }
        for workload, ref in refs.items():
            path = workloads.reference_path(workload, scale)
            text = json.dumps(ref, sort_keys=True, indent=1) + "\n"
            with gzip.GzipFile(path, "wb", mtime=0) as fh:  # mtime=0: same bytes every time
                fh.write(text.encode("utf-8"))
            print(f"wrote {path.relative_to(workloads.BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
