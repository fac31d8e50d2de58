"""One pass over a workload's job list, in a fresh interpreter.

    python3 bench/one_pass.py --workload W --seed N --trace 0|1 --scale full|tiny
                              [--reference-dir DIR]

run.py starts this from the checkout root, one pass at a time.  It times the
import of `interlace` plus input generation (set-up), then the jobs, each
while calibration.Sampler samples the host's speed, and reports both times at
the reference speed as well as in wall seconds.  Then it checks every output
outside the timed regions and prints one JSON object on its last stdout line.
A traced pass also writes its spans to bench/_work/<workload>/spans.npz.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibration
import workloads

ROOT = workloads.BENCH_DIR.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, required=True)
    parser.add_argument("--reference-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    shutil.rmtree(workloads.WORK_DIR / args.workload, ignore_errors=True)

    with calibration.Sampler(calibration.SETUP_INTERVAL_S) as setup_sampler:
        t0 = time.perf_counter()
        import interlace

        src = (ROOT / "src").resolve()
        if src not in Path(interlace.__file__).resolve().parents:
            print(f"interlace was imported from {interlace.__file__}, not from {src}",
                  file=sys.stderr)
            return 2
        jobs, out_dirs = workloads.build(args.workload, args.seed, args.scale)
        wall_setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    with calibration.Sampler(calibration.PASS_INTERVAL_S) as sampler:
        t1 = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = i
            try:
                outputs[job.name] = job.run()
            except Exception as exc:  # a failed job is counted, the pass goes on
                errors[job.name] = f"{type(exc).__name__}: {exc}"
        wall_pass_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    reference = workloads.load_reference(args.workload, args.scale, args.seed,
                                         args.reference_dir)
    for job in jobs:
        if job.name in errors:
            continue
        try:
            workloads.check(job, outputs[job.name], outputs, reference)
        except workloads.CheckFailed as exc:
            errors[job.name] = f"wrong output: {exc}"
        except Exception as exc:  # a check that crashes on a bad output is a failure too
            errors[job.name] = f"check raised {type(exc).__name__}: {exc}"

    result = {
        "setup_s": setup_sampler.reference_seconds(wall_setup_s),
        "pass_s": sampler.reference_seconds(wall_pass_s),
        "wall_setup_s": wall_setup_s,
        "wall_pass_s": wall_pass_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": len(errors),
        "errors": errors,
    }
    if tracer is not None:
        layer = tracer.metrics()
        layer["cli.csv_bytes"] = workloads.csv_bytes(out_dirs)
        tracer.write_spans(workloads.WORK_DIR / args.workload / "spans.npz")
        result["layer"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
