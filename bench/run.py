"""Benchmark of `interlace`: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify|coarse|wide --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Each pass runs in a fresh interpreter (bench/one_pass.py), one at a time, and
passes repeat until the next one would end after S seconds.  With --trace 0
the result holds the end-to-end metrics (medians over passes); with --trace 1
untraced and traced passes alternate and the result holds the per-layer
metrics of the traced passes plus their cost relative to the untraced ones.
`setup_s` and `pass_s` are in reference seconds: the time at a fixed speed of
the host, measured with a kernel sampled throughout (see calibration.py),
which cancels most of the shared host's speed drift.  Wall times are printed
on the lines above the result.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = workloads.BENCH_DIR
ROOT = BENCH_DIR.parent
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that are counts of work: they must repeat exactly
COUNT_SUFFIXES = (".calls", ".cells", ".distinct_ratio", ".target_evals_per_pair",
                  ".csv_bytes", ".errors")


class HarnessError(RuntimeError):
    """A pass process could not run; the benchmark has no result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("csv_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_pair")) or name == "trace_overhead":
        return "ratio"
    return "count"


def run_pass(workload: str, seed: int, trace: bool, scale: str,
             reference_dir: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--scale", scale]
    if reference_dir is not None:
        cmd += ["--reference-dir", str(reference_dir)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", reference_dir: Path | None = None) -> dict:
    """Run passes for about `seconds` and summarise them into the result object."""
    # every pass loads bytecode, also where PYTHONDONTWRITEBYTECODE is set
    for tree in (ROOT / "src", BENCH_DIR):
        compileall.compile_dir(tree, quiet=1)
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_pass(workload, seed, False, scale, reference_dir))
        if trace:
            traced.append(run_pass(workload, seed, True, scale, reference_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for job, message in p["errors"].items():
            print(f"FAILED {workload} job {job}: {message}")
    correct = failed == 0
    wall = [p["wall_pass_s"] for p in plain]
    if trace:
        metrics = {}
        for name in tracing.metric_names()[:-1]:  # trace_overhead comes last, below
            values = [p["layer"][name] for p in traced]
            if name.endswith(COUNT_SUFFIXES):
                if len(set(values)) != 1:
                    print(f"NOT REPEATED {name}: {values}")
                    correct = False
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace_overhead"] = (statistics.median(p["pass_s"] for p in traced)
                                     / statistics.median(p["pass_s"] for p in plain))
        report = {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}
    else:
        report = {name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}

    q = statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3
    print(f"{workload} seed={seed} scale={scale} trace={int(trace)}: "
          f"{len(plain)} untraced passes, {len(traced)} traced")
    print(f"  wall pass_s quartiles: {q[0]:.4f} {q[1]:.4f} {q[2]:.4f} s; wall setup_s median: "
          f"{statistics.median(p['wall_setup_s'] for p in plain):.4f} s")
    print(f"  failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in report.items():
        print(f"  {name}: {m['value']} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "interlace" / "__init__.py").is_file():
        print(f"no interlace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
