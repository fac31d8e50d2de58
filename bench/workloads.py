"""Job lists, inputs and output checks of the three benchmark workloads.

A workload is a fixed list of jobs.  Each job is one CLI command or one
library call; `run` does the work inside the timed region and `check`
inspects its output afterwards.  Checks use the library's own oracles where
one runs at the workload's size, and otherwise compare with reference outputs
recorded from the seed commit (see record_reference.py): integers and strings
must match exactly, floats to 1e-12 relative.

Every call goes through a module attribute looked up at run time
(`interlace.cli.main`, `il.dist`, ...), so the wrappers that tracing.py
installs see it.  Nothing here imports `interlace` at module level: the pass
process times that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = Path("bench") / "_work"  # relative to the checkout root, the pass's cwd

WORKLOADS = ("certify", "coarse", "wide")
SCALES = ("full", "tiny")

# `wide` takes its inputs from one of these many input seeds (seed mod N):
# the values of james_norm, orlicz_norm, n_norm, delta_transform and the spider
# norm have no oracle at this size and are checked against references
# recorded for every input seed.
WIDE_INPUT_SEEDS = 64

REL_TOL = 1e-12

COARSE_COMMANDS = {
    "full": (
        ["moduli", "--family", "g", "--k", "4", "--max-entry", "10"],
        ["moduli", "--probe", "--family", "summing", "--k", "3", "--max-entry", "10", "--c", "1.0"],
        ["moduli", "--equicoarse", "--family", "summing", "--ks", "1,2,3,4,5"],
        ["embed-c0", "--k", "3", "--max-entry", "10"],
    ),
    "tiny": (
        ["moduli", "--family", "g", "--k", "2", "--max-entry", "5"],
        ["moduli", "--probe", "--family", "summing", "--k", "2", "--max-entry", "6", "--c", "1.0"],
        ["moduli", "--equicoarse", "--family", "summing", "--ks", "1,2"],
        ["embed-c0", "--k", "2", "--max-entry", "5"],
    ),
}

WIDE_SIZES = {
    "full": dict(top2=10**6, top4=10**5, seq_len=2000, vec_len=30000,
                 delta_steps=10**5, spider_depth=1000, full_trees=300),
    "tiny": dict(top2=1000, top4=200, seq_len=40, vec_len=100,
                 delta_steps=1000, spider_depth=20, full_trees=5),
}


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    """One timed call.  `check(raw, outputs)` runs an oracle over the raw output
    (`outputs` maps every job name to its raw output, for cross-checks) and
    raises CheckFailed.  Jobs with a `result` projection are also compared with
    the recorded reference under their name."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict[str, Any]], None] | None = None
    result: Callable[[Any], Any] | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def same(got: Any, want: Any, where: str = "$") -> None:
    """Exact for ints, bools and strings; floats to REL_TOL relative."""
    if isinstance(want, float) or isinstance(got, float):
        _require(
            isinstance(got, (int, float)) and isinstance(want, (int, float))
            and not isinstance(got, bool) and not isinstance(want, bool),
            f"{where}: {got!r} vs {want!r}",
        )
        _require(abs(got - want) <= REL_TOL * max(abs(got), abs(want)),
                 f"{where}: {got!r} differs from {want!r}")
    elif isinstance(want, dict):
        _require(isinstance(got, dict) and sorted(got) == sorted(want),
                 f"{where}: keys differ")
        for key in want:
            same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want),
                 f"{where}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            same(g, w, f"{where}[{i}]")
    else:
        _require(type(got) is type(want) and got == want,
                 f"{where}: {got!r} != {want!r}")


def reference_path(workload: str, scale: str, directory: Path | None = None) -> Path:
    return (directory or REFERENCE_DIR) / f"{workload}_{scale}.json.gz"


def load_reference(workload: str, scale: str, seed: int,
                   directory: Path | None = None) -> dict[str, Any]:
    """Reference outputs by job name for this workload, scale and seed."""
    if workload == "certify":
        return {}
    with gzip.open(reference_path(workload, scale, directory), "rt", encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref[str(seed % WIDE_INPUT_SEEDS)] if workload == "wide" else ref


# ----------------------------------------------------------------- CLI jobs

def _cell(text: str) -> Any:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csvs(out_dir: Path) -> dict[str, Any]:
    """Each CSV as its config-comment JSON plus rows of typed cells."""
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        config = json.loads(lines[0].removeprefix("# config: "))
        rows = [[_cell(c) for c in row] for row in csv.reader(lines[1:])]
        tables[path.name] = {"config": config, "rows": rows}
    return tables


def csv_bytes(out_dirs: list[Path]) -> int:
    return sum(p.stat().st_size for d in out_dirs for p in d.glob("*.csv"))


def _cli_job(name: str, argv: list[str], out_dir: Path) -> Job:
    def run() -> tuple[int, str]:
        import interlace.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = interlace.cli.main(argv + ["--out", str(out_dir)])
        return rc, buf.getvalue()

    return Job(name, run)


def _check_suite(raw: tuple[int, str], outputs: dict[str, Any]) -> None:
    rc, stdout = raw
    _require(rc == 0, f"suite exited with {rc}")
    doc = json.loads(stdout)
    _require(doc.get("ok") is True, "suite reports ok=false")
    criteria = doc["criteria"]
    _require(len(criteria) == 16, f"{len(criteria)} criteria instead of 16")
    for c in criteria:
        # the literal-log1p entry is a documented defect and must keep failing
        want = c["id"] != "8-literal"
        _require(c["passed"] is want, f"criterion {c['id']} passed={c['passed']}")


def _certify_jobs(seed: int, scale: str, work: Path) -> list[Job]:
    job = _cli_job("suite", ["suite", "--seed", str(seed)], work / "suite")
    job.check = _check_suite
    return [job]


def _coarse_jobs(seed: int, scale: str, work: Path) -> list[Job]:
    jobs = []
    for i, argv in enumerate(COARSE_COMMANDS[scale]):
        name = f"{i}-{argv[0]}"
        job = _cli_job(name, list(argv), work / name)

        def result(raw: tuple[int, str], out_dir: Path = work / name) -> dict[str, Any]:
            rc, stdout = raw
            return {"rc": rc, "stdout": json.loads(stdout), "csv": _read_csvs(out_dir)}

        job.result = result
        jobs.append(job)
    return jobs


# ----------------------------------------------------------------- wide jobs

def _far_pair(rng: random.Random, k: int, top: int):
    """Two arity-k tuples at the largest distance, k, with random entries.

    Every entry of one lies below every entry of the other, and the upper one
    ends at `top`.  The distance is fixed so that the cost of geodesic_path
    does not change with the seed.
    """
    import interlace as il

    half = top // 2
    low = il.itup(*sorted(rng.sample(range(1, half), k)))
    high = il.itup(*sorted(rng.sample(range(half, top), k - 1)), top)
    return (low, high) if rng.random() < 0.5 else (high, low)


def _two_branch_tree(rng: random.Random, depth: int):
    """Random values on two root-to-leaf paths of the given depth that fork at
    depth // 4; a fixed fork keeps the solver's cost the same for every seed."""
    import interlace as il

    fork = depth // 4
    stem = "".join(rng.choice("01") for _ in range(fork))
    legs = ["".join(rng.choice("01") for _ in range(depth - fork - 1)) for _ in "ab"]
    leaves = (stem + "0" + legs[0], stem + "1" + legs[1])
    nodes = sorted({leaf[:j] for leaf in leaves for j in range(depth + 1)})
    return il.TreeVec({node: rng.uniform(-1.0, 1.0) for node in nodes})


def _full_trees(rng: random.Random, count: int):
    import interlace as il

    nodes = ["".join(b) for d in range(4) for b in itertools.product("01", repeat=d)]
    return [il.TreeVec({node: rng.uniform(-1.0, 1.0) for node in nodes})
            for _ in range(count)]


def _wide_jobs(seed: int, scale: str, work: Path) -> list[Job]:
    import interlace as il

    size = WIDE_SIZES[scale]
    rng = random.Random(seed % WIDE_INPUT_SEEDS)
    jobs: list[Job] = []

    def add(name: str, run: Callable[[], Any], check=None, result=None) -> None:
        jobs.append(Job(name, run, check, result))

    def equals_bfs(tag: str):
        def check(raw: int, outputs: dict[str, Any]) -> None:
            oracle = outputs.get(f"bfs-{tag}")
            _require(raw == oracle, f"dist {raw} but the BFS oracle gives {oracle}")
        return check

    def geodesic_ok(n, m, tag: str):
        def check(path, outputs: dict[str, Any]) -> None:
            _require(len(path) == outputs.get(f"bfs-{tag}", -1) + 1,
                     "geodesic length is not the BFS distance")
            _require(path[0] == n and path[-1] == m, "geodesic endpoints are wrong")
            _require(all(il.is_adjacent(u, v) for u, v in zip(path, path[1:])),
                     "geodesic has a non-adjacent step")
        return check

    def distortion_ok(raw: tuple[float, float], outputs: dict[str, Any]) -> None:
        # summing_distortion_check certifies itself and raises on a violation
        ratio, upper = raw
        _require(0.5 <= ratio <= 1.0 and upper == 1.0, f"distortion ratios {raw}")

    def witness_ok(x):
        def check(raw, outputs: dict[str, Any]) -> None:
            value, witness = raw
            _require(abs(il.jt_family_value(x, witness) - value) <= REL_TOL * max(1.0, value),
                     "the witness family does not attain the reported norm")
        return check

    identity = lambda raw: raw  # noqa: E731
    pairs = [(2, _far_pair(rng, 2, size["top2"]))]
    pairs += [(4, _far_pair(rng, 4, size["top4"])) for _ in range(3)]
    for i, (k, (n, m)) in enumerate(pairs):
        tag = f"k{k}-{i}"
        add(f"dist-{tag}", lambda n=n, m=m: il.dist(n, m), equals_bfs(tag))
        add(f"bfs-{tag}", lambda n=n, m=m: il.dist_oracle_bfs(n, m))
        if k == 4:
            add(f"geodesic-{tag}", lambda n=n, m=m: il.geodesic_path(n, m),
                geodesic_ok(n, m, tag))
            add(f"distortion-{tag}", lambda n=n, m=m: il.summing_distortion_check(n, m),
                distortion_ok)

    L = size["seq_len"]
    freq, phase = rng.uniform(2.0, 8.0), rng.uniform(0.0, 2 * math.pi)
    sine = il.FinSeq(tuple(math.sin(2 * math.pi * freq * i / L + phase) for i in range(L)))
    noise = il.FinSeq(tuple(rng.uniform(-1.0, 1.0) for _ in range(L)))
    add("james-sine", lambda: il.james_norm(sine, 2.0), result=identity)
    add("james-uniform", lambda: il.james_norm(noise, 1.5), result=identity)

    vecs = {}
    for key in ("huber", "t_minus_log1p", "pow:3"):
        vecs[key] = vec = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-1.0, 1.0)
                           for _ in range(size["vec_len"])]
        add(f"orlicz-{key}", lambda v=vec, s=il.orlicz_fixture(key): il.orlicz_norm(v, s),
            result=identity)
    huber = il.orlicz_fixture("huber")
    add("n_norm-huber", lambda: il.n_norm(vecs["huber"], huber), result=identity)

    modulus, t = il.modulus_fixture("rational"), rng.uniform(0.5, 2.0)
    add("delta", lambda: il.delta_transform(modulus, t, steps=size["delta_steps"]),
        result=identity)

    spider = _two_branch_tree(rng, size["spider_depth"])
    add("jt-spider", lambda: il.jt_norm_exact(spider), witness_ok(spider),
        result=lambda raw: raw[0])
    for i, tree in enumerate(_full_trees(rng, size["full_trees"])):
        add(f"jt-full-{i}", lambda x=tree: il.jt_norm_exact(x), witness_ok(tree))
    return jobs


_BUILDERS = {"certify": _certify_jobs, "coarse": _coarse_jobs, "wide": _wide_jobs}


def build(workload: str, seed: int, scale: str) -> tuple[list[Job], list[Path]]:
    """The workload's jobs with their inputs generated, and its CSV output dirs."""
    work = WORK_DIR / workload
    jobs = _BUILDERS[workload](seed, scale, work)
    out_dirs = [work / job.name for job in jobs] if workload != "wide" else []
    return jobs, out_dirs


def check(job: Job, raw: Any, outputs: dict[str, Any], reference: dict[str, Any]) -> None:
    """Raise CheckFailed unless the job's output passes its oracle and reference."""
    if job.check is not None:
        job.check(raw, outputs)
    if job.result is not None:
        _require(job.name in reference, f"no reference output for job {job.name}")
        same(job.result(raw), reference[job.name])
