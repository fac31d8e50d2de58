"""Certificate suite: every quantitative guarantee of the library, run at desk scale.

Each criterion is written once, as a body `criterion_NN(seed) -> detail` that
makes its checks through `_check` and returns a one-line summary.  `_check`
raises `AssertionError` itself, so the checks also run under `python -O`,
which strips `assert` statements.  The `@_criterion(cid, name)` decorator
turns the body into a runner `(seed=DEFAULT_SEED) -> CriterionResult` of the
same name, which times the body and reports a failed check or any other
exception as a failed result, and appends the runner to the registry;
`CRITERIA` is that registry, in definition order.  pytest asserts the criteria
one by one and the CLI `suite` subcommand aggregates them into report files.
Random sampling is driven entirely by the seed, so reruns are bit-identical.

One criterion is special: the two-sided N-norm/Orlicz sandwich is also run
with the literal log(1+t) fixture, which is concave with slope limit 0 and
provably violates the sandwich (N_2(eps, M) -> 0 as eps -> 0 with M fixed).
That entry is marked expected_defect and counts as in-order when it FAILS.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import deque
from typing import Callable

from ._record import Record
from .graphs import (
    InterlacedTuple,
    dist,
    enumerate_tuples,
    geodesic_path,
    is_adjacent,
)
from .moduli import (
    MapSample,
    compute_moduli,
    constant_map_sample,
    equicoarse_report,
    g_map_sample,
    identity_map_sample,
    summing_map_sample,
)
from .orlicz import (
    OrliczSpec,
    delta_transform,
    modulus_fixture,
    n_norm,
    orlicz_fixture,
    orlicz_norm,
)
from .sequences import (
    FinSeq,
    james_norm,
    james_norm_bruteforce,
    summing_distortion_check,
    summing_image,
    sup_norm,
)
from .tree import (
    Branch,
    TreeVec,
    f_difference_segments,
    f_separation,
    g_embed,
    g_separation,
    jt_family_value,
    jt_norm_bruteforce,
    jt_norm_exact,
)

__all__ = ["CriterionResult", "run_all", "DEFAULT_SEED", "CRITERIA"]

DEFAULT_SEED = 402


class CriterionResult(Record):
    _fields = ("cid", "name", "passed", "detail", "seconds", "expected_defect")

    def __init__(
        self,
        cid: str,
        name: str,
        passed: bool,
        detail: str,
        seconds: float,
        expected_defect: bool = False,
    ) -> None:
        self._set(cid, name, passed, detail, seconds, expected_defect)

    @property
    def in_order(self) -> bool:
        """True when the outcome matches expectations (defect entries must fail)."""
        return (not self.passed) if self.expected_defect else self.passed


_REGISTRY: list[Callable[[int], CriterionResult]] = []


def _criterion(cid: str, name: str, expected_defect: bool = False) -> Callable:
    """Register `body(seed) -> detail` as criterion `cid`, timed, in definition order."""

    def register(body: Callable[[int], str]) -> Callable[[int], CriterionResult]:
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            start = time.perf_counter()
            try:
                detail = body(seed)
                passed = True
            except AssertionError as exc:
                passed = False
                detail = str(exc)
            except Exception as exc:  # report, never crash the suite
                passed = False
                detail = f"{type(exc).__name__}: {exc}"
            return CriterionResult(
                cid, name, passed, detail, time.perf_counter() - start, expected_defect
            )

        run.__name__ = run.__qualname__ = body.__name__  # spans and test ids read it
        _REGISTRY.append(run)
        return run

    return register


def _check(cond: bool, message: str, *args: object) -> None:
    """Raise AssertionError(message % args) unless `cond`; the message is formatted only then."""
    if not cond:
        raise AssertionError(message % args)


def _random_finseq(rng: random.Random, max_len: int, allow_tail: bool) -> FinSeq:
    L = rng.randint(0, max_len)
    vals = [rng.choice([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) for _ in range(L)]
    tail = rng.choice([0.0, 0.0, 0.0, 1.0, -0.5]) if allow_tail else 0.0
    return FinSeq(tuple(vals), tail)


def _box_levels(verts: list[InterlacedTuple]) -> list[list[int | None]]:
    """levels[i][j]: the BFS level of verts[j] from verts[i] in the graph on `verts`.

    The edges come from `is_adjacent` alone, one call per unordered pair, and
    one breadth-first search runs from each vertex; an unreached vertex has
    level None.  No metric formula is read.
    """
    nbrs: list[list[int]] = [[] for _ in verts]
    for (i, v), (j, w) in itertools.combinations(enumerate(verts), 2):
        if is_adjacent(v, w):
            nbrs[i].append(j)
            nbrs[j].append(i)
    levels = []
    for source in range(len(verts)):
        level: list[int | None] = [None] * len(verts)
        level[source] = 0
        queue = deque([source])
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if level[j] is None:
                    level[j] = level[i] + 1
                    queue.append(j)
        levels.append(level)
    return levels


@_criterion("1", "distance formula equals BFS oracle on [1..8]^k, k<=3")
def criterion_01(seed: int) -> str:
    # the oracle is the BFS level in the graph on the whole box, built from is_adjacent
    checked = 0
    for k in (1, 2, 3):
        verts = enumerate_tuples(range(1, 9), k)
        levels = _box_levels(verts)
        for (i, n), (j, m) in itertools.combinations_with_replacement(enumerate(verts), 2):
            d, o = dist(n, m), levels[i][j]
            _check(d == o, "dist(%s,%s)=%s but BFS gives %s", n, m, d, o)
            checked += 1
    return f"{checked} pairs agree exactly"


@_criterion("2", "geodesic paths are exact shortest paths")
def criterion_02(seed: int) -> str:
    checked = 0
    for k in (1, 2, 3):
        verts = enumerate_tuples(range(1, 9), k)
        for n, m in itertools.combinations_with_replacement(verts, 2):
            d = dist(n, m)
            path = geodesic_path(n, m)
            _check(len(path) == d + 1, "path length %s != dist %s", len(path) - 1, d)
            for u, v in zip(path, path[1:]):
                _check(is_adjacent(u, v), "non-adjacent step %s -> %s", u, v)
            checked += 1
    return f"{checked} geodesics have exact length with adjacent steps"


@_criterion("3", "tuple-box diameter equals the arity")
def criterion_03(seed: int) -> str:
    for k in range(1, 6):
        verts = enumerate_tuples(range(1, 2 * k + 1), k)
        diam = max(
            dist(a, b) for a, b in itertools.combinations(verts, 2)
        )
        _check(diam == k, "diameter over [1..%s]^%s is %s, expected %s", 2 * k, k, diam, k)
    return "diameter of [1..2k]^k equals k for k <= 5"


@_criterion("4", "summing embedding distorts by at most 2 into c0")
def criterion_04(seed: int) -> str:
    checked = 0
    for k in (1, 2, 3, 4):
        verts = enumerate_tuples(range(1, 11), k)
        imgs = [summing_image(v) for v in verts]  # each image built once
        pairs = zip(itertools.combinations(verts, 2), itertools.combinations(imgs, 2))
        for (n, m), images in pairs:
            ratio, _ = summing_distortion_check(n, m, images=images)  # raises on violation
            _check(0.5 <= ratio <= 1.0, "ratio %r outside [1/2, 1] at %s, %s", ratio, n, m)
            checked += 1
    return f"{checked} pairs certified within [1/2, 1] distortion"


@_criterion("5", "variation-norm DP equals the brute-force oracle")
def criterion_05(seed: int) -> str:
    rng = random.Random(seed + 5)
    for _ in range(500):
        x = _random_finseq(rng, 10, allow_tail=True)
        for p in (1.5, 2.0, 3.0):
            dp = james_norm(x, p)
            bf = james_norm_bruteforce(x, p)
            _check(abs(dp - bf) <= 1e-12 * max(1.0, bf), "DP %r vs brute %r for %s, p=%s",
                   dp, bf, x, p)
    return "500 sequences x 3 exponents agree to 1e-12 relative"


@_criterion("6", "variation norm satisfies the norm axioms")
def criterion_06(seed: int) -> str:
    rng = random.Random(seed + 6)
    for _ in range(1000):
        p = rng.choice([1.5, 2.0, 3.0])
        x = _random_finseq(rng, 8, allow_tail=False)
        y = _random_finseq(rng, 8, allow_tail=False)
        lam = rng.choice([-3.0, -0.5, 0.25, 2.0])
        nx, ny, nxy = james_norm(x, p), james_norm(y, p), james_norm(x + y, p)
        _check(nxy <= nx + ny + 1e-9, "triangle fails: %s, %s, p=%s", x, y, p)
        nlx = james_norm(lam * x, p)
        _check(abs(nlx - abs(lam) * nx) <= 1e-9 * max(1.0, nx),
               "homogeneity fails: %s, lambda=%s, p=%s", x, lam, p)
    for n in range(1, 21):
        s_n = FinSeq((1.0,) * n)
        for p in (1.5, 2.0, 3.0):
            _check(james_norm(s_n, p) == 1.0, "||s_%s|| != 1 at p=%s", n, p)
    return "1000 random axiom checks pass; ||s_n|| = 1 exactly for n <= 20"


@_criterion("7", "Orlicz norm with t^p reproduces the l_p norm")
def criterion_07(seed: int) -> str:
    rng = random.Random(seed + 7)
    for i in range(200):
        p = (1.5, 2.0, 3.0)[i % 3]
        L = rng.randint(1, 12)
        vec = [rng.uniform(-2, 2) for _ in range(L)]
        spec = orlicz_fixture(f"pow:{p}")
        got = orlicz_norm(vec, spec, tol=1e-10)
        want = sum(abs(v) ** p for v in vec) ** (1.0 / p)
        _check(abs(got - want) <= 1e-8 * max(1.0, want), "pow:%s norm %r vs l_p %r for %s",
               p, got, want, vec)
    return "200 vectors reproduce the l_p norm within 1e-8"


def _sandwich_body(spec: OrliczSpec, rng: random.Random, count: int) -> None:
    for _ in range(count):
        L = rng.randint(1, 20)
        vec = [rng.uniform(-3, 3) for _ in range(L)]
        if all(v == 0.0 for v in vec):
            continue
        base = orlicz_norm(vec, spec, tol=1e-10)
        if base == 0.0:
            continue
        value = n_norm(vec, spec)
        slack = 1e-8 * max(1.0, base)
        _check(0.5 * base - slack <= value <= math.e * base + slack,
               "sandwich fails for %s: N=%r, orlicz=%r, vec=%s", spec.name, value, base, vec)


@_criterion("8", "N-norm/Orlicz sandwich for admissible fixtures")
def criterion_08(seed: int) -> str:
    rng = random.Random(seed + 8)
    for key in ("identity", "t_minus_log1p", "huber"):
        _sandwich_body(orlicz_fixture(key), rng, 500)
    return "500 vectors per fixture stay within [1/2, e] of the Orlicz norm"


@_criterion(
    "8-literal",
    "N-norm sandwich with literal log(1+t) (documented defect: must fail)",
    expected_defect=True,
)
def criterion_08_literal_log1p(seed: int) -> str:
    # log(1+t) declared admissible by force; the sandwich genuinely fails
    forced = OrliczSpec(math.log1p, True, True, "log1p-forced")
    rng = random.Random(seed + 8)
    _sandwich_body(forced, rng, 500)
    return "sandwich unexpectedly held for log(1+t)"


@_criterion("9", "N-norm lattice monotonicity on dominated pairs")
def criterion_09(seed: int) -> str:
    rng = random.Random(seed + 9)
    for key in ("identity", "huber"):
        spec = orlicz_fixture(key)
        for _ in range(500):
            L = rng.randint(1, 20)
            big = [rng.uniform(-2, 2) * 10 ** rng.uniform(-2, 2) for _ in range(L)]
            small = [v * rng.uniform(0.0, 1.0) for v in big]
            ns, nb = n_norm(small, spec), n_norm(big, spec)
            _check(ns <= nb + 1e-12 * max(1.0, nb), "monotonicity fails for %s: %s vs %s",
                   key, small, big)
    return "500 dominated pairs per fixture are monotone to 1e-12"


@_criterion("10", "delta transform is sandwiched by its modulus")
def criterion_10(seed: int) -> str:
    for key in ("identity", "rational"):
        mod = modulus_fixture(key)
        for t in (0.1, 0.5, 1.0, 2.0):
            val = delta_transform(mod, t, steps=256)
            lo, hi = mod.fn(t / 2), mod.fn(t)
            _check(lo <= val * 1.01 + 1e-15, "%s: delta(%s)=%r < d*(t/2)=%r", key, t, val, lo)
            _check(val <= hi * 1.01 + 1e-15, "%s: delta(%s)=%r > d*(t)=%r", key, t, val, hi)
    return "d*(t/2) <= delta(t) <= d*(t) at t in {0.1, 0.5, 1, 2} for both fixtures"


def _random_two_branch(rng: random.Random) -> TreeVec:
    a = "".join(rng.choice("01") for _ in range(3))
    b = "".join(rng.choice("01") for _ in range(3))
    nodes = {nd[:j] for nd in (a, b) for j in range(4)}
    vals = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    return TreeVec({v: rng.choice(vals) for v in nodes})


@_criterion("11", "James-tree solvers agree and return sound witnesses")
def criterion_11(seed: int) -> str:
    rng = random.Random(seed + 11)
    for _ in range(300):
        x = _random_two_branch(rng)
        val, wit = jt_norm_exact(x)
        oracle = jt_norm_bruteforce(x)
        _check(abs(val - oracle) <= 1e-12 * max(1.0, val), "solver %r vs oracle %r on %s",
               val, oracle, x.entries)
        _check(abs(jt_family_value(x, wit) - val) <= 1e-12 * max(1.0, val),
               "the witness family does not attain %r on %s", val, x.entries)
    for _ in range(10):
        # on one path, disjoint segments are disjoint intervals: the norm is the
        # 2-variation of the partial sums, which start at 0 and keep their last value
        bits = "".join(rng.choice("01") for _ in range(63))
        vals = [rng.uniform(-1.0, 1.0) for _ in range(64)]
        val, _ = jt_norm_exact(TreeVec({bits[:j]: v for j, v in enumerate(vals)}))
        sums = tuple(itertools.accumulate(vals))
        want = james_norm(FinSeq((0.0, *sums), sums[-1]), 2.0)
        _check(abs(val - want) <= 1e-12 * want, "path norm %r vs variation norm %r", val, want)
    return ("300 two-branch vectors: exact solver = brute-force oracle, witnesses check out; "
            "10 64-node paths: norm = 2-variation of the partial sums")


@_criterion("12", "branch embedding certificates (1-Lipschitz, sqrt(k/2))")
def criterion_12(seed: int) -> str:
    sigma, tau = Branch("0" * 8), Branch("1" * 8)
    lips = 0
    for k in (1, 2, 4, 6):
        verts = enumerate_tuples(range(1, 9), k)
        imgs = [g_embed(sigma, v) for v in verts]  # each image built once
        pairs = zip(itertools.combinations(verts, 2), itertools.combinations(imgs, 2))
        for (n, m), (gn, gm) in pairs:
            if not is_adjacent(n, m):
                continue
            norm, _ = jt_norm_exact(gn - gm)
            _check(norm <= 1.0 + 1e-9, "Lipschitz bound fails at %s, %s: %r", n, m, norm)
            lips += 1
        for n in verts[: min(8, len(verts))]:
            want = math.sqrt(k / 2.0)
            got = g_separation(sigma, tau, n)
            _check(abs(got - want) <= 1e-12 * max(1.0, want),
                   "separation %r != sqrt(k/2) = %r at k=%s, n=%s", got, want, k, n)
    return f"{lips} adjacent pairs are 1-Lipschitz; separations equal sqrt(k/2)"


def _sample_adjacent(
    rng: random.Random, verts: list[InterlacedTuple], count: int
) -> list[tuple[InterlacedTuple, InterlacedTuple]]:
    """A uniform sample of min(count, #adjacent) adjacent pairs (n, m), n before m.

    A lazy Fisher-Yates shuffle of the V*V index pairs, its swaps kept in a
    dict: each draw r is unranked as divmod(r, V), and a pair with a < b is
    kept when `is_adjacent` accepts it.  The kept pairs come in the order of
    a uniform shuffle of the adjacent pairs, so the first `count` of them are
    as uniform a sample as the head of the shuffled filtered list, after about
    count * C(V, 2) / #adjacent adjacency calls instead of C(V, 2).
    """
    size = len(verts)
    total = size * size
    swaps: dict[int, int] = {}
    out: list[tuple[InterlacedTuple, InterlacedTuple]] = []
    for i in range(total):
        if len(out) == count:
            break
        j = rng.randrange(i, total)
        r = swaps.get(j, j)
        swaps[j] = swaps.get(i, i)
        a, b = divmod(r, size)
        if a < b and is_adjacent(verts[a], verts[b]):
            out.append((verts[a], verts[b]))
    return out


@_criterion("13", "dual-side embedding certificates (decomposition, sqrt(k))")
def criterion_13(seed: int) -> str:
    rng = random.Random(seed + 13)
    decompositions = 0
    for k in range(1, 10):
        top = k + 3
        sigma, tau = Branch("0" * top), Branch("1" * top)
        verts = enumerate_tuples(range(1, top + 1), k)
        for n, m in _sample_adjacent(rng, verts, 20):
            segs = f_difference_segments(sigma, n, m)  # verifies the identity
            coeff = 1.0 / math.sqrt(k)
            _check(len(segs) <= k, "%s segments for k=%s at %s, %s", len(segs), k, n, m)
            seen: set[str] = set()
            for seg in segs:
                for node in seg.nodes():
                    _check(node not in seen, "segments overlap")
                    seen.add(node)
            decompositions += 1
        n = verts[0]
        got = f_separation(sigma, tau, n)
        _check(got >= math.sqrt(k) - 1e-9, "f separation %r < sqrt(%s)", got, k)
    return f"{decompositions} adjacent differences decompose; separations >= sqrt(k)"


@_criterion("14", "empirical moduli bracket every sampled pair")
def criterion_14(seed: int) -> str:
    # the summing and branch samples score pairs from the walk profile; each
    # score is also checked against the norm of its image difference, with
    # the images built once per tuple (bit-equal in c0, 1e-12 relative in JT).
    # Each fixture is a full tuple box, so compute_moduli answers it from two
    # height patterns per threshold, and the bracket check compares those
    # answers against the rows that pair_distances reads from each pair's
    # profile.  The box is read three times, so its tuples are listed once
    sigma = Branch("0" * 5)
    fixtures = [
        ("identity", identity_map_sample(2, 5), None),
        ("constant", constant_map_sample(2, 5), None),
        ("summing", summing_map_sample(3, 8), (summing_image, sup_norm, 0.0)),
        (
            "branch",
            g_map_sample(2, 5),
            (lambda t: g_embed(sigma, t), lambda x: jt_norm_exact(x)[0], 1e-12),
        ),
    ]
    pairs = 0
    for name, sample, oracle in fixtures:
        report = compute_moduli(sample)
        lookup = dict(zip(report.thresholds, zip(report.rho_hat, report.omega_hat)))
        points = list(sample.points)
        if oracle is not None:
            embed, norm, rel = oracle
            images = {t: embed(t) for t in points}
        listed = MapSample(points, sample.d_source, sample.d_target)
        for (ds, dt), (n, m) in zip(
            listed.pair_distances(), itertools.combinations(points, 2)
        ):
            rho, omega = lookup[ds]
            _check(rho <= dt + 1e-12 and dt <= omega + 1e-12,
                   "%s: pair at distance %s has image distance %s outside [%s, %s]",
                   name, ds, dt, rho, omega)
            if oracle is not None:
                want = norm(images[n] - images[m])
                _check(abs(dt - want) <= rel * want,
                       "%s: profile score %r != image norm %r at %s, %s",
                       name, dt, want, n, m)
            pairs += 1
    return f"{pairs} pairs bracketed by the empirical moduli"


@_criterion("15", "summing family shows the non-concentration signature")
def criterion_15(seed: int) -> str:
    rows = equicoarse_report(
        [(k, summing_map_sample(k, 2 * k)) for k in (1, 2, 3, 4)]
    )
    for row in rows:
        _check(row.ratio >= row.k / 2.0 - 1e-12, "k=%s: ratio %r below k/2", row.k, row.ratio)
    detail = ", ".join(f"k={r.k}: {r.ratio:g}" for r in rows)
    return f"compression/expansion ratios grow: {detail}"


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = tuple(_REGISTRY)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run every criterion; deterministic for a fixed seed.  Reads `CRITERIA` at call time."""
    return [fn(seed) for fn in CRITERIA]
