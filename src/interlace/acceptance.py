"""Certificate suite: every quantitative guarantee of the library, run at desk scale.

Each criterion is a pure function returning a CriterionResult; pytest asserts
them one by one and the CLI `suite` subcommand aggregates them into report
files.  Random sampling is driven entirely by the seed, so reruns are
bit-identical.

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
from dataclasses import dataclass
from typing import Callable

from .graphs import (
    InterlacedTuple,
    dist,
    dist_oracle_bfs,
    enumerate_tuples,
    geodesic_path,
    is_adjacent,
)
from .moduli import (
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


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    seconds: float
    expected_defect: bool = False

    @property
    def in_order(self) -> bool:
        """True when the outcome matches expectations (defect entries must fail)."""
        return (not self.passed) if self.expected_defect else self.passed


def _timed(
    cid: str, name: str, body: Callable[[], str], expected_defect: bool = False
) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = body()
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


def _random_finseq(rng: random.Random, max_len: int, allow_tail: bool) -> FinSeq:
    L = rng.randint(0, max_len)
    vals = [rng.choice([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) for _ in range(L)]
    tail = rng.choice([0.0, 0.0, 0.0, 1.0, -0.5]) if allow_tail else 0.0
    return FinSeq(tuple(vals), tail)


def criterion_01(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        checked = 0
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.combinations_with_replacement(verts, 2):
                d, o = dist(n, m), dist_oracle_bfs(n, m)
                assert d == o, f"dist({n},{m})={d} but BFS gives {o}"
                checked += 1
        return f"{checked} pairs agree exactly"

    return _timed("1", "distance formula equals BFS oracle on [1..8]^k, k<=3", body)


def criterion_02(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        checked = 0
        for k in (1, 2, 3):
            verts = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.combinations_with_replacement(verts, 2):
                d = dist(n, m)
                path = geodesic_path(n, m)
                assert len(path) == d + 1, f"path length {len(path)-1} != dist {d}"
                for u, v in zip(path, path[1:]):
                    assert is_adjacent(u, v), f"non-adjacent step {u} -> {v}"
                checked += 1
        return f"{checked} geodesics have exact length with adjacent steps"

    return _timed("2", "geodesic paths are exact shortest paths", body)


def criterion_03(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        for k in range(1, 6):
            verts = enumerate_tuples(range(1, 2 * k + 1), k)
            diam = max(
                dist(a, b) for a, b in itertools.combinations(verts, 2)
            )
            assert diam == k, f"diameter over [1..{2*k}]^{k} is {diam}, expected {k}"
        return "diameter of [1..2k]^k equals k for k <= 5"

    return _timed("3", "tuple-box diameter equals the arity", body)


def criterion_04(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        checked = 0
        for k in (1, 2, 3, 4):
            verts = enumerate_tuples(range(1, 11), k)
            for n, m in itertools.combinations(verts, 2):
                ratio, _ = summing_distortion_check(n, m)  # raises on violation
                assert 0.5 <= ratio <= 1.0
                checked += 1
        return f"{checked} pairs certified within [1/2, 1] distortion"

    return _timed("4", "summing embedding distorts by at most 2 into c0", body)


def criterion_05(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 5)
        for _ in range(500):
            x = _random_finseq(rng, 10, allow_tail=True)
            for p in (1.5, 2.0, 3.0):
                dp = james_norm(x, p)
                bf = james_norm_bruteforce(x, p)
                assert abs(dp - bf) <= 1e-12 * max(1.0, bf), (
                    f"DP {dp!r} vs brute {bf!r} for {x}, p={p}"
                )
        return "500 sequences x 3 exponents agree to 1e-12 relative"

    return _timed("5", "variation-norm DP equals the brute-force oracle", body)


def criterion_06(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 6)
        for _ in range(1000):
            p = rng.choice([1.5, 2.0, 3.0])
            x = _random_finseq(rng, 8, allow_tail=False)
            y = _random_finseq(rng, 8, allow_tail=False)
            lam = rng.choice([-3.0, -0.5, 0.25, 2.0])
            nx, ny, nxy = james_norm(x, p), james_norm(y, p), james_norm(x + y, p)
            assert nxy <= nx + ny + 1e-9, f"triangle fails: {x}, {y}, p={p}"
            nlx = james_norm(lam * x, p)
            assert abs(nlx - abs(lam) * nx) <= 1e-9 * max(1.0, nx), (
                f"homogeneity fails: {x}, lambda={lam}, p={p}"
            )
        for n in range(1, 21):
            s_n = FinSeq((1.0,) * n)
            for p in (1.5, 2.0, 3.0):
                assert james_norm(s_n, p) == 1.0, f"||s_{n}|| != 1 at p={p}"
        return "1000 random axiom checks pass; ||s_n|| = 1 exactly for n <= 20"

    return _timed("6", "variation norm satisfies the norm axioms", body)


def criterion_07(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 7)
        for i in range(200):
            p = (1.5, 2.0, 3.0)[i % 3]
            L = rng.randint(1, 12)
            vec = [rng.uniform(-2, 2) for _ in range(L)]
            spec = orlicz_fixture(f"pow:{p}")
            got = orlicz_norm(vec, spec, tol=1e-10)
            want = sum(abs(v) ** p for v in vec) ** (1.0 / p)
            assert abs(got - want) <= 1e-8 * max(1.0, want), (
                f"pow:{p} norm {got!r} vs l_p {want!r} for {vec}"
            )
        return "200 vectors reproduce the l_p norm within 1e-8"

    return _timed("7", "Orlicz norm with t^p reproduces the l_p norm", body)


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
        assert 0.5 * base - slack <= value <= math.e * base + slack, (
            f"sandwich fails for {spec.name}: N={value!r}, orlicz={base!r}, vec={vec}"
        )


def criterion_08(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 8)
        for key in ("identity", "t_minus_log1p", "huber"):
            _sandwich_body(orlicz_fixture(key), rng, 500)
        return "500 vectors per fixture stay within [1/2, e] of the Orlicz norm"

    return _timed("8", "N-norm/Orlicz sandwich for admissible fixtures", body)


def criterion_08_literal_log1p(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        # log(1+t) declared admissible by force; the sandwich genuinely fails
        forced = OrliczSpec(math.log1p, True, True, "log1p-forced")
        rng = random.Random(seed + 8)
        _sandwich_body(forced, rng, 500)
        return "sandwich unexpectedly held for log(1+t)"

    return _timed(
        "8-literal",
        "N-norm sandwich with literal log(1+t) (documented defect: must fail)",
        body,
        expected_defect=True,
    )


def criterion_09(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 9)
        for key in ("identity", "huber"):
            spec = orlicz_fixture(key)
            for _ in range(500):
                L = rng.randint(1, 20)
                big = [rng.uniform(-2, 2) * 10 ** rng.uniform(-2, 2) for _ in range(L)]
                small = [v * rng.uniform(0.0, 1.0) for v in big]
                ns, nb = n_norm(small, spec), n_norm(big, spec)
                assert ns <= nb + 1e-12 * max(1.0, nb), (
                    f"monotonicity fails for {key}: {small} vs {big}"
                )
        return "500 dominated pairs per fixture are monotone to 1e-12"

    return _timed("9", "N-norm lattice monotonicity on dominated pairs", body)


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        for key in ("identity", "rational"):
            mod = modulus_fixture(key)
            for t in (0.1, 0.5, 1.0, 2.0):
                val = delta_transform(mod, t, steps=256)
                lo, hi = mod.fn(t / 2), mod.fn(t)
                assert lo <= val * 1.01 + 1e-15, f"{key}: delta({t})={val!r} < d*(t/2)={lo!r}"
                assert val <= hi * 1.01 + 1e-15, f"{key}: delta({t})={val!r} > d*(t)={hi!r}"
        return "d*(t/2) <= delta(t) <= d*(t) at t in {0.1, 0.5, 1, 2} for both fixtures"

    return _timed("10", "delta transform is sandwiched by its modulus", body)


def _random_two_branch(rng: random.Random) -> TreeVec:
    a = "".join(rng.choice("01") for _ in range(3))
    b = "".join(rng.choice("01") for _ in range(3))
    nodes = {nd[:j] for nd in (a, b) for j in range(4)}
    vals = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    return TreeVec({v: rng.choice(vals) for v in nodes})


def criterion_11(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 11)
        for _ in range(300):
            x = _random_two_branch(rng)
            val, wit = jt_norm_exact(x)
            oracle = jt_norm_bruteforce(x)
            assert abs(val - oracle) <= 1e-12 * max(1.0, val), (
                f"solver {val!r} vs oracle {oracle!r} on {x.entries}"
            )
            assert abs(jt_family_value(x, wit) - val) <= 1e-12 * max(1.0, val)
        return "300 two-branch vectors: exact solver = brute-force oracle, witnesses check out"

    return _timed("11", "James-tree solvers agree and return sound witnesses", body)


def criterion_12(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        sigma, tau = Branch("0" * 8), Branch("1" * 8)
        lips = 0
        for k in (1, 2, 4, 6):
            verts = enumerate_tuples(range(1, 9), k)
            for n, m in itertools.combinations(verts, 2):
                if not is_adjacent(n, m):
                    continue
                diff = g_embed(sigma, n) - g_embed(sigma, m)
                norm, _ = jt_norm_exact(diff)
                assert norm <= 1.0 + 1e-9, f"Lipschitz bound fails at {n}, {m}: {norm!r}"
                lips += 1
            for n in verts[: min(8, len(verts))]:
                want = math.sqrt(k / 2.0)
                got = g_separation(sigma, tau, n)
                assert abs(got - want) <= 1e-12 * max(1.0, want), (
                    f"separation {got!r} != sqrt(k/2) = {want!r} at k={k}, n={n}"
                )
        return f"{lips} adjacent pairs are 1-Lipschitz; separations equal sqrt(k/2)"

    return _timed("12", "branch embedding certificates (1-Lipschitz, sqrt(k/2))", body)


def criterion_13(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rng = random.Random(seed + 13)
        decompositions = 0
        for k in range(1, 10):
            top = k + 3
            sigma, tau = Branch("0" * top), Branch("1" * top)
            verts = enumerate_tuples(range(1, top + 1), k)
            adj = [
                (n, m)
                for n, m in itertools.combinations(verts, 2)
                if is_adjacent(n, m)
            ]
            rng.shuffle(adj)
            for n, m in adj[:20]:
                segs = f_difference_segments(sigma, n, m)  # verifies the identity
                coeff = 1.0 / math.sqrt(k)
                assert len(segs) <= k
                seen: set[str] = set()
                for seg in segs:
                    for node in seg.nodes():
                        assert node not in seen, "segments overlap"
                        seen.add(node)
                decompositions += 1
            n = verts[0]
            got = f_separation(sigma, tau, n)
            assert got >= math.sqrt(k) - 1e-9, f"f separation {got!r} < sqrt({k})"
        return f"{decompositions} adjacent differences decompose; separations >= sqrt(k)"

    return _timed("13", "dual-side embedding certificates (decomposition, sqrt(k))", body)


def criterion_14(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        fixtures = [
            ("identity", identity_map_sample(2, 5)),
            ("constant", constant_map_sample(2, 5)),
            ("summing", summing_map_sample(3, 8)),
            ("branch", g_map_sample(2, 5)),
        ]
        pairs = 0
        for name, sample in fixtures:
            report = compute_moduli(sample)
            lookup = dict(zip(report.thresholds, zip(report.rho_hat, report.omega_hat)))
            for ds, dt in sample.pair_distances():
                rho, omega = lookup[ds]
                assert rho <= dt + 1e-12 and dt <= omega + 1e-12, (
                    f"{name}: pair at distance {ds} has image distance {dt} "
                    f"outside [{rho}, {omega}]"
                )
                pairs += 1
        return f"{pairs} pairs bracketed by the empirical moduli"

    return _timed("14", "empirical moduli bracket every sampled pair", body)


def criterion_15(seed: int = DEFAULT_SEED) -> CriterionResult:
    def body() -> str:
        rows = equicoarse_report(
            [(k, summing_map_sample(k, 2 * k)) for k in (1, 2, 3, 4)]
        )
        for row in rows:
            assert row.ratio >= row.k / 2.0 - 1e-12, (
                f"k={row.k}: ratio {row.ratio!r} below k/2"
            )
        detail = ", ".join(f"k={r.k}: {r.ratio:g}" for r in rows)
        return f"compression/expansion ratios grow: {detail}"

    return _timed("15", "summing family shows the non-concentration signature", body)


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_08_literal_log1p,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
    criterion_15,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run every criterion; deterministic for a fixed seed."""
    return [fn(seed) for fn in CRITERIA]
