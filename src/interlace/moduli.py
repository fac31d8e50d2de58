"""Empirical compression/expansion moduli, Lipschitz constants, and concentration probes.

For a map f between metric spaces the compression and expansion moduli are

    rho_f(t) = inf { d(f(x), f(y)) : d(x, y) >= t }      (inf of empty set = inf)
    omega_f(t) = sup { d(f(x), f(y)) : d(x, y) <= t }    (sup of empty set = 0)

Computed over a finite sample these are empirical bounds only: the reported
rho_hat dominates the true compression restricted to the sample and omega_hat
is dominated by the true expansion, so reports must not be over-read.  On a
graph-metric source omega_hat(1) is the Lipschitz constant.  The concentration
probe searches for a small sub-universe on which the image of the tuple graph
has small diameter; a finite search cannot certify the infinite concentration
phenomenon, so its verdict is observational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .errors import InvalidInput, ResourceLimit
from .graphs import InterlacedTuple, dist, enumerate_tuples
from .sequences import FinSeq, summing_image, sup_norm
from .tree import Branch, g_embed, jt_norm_exact

__all__ = [
    "MapSample",
    "ModuliReport",
    "EquicoarseRow",
    "ProbeResult",
    "compute_moduli",
    "lipschitz_constant",
    "concentration_probe",
    "equicoarse_report",
    "summing_map_sample",
    "g_map_sample",
    "identity_map_sample",
    "constant_map_sample",
]

EXHAUSTIVE_PROBE_CAP = 12


@dataclass
class MapSample:
    """A finite map sample: source points and their images, with both metrics.

    Pair enumeration treats the metric callbacks as pure functions.
    """

    points: Sequence[Any]
    d_source: Callable[[Any, Any], float]
    images: Sequence[Any]
    d_target: Callable[[Any, Any], float]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.images):
            raise InvalidInput("points and images must have equal length")
        if len(self.points) < 2:
            raise InvalidInput("a sample needs at least two points")

    def pair_distances(self) -> list[tuple[float, float]]:
        """(source distance, image distance) per pair, in `itertools.combinations` order."""
        out = []
        for i, j in itertools.combinations(range(len(self.points)), 2):
            ds = float(self.d_source(self.points[i], self.points[j]))
            dt = float(self.d_target(self.images[i], self.images[j]))
            out.append((ds, dt))
        return out


@dataclass(frozen=True)
class ModuliReport:
    """Empirical moduli per threshold; math.inf marks an empty compression constraint."""

    thresholds: tuple[float, ...]
    rho_hat: tuple[float, ...]
    omega_hat: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.thresholds) == len(self.rho_hat) == len(self.omega_hat)):
            raise InvalidInput("report columns must have equal length")
        for seq in (self.rho_hat, self.omega_hat):
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise AssertionError("empirical moduli must be non-decreasing")

    def rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds, self.rho_hat, self.omega_hat))


@dataclass(frozen=True)
class EquicoarseRow:
    k: int
    rho_at_k: float
    omega_at_1: float
    ratio: float


@dataclass(frozen=True)
class ProbeResult:
    subset: tuple[int, ...]
    diameter: float
    concentrated: bool
    omega_1: float


def compute_moduli(
    sample: MapSample, thresholds: Sequence[float] | None = None
) -> ModuliReport:
    """Empirical rho/omega over all sample pairs at the given thresholds.

    Thresholds default to the realized source distances.
    """
    pairs = sample.pair_distances()
    if thresholds is None:
        ts = sorted({ds for ds, _ in pairs})
    else:
        ts = sorted(float(t) for t in thresholds)
        if not all(t >= 0 for t in ts):  # NaN fails too
            raise InvalidInput(f"thresholds must be non-negative numbers: {ts}")
    rho, omega = [], []
    for t in ts:
        lo = [dt for ds, dt in pairs if ds >= t]
        hi = [dt for ds, dt in pairs if ds <= t]
        rho.append(min(lo) if lo else math.inf)
        omega.append(max(hi) if hi else 0.0)
    return ModuliReport(tuple(ts), tuple(rho), tuple(omega))


def lipschitz_constant(sample: MapSample) -> float:
    """omega_hat(1) on a graph-metric source; checked against the max pair ratio.

    On a graph metric the two agree provided the sample contains its own
    geodesics (true for full tuple boxes); a mismatch raises rather than
    returning a silently wrong constant.
    """
    pairs = sample.pair_distances()
    for ds, _ in pairs:
        if ds < 0 or abs(ds - round(ds)) > 1e-9:
            raise InvalidInput("source distances must form an integer graph metric")
    omega_1 = max((dt for ds, dt in pairs if ds <= 1.0), default=0.0)
    ratio = max((dt / ds for ds, dt in pairs if ds > 0), default=0.0)
    if abs(omega_1 - ratio) > 1e-9 * max(1.0, ratio):
        raise AssertionError(
            f"omega_hat(1)={omega_1:g} != max ratio {ratio:g}; "
            "the sample must contain its own geodesics"
        )
    return omega_1


def concentration_probe(
    f: Callable[[InterlacedTuple], Any],
    d_target: Callable[[Any, Any], float],
    universe: Iterable[int],
    k: int,
    c: float,
    mode: str = "greedy",
    subset_size: int | None = None,
) -> ProbeResult:
    """Search for a sub-universe M with image diameter <= c * omega_hat(1).

    Greedy mode repeatedly removes the element whose removal most reduces the
    image diameter of the arity-k tuples over M, stopping at |M| = k + 1 or at
    a local minimum.  Exhaustive mode (|U| <= 12) scans every subset of size
    `subset_size`, which defaults to 2k: that is the smallest sub-universe
    whose tuple graph attains the full diameter k.  Anything smaller is
    degenerate -- over k + 1 elements all tuples are pairwise adjacent, so the
    flag would hold trivially.  The flag is observational either way: no
    finite search proves concentration.

    Each image distance is evaluated once, whatever the mode.  The table keeps the
    largest image distance per union of element masks, sorted decreasingly; the
    diameter of a subset is the first entry whose mask lies inside it.
    """
    c = float(c)
    if not (math.isfinite(c) and c >= 0.0):
        raise InvalidInput(f"c must be finite and >= 0, got {c!r}")
    uni = sorted(set(int(v) for v in universe))
    if len(uni) < k + 1:
        raise InvalidInput("universe must have at least k + 1 elements")
    if mode == "exhaustive":
        if len(uni) > EXHAUSTIVE_PROBE_CAP:
            raise ResourceLimit(f"exhaustive probe capped at |U| <= {EXHAUSTIVE_PROBE_CAP}")
        size = 2 * k if subset_size is None else int(subset_size)
        if not (k + 1 <= size <= len(uni)):
            raise InvalidInput(
                f"subset size {size} must lie in [k + 1, |U|] = [{k + 1}, {len(uni)}]"
            )
    elif mode != "greedy":
        raise InvalidInput(f"unknown probe mode {mode!r}")
    all_tuples = enumerate_tuples(uni, k)
    pairs = MapSample(all_tuples, dist, [f(t) for t in all_tuples], d_target).pair_distances()
    omega_1 = max((dt for ds, dt in pairs if ds <= 1.0), default=0.0)

    bit = {v: 1 << i for i, v in enumerate(uni)}
    masks = [sum(bit[v] for v in t) for t in all_tuples]
    widest: dict[int, float] = {}
    for (_, dt), (a, b) in zip(pairs, itertools.combinations(masks, 2)):
        widest[a | b] = max(widest.get(a | b, 0.0), dt)
    table = sorted(((dt, mask) for mask, dt in widest.items()), reverse=True)

    def diameter(subset: Iterable[int]) -> float:
        outside = ~sum(bit[v] for v in subset)
        return next((d for d, mask in table if not mask & outside), 0.0)

    if mode == "greedy":
        current = list(uni)
        diam = diameter(current)
        while len(current) > k + 1:
            best_u, best_diam = None, diam
            for u in current:
                d = diameter([v for v in current if v != u])
                if d < best_diam:
                    best_u, best_diam = u, d
            if best_u is None:
                break
            current.remove(best_u)
            diam = best_diam
        subset, diam_best = tuple(current), diam
    else:
        subset, diam_best = (), math.inf
        for cand in itertools.combinations(uni, size):
            d = diameter(cand)
            if d < diam_best:
                subset, diam_best = cand, d

    flag = diam_best <= c * omega_1 + 1e-12
    return ProbeResult(subset, diam_best, flag, omega_1)


def equicoarse_report(
    samples_by_k: Sequence[tuple[int, MapSample]]
) -> list[EquicoarseRow]:
    """Per arity k: rho_hat(k), omega_hat(1), and their ratio.

    Growth of the ratio across k is the finite signature of non-concentration:
    a family admitting common moduli would keep rho(k) <= C * omega(1).
    """
    rows = []
    for k, sample in samples_by_k:
        report = compute_moduli(sample, thresholds=[1.0, float(k)])
        rho_k = report.rho_hat[-1]
        omega_1 = report.omega_hat[0]
        if rho_k == 0.0:
            ratio = 0.0
        elif omega_1 == 0.0:
            ratio = math.inf
        else:
            ratio = rho_k / omega_1
        rows.append(EquicoarseRow(k, rho_k, omega_1, ratio))
    return rows


# ---------------------------------------------------------------------------
# Canonical samples used by the demos, the CLI, and the certificate suites.
# ---------------------------------------------------------------------------

def summing_map_sample(k: int, max_entry: int) -> MapSample:
    """Summing-basis embedding of the arity-k tuples over {1..max_entry} into c0."""
    pts = enumerate_tuples(range(1, max_entry + 1), k)
    imgs = [summing_image(t) for t in pts]
    return MapSample(
        pts,
        dist,
        imgs,
        lambda x, y: sup_norm(x - y),
    )


def g_map_sample(k: int, max_entry: int) -> MapSample:
    """Branch embedding into the James-tree space, measured by jt_norm_exact."""
    sigma = Branch("0" * max_entry)
    pts = enumerate_tuples(range(1, max_entry + 1), k)
    imgs = [g_embed(sigma, t) for t in pts]
    return MapSample(
        pts,
        dist,
        imgs,
        lambda x, y: jt_norm_exact(x - y)[0],
    )


def identity_map_sample(k: int, max_entry: int) -> MapSample:
    """The identity map on a tuple box; moduli collapse onto the diagonal."""
    pts = enumerate_tuples(range(1, max_entry + 1), k)
    return MapSample(pts, dist, list(pts), dist)


def constant_map_sample(k: int, max_entry: int) -> MapSample:
    """A constant map; expansion vanishes identically."""
    pts = enumerate_tuples(range(1, max_entry + 1), k)
    zero = FinSeq()
    return MapSample(
        pts,
        dist,
        [zero] * len(pts),
        lambda x, y: sup_norm(x - y),
    )
