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

A sample reads its map through the target metric alone: `d_target(n, m)`
is the distance between the images of the points n and m, and no image is
held.  The canonical samples below score a pair of tuples from the heights
h = (0, h_1, ..., h_r) of its walk profile alone, F(0) and then F at each
element of n △ m, as one merge lists them flat (`graphs._walk`):

    summing   ||s(n) - s(m)||_inf = max |h|      (the difference at j is -F(j-1))
    g         ||g(n) - g(m)||_JT  = (2k)^(-1/2) var_2(h)
    identity  dist(n, m)          = max h - min h
    constant  0

since the branch map into JT is the summing map into J_2, rescaled.  No score
builds a `FinSeq` or `TreeVec` difference; the norms of the image differences
(`sup_norm` of `summing_image` differences, `jt_norm_exact` of `g_embed`
differences) are the independent side, checked by criterion 14.  As the source
distance is a function of h too, `MapSample.pair_distances` reads each pair's
profile once for such a sample and scores each distinct h once, from a table
that lives for that one call.  `compute_moduli`, `lipschitz_constant`,
`equicoarse_report` and the concentration probe need only extremal rows of
that table, and a full tuple box, every arity-k tuple over a universe U, has
them without a pair.  The canonical samples hold their box as a `TupleBox`,
which the moduli layer knows by its type: it is (U, k), and no answer about
it builds a tuple, so the cost of an answer is set by k and the thresholds,
not by C(|U|, k).  Its pairs realise exactly the h of the balanced +-1
step patterns of 2j steps that start with +1, 1 <= j <= J = min(k, |U| - k),
and two builders give every extremum:

    _peaks(j, t)    j // t peaks of height t, then one of height j % t:
                    2j steps, range min(t, j)
    _balanced(t)    a = ceil(t/2) up, t down, t - a up

Lemma.  Among the box patterns of range <= t, every canonical score is
largest at _peaks(J, min(t, J)); among those of range >= t, for t <= J, it
is smallest at _balanced(t).

Proof.  Close a pattern's chain at 0 at both ends: its ups and its downs
each sum to at most J.  Each step is at most t, so by convexity
var_2(h)^2 <= 2(q t^2 + r^2) with (q, r) = divmod(J, t), and _peaks attains
this, and max |h| = max h - min h = min(t, J) too.  A walk of range >= t has
the chain 0 -> max -> min -> 0 (or 0 -> min -> max -> 0), so
var_2(h)^2 >= min_a (a^2 + t^2 + (t - a)^2) and max |h| >= ceil(t/2), and
_balanced attains both minima.  Every canonical score is a function of one
exact integer, max |h|, the range or var_2(h)^2 (a sum of integers below
2^53), so any maximiser or minimiser gives the same float.

So rho_hat(t) is the score of _balanced(max(1, ceil t)) for t <= J and inf
beyond, and omega_hat(t) the score of _peaks(J, min(floor t, J)) for t >= 1
and 0.0 below.  `_box_scores` is that rule, and the one place that picks a
pattern: a box table maps it over the thresholds, an equicoarse row reads
omega_hat(1) and rho_hat(k), and, as the tuples over an s-element
sub-universe form a full box too, the probe's diameter D(s) is omega_hat(inf)
of that box, the score of _peaks(j, j), j = min(k, s - k).  Each answer is
the score of one pattern the pairs realise, so every float is one the pair
table gives.  A pattern of distance J holds 2J + 1 heights, so one box
answer scores at most about 4J per threshold and 4k per equicoarse row;
above BOX_HEIGHTS_CAP heights in all it is ResourceLimit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Iterable, Sequence

from ._record import Record
from .errors import InvalidInput, ResourceLimit, _number, _short_repr
from .graphs import InterlacedTuple, TupleBox, _check_arity, _universe, _walk, dist
from .sequences import FinSeq, james_norm

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
BOX_HEIGHTS_CAP = 4 * 10**6  # the most pattern heights one box answer scores


class MapSample(Record):
    """A finite map sample: source points, their metric, and the target metric.

    d_target(n, m) is the distance between the images of the points n and m,
    so the map is read through it alone.  The points are a sequence or a
    `TupleBox`, which is never counted here: its C(|U|, k) tuples outgrow
    `len()`.  Pair enumeration treats the metric callbacks as pure
    functions.  Its fields can be assigned, so it has no hash.
    """

    _fields = ("points", "d_source", "d_target")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        points: Sequence[Any] | TupleBox,
        d_source: Callable[[Any, Any], float],
        d_target: Callable[[Any, Any], float],
    ) -> None:
        # a box holds one tuple when |U| = k, and at least two otherwise
        if points.size == points.k if isinstance(points, TupleBox) else len(points) < 2:
            raise InvalidInput("a sample needs at least two points")
        self._set(points, d_source, d_target)

    def pair_distances(self) -> list[tuple[float, float]]:
        """(source distance, image distance) per pair, in `itertools.combinations` order.

        When the source metric is `dist` and the target metric a height score,
        both distances are functions of the pair's profile heights h: each
        pair's profile is read once, and each distinct h is scored once, in a
        table kept for this call only.  Any other sample evaluates both
        callbacks on every pair.
        """
        points, score = self.points, self.d_target
        if self._scored_by_heights():
            # _walk rejects mixed arities, so a returned table has one k
            table: dict[tuple[int, ...], tuple[float, float]] = {}
            out = []
            for n, m in itertools.combinations(points, 2):
                h = _heights(n, m)
                row = table.get(h)
                if row is None:
                    k = n.arity
                    row = table[h] = (_dist_of_heights(k, h), score.of_heights(k, h))
                out.append(row)
            return out
        return [
            (float(self.d_source(n, m)), float(score(n, m)))
            for n, m in itertools.combinations(points, 2)
        ]

    def _scored_by_heights(self) -> bool:
        """True when both distances of a pair are functions of its profile heights:
        the source metric is `dist` and the target metric a height score."""
        return self.d_source is dist and isinstance(self.d_target, _HeightScore)


class ModuliReport(Record):
    """Empirical moduli per threshold; math.inf marks an empty compression constraint."""

    _fields = ("thresholds", "rho_hat", "omega_hat")

    def __init__(
        self,
        thresholds: tuple[float, ...],
        rho_hat: tuple[float, ...],
        omega_hat: tuple[float, ...],
    ) -> None:
        if not (len(thresholds) == len(rho_hat) == len(omega_hat)):
            raise InvalidInput("report columns must have equal length")
        for seq in (rho_hat, omega_hat):
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise AssertionError("empirical moduli must be non-decreasing")
        self._set(thresholds, rho_hat, omega_hat)

    def rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds, self.rho_hat, self.omega_hat))


class EquicoarseRow(Record):
    _fields = ("k", "rho_at_k", "omega_at_1", "ratio")

    def __init__(self, k: int, rho_at_k: float, omega_at_1: float, ratio: float) -> None:
        self._set(k, rho_at_k, omega_at_1, ratio)


class ProbeResult(Record):
    _fields = ("subset", "diameter", "concentrated", "omega_1")

    def __init__(
        self, subset: tuple[int, ...], diameter: float, concentrated: bool, omega_1: float
    ) -> None:
        self._set(subset, diameter, concentrated, omega_1)


def _threshold(value: Any, what: str) -> float:
    """The value as a float; one that is not a number >= 0 is InvalidInput naming it."""
    return _number(value, f"{what} must be non-negative numbers", lambda t: t >= 0)


def compute_moduli(
    sample: MapSample, thresholds: Sequence[float] | None = None
) -> ModuliReport:
    """Empirical rho/omega over all sample pairs at the given thresholds.

    Thresholds default to the realized source distances.  A height-scored
    `TupleBox` reads no pair and builds no tuple: its thresholds default to
    the box's distances 1..J, and each scores one `_balanced` and one
    `_peaks` pattern (`_box_scores`), at most 4J + 2 heights, so T
    thresholds above BOX_HEIGHTS_CAP / 4J are ResourceLimit: the default
    table stops at J = 1000.  Any other sample, a list of every tuple of a
    box included, scans the distinct rows of its pair table once per
    threshold.
    """
    ts = None if thresholds is None else sorted(_threshold(t, "thresholds") for t in thresholds)
    box = sample.points
    if isinstance(box, TupleBox) and sample._scored_by_heights():
        j, rho, omega = _box_scores(box.k, box.size, sample.d_target)
        n = j if ts is None else len(ts)
        _check_box_heights(
            4 * j * n, f"a box table of {_short_repr(n)} thresholds at J = {_short_repr(j)}"
        )
        if ts is None:
            ts = [float(t) for t in range(1, j + 1)]
        return ModuliReport(tuple(ts), tuple(map(rho, ts)), tuple(map(omega, ts)))
    # dropping repeats keeps first occurrences in order, so a min or max scan
    # returns what it returns over the pairs, NaN included
    rows = dict.fromkeys(sample.pair_distances())
    if ts is None:
        ts = sorted({_threshold(ds, "source distances") for ds, _ in rows})
    rho, omega = [], []
    for t in ts:
        lo = [dt for ds, dt in rows if ds >= t]
        hi = [dt for ds, dt in rows if ds <= t]
        rho.append(min(lo) if lo else math.inf)
        omega.append(max(hi) if hi else 0.0)
    return ModuliReport(tuple(ts), tuple(rho), tuple(omega))


def lipschitz_constant(sample: MapSample) -> float:
    """omega_hat(1) on a graph-metric source; checked against the max pair ratio.

    Both are read from `compute_moduli(sample)`: omega_hat(1) at the largest
    threshold <= 1, and the largest ratio omega_hat(t) / t, which equals the
    largest pair ratio d_target / d_source because the thresholds are the
    realized distances.  On a graph metric the two agree provided the sample
    contains its own geodesics (true for full tuple boxes); a mismatch raises
    rather than returning a silently wrong constant.
    """
    report = compute_moduli(sample)
    if not all(math.isfinite(t) and abs(t - round(t)) <= 1e-9 for t in report.thresholds):
        raise InvalidInput("source distances must form an integer graph metric")
    omega_1 = max((w for t, _, w in report.rows() if t <= 1.0), default=0.0)
    ratio = max((w / t for t, _, w in report.rows() if t > 0), default=0.0)
    if abs(omega_1 - ratio) > 1e-9 * max(1.0, ratio):
        raise AssertionError(
            f"omega_hat(1)={omega_1:g} != max ratio {ratio:g}; "
            "the sample must contain its own geodesics"
        )
    return omega_1


def concentration_probe(
    d_target: Callable[[InterlacedTuple, InterlacedTuple], float],
    universe: Iterable[int],
    k: int,
    c: float,
    mode: str = "greedy",
    subset_size: int | None = None,
) -> ProbeResult:
    """Search for a sub-universe M with image diameter <= c * omega_hat(1).

    The map is read through `d_target`, the distance between the images of
    two arity-k tuples over the universe U.  Greedy mode repeatedly removes
    the element whose removal most reduces the image diameter of the arity-k
    tuples over M, stopping at |M| = k + 1 or at a local minimum; it takes no
    `subset_size`.  Exhaustive mode (|U| <= 12) scans every subset of size
    `subset_size`, which defaults to 2k: that is the smallest sub-universe
    whose tuple graph attains the full diameter k.  Anything smaller is
    degenerate -- over k + 1 elements all tuples are pairwise adjacent, so the
    flag would hold trivially.  The flag is observational either way: no
    finite search proves concentration.

    Both searches read the diameter of a candidate from the sample
    `MapSample(TupleBox(universe, k), dist, d_target)`, in one of two ways.
    A height-scored sample (`d_target` a canonical score) reads no pair and
    builds no tuple: omega_hat(1) is that of the box over U, and D(s)
    omega_hat(inf) of the box over min(s, 2k) elements, one peak pattern per
    candidate size (`_box_scores`).  Any other sample evaluates each image
    distance once, whatever the mode.
    """
    c = _number(c, "c must be finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)
    _check_arity(k)
    uni, size_u = _universe(universe)
    if size_u < k + 1:
        raise InvalidInput("universe must have at least k + 1 elements")
    if mode == "exhaustive":
        if size_u > EXHAUSTIVE_PROBE_CAP:
            raise ResourceLimit(
                f"universe of size {size_u} exceeds the exhaustive probe cap "
                f"EXHAUSTIVE_PROBE_CAP = {EXHAUSTIVE_PROBE_CAP}"
            )
        if subset_size is not None and (
            isinstance(subset_size, bool) or not isinstance(subset_size, int)
        ):
            raise InvalidInput(f"subset size must be an int, got {subset_size!r}")
        size = 2 * k if subset_size is None else subset_size
        if not (k + 1 <= size <= size_u):
            raise InvalidInput(
                f"subset size {size} must lie in [k + 1, |U|] = [{k + 1}, {size_u}]"
            )
    elif mode != "greedy":
        raise InvalidInput(f"unknown probe mode {mode!r}")
    elif subset_size is not None:
        raise InvalidInput(
            f"subset size {subset_size!r} (--subset-size) applies to the exhaustive "
            "probe only; the greedy probe stops at |M| = k + 1"
        )
    box = TupleBox(uni, k)
    sample = MapSample(box, dist, d_target)
    heights = sample._scored_by_heights()
    if heights:
        omega_1 = _box_scores(k, size_u, d_target)[2](1)
        # past 2k elements J stays k, so one score per J
        peak = functools.cache(lambda s: _box_scores(k, s, d_target)[2](math.inf))

        def diameter(subset: Sequence[int]) -> float:
            return peak(min(len(subset), 2 * k))
    else:
        diameter, omega_1 = _pair_diameter(sample)

    if mode == "greedy":
        current = list(uni)
        diam = diameter(current)
        while len(current) > k + 1:
            best_u, best_diam = None, diam
            # a height score reads a candidate's size alone, so every candidate of
            # a round scores alike and the scan keeps the first: score that one
            for u in current[:1] if heights else current:
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


def _pair_diameter(sample: MapSample) -> tuple[Callable[[Iterable[int]], float], float]:
    """(diameter of a sub-universe, omega_hat(1)) from the pair table of a sample
    over a `TupleBox`.

    The table keeps the largest image distance per union of element masks,
    sorted decreasingly; the diameter of a subset is the first entry whose
    mask lies inside it.
    """
    pairs = sample.pair_distances()
    omega_1 = max((dt for ds, dt in pairs if ds <= 1.0), default=0.0)

    bit = {v: 1 << i for i, v in enumerate(sample.points.universe)}
    masks = [sum(bit[v] for v in t) for t in sample.points]
    widest: dict[int, float] = {}
    for (_, dt), (a, b) in zip(pairs, itertools.combinations(masks, 2)):
        widest[a | b] = max(widest.get(a | b, 0.0), dt)
    table = sorted(((dt, mask) for mask, dt in widest.items()), reverse=True)

    def diameter(subset: Iterable[int]) -> float:
        outside = ~sum(bit[v] for v in subset)
        return next((d for d, mask in table if not mask & outside), 0.0)

    return diameter, omega_1


def equicoarse_report(
    samples_by_k: Sequence[tuple[int, MapSample]]
) -> list[EquicoarseRow]:
    """Per arity k: rho_hat(k), omega_hat(1), and their ratio.

    Growth of the ratio across k is the finite signature of non-concentration:
    a family admitting common moduli would keep rho(k) <= C * omega(1).

    A height-scored full box of arity k scores two patterns and reads no pair
    (`_box_scores`): omega_hat(1), then rho_hat(k).  Both hold at most 2k + 1
    heights, so an arity above BOX_HEIGHTS_CAP / 4 = 10^6 is ResourceLimit.
    Any other sample reads `compute_moduli` at thresholds 1 and k, and an
    arity beyond the float range is InvalidInput there.
    """
    rows = []
    for k, sample in samples_by_k:
        _check_arity(k)
        box = sample.points
        if isinstance(box, TupleBox) and box.k == k and sample._scored_by_heights():
            _check_box_heights(4 * k, f"arity {_short_repr(k)}")
            _, rho, omega = _box_scores(k, box.size, sample.d_target)
            omega_1 = omega(1)
            rho_k = rho(k)
        else:
            report = compute_moduli(sample, thresholds=[1, k])
            rho_k, omega_1 = report.rho_hat[-1], report.omega_hat[0]
        ratio = 0.0 if rho_k == 0.0 else math.inf if omega_1 == 0.0 else rho_k / omega_1
        rows.append(EquicoarseRow(k, rho_k, omega_1, ratio))
    return rows


def _box_scores(
    k: int, size: int, score: _HeightScore
) -> tuple[int, Callable[[float], float], Callable[[float], float]]:
    """(J, rho_hat, omega_hat) of the full arity-k box over `size` elements.

    J = min(k, size - k); rho_hat(t) scores `_balanced(max(1, ceil t))` for
    t <= J and is inf beyond, omega_hat(t) scores `_peaks(J, min(floor t, J))`
    for t >= 1 and is 0.0 below (see the module docstring).  Each call scores
    one pattern; no other code picks one.
    """
    j = min(k, size - k)
    of = score.of_heights

    def rho(t: float) -> float:
        return of(k, _balanced(max(1, math.ceil(t)))) if t <= j else math.inf

    def omega(t: float) -> float:
        # t >= j comes first, so floor is never taken of inf
        return of(k, _peaks(j, j if t >= j else math.floor(t))) if t >= 1 else 0.0

    return j, rho, omega


def _check_box_heights(heights: int, what: str) -> None:
    """ResourceLimit naming the cap when a box answer would score more heights than it."""
    if heights > BOX_HEIGHTS_CAP:
        raise ResourceLimit(
            f"{what} exceeds the box cap: about {_short_repr(heights)} pattern heights "
            f"to score, BOX_HEIGHTS_CAP = {BOX_HEIGHTS_CAP}"
        )


def _peaks(j: int, t: int) -> tuple[int, ...]:
    """j // t peaks of height t, then one of height j % t: 2j steps, range min(t, j)."""
    q, r = divmod(j, t)
    full = (*range(1, t + 1), *range(t - 1, -1, -1))
    return (0, *full * q, *range(1, r + 1), *range(r - 1, -1, -1))


def _balanced(t: int) -> tuple[int, ...]:
    """a = ceil(t/2) up, t down, t - a up."""
    a = (t + 1) // 2
    return (*range(a), *range(a, a - t, -1), *range(a - t, 1))


# ---------------------------------------------------------------------------
# Canonical samples used by the demos, the CLI, and the certificate suites.
# ---------------------------------------------------------------------------

def _heights(n: InterlacedTuple, m: InterlacedTuple) -> tuple[int, ...]:
    """h = (0, h_1, ..., h_r): F(0), then the step heights of the walk profile."""
    return tuple(_walk(n, m)[1])


class _HeightScore:
    """A pair score that depends only on the arity k and the profile heights h.

    Called on two tuples it reads their profile; `MapSample.pair_distances`
    calls `of_heights(k, h)` once per distinct h instead.
    """

    __slots__ = ("of_heights",)

    def __init__(self, of_heights: Callable[[int, tuple[int, ...]], float]) -> None:
        self.of_heights = of_heights

    def __call__(self, n: InterlacedTuple, m: InterlacedTuple) -> float:
        return self.of_heights(n.arity, _heights(n, m))


def _sup_of_heights(k: int, h: tuple[int, ...]) -> float:
    """||s(n) - s(m)||_inf as max |h|."""
    return float(max(map(abs, h)))


def _branch_of_heights(k: int, h: tuple[int, ...]) -> float:
    """||g(n) - g(m)||_JT as (2k)^(-1/2) times the 2-variation of h."""
    return (1.0 / math.sqrt(2 * k)) * james_norm(FinSeq(h), 2.0)


def _dist_of_heights(k: int, h: tuple[int, ...]) -> float:
    """dist(n, m) as max h - min h."""
    return float(max(h) - min(h))


def _zero_of_heights(k: int, h: tuple[int, ...]) -> float:
    return 0.0


_summing_score = _HeightScore(_sup_of_heights)
_branch_score = _HeightScore(_branch_of_heights)
_identity_score = _HeightScore(_dist_of_heights)
_constant_score = _HeightScore(_zero_of_heights)


def _tuple_sample(k: int, max_entry: int, score: _HeightScore) -> MapSample:
    return MapSample(TupleBox(range(1, max_entry + 1), k), dist, score)


def summing_map_sample(k: int, max_entry: int) -> MapSample:
    """Summing-basis embedding of the arity-k tuples over {1..max_entry} into c0.

    A pair scores max |h| over its profile heights.
    """
    return _tuple_sample(k, max_entry, _summing_score)


def g_map_sample(k: int, max_entry: int) -> MapSample:
    """Branch embedding of the arity-k tuples into the James-tree space.

    A pair scores (2k)^(-1/2) var_2(h) over its profile heights, the JT norm
    of the difference of the branch images.
    """
    return _tuple_sample(k, max_entry, _branch_score)


def identity_map_sample(k: int, max_entry: int) -> MapSample:
    """The identity map on a tuple box; moduli collapse onto the diagonal.

    A pair scores max h - min h over its profile heights, its distance.
    """
    return _tuple_sample(k, max_entry, _identity_score)


def constant_map_sample(k: int, max_entry: int) -> MapSample:
    """A constant map; expansion vanishes identically."""
    return _tuple_sample(k, max_entry, _constant_score)
