"""Orlicz functions, Luxemburg-style norms, iterated N-norms, and the delta transform.

An Orlicz function phi is continuous, non-decreasing, convex, with phi(0) = 0
and phi(t) -> infinity.  Its norm on finitely supported vectors is

    ||x||_phi = inf { r > 0 : sum_n phi(|x_n| / r) <= 1 },

computed here as the float a plain bisection of the bracket returns, with far
fewer evaluations of the O(n) sum total(r) = sum phi(|x_n| / r).  For a phi
that is non-decreasing at the float level, total is non-increasing in r in
floats too: v / r is correctly rounded, phi keeps its order, and a fixed-order
sum of nonnegative terms keeps it again.  So two points a < b with total(a) > 1
>= total(b) answer, without a sum, every query total(r) <= 1 with r outside
(a, b).  The search runs the plain bisection's own loops and answers a query
inside (a, b) by summing at secant points of log total against log r, where
total is close to a line for power-like phi, until (a, b) no longer holds it.
A vector of LONG or more entries first finds the root of a strided
subsample's total, which places its first two sums, and once the secant
estimate is settled it sums only at the two bisection midpoints that
estimate says decide the rest.  On 30,000 entries that is 3.2 to 6.3 sums
per call, subsample included, where the plain bisection takes 45 to 47.  For
a phi non-decreasing only up to rounding, the two searches can end at
different points of the region where the sum is 1 up to rounding.

For a phi that is 1-Lipschitz with slope limit 1 at infinity, the two-variable
rule

    N_2(s, t) = |s| + |s| phi(|t| / |s|)   (|t| when s = 0)

iterates left-nested into N_n, which is sandwiched between (1/2)||.||_phi and
e ||.||_phi.  The delta transform turns a convexity modulus d* (positive, with
d*(t)/t non-decreasing to 1) into an admissible phi via the integral
delta(t) = int_0^t d*(s)/s ds, which satisfies d*(t/2) <= delta(t) <= d*(t).

Structural properties of user functions are only checked on a finite grid;
black-box callables cannot be verified analytically, so validation returns a
report of observed violations instead of raising.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from ._record import Record
from .errors import InvalidInput, ResourceLimit, _number, _numbers

__all__ = [
    "OrliczSpec",
    "ModulusSpec",
    "ValidationReport",
    "LpComparisonReport",
    "GRID",
    "validate_orlicz",
    "validate_modulus",
    "orlicz_norm",
    "n_norm",
    "delta_transform",
    "compare_lp",
    "orlicz_fixture",
    "modulus_fixture",
    "ORLICZ_FIXTURE_KEYS",
    "MODULUS_FIXTURE_KEYS",
]

MAX_BRACKET_STEPS = 64
STRIDE = 16  # a long vector's subsample is every STRIDE-th scaled |x_n|
SUBSAMPLE_STEPS, SUBSAMPLE_STEP = 8, 1e-3  # secant steps on the subsample: cap, relative stop
LONG = 256 * STRIDE  # the length from which orlicz_norm localises on the subsample
GRID_LO, GRID_HI, GRID_POINTS = 1e-6, 1e3, 512  # the geometric validation grid
REL_TOL = 1e-9  # relative slack of every grid check
SLOPE_TOL = 0.1  # allowed distance of phi(t)/t from 1 at the right end of the grid
_ENTRIES = "vector entries"

# The geometric validation grid: 10 raised to GRID_POINTS equally spaced log10
# values from GRID_LO to GRID_HI, with both ends set exactly.
_LOG_LO = math.log10(GRID_LO)
_LOG_STEP = (math.log10(GRID_HI) - _LOG_LO) / (GRID_POINTS - 1)
GRID: tuple[float, ...] = (
    GRID_LO,
    *(10.0 ** (i * _LOG_STEP + _LOG_LO) for i in range(1, GRID_POINTS - 1)),
    GRID_HI,
)


class OrliczSpec(Record):
    """A scalar function [0, inf) -> [0, inf) with declared structural flags.

    The flags record what the supplier claims; validate_orlicz checks the
    claims on a grid.  n_norm requires both flags to be declared.
    """

    _fields = ("fn", "is_one_lipschitz", "slope_limit_one", "name")

    def __init__(
        self,
        fn: Callable[[float], float],
        is_one_lipschitz: bool = False,
        slope_limit_one: bool = False,
        name: str = "",
    ) -> None:
        self._set(fn, is_one_lipschitz, slope_limit_one, name)


class ModulusSpec(Record):
    """A candidate convexity modulus: positive on (0, inf), fn(t)/t -> 1 increasingly."""

    _fields = ("fn", "name")

    def __init__(self, fn: Callable[[float], float], name: str = "") -> None:
        self._set(fn, name)


class ValidationReport(Record):
    _fields = ("violations",)

    def __init__(self, violations: tuple[str, ...] = ()) -> None:
        self._set(violations)

    @property
    def ok(self) -> bool:
        return not self.violations


class LpComparisonReport(Record):
    _fields = ("side", "applicable", "grid_constant", "worst_ratio", "n_samples", "note")

    def __init__(
        self,
        side: str,
        applicable: bool,
        grid_constant: float,
        worst_ratio: float,
        n_samples: int,
        note: str = "",
    ) -> None:
        self._set(side, applicable, grid_constant, worst_ratio, n_samples, note)


def _slack(v: float) -> float:
    return REL_TOL * max(1.0, abs(v))


def _at(fn: Callable[[float], float], t: float, name: str = "phi") -> float:
    """fn(t), read as +inf where the float arithmetic overflows; NaN is InvalidInput."""
    try:
        v = fn(t)
    except OverflowError:
        return math.inf
    if math.isnan(v):
        raise InvalidInput(f"{name} returned NaN at t = {t:g}")
    return v


def validate_orlicz(spec: OrliczSpec) -> ValidationReport:
    """Grid checks: phi(0)=0, monotonicity, midpoint convexity, declared flags."""
    g = GRID
    fn = spec.fn
    # 0, then each grid point and its midpoint with the next: increasing t
    pts = (0.0, *(u for a, b in zip(g, g[1:]) for u in (a, 0.5 * (a + b))), g[-1])
    try:
        ys = [_at(fn, t) for t in pts]
    except InvalidInput as exc:
        return ValidationReport((str(exc),))
    v0, vals, mids = ys[0], ys[1::2], ys[2::2]
    bad: list[str] = []
    if abs(v0) > 1e-12:
        bad.append(f"phi(0) = {v0:g} != 0")
    for i in range(len(g) - 1):
        a, b = g[i], g[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fb < fa - _slack(fa):
            bad.append(f"not non-decreasing on [{a:g}, {b:g}]")
        if mids[i] > 0.5 * (fa + fb) + _slack(fa + fb):
            bad.append(f"midpoint convexity fails on [{a:g}, {b:g}]")
        if spec.is_one_lipschitz and abs(fb - fa) > (b - a) + _slack(b - a):
            bad.append(f"not 1-Lipschitz on [{a:g}, {b:g}]")
    if spec.is_one_lipschitz and vals[0] > g[0] + _slack(g[0]):
        bad.append("not 1-Lipschitz near 0")
    if spec.slope_limit_one:
        ratio = vals[-1] / g[-1]
        if abs(ratio - 1.0) > SLOPE_TOL:
            bad.append(f"phi(t)/t = {ratio:g} at t = {g[-1]:g}; slope limit 1 not visible")
    return ValidationReport(tuple(bad))


def validate_modulus(spec: ModulusSpec) -> ValidationReport:
    """Grid checks: positivity, fn(t)/t non-decreasing, ratio approaching 1."""
    g = GRID
    try:
        vals = [_at(spec.fn, t, "fn") for t in g]
    except InvalidInput as exc:
        return ValidationReport((str(exc),))
    bad: list[str] = []
    t = next((t for t, v in zip(g, vals) if v <= 0), None)
    if t is not None:
        bad.append(f"not positive at t = {t:g}")
    ratios = [v / t for v, t in zip(vals, g)]
    for i in range(len(g) - 1):
        if ratios[i + 1] < ratios[i] - _slack(ratios[i]):
            bad.append(f"ratio fn(t)/t decreases on [{g[i]:g}, {g[i+1]:g}]")
    if any(r > 1.0 + REL_TOL for r in ratios):
        bad.append("ratio fn(t)/t exceeds 1")
    if abs(ratios[-1] - 1.0) > SLOPE_TOL:
        bad.append(f"ratio fn(t)/t = {ratios[-1]:g} at t = {g[-1]:g}; limit 1 not visible")
    return ValidationReport(tuple(bad))


def _loglog_root(
    r1: float, t1: float, r2: float, t2: float, w1: float = 1.0, w2: float = 1.0
) -> float | None:
    """Where the line through (log r1, w1 log t1) and (log r2, w2 log t2) meets 0.

    None if a total is 0 or infinite or the line is flat.  The step from r2 is
    capped at a factor e^90 > 2^129, beyond the ratio of any two points
    orlicz_norm sums at, which all lie in [m 2^-64, m 2^64] for m = max|x_n|.
    """
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        return None
    g1, g2 = w1 * math.log(t1), w2 * math.log(t2)
    if g1 == g2:
        return None
    step = g2 / (g1 - g2) * math.log(r2 / r1)
    return r2 * math.exp(min(max(step, -90.0), 90.0))


def _subsample_root(
    xs: list[float], fn: Callable[[float], float], m: float, r_min: float, r_max: float
) -> tuple[float, float]:
    """Where a long vector's first full sum goes, and the power 1/k its second takes.

    STRIDE sum phi(v / r) over every STRIDE-th v of xs, plus phi(m / r),
    estimates total(r) for about 1/STRIDE of a sum.  Secant steps of log
    estimate against log r, from m and m T(m) as in the full search, find the
    estimate's root to a relative step of SUBSAMPLE_STEP; k is minus the slope
    of the last line.  A total of 0, infinity or NaN, or a flat line, ends the
    steps at the last point; without a slope, the power is 1.
    """
    sub = xs[::STRIDE]

    def estimate(r: float) -> float:
        try:
            return STRIDE * sum(fn(v / r) for v in sub) + fn(m / r)
        except OverflowError:
            return math.inf

    r1, t1 = m, estimate(m)
    if not 0.0 < t1 < math.inf:
        return m, 1.0
    r2, power = min(max(m * t1, r_min), r_max), 1.0
    for _ in range(SUBSAMPLE_STEPS):
        if r2 == r1:
            break
        t2 = estimate(r2)
        c = _loglog_root(r1, t1, r2, t2)
        if c is None:
            return (r2 if 0.0 < t2 < math.inf else r1), power
        k = (math.log(t1) - math.log(t2)) / math.log(r2 / r1)
        power = 1.0 / k if k > 0.0 else 1.0
        r1, t1, r2 = r2, t2, min(max(c, r_min), r_max)
        if abs(r2 - r1) <= SUBSAMPLE_STEP * r1:
            break
    return r2, power


def orlicz_norm(x: Sequence[float], spec: OrliczSpec, tol: float = 1e-10) -> float:
    """Luxemburg value inf { r : sum phi(|x_n|/r) <= 1 }, within `tol` of the infimum.

    The value is the float of the plain bisection.  Its bracket [p/2, p] is
    found by doubling or halving p from max|x_n| until total(p) <= 1 <
    total(p/2); past MAX_BRACKET_STEPS doublings that is ResourceLimit, past as
    many halvings the value is 0.0.  Bisection runs while the bracket is wider
    than `tol` (positive and finite) and its ends are not adjacent floats, and
    the feasible (upper) end is returned.  The entries and `tol` are scaled by
    the power of two of max|x_n| and the result is scaled back; this is exact,
    and no point the search sums at overflows.

    This function runs those loops and answers each of their queries
    total(r) <= 1 from a < b with total(a) > 1 >= total(b): r >= b is feasible
    and r <= a is not.  A query inside (a, b) sums at points c of (a, b), each
    moving a or b to c, until r lies outside.  The first sum is at m =
    max|x_n|; after it, c is where a line in (log r, log total) meets total = 1:
    - with one end unknown, the line through the last two sums (after the
      first sum, the line of slope -1), or else the known end's ratio to m
      squared; but where the known end's total is 1 up to the sum's rounding,
      a step from that end of max(tol/2, ulp), doubled for each further sum
      with the same total, if that is shorter;
    - with b > 2a, which leaves room only for a bracket end m 2^k as the
      query, the Illinois secant through a and b, or else the median power
      m 2^k inside (a, b);
    - with b <= 2a, that secant (the linear one when total(b) = 0), kept
      max(tol/2, ulp(b)) inside (a, b), or else r itself.
    After MAX_BRACKET_STEPS sums, or with total(a) infinite and b <= 2a, c is
    r itself.

    A vector of LONG or more nonzero entries changes only the points.  Its
    first sum is at the root of _subsample_root's estimate, and its second
    steps from there along the estimate's slope.  After that, c is the secant
    estimate through the last two sums when it lies in (a, b) and the last
    total is not 1 up to rounding (n times the float epsilon).  Once that
    estimate is within max(tol, ulp) of the last sum, or both totals are 1
    up to rounding, the plain bisection is run on with the estimate as the
    root, and c is the last query it calls infeasible or the first it calls
    feasible that lies in (a, b): if the estimate holds, these two sums
    answer every later query.  When both totals are 1 up to rounding and no
    estimate lies in (a, b), c is r itself.

    For phi non-decreasing at the float level, each query gets the answer its
    own sum would give, so the result is the plain bisection's float.  On
    30,000 entries that takes 3.2 to 6.3 sums, subsample included, where the
    plain bisection takes 45 to 47.
    """
    tol = _number(tol, "tol must be positive and finite", lambda v: v > 0 and math.isfinite(v))
    vals = _numbers(x, _ENTRIES)
    top = max(map(abs, vals), default=0.0)
    if top == 0.0:
        return 0.0
    # m, the largest scaled |x_n|, is the mantissa of top, in [0.5, 1)
    m, exp = math.frexp(top)
    xs = [math.ldexp(abs(v), -exp) for v in vals if v != 0.0]
    try:
        tol = math.ldexp(tol, -exp)
    except OverflowError:  # wider than any bracket: no bisection step is needed
        tol = math.inf
    fn = spec.fn

    def total(r: float) -> float:
        try:
            s = sum(fn(v / r) for v in xs)
        except OverflowError:  # every term is >= 0, so the sum is +inf
            return math.inf
        if math.isnan(s):
            raise InvalidInput("phi returned NaN")
        return s

    # total is non-increasing in r, so a < b with total(a) > 1 >= total(b) decide
    # every r outside (a, b); an unknown a reads as 0, an unknown b as inf
    r_min, r_max = math.ldexp(m, -MAX_BRACKET_STEPS), math.ldexp(m, MAX_BRACKET_STEPS)
    a, b, ta, tb = 0.0, math.inf, math.inf, 0.0
    wa = wb = 1.0  # Illinois weights of the ends' log totals (linear: totals - 1)
    side = 0  # +1 after a sum that moved a, -1 after one that moved b
    sums: list[tuple[float, float]] = []  # (c, total(c)) of each sum, in order
    # the first sum's point and the power 1/k of the second's step from it
    long = len(xs) >= LONG
    first, power = _subsample_root(xs, fn, m, r_min, r_max) if long else (m, 1.0)
    rounding = len(xs) * sys.float_info.epsilon  # a bound on a sum's relative rounding

    def point(r: float) -> float:
        """The point in (a, b) to sum at next, for a query r in (a, b)."""
        if not 0 < len(sums) < MAX_BRACKET_STEPS:
            return r if sums else first
        if long and len(sums) > 1:
            # the secant estimate picks the last sums once it is settled, or once
            # both totals are 1 up to rounding and no slope can be read
            noise = ta - 1.0 <= rounding and 1.0 - tb <= rounding
            est = _loglog_root(*sums[-2], *sums[-1])
            c = sums[-1][0]
            if est is not None and a < est < b:
                if (noise or abs(est - c) <= max(tol, math.ulp(c))) and r_min < est < r_max:
                    # bisect on as if est were the root: the queries asked so far lie
                    # outside (a, b), so this follows the search to its query r, and
                    # the last query it calls infeasible, or else the first it calls
                    # feasible, lies in (a, b); if est holds, a sum at each answers
                    # every later query
                    lo, hi = bisect(lambda q: q >= est)
                    return lo if lo > a else hi
                if abs(sums[-1][1] - 1.0) > rounding:
                    return est
            elif noise:
                return r
        if not a or b == math.inf:
            if len(sums) == 1:
                # for convex phi with phi(0) = 0, total(m T) is <= 1 if T = total(m) >= 1,
                # and >= 1 if T <= 1: the line of slope -1, or -k on a long vector
                c0, t0 = sums[0]
                try:
                    c = c0 * t0**power
                except OverflowError:
                    c = r_max
            else:
                c = _loglog_root(*sums[-2], *sums[-1])
            if c is None or not a < min(max(c, r_min), r_max) < b:
                c = max(a * a / m, 2.0 * a) if a else min(b * b / m, 0.5 * b)
                t = sums[-1][1]  # the known end's total
                if len(sums) > 1 and abs(t - 1.0) <= rounding:
                    # the root is next to the known end: step from it, first by the
                    # least step the bisection tells from none, doubled for each
                    # further sum with the same total
                    run = 1
                    while run < len(sums) and sums[-run - 1][1] == t:
                        run += 1
                    step = math.ldexp(max(0.5 * tol, math.ulp(a or b)), max(run - 2, 0))
                    c = min(c, a + step) if a else max(c, b - step)
            return min(max(c, r_min), r_max)
        c = _loglog_root(a, ta, b, tb, wa, wb)
        if b > 2.0 * a:  # only a bracket end m 2^k lies this far inside
            if c is None or not a < c < b:
                # the median power inside (a, b), from the exponents of a/m and b/m:
                # each quotient keeps its order against every power of two
                (_, ka), (frac, kb) = math.frexp(a / m), math.frexp(b / m)
                c = math.ldexp(m, (ka + kb - (frac == 0.5) - 1) // 2)
            return c
        if ta == math.inf:
            return r
        if c is None:  # total(b) = 0: the linear Illinois point
            fa, fb = wa * (ta - 1.0), wb * (tb - 1.0)
            c = a + (b - a) * (fa / (fa - fb))
        # once one end sits on the root, the next step brings the other within tol
        gap = max(0.5 * tol, math.ulp(b))
        c = min(max(c, a + gap), b - gap)
        return c if a < c < b else r

    def feasible(r: float) -> bool:
        """total(r) <= 1, read off (a, b) once sums have narrowed it to exclude r."""
        nonlocal a, b, ta, tb, wa, wb, side
        while a < r < b:
            c = point(r)
            tc = total(c)
            sums.append((c, tc))
            if tc > 1.0:
                a, ta, wa = c, tc, 1.0
                if side > 0:
                    wb *= 0.5
                side = 1
            else:
                b, tb, wb = c, tc, 1.0
                if side < 0:
                    wa *= 0.5
                side = -1
        return r >= b

    def bisect(inside: Callable[[float], bool]) -> tuple[float, float] | None:
        """The plain bisection's last bracket (lo, hi), or None past the halving cap.

        Each query total(r) <= 1 is answered from (a, b), or by inside(r) for
        r in (a, b); most queries lie outside, and cost no call.
        """
        lo = hi = m
        if not (m >= b or (m > a and inside(m))):
            for _ in range(MAX_BRACKET_STEPS):
                lo, hi = hi, 2.0 * hi
                if hi >= b or (hi > a and inside(hi)):
                    break
            else:
                raise ResourceLimit(
                    "bracket search exceeded the doubling cap "
                    f"MAX_BRACKET_STEPS = {MAX_BRACKET_STEPS}"
                )
        else:
            for _ in range(MAX_BRACKET_STEPS):
                hi, lo = lo, 0.5 * lo
                if not (lo >= b or (lo > a and inside(lo))):
                    break
            else:
                return None
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if mid >= b or (mid > a and inside(mid)):
                hi = mid
            else:
                lo = mid
        return lo, hi

    bracket = bisect(feasible)
    if bracket is None:
        return 0.0  # the constraint holds for every r > 0: the infimum is 0
    hi = bracket[1]
    try:
        return math.ldexp(hi, exp)
    except OverflowError:
        raise InvalidInput("the norm exceeds the largest float") from None


def n_norm(s: Sequence[float], spec: OrliczSpec) -> float:
    """Left-nested N-norm N_n(s_1, ..., s_n); N_1 is |s_1|.

    Requires the is_one_lipschitz and slope_limit_one declarations: without
    slope limit 1 the rule |s|(1 + phi(|t|/|s|)) loses control of large |t|
    against small |s| and the Orlicz sandwich genuinely fails.
    """
    if not (spec.is_one_lipschitz and spec.slope_limit_one):
        raise InvalidInput(
            "n_norm requires an OrliczSpec declared 1-Lipschitz with slope limit 1"
        )
    vals = _numbers(s, _ENTRIES)
    if not vals:
        raise InvalidInput("n_norm needs at least one coordinate")
    fn = spec.fn
    acc = abs(vals[0])
    for t in vals[1:]:
        if acc == 0.0:
            acc = abs(t)
        else:
            ratio = abs(t) / acc
            # beyond the float range, acc * phi(ratio) is at its limit |t| (slope limit 1)
            acc = acc + (acc * _at(fn, ratio) if math.isfinite(ratio) else abs(t))
    if not math.isfinite(acc):
        raise InvalidInput("the N-norm exceeds the largest float")
    return acc


def delta_transform(mod: ModulusSpec, t: float, steps: int = 256) -> float:
    """delta(t) = integral of f(s) = mod(s)/s over (0, t], composite midpoint rule.

    f is non-decreasing, so the head piece over (0, eps], eps = t/steps^2, lies
    in [0, mod(eps)]; mod(eps) is taken as the head.  On [eps, t], in `steps`
    pieces of width h = (t - eps)/steps, a piece's midpoint value and its mean
    of f both lie in [f(left), f(right)], and these ranges telescope:

        |midpoint sum - int_eps^t f| <= h (f(t) - f(eps)),

    so the returned value is within h (f(t) - f(eps)) + mod(eps) of delta(t),
    up to rounding.  A sum beyond the float range is InvalidInput.
    """
    t = _number(t, "t must be finite and non-negative", lambda v: math.isfinite(v) and v >= 0)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise InvalidInput(f"steps must be an int, got {steps!r}")
    if steps < 16:
        raise InvalidInput("steps must be >= 16")
    if t == 0.0:
        return 0.0
    fn = mod.fn
    eps = t / (steps * steps)
    h = (t - eps) / steps
    acc = fn(eps)  # head bound over [0, eps]
    for i in range(steps):
        mid = eps + (i + 0.5) * h
        if mid > 0.0:  # 0 only for subnormal t, on a piece narrower than any float
            acc += fn(mid) / mid * h
    if not math.isfinite(acc):
        raise InvalidInput(f"delta({t!r}) for modulus {mod.name!r} is beyond the float range")
    return acc


def _lp_norm(x: Sequence[float], p: float) -> float:
    """(sum |x_n|^p)^(1/p) as M (sum (|x_n|/M)^p)^(1/p), M = max|x_n|.

    The entries are floats read by `_numbers`.  The largest term is exactly
    1, so a nonzero x never reads as 0, whatever p.  A norm beyond the float
    range is InvalidInput.
    """
    xs = [abs(v) for v in x]
    top = max(xs, default=0.0)
    if top == 0.0:
        return 0.0
    lp = top * sum((v / top) ** p for v in xs) ** (1.0 / p)
    if lp == math.inf:
        raise InvalidInput("the l_p norm of a sample exceeds the largest float")
    return lp


def compare_lp(
    spec: OrliczSpec,
    p: float,
    side: str,
    samples: Sequence[Sequence[float]],
) -> LpComparisonReport:
    """Empirical comparison of the Orlicz norm against the l_p norm.

    side="upper": hypothesis phi(t) <= C t^p on (0, 1] -> reports the largest
    sample ratio ||x||_phi / ||x||_p.  side="lower": hypothesis phi(t) >= c t^p
    -> reports the smallest ratio.  The hypothesis is screened on the grid
    restricted to (0, 1]: a ratio phi(t)/t^p that peaks at the left edge and
    exceeds its value at the right edge by more than a factor 10, or is beyond
    the float range, is treated as blowing up toward 0 (upper side
    inapplicable), and symmetrically for a
    ratio vanishing toward 0 on the lower side; a lower grid constant beyond
    the float range is inapplicable too.  p must be finite and >= 1, and
    some sample must be nonzero; every nonzero sample counts, whatever p.
    """
    if side not in ("upper", "lower"):
        raise InvalidInput("side must be 'upper' or 'lower'")
    p = _number(p, "p must be finite and >= 1", lambda v: math.isfinite(v) and v >= 1.0)
    powers = [(t, t**p) for t in GRID if t <= 1.0]
    # a t^p below the float range puts the ratio beyond it
    ratios = [_at(spec.fn, t) / tp if tp > 0.0 else math.inf for t, tp in powers]
    if side == "upper":
        grid_constant = max(ratios)
        # a ratio beyond the float range at the left edge blows up too: inf > 10 inf fails
        diverging = ratios[0] == grid_constant and (
            ratios[0] == math.inf or ratios[0] > 10.0 * ratios[-1]
        )
        applicable = not diverging
        note = "" if applicable else "phi(t)/t^p blows up toward 0; no upper constant"
    else:
        grid_constant = min(ratios)
        vanishing = ratios[0] == grid_constant and ratios[0] * 10.0 < ratios[-1]
        # inf only when every t^p on the grid underflows, as at p = 1e308
        beyond = grid_constant == math.inf
        applicable = not (vanishing or beyond)
        if beyond:
            note = "phi(t)/t^p is beyond the float range; no lower constant"
        elif vanishing:
            note = "phi(t)/t^p vanishes toward 0; no lower constant"
        else:
            note = ""

    sample_ratios = []
    for vec in samples:
        xs = _numbers(vec, _ENTRIES)
        lp = _lp_norm(xs, p)
        if lp == 0.0:
            continue
        ratio = orlicz_norm(xs, spec) / lp
        if not math.isfinite(ratio):
            raise AssertionError("non-finite norm ratio encountered")
        sample_ratios.append(ratio)
    if not sample_ratios:
        raise InvalidInput("no sample has a nonzero l_p norm; the comparison has no ratio")
    worst = max(sample_ratios) if side == "upper" else min(sample_ratios)
    return LpComparisonReport(side, applicable, grid_constant, worst, len(sample_ratios), note)


# ---------------------------------------------------------------------------
# Built-in fixtures, selectable by string key from the CLI and the demos.
# ---------------------------------------------------------------------------

def _huber(t: float) -> float:
    # quadratic head, unit-slope tail: the simplest admissible nontrivial phi
    return 0.5 * t * t if t <= 1.0 else t - 0.5


_ORLICZ_FIXTURES: dict[str, OrliczSpec] = {
    "identity": OrliczSpec(lambda t: t, True, True, "identity"),
    "square": OrliczSpec(lambda t: t * t, False, False, "square"),
    "sqrt": OrliczSpec(math.sqrt, False, False, "sqrt"),
    "log1p": OrliczSpec(math.log1p, True, False, "log1p"),
    "huber": OrliczSpec(_huber, True, True, "huber"),
    "t_minus_log1p": OrliczSpec(
        lambda t: t - math.log1p(t), True, True, "t_minus_log1p"
    ),
}

ORLICZ_FIXTURE_KEYS = tuple(sorted(_ORLICZ_FIXTURES)) + ("pow:<p>",)

_MODULUS_FIXTURES: dict[str, ModulusSpec] = {
    "identity": ModulusSpec(lambda s: s, "identity"),
    "rational": ModulusSpec(lambda s: s * s / (1.0 + s), "rational"),
}

MODULUS_FIXTURE_KEYS = tuple(sorted(_MODULUS_FIXTURES))


def orlicz_fixture(key: str) -> OrliczSpec:
    """Built-in Orlicz function by key; "pow:<p>" gives t^p (for l_p comparisons)."""
    if key in _ORLICZ_FIXTURES:
        return _ORLICZ_FIXTURES[key]
    if key.startswith("pow:"):
        try:
            p = float(key.split(":", 1)[1])
        except ValueError:
            raise InvalidInput(f"cannot parse the exponent of Orlicz fixture {key!r}") from None
        if not (math.isfinite(p) and p >= 1.0):  # a NaN p fails p < 1 too
            raise InvalidInput(f"Orlicz fixture {key!r} needs a finite exponent p >= 1")
        flags = p == 1.0
        return OrliczSpec(lambda t, _p=p: t**_p, flags, flags, key)
    raise InvalidInput(f"unknown Orlicz fixture {key!r}; known: {ORLICZ_FIXTURE_KEYS}")


def modulus_fixture(key: str) -> ModulusSpec:
    """Built-in convexity modulus by key."""
    if key in _MODULUS_FIXTURES:
        return _MODULUS_FIXTURES[key]
    raise InvalidInput(f"unknown modulus fixture {key!r}; known: {MODULUS_FIXTURE_KEYS}")
