"""Finite-support sequence model for c0 and the James p-variation spaces.

A FinSeq stores coefficients at indices 1..L plus a constant tail (0 for c0 and
J_p elements; a nonzero tail models the one extra bidual direction spanned by
the constant sequence).  The James norm

    ||x||_{J_p} = sup { (sum_i |x(p_{i+1}) - x(p_i)|^p)^{1/p} : p_1 < p_2 < ... }

is computed exactly by dynamic programming over the canonical index set: the
stored indices 1..L plus a single sentinel at L+1 carrying the tail value.
Past L every index has the same value, so one sentinel suffices; indices start
at 1, so a zero before the support is already a stored coefficient whenever it
exists.  The DP runs on the turning points of that set only, and each point
scans back only until the running extrema rule out every earlier one, so it is
near-linear on random and smooth input (see `james_norm` for the proof and the
quadratic worst case).  The module also hosts the summing-basis embedding of
the interlaced graphs and its exact two-sided distortion certificate.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import Callable, Iterable, Sequence

from ._record import Record, setfield
from .errors import InvalidInput, ResourceLimit, _number, _numbers, _short_repr
from .graphs import InterlacedTuple, dist

__all__ = [
    "FinSeq",
    "sup_norm",
    "summing_image",
    "summing_distortion_check",
    "james_norm",
    "james_norm_bruteforce",
    "successive_block_ratio",
]

BRUTE_FORCE_CAP = 4096  # L (L - 1) / 2 <= 2^23 oracle pairs, about 1 s
_VALUES = "sequence values"


class FinSeq(Record):
    """A real sequence: coeffs at indices 1..L, constant `tail` afterwards.

    A trusted build (`_trusted`) takes a tuple of finite floats and a finite
    float tail, the last coefficient not equal to the tail: the canonical
    form `__init__` leaves, which it would store unchanged.
    """

    _fields = ("coeffs", "tail")

    def __init__(self, coeffs: Iterable[float] = (), tail: float = 0.0) -> None:
        if not isinstance(coeffs, (tuple, list)):
            try:
                coeffs = tuple(coeffs)  # an iterator is read once, here
            except TypeError:
                raise InvalidInput(
                    f"{_VALUES} must be numbers: coeffs {_short_repr(coeffs)} is not iterable"
                ) from None
        vals = _numbers(coeffs, _VALUES)
        (t,) = _numbers((tail,), _VALUES, _the_tail)
        while vals and vals[-1] == t:  # canonical form: no stored trailing tail values
            vals.pop()
        setfield(self, "coeffs", tuple(vals))
        setfield(self, "tail", t)

    def value_at(self, i: int) -> float:
        if i < 1:
            raise InvalidInput("indices start at 1")
        return self.coeffs[i - 1] if i <= len(self.coeffs) else self.tail

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with nonzero stored coefficient (meaningful when tail == 0)."""
        return tuple(i + 1 for i, v in enumerate(self.coeffs) if v != 0.0)

    def _combine(self, other: "FinSeq", op: Callable[[float, float], float]) -> "FinSeq":
        # the common prefix, then the longer tuple's rest against the other's tail,
        # into one tuple that `_finish` checks and cuts
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        if len(a) > n:
            rest = map(op, itertools.islice(a, n, None), itertools.repeat(other.tail))
        else:
            rest = map(op, itertools.repeat(self.tail), itertools.islice(b, n, None))
        vals = tuple(itertools.chain(map(op, a, b), rest))
        return _finish(vals, op(self.tail, other.tail))

    def __add__(self, other: "FinSeq") -> "FinSeq":
        return self._combine(other, operator.add)

    def __neg__(self) -> "FinSeq":
        return _finish(tuple(map(operator.neg, self.coeffs)), -self.tail)

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        # a - b is a + (-b) in IEEE arithmetic, signed zeros included
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: float) -> "FinSeq":
        s = _number(scalar, "the scalar must be a finite number", math.isfinite)
        return _finish(tuple(map(s.__mul__, self.coeffs)), s * self.tail)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ",".join(f"{v:g}" for v in self.coeffs)
        return f"FinSeq([{body}], tail={self.tail:g})"


def _the_tail(i: int) -> str:
    return "the tail"


def sup_norm(x: FinSeq) -> float:
    """c0 norm: max |x(i)|.  Requires tail 0 (the sequence must vanish at infinity)."""
    if x.tail != 0.0:
        raise InvalidInput("sup_norm is defined for tail-0 sequences only")
    return max((abs(v) for v in x.coeffs), default=0.0)


def summing_image(n: InterlacedTuple) -> FinSeq:
    """Sum of the summing-basis vectors s_{n_i}: coordinate j counts entries >= j.

    The count is k - i on the run (n_i, n_{i+1}], with n_0 = 0, so the image is
    filled run by run in O(top + k).  Working memory: the runs fill one list,
    which is copied once into the coefficient tuple; the tuple is already
    canonical (small positive integers ending in 1.0, tail 0.0), so it is
    built through `FinSeq._trusted` and not read again.
    """
    k = n.arity
    coeffs: list[float] = []
    prev = 0
    for i, e in enumerate(n):
        coeffs.extend(itertools.repeat(float(k - i), e - prev))
        prev = e
    return FinSeq._trusted(tuple(coeffs), 0.0)


def _finish(vals: tuple[float, ...], tail: float) -> FinSeq:
    """The sequence of an arithmetic result: checked finite, then made canonical.

    Sums, differences, negations and scalar multiples of finite floats are
    floats, so only an overflow can make a value bad; the first infinity is
    named through `_numbers`, in the form `__init__` uses.  A finite sum of
    the values shows there is none (a sum that overflows is read again).
    The trailing run equal to the tail is cut off, and the tuple is kept,
    not copied again.
    """
    if not math.isfinite(sum(vals, tail)):  # a finite sum has finite terms
        _numbers(vals, _VALUES)  # names the first infinity, if there is one ...
        _numbers((tail,), _VALUES, _the_tail)  # ... or the tail's
    k = len(vals)
    while k and vals[k - 1] == tail:
        k -= 1
    return FinSeq._trusted(vals[:k], tail)  # a full slice is the tuple itself


def summing_distortion_check(
    n: InterlacedTuple,
    m: InterlacedTuple,
    *,
    images: tuple[FinSeq, FinSeq] | None = None,
    d: float | None = None,
) -> tuple[float, float]:
    """Certify (1/2) d(n,m) <= ||image(n) - image(m)||_inf <= d(n,m).

    Returns the ratio pair (sup-norm / distance, 1.0); for n == m the ratio is
    undefined and (nan, nan) is returned.  Also verifies, exactly, that max -
    min of the coordinatewise difference (trailing zero included) equals the
    graph distance; the difference at coordinate j is -F(j-1), so this is the
    profile identity in c0 clothing.  The coordinates of a summing image are
    small integers, so every difference and comparison is exact in floats.

    A caller that certifies many pairs passes `images=(summing_image(n),
    summing_image(m))` built once per tuple, and may pass `d`, the distance
    it already holds; without them both images are built here and d is
    `dist(n, m)`.  A passed `d` is verified, not trusted: the same bounds and
    identity apply, and d == 0 holds only for n == m with a vanishing
    difference.  An image with a nonzero tail is InvalidInput, as in
    `sup_norm`.

    Working memory: every coordinate is read once, as a_j - b_j with the
    shorter image padded by zeros, and only the distinct differences are
    kept (at most 2k + 1 for summing images); no copy of either image is
    made, so with summing `images` passed the certificate holds O(k) floats
    whatever the tops.
    """
    if d is None:
        d = dist(n, m)
    img_n, img_m = images if images is not None else (summing_image(n), summing_image(m))
    if img_n.tail != 0.0 or img_m.tail != 0.0:
        raise InvalidInput("summing images are tail-0 sequences")
    # the coordinatewise difference read straight from the coefficients, with no
    # FinSeq built for it: both tails are 0, so the shorter image is read as
    # padded with zeros and the zero tail difference is added
    pairs = itertools.zip_longest(img_n.coeffs, img_m.coeffs, fillvalue=0.0)
    diffs = {*itertools.starmap(operator.sub, pairs), 0.0}
    hi, lo = max(diffs), min(diffs)
    if d == 0:
        if n != m or hi != lo:
            raise AssertionError(f"distance 0 for distinct tuples or images at {n}, {m}")
        return (math.nan, math.nan)
    # max(hi, -lo), ties to hi, with no builtin call: every pair of a table runs this
    s = -lo if -lo > hi else hi
    if not (2 * s >= d and s <= d):
        raise AssertionError(f"distortion bound violated for {n}, {m}: s={s}, d={d}")
    if hi - lo != d:
        raise AssertionError(f"profile identity violated for {n}, {m}")
    return (s / d, 1.0)


def _canonical_values(x: FinSeq) -> list[float]:
    # stored block plus one sentinel carrying the tail; beyond it all increments vanish
    return list(x.coeffs) + [x.tail]


def _check_p(p: float) -> float:
    rule = "the variation exponent must satisfy 1 < p < inf"
    return _number(p, rule, lambda v: 1.0 < v < math.inf)


def _turning_points(vals: list[float]) -> list[float]:
    # the endpoints plus the strict turning points: equal neighbours are dropped,
    # and a value that continues a monotone run replaces the run's last kept value
    pts: list[float] = []
    for v in vals:
        if pts and v == pts[-1]:
            continue
        if len(pts) > 1 and (v > pts[-1]) == (pts[-1] > pts[-2]):
            pts[-1] = v
        else:
            pts.append(v)
    return pts


def james_norm(x: FinSeq, p: float = 2.0) -> float:
    """Exact p-variation norm: a DP over the turning points with a pruned scan.

    best(j) is the largest sum of p-th power increments over an increasing
    index sequence ending at j; starting fresh at any index is allowed, which
    realizes the supremum over all finite index sets.  Two exact reductions
    keep the DP off the all-pairs loop:

    * Turning points.  For p > 1, t^p is superadditive, so merging a monotone
      run never lowers the sum: some optimal chain uses only the endpoints and
      the strict turning points, and the DP runs on those alone.
    * Running-extremum scan.  In an optimal chain with the fewest points each
      chosen point is the extremum of the values between its neighbours;
      otherwise moving it there strictly raises both adjacent terms.  So for
      consecutive chosen i < j, vals[i] and vals[j] are the opposite extrema
      of vals[i..j], and among tied extrema the latest index gives an equally
      good valid chain.  The scan for j walks i = j-1 down to 0 keeping
      lo and hi, the min and max of vals[i..j]; i is a candidate only at a
      strict new low while hi == vals[j], or a strict new high while
      lo == vals[j].  The scan stops once lo < vals[j] < hi, or once lo and
      hi reach the min and max of vals[0..i] (running extrema of the prefix,
      computed once): no index <= i can then be a strict new extreme.

    Cost O(L + sum of scan lengths): near-linear on random, smooth,
    few-level and expanding input, where scans stop within a few steps.  The
    worst case is an input whose lows rise while its highs rise (-10^6 + i
    at even i, i at odd i): every turning point is kept and every scan runs
    to the start, since the prefix minimum is the very first value, so it
    stays quadratic.

    Both reductions are exact in real arithmetic.  In floats the result is
    the all-pairs DP's bit for bit unless merging a run gains less than the
    rounding of the sum (p within about 1e-4 of 1 and increments some ten
    decades apart); there the two differ in the last bits, each a few ulp
    from the exact value.

    Values are rescaled by a power of two, with the result scaled back, only
    when len(vals) * range^p would overflow or range^p is below the smallest
    normal float.  A norm beyond the float range, or p-th powers that still
    overflow after rescaling (huge p), is InvalidInput.
    """
    p = _check_p(p)
    vals = _turning_points(_canonical_values(x))
    shift = 0
    if len(vals) > 1:
        span = max(vals) - min(vals)
        if math.isinf(span):
            raise InvalidInput(f"the p-variation at p = {p:g} overflows the float range")
        try:
            top = span**p
        except OverflowError:
            top = math.inf
        if math.isinf(len(vals) * top) or top < sys.float_info.min:
            shift = 1 - math.frexp(span)[1]  # puts the range in [1, 2)
            vals = [math.ldexp(v, shift) for v in vals]
    lows = list(itertools.accumulate(vals, min))
    highs = list(itertools.accumulate(vals, max))
    best = [0.0] * len(vals)
    overall = 0.0
    try:
        for j, v in enumerate(vals):
            b = 0.0
            lo = hi = v
            for i in range(j - 1, -1, -1):
                if lo <= lows[i] and hi >= highs[i]:
                    break  # no index <= i is a strict new low or high
                u = vals[i]
                if u < lo:
                    lo = u
                    if hi > v:
                        break
                    cand = best[i] + (v - u) ** p
                elif u > hi:
                    hi = u
                    if lo < v:
                        break
                    cand = best[i] + (u - v) ** p
                else:
                    continue
                if cand > b:
                    b = cand
            best[j] = b
            if b > overall:
                overall = b
        norm = math.ldexp(overall ** (1.0 / p), -shift)
    except OverflowError:
        norm = math.inf
    if math.isinf(norm):
        raise InvalidInput(f"the p-variation at p = {p:g} overflows the float range")
    return norm


def james_norm_bruteforce(x: FinSeq, p: float = 2.0) -> float:
    """Maximum over all increasing index chains by the all-pairs chain DP; the oracle.

    best[b] is the largest sum over the chains that end at canonical index b:
    0.0 for the one-point chain, else best[a] + |vals[b] - vals[a]|^p for the
    best a < b.  The result is the largest best[b], to the power 1/p.  Each
    power is computed once per pair a < b, in the order a chain enumeration
    forms them, and each chain's sum is its increments added left to right.

    Keeping one sum per end index returns the enumeration's float bit for bit:
    in round-to-nearest, s -> fl(s + t) is non-decreasing, so of the chains
    that end at a, only the one with the largest sum can give the largest
    sum of any extension through a.

    It shares no reduction with `james_norm`: every canonical index is a
    state (no turning points) and every earlier index is scanned (no
    running-extremum break).  Cost for L canonical values: L (L - 1) / 2
    powers and additions and O(L) memory.  The cap is set by that time:
    L <= BRUTE_FORCE_CAP = 4096 keeps the pairs within 2^23, about a second;
    a longer sequence is `ResourceLimit`.
    """
    p = _check_p(p)
    vals = _canonical_values(x)
    if len(vals) > BRUTE_FORCE_CAP:
        raise ResourceLimit(
            f"canonical index set of size {len(vals)} exceeds the cap "
            f"BRUTE_FORCE_CAP = {BRUTE_FORCE_CAP}"
        )
    best: list[float] = []  # best[b]: the largest sum of a chain ending at b
    for b, v in enumerate(vals):
        top = 0.0
        for a in range(b):
            s = best[a] + abs(v - vals[a]) ** p
            if s > top:
                top = s
        best.append(top)
    return max(best) ** (1.0 / p)


def successive_block_ratio(blocks: Sequence[FinSeq], p: float = 2.0) -> float:
    """||sum x_i||^p / sum ||x_i||^p for successively supported tail-0 blocks.

    For blocks x_1 < ... < x_k the ratio R obeys two exact bounds:

    * R <= 2^(p-1), always.  Split each increment that crosses from one block
      to another at 0, using |u - v|^p <= 2^(p-1) (|u|^p + |v|^p).  The two
      stubs and the increments inside a block then form a chain over that
      block's own canonical values: those hold the tail sentinel 0 after the
      block, and a stored 0 before it whenever an increment can cross into it.
    * R >= 1 when consecutive supports leave a gap: the blocks' optimal
      chains join through the zeros between them.

    Both bounds are tight.  Adjacent spikes of alternating sign, (-1)^(i-1) e_i
    for i = 1..k, give (2^p (k - 1) + 1) / (2k - 1) -> 2^(p-1); adjacent equal
    spikes send R to 0, so without gaps there is no lower bound (the summing
    direction of J).
    """
    p = _check_p(p)
    if not blocks:
        raise InvalidInput("need at least one block")
    prev_end = 0
    total = FinSeq()
    for blk in blocks:
        if blk.tail != 0.0:
            raise InvalidInput("blocks must have tail 0")
        supp = blk.support
        if not supp:
            raise InvalidInput("blocks must be nonzero")
        if supp[0] <= prev_end:
            raise InvalidInput("block supports must be strictly successive")
        prev_end = supp[-1]
        total = total + blk
    denom = sum(james_norm(blk, p) ** p for blk in blocks)
    return james_norm(total, p) ** p / denom
