"""Finite-support sequence model for c0 and the James p-variation spaces.

A FinSeq stores coefficients at indices 1..L plus a constant tail (0 for c0 and
J_p elements; a nonzero tail models the one extra bidual direction spanned by
the constant sequence).  The James norm

    ||x||_{J_p} = sup { (sum_i |x(p_{i+1}) - x(p_i)|^p)^{1/p} : p_1 < p_2 < ... }

is computed exactly by dynamic programming over the canonical index set: the
stored indices 1..L plus a single sentinel at L+1 carrying the tail value.
Past L every index has the same value, so one sentinel suffices; indices start
at 1, so a zero before the support is already a stored coefficient whenever it
exists.  The module also hosts the summing-basis embedding of the interlaced
graphs and its exact two-sided distortion certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput, ResourceLimit
from .graphs import InterlacedTuple, dist

__all__ = [
    "FinSeq",
    "sup_norm",
    "summing_image",
    "summing_distortion_check",
    "m_k_point",
    "james_norm",
    "james_norm_bruteforce",
    "successive_block_ratio",
]

BRUTE_FORCE_CAP = 16


@dataclass(frozen=True)
class FinSeq:
    """A real sequence: coeffs at indices 1..L, constant `tail` afterwards."""

    coeffs: tuple[float, ...] = ()
    tail: float = 0.0

    def __post_init__(self) -> None:
        vals = [float(v) for v in self.coeffs]
        t = float(self.tail)
        if not (math.isfinite(t) and all(map(math.isfinite, vals))):
            raise InvalidInput(f"sequence values must be finite: {vals!r}, tail {t!r}")
        while vals and vals[-1] == t:  # canonical form: no stored trailing tail values
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "tail", t)

    def value_at(self, i: int) -> float:
        if i < 1:
            raise InvalidInput("indices start at 1")
        return self.coeffs[i - 1] if i <= len(self.coeffs) else self.tail

    @property
    def support(self) -> tuple[int, ...]:
        """Indices with nonzero stored coefficient (meaningful when tail == 0)."""
        return tuple(i + 1 for i, v in enumerate(self.coeffs) if v != 0.0)

    def __add__(self, other: "FinSeq") -> "FinSeq":
        L = max(len(self.coeffs), len(other.coeffs))
        vals = [self.value_at(i) + other.value_at(i) for i in range(1, L + 1)]
        return FinSeq(tuple(vals), self.tail + other.tail)

    def __neg__(self) -> "FinSeq":
        return FinSeq(tuple(-v for v in self.coeffs), -self.tail)

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self + (-other)

    def __mul__(self, scalar: float) -> "FinSeq":
        s = float(scalar)
        return FinSeq(tuple(s * v for v in self.coeffs), s * self.tail)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = ",".join(f"{v:g}" for v in self.coeffs)
        return f"FinSeq([{body}], tail={self.tail:g})"


def sup_norm(x: FinSeq) -> float:
    """c0 norm: max |x(i)|.  Requires tail 0 (the sequence must vanish at infinity)."""
    if x.tail != 0.0:
        raise InvalidInput("sup_norm is defined for tail-0 sequences only")
    return max((abs(v) for v in x.coeffs), default=0.0)


def summing_image(n: InterlacedTuple) -> FinSeq:
    """Sum of the summing-basis vectors s_{n_i}: coordinate j counts entries >= j.

    The count is k - i on the run (n_i, n_{i+1}], with n_0 = 0, so the image is
    filled run by run in O(top + k).
    """
    k = n.arity
    coeffs: list[float] = []
    prev = 0
    for i, e in enumerate(n):
        coeffs.extend([float(k - i)] * (e - prev))
        prev = e
    return FinSeq(tuple(coeffs), 0.0)


def summing_distortion_check(
    n: InterlacedTuple, m: InterlacedTuple
) -> tuple[float, float]:
    """Certify (1/2) d(n,m) <= ||image(n) - image(m)||_inf <= d(n,m).

    Returns the ratio pair (sup-norm / distance, 1.0); for n == m the ratio is
    undefined and (nan, nan) is returned.  Also verifies, in integer
    arithmetic, that max - min of the coordinatewise difference (trailing zero
    included) equals the graph distance; the difference at coordinate j is
    -F(j-1), so this is the profile identity in c0 clothing.
    """
    d = dist(n, m)
    if d == 0:
        return (math.nan, math.nan)
    diff = summing_image(n) - summing_image(m)
    vals = [*map(int, diff.coeffs), 0]  # the stored coordinates and the zero tail
    hi, lo = max(vals), min(vals)
    s = max(hi, -lo)
    if not (2 * s >= d and s <= d):
        raise AssertionError(f"distortion bound violated for {n}, {m}: s={s}, d={d}")
    if hi - lo != d:
        raise AssertionError(f"profile identity violated for {n}, {m}")
    return (s / d, 1.0)


def m_k_point(n: InterlacedTuple, a: Iterable[int]) -> FinSeq:
    """Coordinatewise product of the summing image with the indicator of `a`."""
    mask = set(int(v) for v in a)
    img = summing_image(n)
    coeffs = [v if (i + 1) in mask else 0.0 for i, v in enumerate(img.coeffs)]
    return FinSeq(tuple(coeffs), 0.0)


def _canonical_values(x: FinSeq) -> list[float]:
    # stored block plus one sentinel carrying the tail; beyond it all increments vanish
    return list(x.coeffs) + [x.tail]


def _check_p(p: float) -> float:
    p = float(p)
    if not (p > 1.0) or math.isinf(p):
        raise InvalidInput("the variation exponent must satisfy 1 < p < inf")
    return p


def james_norm(x: FinSeq, p: float = 2.0) -> float:
    """Exact p-variation norm by dynamic programming, O(L^2).

    best(j) is the largest sum of p-th power increments over an increasing
    index sequence ending at j; starting fresh at any index is allowed, which
    realizes the supremum over all finite index sets.
    """
    p = _check_p(p)
    vals = _canonical_values(x)
    best = [0.0] * len(vals)
    overall = 0.0
    for j in range(len(vals)):
        b = 0.0
        for i in range(j):
            cand = best[i] + abs(vals[j] - vals[i]) ** p
            if cand > b:
                b = cand
        best[j] = b
        if b > overall:
            overall = b
    return overall ** (1.0 / p)


def james_norm_bruteforce(x: FinSeq, p: float = 2.0) -> float:
    """Exhaustive maximum over all increasing index subsets; the independent oracle."""
    p = _check_p(p)
    vals = _canonical_values(x)
    if len(vals) > BRUTE_FORCE_CAP:
        raise ResourceLimit(
            f"canonical index set of size {len(vals)} exceeds the cap {BRUTE_FORCE_CAP}"
        )
    best = 0.0
    idx = range(len(vals))
    for size in range(2, len(vals) + 1):
        for comb in itertools.combinations(idx, size):
            s = sum(abs(vals[b] - vals[a]) ** p for a, b in zip(comb, comb[1:]))
            if s > best:
                best = s
    return best ** (1.0 / p)


def successive_block_ratio(blocks: Sequence[FinSeq], p: float = 2.0) -> float:
    """||sum x_i||^p / sum ||x_i||^p for successively supported tail-0 blocks.

    A measurement, not an assertion: the constant bounding such ratios is not
    pinned down, so callers aggregate empirical maxima themselves.
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
