"""The dyadic tree, the James-tree norm as segment optimization, and tree embeddings.

Nodes of the dyadic tree are finite 0/1 strings ("" is the root); s <= t when t
extends s.  A segment is the vertical chain between two comparable nodes.  For
a finitely supported x: T -> R the James-tree norm is

    ||x||_JT = sup ( sum_i (sum_{s in S_i} x(s))^2 )^(1/2)

over families of pairwise node-disjoint segments S_1, ..., S_n.  One exact
solver handles every finite support, and one independent oracle certifies it:

* jt_norm_exact -- dynamic programming on the virtual tree: the support plus
  its branch points (common prefixes of lexicographic neighbours).  Every
  other prefix of the support holds 0 and has one child among those
  prefixes, so a segment may be trimmed at it or extended through it without
  changing its sum or its disjointness from the others.  For a virtual node
  v at virtual depth d and j = 0..d, G_v[j] is the best value inside v's
  subtree when a segment topped by v's j-th virtual ancestor is open at v;
  it closes at v (scoring its squared sum) or continues into one child.
  With F(v) = max(sum of F over the children, G_v[d]) the norm is
  sqrt(F(root)).
* jt_norm_bruteforce -- enumeration of disjoint families of raw segments as
  bitmasks over every prefix of the support, capped by support size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidInput, ResourceLimit
from .graphs import InterlacedTuple, is_adjacent
from .sequences import summing_image

__all__ = [
    "Segment",
    "TreeVec",
    "Branch",
    "segment_functional",
    "jt_family_value",
    "jt_norm_exact",
    "jt_norm_bruteforce",
    "pair",
    "g_embed",
    "f_embed",
    "f_separation",
    "g_separation",
    "f_difference_segments",
    "JT_SUPPORT_CAP",
    "BRUTE_FORCE_SUPPORT_CAP",
]

JT_SUPPORT_CAP = 4096
BRUTE_FORCE_SUPPORT_CAP = 12


def _check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise InvalidInput(f"tree nodes are 0/1 strings, got {s!r}")
    return s


@dataclass(frozen=True)
class Segment:
    """Vertical chain between two comparable nodes: all prefixes of hi above lo."""

    lo: str
    hi: str

    def __post_init__(self) -> None:
        # a str prefix of a 0/1 string is a 0/1 string, so lo needs no bit check
        _check_bits(self.hi)
        if not (isinstance(self.lo, str) and self.hi.startswith(self.lo)):
            raise InvalidInput(f"{self.lo!r} is not a prefix of {self.hi!r}")

    def nodes(self) -> list[str]:
        return [self.hi[:j] for j in range(len(self.lo), len(self.hi) + 1)]


@dataclass(frozen=True)
class TreeVec:
    """Finitely supported function on the dyadic tree; zero entries are dropped."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        clean = {}
        for key, val in self.entries.items():
            _check_bits(key)
            try:
                v = float(val)
            except (TypeError, ValueError):
                raise InvalidInput(f"entry at {key!r} is not a number: {val!r}") from None
            if not math.isfinite(v):
                raise InvalidInput(f"entry at {key!r} is not finite: {v!r}")
            if v != 0.0:
                clean[key] = v
        object.__setattr__(self, "entries", clean)

    def value(self, node: str) -> float:
        return self.entries.get(node, 0.0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries, key=lambda s: (len(s), s)))

    def __add__(self, other: "TreeVec") -> "TreeVec":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0.0) + v
        return TreeVec(out)

    def __neg__(self) -> "TreeVec":
        return TreeVec({k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "TreeVec") -> "TreeVec":
        return self + (-other)

    def __mul__(self, scalar: float) -> "TreeVec":
        s = float(scalar)
        return TreeVec({k: s * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def to_json_dict(self) -> dict[str, float]:
        return {k: self.entries[k] for k in self.support}

    @staticmethod
    def from_json_dict(obj: Mapping[str, float]) -> "TreeVec":
        if not isinstance(obj, Mapping):
            raise InvalidInput("tree vectors are JSON objects mapping bit-strings to numbers")
        if len(obj) > JT_SUPPORT_CAP:
            raise ResourceLimit(
                f"{len(obj)} nodes exceed the support cap JT_SUPPORT_CAP = {JT_SUPPORT_CAP}"
            )
        return TreeVec(dict(obj))


@dataclass(frozen=True)
class Branch:
    """A finite 0/1 prefix standing in for an infinite branch of the tree."""

    bits: str

    def __post_init__(self) -> None:
        _check_bits(self.bits)

    def prefix(self, n: int) -> str:
        if n > len(self.bits):
            raise InvalidInput(
                f"branch of length {len(self.bits)} is too short for depth {n}"
            )
        return self.bits[:n]


def segment_functional(seg: Segment) -> TreeVec:
    """Coefficient vector of the functional x -> sum of x over the segment."""
    return TreeVec({node: 1.0 for node in seg.nodes()})


def jt_family_value(x: TreeVec, family: Sequence[Segment]) -> float:
    """( sum_i (segment sum)^2 )^(1/2); the family must be pairwise node-disjoint.

    Sums are scaled by the power of two of max|x|, as in jt_norm_exact, so
    squares of huge entries do not overflow.
    """
    _, exp = math.frexp(max((abs(v) for v in x.entries.values()), default=0.0))
    seen: set[str] = set()
    total = 0.0
    for seg in family:
        nodes = seg.nodes()
        for node in nodes:
            if node in seen:
                raise InvalidInput(f"segments overlap at node {node!r}")
            seen.add(node)
        s = sum(math.ldexp(x.value(node), -exp) for node in nodes)
        total += s * s
    try:
        return math.ldexp(math.sqrt(total), exp)
    except OverflowError:
        raise InvalidInput("the family value exceeds the largest float") from None


def _witness_sorted(segs: Sequence[Segment]) -> list[Segment]:
    return sorted(segs, key=lambda s: (len(s.lo), s.lo, len(s.hi), s.hi))


def jt_norm_exact(x: TreeVec) -> tuple[float, list[Segment]]:
    """Exact James-tree norm and a maximizing disjoint segment family.

    Dynamic program over the virtual tree of the support (support nodes plus
    branch points), in post-order with an explicit stack.  Cost is
    O(sum of virtual depths), at most quadratic in the support size and
    independent of the length of the node strings.
    """
    if not x.entries:
        return 0.0, []
    # scale by a power of two so squares cannot overflow; exact in binary floats
    _, exp = math.frexp(max(abs(v) for v in x.entries.values()))
    supp = sorted(x.entries)  # lexicographic order on 0/1 strings is preorder
    virtual = set(supp)
    for a, b in zip(supp, supp[1:]):
        if not b.startswith(a):
            virtual.add(os.path.commonprefix((a, b)))
    order = sorted(virtual)
    n = len(order)
    kids: list[list[int]] = [[] for _ in range(n)]
    depth = [0] * n
    cum = [0.0] * n  # sum of x from the virtual root down to the node
    above = [0.0] * n  # the same sum stopping just above the node
    best_open: list[list[float] | None] = [None] * n  # G_v, freed once used
    best = [0.0] * n  # F(v)
    back: list[bytes] = [b""] * n
    starts = [False] * n
    path: list[int] = []  # virtual ancestors of the current node, root first
    tops: list[float] = []  # above[a] for each a on path

    def finish() -> None:
        # G_v[j]: best value in v's subtree while the segment topped by the
        # j-th virtual ancestor of v is open at v; back[v][j] records whether
        # it closes at v (0) or continues into kids[v][choice - 1]
        v = path[-1]
        cv = cum[v]
        ch = kids[v]
        if not ch:
            free = 0.0
            g = [(s := cv - t) * s for t in tops]
            bp = bytes(len(g))
        elif len(ch) == 1:
            c = ch[0]
            free = best[c]
            gc = best_open[c]
            best_open[c] = None
            close = [(s := cv - t) * s + free for t in tops]
            g = list(map(max, close, gc))
            bp = bytes(map(float.__lt__, close, gc))
        else:
            c0, c1 = ch
            f0, f1 = best[c0], best[c1]
            free = f0 + f1
            into0 = [e + f1 for e in best_open[c0]]
            into1 = [e + f0 for e in best_open[c1]]
            best_open[c0] = best_open[c1] = None
            close = [(s := cv - t) * s + free for t in tops]
            g = list(map(max, close, into0, into1))
            bp = bytes(
                0 if m == c else 1 if m == e0 else 2
                for m, c, e0 in zip(g, close, into0)
            )
        best_open[v] = g
        back[v] = bp
        if g[-1] > free:
            best[v] = g[-1]
            starts[v] = True
        else:
            best[v] = free
        path.pop()
        tops.pop()

    for i, node in enumerate(order):
        while path and not node.startswith(order[path[-1]]):
            finish()
        if path:
            parent = path[-1]
            kids[parent].append(i)
            depth[i] = depth[parent] + 1
            above[i] = cum[parent]
        cum[i] = above[i] + math.ldexp(x.entries.get(node, 0.0), -exp)
        path.append(i)
        tops.append(above[i])
    while path:
        finish()

    witness: list[Segment] = []
    todo = [(0, -1, 0)]  # (node, depth of the open segment's top or -1, top)
    while todo:
        v, j, top = todo.pop()
        if j < 0:
            if not starts[v]:
                todo.extend((c, -1, 0) for c in kids[v])
                continue
            j, top = depth[v], v
        choice = back[v][j]
        if choice == 0:
            if cum[v] != above[top]:
                witness.append(Segment(order[top], order[v]))
            todo.extend((c, -1, 0) for c in kids[v])
        else:
            into = kids[v][choice - 1]
            todo.append((into, j, top))
            todo.extend((c, -1, 0) for c in kids[v] if c != into)
    try:
        norm = math.ldexp(math.sqrt(best[0]), exp)
    except OverflowError:
        raise InvalidInput("the norm exceeds the largest float") from None
    return norm, _witness_sorted(witness)


def jt_norm_bruteforce(x: TreeVec) -> float:
    """Exhaustive maximum over disjoint families of raw segments; the independent oracle.

    Every prefix of a support node gets one bit and a segment is the bitmask
    of its chain.  Only segments whose two ends lie in the support are
    listed: trimming zero ends keeps the sum and removes no disjointness.
    """
    if len(x.entries) > BRUTE_FORCE_SUPPORT_CAP:
        raise ResourceLimit(
            f"support of size {len(x.entries)} exceeds "
            f"BRUTE_FORCE_SUPPORT_CAP = {BRUTE_FORCE_SUPPORT_CAP}"
        )
    closure = sorted({s[:j] for s in x.entries for j in range(len(s) + 1)})
    bit = {node: 1 << i for i, node in enumerate(closure)}
    segs: list[tuple[int, float]] = []
    for hi in x.entries:
        mask, total = 0, 0.0
        for j in range(len(hi), -1, -1):
            lo = hi[:j]
            mask |= bit[lo]
            total += x.entries.get(lo, 0.0)
            if lo in x.entries:
                segs.append((mask, total * total))
    best = 0.0

    def extend(start: int, used: int, acc: float) -> None:
        nonlocal best
        if acc > best:
            best = acc
        for i in range(start, len(segs)):
            mask, square = segs[i]
            if not mask & used:
                extend(i + 1, used | mask, acc + square)

    extend(0, 0, 0.0)
    return math.sqrt(best)


def pair(u: TreeVec, x: TreeVec) -> float:
    """Duality pairing sum_s u(s) x(s) of a coefficient vector against a tree vector."""
    if len(u.entries) > len(x.entries):
        u, x = x, u
    return sum(v * x.value(k) for k, v in u.entries.items())


def g_embed(sigma: Branch, n: InterlacedTuple) -> TreeVec:
    """(2k)^(-1/2) times the sum of unit vectors at sigma restricted to each n_i; k = arity."""
    c = 1.0 / math.sqrt(2 * n.arity)
    out: dict[str, float] = {}
    for ni in n:
        key = sigma.prefix(ni)
        out[key] = out.get(key, 0.0) + c
    return TreeVec(out)


def f_embed(sigma: Branch, n: InterlacedTuple) -> TreeVec:
    """Dual-side image: coefficient of s is k^(-1/2) |{i : s <= sigma|n_i}|; k = arity.

    The counts below the root are the summing image of n.  The root is
    included among the prefixes; this shifts every image by the same multiple
    of the root functional and cancels in all differences.
    """
    sigma.prefix(n.top)  # raises if the branch is too short
    k = n.arity
    c = 1.0 / math.sqrt(k)
    counts = (float(k), *summing_image(n).coeffs)
    return TreeVec({sigma.prefix(j): c * v for j, v in enumerate(counts)})


def _first_disagreement(sigma: Branch, tau: Branch, n: InterlacedTuple) -> int | None:
    """1-based index r of the first differing stored bit; None for the same branch.

    Both prefixes must cover depth n.top, and r must not exceed n_1.  Prefixes
    that agree on their common length but have different lengths leave the
    disagreement point undetermined, which is rejected rather than guessed.
    """
    sigma.prefix(n.top)
    tau.prefix(n.top)
    common = min(len(sigma.bits), len(tau.bits))
    for i in range(common):
        if sigma.bits[i] != tau.bits[i]:
            r = i + 1
            if r > n.entries[0]:
                raise InvalidInput(
                    f"branches first disagree at {r}, after n_1 = {n.entries[0]}"
                )
            return r
    if len(sigma.bits) != len(tau.bits):
        raise InvalidInput(
            "branches agree on their common prefix but differ in length; "
            "extend the prefixes to locate the first disagreement"
        )
    return None


def f_separation(sigma: Branch, tau: Branch, n: InterlacedTuple) -> float:
    """Pair f(sigma) - f(tau) against the unit vector at sigma|n_1; equals sqrt(k).

    Here k = arity.  Requires the branches to disagree at some index r <= n_1
    (identical branches return 0).  The witness vector has James-tree norm 1,
    which makes the pairing a lower bound for the dual-side separation.
    """
    if _first_disagreement(sigma, tau, n) is None:
        return 0.0
    witness = TreeVec({sigma.prefix(n.entries[0]): 1.0})
    norm, _ = jt_norm_exact(witness)
    if abs(norm - 1.0) > 1e-12:
        raise AssertionError("unit witness vector must have norm 1")
    diff = f_embed(sigma, n) - f_embed(tau, n)
    return pair(diff, witness)


def g_separation(sigma: Branch, tau: Branch, n: InterlacedTuple) -> float:
    """Pair g(sigma) - g(tau) against the segment functional between sigma|n_1
    and sigma|n_k; equals sqrt(k/2), k = arity, when the branches disagree
    before n_1.

    Cross-checks that the exact norm of the difference dominates the returned
    pairing (the functional lies in the dual unit ball).
    """
    if _first_disagreement(sigma, tau, n) is None:
        return 0.0
    seg = Segment(sigma.prefix(n.entries[0]), sigma.prefix(n.top))
    functional = segment_functional(seg)
    diff = g_embed(sigma, n) - g_embed(tau, n)
    value = pair(diff, functional)
    norm, _ = jt_norm_exact(diff)
    if norm < value - 1e-12:
        raise AssertionError("exact norm fell below the functional lower bound")
    return value


def f_difference_segments(
    sigma: Branch, n: InterlacedTuple, m: InterlacedTuple
) -> list[Segment]:
    """Decompose f(m) - f(n) for an interlaced-adjacent pair into disjoint segments.

    With k = arity and n_1 <= m_1 <= ... <= n_k <= m_k the difference has
    coefficient k^(-1/2) exactly on the chains sigma|(n_i + 1) .. sigma|m_i
    (empty when n_i = m_i), which are pairwise disjoint by the interlacing.
    The identity is verified coefficient by coefficient before returning; the
    roles of n and m are swapped when m leads.
    """
    if not is_adjacent(n, m):
        raise InvalidInput("the decomposition applies to adjacent pairs only")

    def leads(a: InterlacedTuple, b: InterlacedTuple) -> bool:
        return all(x <= y for x, y in zip(a, b))

    lo, hi = (n, m) if leads(n, m) else (m, n)
    segs = [
        Segment(sigma.prefix(a + 1), sigma.prefix(b))
        for a, b in zip(lo, hi)
        if b > a
    ]
    expect = TreeVec({})
    c = 1.0 / math.sqrt(n.arity)
    for seg in segs:
        expect = expect + c * segment_functional(seg)
    actual = f_embed(sigma, hi) - f_embed(sigma, lo)
    keys = set(expect.entries) | set(actual.entries)
    for key in keys:
        if abs(expect.value(key) - actual.value(key)) > 1e-12:
            raise AssertionError(f"decomposition mismatch at node {key!r}")
    return _witness_sorted(segs)
