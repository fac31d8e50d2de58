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
  changing its sum or its disjointness from the others.  With cum[w] the sum
  of x from the root down to w, a segment open at v whose top sum is t is
  worth G_v(t) = max over w below v of (cum[w] - t)^2 + d_w: it closes at w,
  and d_w adds F over the subtrees hanging off the path from v to w, the
  children of w included.  These parabolas share their curvature, so any
  two cross at most once, and each node's envelope is a Li Chao tree over
  the distinct top sums.  With F(v) = max(sum of F over the children,
  G_v(top sum at v)) the norm is sqrt(F(root)).  Cost is O(n log n) on unary
  chains and O(n log^2 n) at worst in n virtual nodes, independent of
  string length.
* jt_norm_bruteforce -- enumeration of disjoint families of raw segments as
  bitmasks over every prefix of the support, capped by support size.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, Sequence

from ._record import Record, setfield
from .errors import InvalidInput, ResourceLimit, _number, _numbers, _short_repr
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

JT_SUPPORT_CAP = 4096  # f_embed images only: top + 1 keys of length up to top
BRUTE_FORCE_SUPPORT_CAP = 12
_ENTRIES = "tree vector entries"


def _node(key: str) -> str:
    return f"node {_short_repr(key)}"


def _check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise InvalidInput(f"tree nodes are 0/1 strings, got {_short_repr(s)}")
    return s


class Segment(Record):
    """Vertical chain between two comparable nodes: all prefixes of hi above lo."""

    _fields = ("lo", "hi")

    def __init__(self, lo: str, hi: str) -> None:
        # a str prefix of a 0/1 string is a 0/1 string, so lo needs no bit check
        _check_bits(hi)
        if not (isinstance(lo, str) and hi.startswith(lo)):
            raise InvalidInput(f"{_short_repr(lo)} is not a prefix of {_short_repr(hi)}")
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)

    def nodes(self) -> list[str]:
        return [self.hi[:j] for j in range(len(self.lo), len(self.hi) + 1)]


class TreeVec(Record):
    """Finitely supported function on the dyadic tree; zero entries are dropped.

    Its `entries` field is a dict, so a TreeVec has no hash.
    """

    _fields = ("entries",)

    def __init__(self, entries: Mapping[str, float]) -> None:
        for key in entries:
            _check_bits(key)
        vals = _numbers(entries.values(), _ENTRIES, lambda i: _node(list(entries)[i]))
        setfield(self, "entries", {k: v for k, v in zip(entries, vals) if v != 0.0})

    def value(self, node: str) -> float:
        return self.entries.get(node, 0.0)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries, key=lambda s: (len(s), s)))

    def _combine(self, other: "TreeVec", op: Callable[[float, float], float]) -> "TreeVec":
        # both operands hold checked keys and finite nonzero floats, so only a
        # shared or new key is read: a zero result is dropped, an overflow named
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = op(out.get(k, 0.0), v)
            if s == 0.0:
                del out[k]  # 0.0 op v is nonzero, so k was in self
            elif math.isinf(s):
                _numbers((s,), _ENTRIES, lambda i: _node(k))  # raises, naming k
            else:
                out[k] = s
        return _checked(out)

    def __add__(self, other: "TreeVec") -> "TreeVec":
        return self._combine(other, operator.add)

    def __neg__(self) -> "TreeVec":
        return _checked({k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "TreeVec") -> "TreeVec":
        # a - b is a + (-b) in IEEE arithmetic
        return self._combine(other, operator.sub)

    def __mul__(self, scalar: float) -> "TreeVec":
        s = _number(scalar, "the scalar must be a finite number", math.isfinite)
        return TreeVec({k: s * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def to_json_dict(self) -> dict[str, float]:
        return {k: self.entries[k] for k in self.support}

    @staticmethod
    def from_json_dict(obj: Mapping[str, float]) -> "TreeVec":
        if not isinstance(obj, Mapping):
            raise InvalidInput("tree vectors are JSON objects mapping bit-strings to numbers")
        return TreeVec(obj)


def _checked(entries: dict[str, float]) -> TreeVec:
    """The vector of entries the caller vouches for, built without `__init__`'s checks.

    Every key must be a 0/1 string and every value a finite nonzero float, as
    in the result of arithmetic on TreeVecs; the dict is kept, not copied.
    """
    x = object.__new__(TreeVec)
    setfield(x, "entries", entries)
    return x


class Branch(Record):
    """A finite 0/1 prefix standing in for an infinite branch of the tree."""

    _fields = ("bits",)

    def __init__(self, bits: str) -> None:
        self._set(_check_bits(bits))

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
                raise InvalidInput(f"segments overlap at {_node(node)}")
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
    branch points), children before parents.  A segment open at v with top
    sum t is worth G_v(t) = max over closing nodes w below v of
    (cum[w] - t)^2 + d_w, one parabola per w kept in a Li Chao tree over the
    sorted distinct `above` values, the only points ever queried.  A unary
    node reuses its child's tree; a branch point adds each child's F to the
    other child's parabolas as a per-tree offset and inserts the smaller tree
    into the larger.  Cost is O(n log n) on unary chains and O(n log^2 n) at
    worst in n virtual nodes, independent of the length of the node strings.
    """
    if not x.entries:
        return 0.0, []
    # scale by a power of two so squares cannot overflow; exact in binary floats
    _, exp = math.frexp(max(abs(v) for v in x.entries.values()))
    supp = sorted(x.entries)  # lexicographic order on 0/1 strings is preorder
    virtual = set(supp)
    for a, b in zip(supp, supp[1:]):
        if not b.startswith(a):
            # the bits agree up to the highest set bit of their XOR
            m = min(len(a), len(b))
            virtual.add(a[: m - (int(a[:m], 2) ^ int(b[:m], 2)).bit_length()])
    order = sorted(virtual)
    n = len(order)
    parent = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    cum = [0.0] * n  # sum of x from the virtual root down to the node
    above = [0.0] * n  # the same sum stopping just above the node
    path: list[int] = []  # virtual ancestors of the current node, root first
    for i, node in enumerate(order):
        while path and not node.startswith(order[path[-1]]):
            path.pop()
        if path:
            p = path[-1]
            parent[i] = p
            kids[p].append(i)
            above[i] = cum[p]
        cum[i] = above[i] + math.ldexp(x.entries.get(node, 0.0), -exp)
        path.append(i)

    # Li Chao trees over the points xs[0..top]: the node owning the range
    # [lo, hi] is keyed by its midpoint and holds the parabola (c, d, w) that
    # is highest there; the loser can only win on one side of the midpoint,
    # since two parabolas of equal curvature cross at most once
    xs = sorted(set(above))
    slot = {t: i for i, t in enumerate(xs)}
    top = len(xs) - 1

    def insert(tree: dict, c: float, d: float, w: int) -> None:
        lo, hi = 0, top
        while True:
            mid = (lo + hi) >> 1
            held = tree.get(mid)
            if held is None:
                tree[mid] = (c, d, w)
                return
            hc, hd, hw = held
            t = xs[mid]
            if (c - t) ** 2 + d > (hc - t) ** 2 + hd:
                tree[mid] = (c, d, w)
                c, d, w, hc, hd = hc, hd, hw, c, d
            if lo < mid and (c - xs[lo]) ** 2 + d > (hc - xs[lo]) ** 2 + hd:
                hi = mid - 1
            elif mid < hi and (c - xs[hi]) ** 2 + d > (hc - xs[hi]) ** 2 + hd:
                lo = mid + 1
            else:
                return

    def query(tree: dict, i: int) -> tuple[float, int]:
        t = xs[i]
        lo, hi = 0, top
        best_val, best_w = -math.inf, -1
        while True:
            mid = (lo + hi) >> 1
            held = tree.get(mid)
            if held is None:
                return best_val, best_w
            val = (held[0] - t) ** 2 + held[1]
            if val > best_val:
                best_val, best_w = val, held[2]
            if i < mid:
                hi = mid - 1
            elif i > mid:
                lo = mid + 1
            else:
                return best_val, best_w

    best = [0.0] * n  # F(v): the best value in v's subtree with nothing open
    closes = [-1] * n  # where the segment topped at v closes, or -1 if none starts
    # G_v as (tree, offset): each d is stored less the offset added to the whole
    # tree since it went in; freed once the parent has used it
    envelope: list[tuple[dict, float] | None] = [None] * n
    for v in range(n - 1, -1, -1):  # reversed preorder: children first
        ch = kids[v]
        if not ch:
            tree, off, free = {}, 0.0, 0.0
        elif len(ch) == 1:
            (c,) = ch
            tree, off = envelope[c]
            envelope[c] = None
            free = best[c]
        else:
            big, small = ch
            if len(envelope[big][0]) < len(envelope[small][0]):
                big, small = small, big
            tree, off = envelope[big]
            other, other_off = envelope[small]
            envelope[big] = envelope[small] = None
            free = best[big] + best[small]
            off += best[small]
            shift = other_off + best[big] - off
            for c, d, w in other.values():
                insert(tree, c, d + shift, w)
        insert(tree, cum[v], free - off, v)
        val, w = query(tree, slot[above[v]])
        val += off
        if val > free:
            best[v] = val
            closes[v] = w
        else:
            best[v] = free
        envelope[v] = (tree, off)

    witness: list[Segment] = []
    todo = [0]
    while todo:
        v = todo.pop()
        w = closes[v]
        if w < 0:
            todo.extend(kids[v])
            continue
        if cum[w] != above[v]:  # a segment summing to 0 adds nothing
            witness.append(Segment(order[v], order[w]))
        # the subtrees hanging off the segment v..w start with nothing open
        todo.extend(kids[w])
        while w != v:
            p = parent[w]
            todo.extend(c for c in kids[p] if c != w)
            w = p
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
    of the root functional and cancels in all differences.  An image of more
    than JT_SUPPORT_CAP nodes (n_k >= JT_SUPPORT_CAP) is a ResourceLimit.
    """
    sigma.prefix(n.top)  # raises if the branch is too short
    if n.top + 1 > JT_SUPPORT_CAP:
        # top + 1 keys of length up to top: memory quadratic in the depth
        raise ResourceLimit(
            f"f image with {n.top + 1} nodes exceeds the support cap "
            f"JT_SUPPORT_CAP = {JT_SUPPORT_CAP}"
        )
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
    # summed, not set, so a node two segments share would expect 2c
    expect: dict[str, float] = {}
    c = 1.0 / math.sqrt(n.arity)
    for seg in segs:
        for node in seg.nodes():
            expect[node] = expect.get(node, 0.0) + c
    actual = f_embed(sigma, hi) - f_embed(sigma, lo)
    keys = set(expect) | set(actual.entries)
    for key in keys:
        if abs(expect.get(key, 0.0) - actual.value(key)) > 1e-12:
            raise AssertionError(f"decomposition mismatch at node {key!r}")
    return _witness_sorted(segs)
