"""Interlaced graphs on strictly increasing integer tuples and their exact metric.

The arity-k interlaced graph has all strictly increasing k-tuples of positive
integers as vertices.  Two distinct tuples n, m are adjacent when their entries
alternate, i.e. n_1 <= m_1 <= n_2 <= ... <= n_k <= m_k (or with the roles
swapped).  The shortest-path distance of this graph admits a closed form: with

    F(i) = sum_{j<=i} [j in n] - [j in m]        (the walk profile, F(0)=0)

the distance equals max(F) - min(F), which is also the largest discrepancy
||n ∩ S| - |m ∩ S|| over integer intervals S.  F changes only at the elements
of the symmetric difference n △ m, by +1 at an element of n and by -1 at an
element of m, and is 0 before the first and from the last of them on.  Both
tuples are sorted, so one two-pointer merge of their entries walks F: each
entry of n is a climb unless m shares it, the entries of m below it are falls,
and what m has left after the last entry of n is one pure fall back to 0.
`dist` is that merge keeping only the running max and min, O(k) with no
profile built; `walk_profile` is the same merge recording the steps, the pairs
(j, F(j)) for j in n △ m, from which each geodesic step costs O(k log k).
Neither depends on the size of the entries.  This module computes the metric
three ways (profile formula, breadth-first oracle, explicit geodesics) so each
can certify the others.  The geodesics have one rule, `geodesic_step`;
`geodesic_path` is its walk.
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
from collections import deque
from typing import Any, Iterable, Iterator, Sequence

from ._record import Record, setfield
from .errors import InvalidInput, _short_repr

__all__ = [
    "InterlacedTuple",
    "is_adjacent",
    "walk_profile",
    "dist",
    "dist_oracle_bfs",
    "geodesic_step",
    "geodesic_path",
    "enumerate_tuples",
]


class InterlacedTuple(Record):
    """A vertex of the arity-k graph: a strictly increasing tuple of positive ints.

    Tuples compare and order by their entries; the hash is `hash((entries,))`.
    A trusted build (`_trusted`) takes a non-empty tuple of positive, strictly
    increasing ints.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        ent = _as_ints(entries, "entries")
        if len(ent) == 0:
            raise InvalidInput("tuple must have at least one entry")
        if not all(map(operator.lt, ent, ent[1:])):
            # duplicates are rejected rather than deduplicated: fail fast on bad input
            i, v = next((i, v) for i, v in enumerate(ent[1:], 2) if v <= ent[i - 2])
            raise InvalidInput(
                f"entries must be strictly increasing: {_short_repr(v)} at index {i}"
                f" follows {_short_repr(ent[i - 2])}"
            )
        if ent[0] < 1:  # the smallest entry
            raise InvalidInput(f"entries must be positive: {_short_repr(ent[0])} at index 1")
        setfield(self, "entries", ent)

    # written out rather than inherited: tuples are compared, hashed and sorted
    # in the graph kernels
    def __eq__(self, other: object) -> Any:
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __lt__(self, other: InterlacedTuple) -> Any:
        return self.entries < other.entries if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other: InterlacedTuple) -> Any:
        return self.entries <= other.entries if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other: InterlacedTuple) -> Any:
        return self.entries > other.entries if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other: InterlacedTuple) -> Any:
        return self.entries >= other.entries if other.__class__ is self.__class__ else NotImplemented

    @property
    def arity(self) -> int:
        return len(self.entries)

    @property
    def top(self) -> int:
        return self.entries[-1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"({','.join(str(v) for v in self.entries)})"


def itup(*values: int) -> InterlacedTuple:
    """Shorthand constructor, e.g. itup(1, 3, 4)."""
    return InterlacedTuple(tuple(values))


def _as_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; a bool, float, string or other non-integer
    is InvalidInput naming the first such value and its index (from 1), never
    truncated."""
    vals = values if type(values) is tuple else tuple(values)
    if all(type(v) is int for v in vals):
        return vals
    out = []
    for i, v in enumerate(vals, 1):
        try:
            if isinstance(v, bool):
                raise TypeError
            out.append(int(operator.index(v)))  # an int subclass or an __index__ type
        except TypeError:
            raise InvalidInput(
                f"{what} must be integers: {reprlib.repr(v)} at index {i}"
            ) from None
    return tuple(out)


def _check_same_arity(n: InterlacedTuple, m: InterlacedTuple) -> None:
    if len(n.entries) != len(m.entries):
        raise InvalidInput(f"arity mismatch: {len(n.entries)} vs {len(m.entries)}")


def _interlaces(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a_1 <= b_1 <= a_2 <= ... <= a_k <= b_k."""
    return all(map(operator.le, a, b)) and all(map(operator.le, b, a[1:]))


def is_adjacent(n: InterlacedTuple, m: InterlacedTuple) -> bool:
    """True iff n != m and the entries interlace in one of the two orders."""
    _check_same_arity(n, m)
    a, b = n.entries, m.entries
    return a != b and (_interlaces(a, b) or _interlaces(b, a))


def walk_profile(n: InterlacedTuple, m: InterlacedTuple) -> tuple[tuple[int, int], ...]:
    """The steps of F: the pairs (j, F(j)) for j in n △ m, in increasing order of j.

    F is constant from one step to the next, 0 before the first step, and
    every height differs by one from the height before it; the last is 0.
    The steps come from the merge `dist` walks, recorded: O(k) whatever the
    size of the entries.
    """
    _check_same_arity(n, m)
    a, b = n.entries, m.entries
    k = len(a)
    steps = []
    j = h = 0
    for x in a:
        while j < k and b[j] < x:  # the entries of m below x: F falls
            h -= 1
            steps.append((b[j], h))
            j += 1
        if j < k and b[j] == x:  # a shared entry is no step
            j += 1
        else:
            h += 1
            steps.append((x, h))
    # what m has left over is one run: a pure fall back to 0
    steps.extend(zip(b[j:], range(h - 1, -1, -1)))
    return tuple(steps)


def _extremes(steps: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(max F, min F) from the steps; F(0) = 0 counts."""
    heights = [0] + [h for _, h in steps]
    return max(heights), min(heights)


def dist(n: InterlacedTuple, m: InterlacedTuple) -> int:
    """Graph distance via the profile formula max(F) - min(F).

    One two-pointer merge of the sorted entries keeps the running height F
    and its running max and min, with no profile built: each entry of n is
    a climb unless m shares it, and the entries of m below it are falls.
    The run of m left over after the last entry of n is a pure fall back to
    F = 0, so it sets no new min and is not read.  O(k), whatever the size
    of the entries.
    """
    _check_same_arity(n, m)
    a, b = n.entries, m.entries
    k = len(a)
    j = h = hi = lo = 0
    for x in a:
        while j < k and b[j] < x:  # the entries of m below x: F falls
            h -= 1
            j += 1
            if h < lo:
                lo = h
        if j < k and b[j] == x:  # a shared entry is no step
            j += 1
        else:
            h += 1
            if h > hi:
                hi = h
    return hi - lo


def dist_oracle_bfs(n: InterlacedTuple, m: InterlacedTuple) -> int:
    """Breadth-first shortest path, independent of the profile formula.

    The search runs in the finite graph on all arity-k tuples drawn from
    entries(n) ∪ entries(m).  This universe is exact: geodesics exist whose
    every step only exchanges elements of n\\m for elements of m\\n, so a
    shortest path never needs values outside the two tuples.
    """
    _check_same_arity(n, m)
    if n.entries == m.entries:
        return 0
    universe = sorted(set(n.entries) | set(m.entries))
    k = n.arity
    # combinations of sorted, distinct, positive ints
    verts = list(map(InterlacedTuple._trusted, itertools.combinations(universe, k)))
    seen = {n.entries: 0}
    queue = deque([n])
    while queue:
        v = queue.popleft()
        for w in verts:
            if w.entries not in seen and is_adjacent(v, w):
                seen[w.entries] = seen[v.entries] + 1
                if w.entries == m.entries:
                    return seen[w.entries]
                queue.append(w)
    raise AssertionError("BFS exhausted the universe without reaching the target")


def geodesic_path(n: InterlacedTuple, m: InterlacedTuple) -> list[InterlacedTuple]:
    """A shortest path n = v_0, v_1, ..., v_d = m with consecutive vertices adjacent.

    The walk of `geodesic_step`: each step lowers the remaining distance by
    exactly one, so d - 1 steps from n reach a neighbour of m.
    """
    d = dist(n, m)
    path = [n]
    for _ in range(d - 1):
        path.append(geodesic_step(path[-1], m))
    return path if d == 0 else path + [m]


def geodesic_step(n: InterlacedTuple, m: InterlacedTuple) -> InterlacedTuple:
    """The first vertex after n on a geodesic to m; requires dist(n, m) >= 2.

    Guarantees dist(n, result) = 1 and dist(result, m) = dist(n, m) - 1.  When
    max F <= 0 the entries are reflected, j -> T + 1 - j with T the larger top:
    the reflected profile is -F(T - .), whose maximum is positive, so the step
    is taken there and reflected back.

    When max F > 0 the step selects interlaced extremal indices of the
    profile: a_1 = min argmax(F), then alternately the first argmin after the
    last a and the first argmax after the last b.  F is constant between
    steps, so each of these is the start of a run, i.e. a step position.  The
    a's lie in n\\m, the b's in m\\n, and swapping them lowers every fresh
    maximum of the profile by one.  When the selection ends with one more a
    than b, the closing point r is the first strict descent of F after the
    *last* argmax, i.e. the step right after the last maximal run: the
    correction window [a_p, r) must cover every argmax, otherwise the profile
    re-attains its old maximum beyond r and the distance does not decrease
    (e.g. n=(2,3,5), m=(1,4,6)).
    """
    steps = walk_profile(n, m)
    mx, mn = _extremes(steps)
    if mx - mn < 2:
        raise InvalidInput("geodesic_step requires dist(n, m) >= 2")
    if mx <= 0:
        top = max(n.top, m.top) + 1

        def reflect(t: InterlacedTuple) -> InterlacedTuple:
            # top exceeds every entry, so the reflected entries are positive
            return InterlacedTuple._trusted(tuple(top - j for j in reversed(t.entries)))

        return reflect(geodesic_step(reflect(n), reflect(m)))
    a: list[int] = []
    b: list[int] = []
    for j, h in steps:
        if len(a) == len(b) and h == mx:
            a.append(j)
        elif len(a) > len(b) and h == mn:
            b.append(j)
    if len(a) == len(b) + 1:
        last_max = max(t for t, (_, h) in enumerate(steps) if h == mx)
        b.append(steps[last_max + 1][0])
    # the b's are entries of m: positive ints, like the entries of n
    return InterlacedTuple._trusted(tuple(sorted((set(n.entries) - set(a)) | set(b))))


def _check_arity(k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidInput("arity must be >= 1")


class TupleBox:
    """Every arity-k tuple over a universe U, each built when an iteration reaches it.

    The tuples come in `itertools.combinations` order, the order of
    `enumerate_tuples`.  The box is checked when it is made, with the
    messages the tuples would give: U holds integers, not bools, the
    smallest at least 1, the arity is an int >= 1 and |U| >= k.  A `range`
    universe stays a range, so a box over {1..M} holds O(1) values whatever
    M; any other is kept as its sorted distinct values.  Its tuples are
    combinations of that checked universe, so they are built without being
    checked again; each pass builds them anew, so a caller that reads them
    several times lists them once.  `len()` is C(|U|, k), which outgrows
    `sys.maxsize` already at k = 34 over 68 elements.
    """

    __slots__ = ("universe", "size", "k")

    def __init__(self, universe: Iterable[int], k: int) -> None:
        uni, size = _universe(universe)
        _check_arity(k)
        if size < k:
            raise InvalidInput(f"universe of size {size} cannot host arity {k}")
        if uni[0] < 1:  # the first entry of the first tuple
            raise InvalidInput(f"entries must be positive: {_short_repr(uni[0])} at index 1")
        self.universe, self.size, self.k = uni, size, k

    def __iter__(self) -> Iterator[InterlacedTuple]:
        return map(InterlacedTuple._trusted, itertools.combinations(self.universe, self.k))

    def __len__(self) -> int:
        return math.comb(self.size, self.k)


def _universe(universe: Iterable[int]) -> tuple[Sequence[int], int]:
    """(U, |U|) as a `TupleBox` keeps them: a range stays an increasing range,
    any other universe becomes its sorted distinct values, each an integer."""
    if isinstance(universe, range):
        uni = universe if universe.step > 0 else universe[::-1]
        return uni, max(0, -((uni.start - uni.stop) // uni.step))  # len() stops at sys.maxsize
    uni = tuple(sorted(set(_as_ints(universe, "universe values"))))
    return uni, len(uni)


def enumerate_tuples(universe: Iterable[int], k: int) -> list[InterlacedTuple]:
    """All C(|universe|, k) arity-k tuples over the universe, in lexicographic order."""
    return list(TupleBox(universe, k))
