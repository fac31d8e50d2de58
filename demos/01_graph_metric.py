"""Walkthrough: the interlaced graph metric, three ways.

Vertices of the arity-k graph are strictly increasing k-tuples; two tuples are
adjacent when their entries alternate.  The shortest-path distance has a
closed form through the walk profile F, which changes only at the entries of
the symmetric difference and is stored as those steps.  This script shows the
formula, the BFS oracle, and explicit geodesics agreeing with each other.
"""

import itertools

from interlace import (
    dist,
    dist_oracle_bfs,
    enumerate_tuples,
    geodesic_path,
    is_adjacent,
    itup,
    walk_profile,
)

print("== adjacency ==")
for n, m in [(itup(1, 3), itup(2, 4)), (itup(1, 2), itup(3, 4)), (itup(1, 2), itup(4, 5))]:
    print(f"  {n} ~ {m}?  {is_adjacent(n, m)}")

print("\n== walk profile and the distance formula ==")
n, m = itup(1, 2), itup(3, 4)
steps = walk_profile(n, m)
heights = [0] + [h for _, h in steps]
print(f"  steps (j, F(j)) of F for {n}, {m}: {steps}")
print(f"  dist = max F - min F = {max(heights)} - ({min(heights)}) = {dist(n, m)}")

print("\n== formula vs breadth-first oracle ==")
pairs = 0
for k in (1, 2, 3):
    verts = enumerate_tuples(range(1, 7), k)
    for a, b in itertools.combinations(verts, 2):
        assert dist(a, b) == dist_oracle_bfs(a, b)
        pairs += 1
print(f"  {pairs} pairs over [1..6]^k, k <= 3: exact agreement")

print("\n== explicit geodesics ==")
for a, b in [(itup(1, 2), itup(3, 4)), (itup(1, 2, 3), itup(4, 5, 6)), (itup(2, 3, 5), itup(1, 4, 6))]:
    path = geodesic_path(a, b)
    arrow = " -> ".join(str(v) for v in path)
    print(f"  d={dist(a, b)}:  {arrow}")

print("\n== diameter of the 2k-box equals the arity ==")
for k in range(1, 6):
    verts = enumerate_tuples(range(1, 2 * k + 1), k)
    diam = max(dist(a, b) for a, b in itertools.combinations(verts, 2))
    print(f"  k={k}: diam over [1..{2*k}]^{k} = {diam}")
