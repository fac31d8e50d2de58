"""Walkthrough: embedding the tuple graphs into c0 with distortion 2.

The summing basis s_n has ones in the first n coordinates.  Mapping a tuple to
the sum of the corresponding summing vectors reproduces the graph metric up to
a factor two, exactly and in integer arithmetic.
"""

import itertools

from interlace import (
    dist,
    enumerate_tuples,
    itup,
    summing_distortion_check,
    summing_image,
    sup_norm,
)

print("== images under the summing embedding ==")
for n in [itup(1), itup(1, 3), itup(2, 4), itup(1, 2, 3)]:
    print(f"  {n} -> {summing_image(n)}")

print("\n== two-sided distortion certificate ==")
print("  pair                  dist  sup-diff  ratio")
for n, m in [
    (itup(1, 3), itup(2, 4)),
    (itup(1, 2), itup(3, 4)),
    (itup(1, 2, 3), itup(4, 5, 6)),
    (itup(1, 4, 7), itup(2, 5, 8)),
]:
    d = dist(n, m)
    s = sup_norm(summing_image(n) - summing_image(m))
    ratio, _ = summing_distortion_check(n, m)
    print(f"  {str(n):>9} vs {str(m):<9} {d:>3}  {s:>7.0f}  {ratio:>6.2f}")

print("\n== worst ratios over a whole box ==")
for k in (1, 2, 3):
    verts = enumerate_tuples(range(1, 2 * k + 3), k)
    ratios = [
        summing_distortion_check(a, b)[0]
        for a, b in itertools.combinations(verts, 2)
    ]
    print(f"  k={k}: ratio range [{min(ratios):.3f}, {max(ratios):.3f}] over {len(ratios)} pairs")
