"""Walkthrough: the p-variation norm of the James sequence spaces.

The norm is the supremum of l_p sums of increments over increasing index
subsequences.  A dynamic program over the turning points of the sequence
computes it exactly; an independent oracle, the all-pairs chain DP over
every index, certifies it.
"""

import random

from interlace import FinSeq, james_norm, james_norm_bruteforce, successive_block_ratio

print("== basic values ==")
cases = [
    ("summing vector s_5", FinSeq((1.0,) * 5)),
    ("spike-dip-spike (1,0,1)", FinSeq((1.0, 0.0, 1.0))),
    ("single spike e_3", FinSeq((0.0, 0.0, 1.0))),
    ("staircase (1,2,3)", FinSeq((1.0, 2.0, 3.0))),
    ("constant tail 1", FinSeq((), tail=1.0)),
]
for label, x in cases:
    vals = ", ".join(f"p={p}: {james_norm(x, p):.6f}" for p in (1.5, 2.0, 3.0))
    print(f"  {label:<26} {vals}")

print("\n== dynamic program vs exhaustive oracle ==")
rng = random.Random(1)
worst = 0.0
for _ in range(200):
    x = FinSeq(tuple(rng.choice([-2, -1, -0.5, 0, 0.5, 1, 2]) for _ in range(rng.randint(0, 9))))
    for p in (1.5, 2.0, 3.0):
        a, b = james_norm(x, p), james_norm_bruteforce(x, p)
        worst = max(worst, abs(a - b))
print(f"  200 random sequences x 3 exponents, worst |DP - brute| = {worst:.2e}")

print("\n== norm of a sum of successive blocks ==")
blocks = [FinSeq((0.0,) * (3 * i) + (1.0, -1.0)) for i in range(4)]
for p in (1.5, 2.0, 3.0):
    r = successive_block_ratio(blocks, p)
    print(f"  p={p}: ||sum||^p / sum ||.||^p = {r:.4f}, within [1, 2^(p-1)] = [1, {2 ** (p - 1):.4f}]")
print("  (the upper bound holds for any successive blocks, the lower one when supports leave a gap)")
