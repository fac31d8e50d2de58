"""Walkthrough: the James-tree norm and the two branch embeddings.

The norm maximizes the l_2 sum of segment sums over disjoint vertical
segments.  Witness families come back with every norm; the exact solver is
certified by an independent oracle, a DP over disjoint segment families that
keeps one best sum per set of live nodes; and the branch embeddings carry
exact Lipschitz and separation certificates.
"""

import math
import random

from interlace import (
    Branch,
    TreeVec,
    f_embed,
    f_separation,
    g_embed,
    g_separation,
    itup,
    jt_family_value,
    jt_norm_bruteforce,
    jt_norm_exact,
)

def show(label, x):
    norm, witness = jt_norm_exact(x)
    fam = " + ".join(f"[{s.lo or 'root'}..{s.hi or 'root'}]" for s in witness) or "(empty)"
    print(f"  {label:<28} norm={norm:.6f}  witness: {fam}")

print("== exact norms with maximizing families ==")
show("unit vector at the root", TreeVec({"": 1.0}))
show("two incomparable units", TreeVec({"0": 1.0, "1": 1.0}))
show("half chain  0 -> 00", TreeVec({"0": 0.5, "00": 0.5}))
show("alternating chain", TreeVec({"": 1.0, "0": -1.0, "00": 1.0}))

print("\n== the brute-force oracle certifies the solver ==")
rng = random.Random(9)
worst = 0.0
for _ in range(100):
    leaves = ["".join(rng.choice("01") for _ in range(4)) for _ in range(3)]
    x = TreeVec(
        {nd[:j]: rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]) for nd in leaves for j in (1, 3, 4)}
    )
    val, wit = jt_norm_exact(x)
    worst = max(worst, abs(val - jt_norm_bruteforce(x)), abs(jt_family_value(x, wit) - val))
print(f"  100 random three-leaf vectors: worst discrepancy {worst:.2e}")

print("\n== branch embedding g (into the tree space) ==")
sigma, tau = Branch("0" * 10), Branch("1" * 10)
n = itup(1, 2)
vec = g_embed(sigma, n)
print(f"  g(sigma, {n}) = {vec.to_json_dict()}  norm={jt_norm_exact(vec)[0]:.4f}")
for k, tup in [(1, itup(2)), (2, itup(1, 2)), (4, itup(1, 2, 3, 4)), (8, itup(*range(1, 9)))]:
    got = g_separation(sigma, tau, tup)
    print(f"  k={k}: separation {got:.6f} = sqrt(k/2) = {math.sqrt(k / 2):.6f}")

print("\n== dual-side embedding f (coefficient vectors) ==")
vec = f_embed(sigma, itup(1, 2))
print(f"  f(sigma, (1,2)) coefficients: {vec.to_json_dict()}")
for k in (1, 4, 9):
    tup = itup(*range(1, k + 1))
    sig, tav = Branch("0" * (k + 1)), Branch("1" * (k + 1))
    got = f_separation(sig, tav, tup)
    print(f"  k={k}: pairing against the unit witness = {got:.6f} >= sqrt(k) = {math.sqrt(k):.6f}")
