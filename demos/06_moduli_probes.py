"""Walkthrough: empirical moduli, Lipschitz constants, and concentration probes.

Compression rho and expansion omega bracket every image distance; on graph
sources omega(1) is the Lipschitz constant.  The equicoarse table shows the
finite signature that separates the summing family from any family with
common moduli, and the probe searches for concentrating sub-universes.
"""

from interlace import compute_moduli, concentration_probe, equicoarse_report, lipschitz_constant
from interlace.moduli import constant_map_sample, g_map_sample, summing_map_sample

print("== empirical moduli of the summing embedding on [1..8]^3 ==")
sample = summing_map_sample(3, 8)
report = compute_moduli(sample)
print("  t    rho_hat  omega_hat")
for t, rho, omega in report.rows():
    print(f"  {t:<4} {rho:<8g} {omega:g}")

print("\n== Lipschitz constants (omega_hat at 1) ==")
print(f"  summing embedding, k=2: {lipschitz_constant(summing_map_sample(2, 6)):g}")
print(f"  branch embedding,  k=2: {lipschitz_constant(g_map_sample(2, 6)):g}")
print(f"  constant map,      k=2: {lipschitz_constant(constant_map_sample(2, 6)):g}")

print("\n== equicoarse table: the non-concentration signature ==")
rows = equicoarse_report([(k, summing_map_sample(k, 2 * k)) for k in (1, 2, 3, 4)])
print("  k  rho_hat(k)  omega_hat(1)  ratio")
for row in rows:
    print(f"  {row.k}  {row.rho_at_k:<10g} {row.omega_at_1:<12g} {row.ratio:g}")
print("  growing ratios rule out common compression/expansion controls")

print("\n== concentration probe ==")
sample = summing_map_sample(3, 10)  # its d_target is the c0 distance of the images
for mode in ("greedy", "exhaustive"):
    res = concentration_probe(
        d_target=sample.d_target, universe=range(1, 11), k=3, c=1.0, mode=mode
    )
    print(
        f"  {mode:<10} M={res.subset} diameter={res.diameter:g} "
        f"omega(1)={res.omega_1:g} concentrated={res.concentrated}"
    )
print("  no sub-universe of size 2k concentrates the summing family at c=1")
