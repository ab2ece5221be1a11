"""Hankel function evaluation across its three regimes.

The kernel code needs H^(1)_nu(zeta) for half-integer and integer orders on
the closed upper half-plane, from |zeta| ~ 1e-3 out to |zeta| ~ 100.  No
single formula covers that range: the power series loses e^(|zeta| + Im zeta)
digits to cancellation, the asymptotic expansion diverges for small |zeta|.
Production ``hankel1`` therefore takes scipy's AMOS routine for integer
orders and the exact terminating closed form for half-integer orders; the
series and asymptotic routes stay as reference oracles.  This script shows
where each reference route lives, how they agree on the overlap, and how
far production values sit from a high-precision series.
"""

import numpy as np

from diracshift.specfun import (
    hankel1,
    hankel1_asymptotic,
    hankel1_halfint,
    hankel1_series,
)

print("== half-integer closed forms vs series (moderate arguments) ==")
for nu in (0.5, 1.5, 2.5):
    z = 3.0 + 1.0j
    closed = hankel1_halfint(nu, z)
    series = hankel1_series(nu, z, dps=40)
    rel = abs(closed - series) / abs(series)
    print(f"nu={nu}: H = {closed:.12g}   rel dev vs series = {rel:.2e}")

print()
print("== series/asymptotics overlap at large |zeta| (nu = 2) ==")
for r in (18.0, 25.0, 32.0):
    z = r * np.exp(0.3j)
    series = hankel1_series(2.0, z, dps=80)
    asym, rem = hankel1_asymptotic(2.0, z, 20)
    rel = abs(asym - series) / abs(series)
    print(f"|zeta|={r:5.1f}: rel dev = {rel:.2e}   remainder proxy = {rem:.2e}")

print()
print("== production hankel1 vs the dps=80 series ==")
for nu in (0, 2, 1.5):
    route = "closed form" if nu != int(nu) else "AMOS"
    for r in (0.01, 1.0, 10.0, 25.0, 80.0):
        z = r * np.exp(0.7j)
        val = hankel1(nu, z)
        ref = hankel1_series(nu, z, dps=80)
        rel = abs(val - ref) / abs(ref)
        print(f"nu={nu} ({route:>11s}) |zeta|={r:6.2f}: |H| = {abs(val):.6e}   rel dev = {rel:.2e}")

print()
print("== cancellation is why the series needs arbitrary precision ==")
z = 40.0 * np.exp(1.2j)
f64 = hankel1_series(0.5, z)
mp80 = hankel1_series(0.5, z, dps=80)
print(f"zeta = {z:.3f},  |H| ~ {abs(mp80):.3e}")
print(f"float64 series:  {f64:.6e}")
print(f"dps=80 series:   {mp80:.6e}")
print(f"float64 relative error: {abs(f64 - mp80) / abs(mp80):.2e}")
