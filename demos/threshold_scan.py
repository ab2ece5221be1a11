"""Birman-Schwinger threshold analysis of a matrix Gaussian well.

Assembles the self-adjoint zero-energy Birman-Schwinger matrix
U_V + V1 G0(0) V1* of a matrix potential V = V1* U_V V1 on a tensor grid,
and scans the coupling amplitude: for weak coupling the threshold is regular,
and at a critical amplitude an eigenvalue crossing makes it exceptional, with
a zero-energy candidate pair (phi_0, psi_0) reconstructed from the crossing
eigenvector.
"""

import numpy as np

from diracshift.clifford import build_clifford
from diracshift.discretize import assemble_bs_selfadjoint, build_grid
from diracshift.potential import gaussian
from diracshift.resolvalg import threshold_classify, threshold_sweep

rep = build_clifford(3)
grid = build_grid(3, 3.0, 3)


def well(amplitude):
    return gaussian(3, amplitude=-amplitude, size=rep.N)


print(f"grid: {grid.nodes.shape[0]} nodes in a box of half-width {grid.R}")

print()
print("== weak coupling: regular threshold ==")
report = threshold_classify(rep, grid, well(0.05), tol=1e-3)
print("classification:", report.classification)
print("smallest |eigenvalue| of the assembled matrix:",
      np.abs(report.eigenvalues).min())

print()
print("== locating the first crossing through the linear pencil ==")
# the assembled matrix is U + a K (linear in the amplitude a): the punctured
# rule leaves U alone on the diagonal blocks and K off them, so one assembly
# gives both, and crossings solve -1/a in spec(U^-1 K)
m1 = assemble_bs_selfadjoint(rep, grid, well(1.0)).matrix
node = np.arange(m1.shape[0]) // rep.N
u_part = np.where(node[:, None] == node[None, :], m1, 0.0)
k_part = m1 - u_part
mu = np.linalg.eigvals(np.linalg.solve(u_part, k_part))
real_neg = sorted(-1.0 / m.real for m in mu if abs(m.imag) < 1e-9 and m.real < 0)
a_star = next(a for a in real_neg if a > 0)
print(f"first crossing amplitude: {a_star:.6f}")

print()
print("== amplitude sweep across the crossing (one assembly) ==")
amplitudes = np.linspace(a_star - 2.0, a_star + 2.0, 9)
for entry in threshold_sweep(rep, grid, well(1.0), amplitudes, tol=1e-2):
    mark = "  <- exceptional" if entry["classification"] == "exceptional" else ""
    print(f"amplitude {entry['amplitude']:9.4f}: "
          f"min |eig| = {entry['min_abs_eigenvalue']:.5f}{mark}")

print()
print("== candidate zero-energy pair at the crossing ==")
report = threshold_classify(rep, grid, well(a_star), tol=1e-6)
print("classification:", report.classification)
print("near-zero eigenvalues:", report.near)
print("candidate pair shapes: phi0", report.phi0.shape, " psi0", report.psi0.shape)
print("Hermiticity defect of the assembled matrix:", report.hermiticity_defect)
