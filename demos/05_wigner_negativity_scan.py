"""Witnessing Wigner negativity over a grid of displacements.

The witness omega(alpha, n) sums the first n odd Fock populations of the
state displaced by -alpha; omega > 1/2 implies W(alpha) < 0.  One
balanced sample batch serves the whole grid because displacements are
reverted by translating samples.  At the published operating point
(photon-subtracted 3 dB squeezed vacuum, preparation purity 0.95,
eps = 0.1, N = 5.5e5) the center of phase space certifies negativity
with better than 98% confidence.

The quick demo below uses a coarse grid and a reduced budget; set FULL
to reproduce the production scan (32 x 32 grid over [-2.5, 2.5]^2 at
N = 5.5e5, about 3.5 s on a 2-CPU Xeon, sampling included).
"""

import numpy as np

from stellarq import dhd, fockspace as fs, negativity as neg

FULL = False

state = fs.photon_subtract(fs.make_squeezed_thermal(fs.db_to_r(3.0), 0.0, 0.95, 32))
print(f"true omega(0, 1) = {neg.omega_true(state, 0, 1):.4f}, "
      f"true W(0) = {fs.wigner(state, 0):.4f}")

n_grid, n_samples = (32, 550_000) if FULL else (9, 120_000)
config = neg.choose_witness_params(state, 1, 0.1, n_samples)
print(f"witness parameters: p = {config.p}, eta = {config.eta:.2f} (CLT intervals)")

axis = np.linspace(-2.5, 2.5, n_grid)
results = neg.witness_scan(state, axis, axis, 1, config, seed=33, n_samples=n_samples)
neg.scan_to_csv(results, "/tmp/demo_negativity_scan.csv")

certified = {r.alpha for r in results if r.negativity_certified}
print(f"{len(certified)}/{len(results)} grid points certify W(alpha) < 0\n")
for im in axis[::-1]:
    row = "".join(
        "X" if complex(re, im) in certified else "." for re in axis
    )
    print("   " + row)
print("\n(X marks certified negativity; scan CSV at /tmp/demo_negativity_scan.csv)")
