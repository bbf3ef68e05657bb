"""Simulating double homodyne detection by sampling the Husimi Q function.

Balanced double homodyne detection of a state rho produces complex
outcomes distributed as Q(z) = <z|rho|z>/pi.  This script builds a few
states, draws exact samples (a Gamma-mixture radius, then a phase drawn
under the exact bound of its conditional density), and checks the first
moments against their closed forms.  Sampling is fully
deterministic: a counter-based RNG makes batches byte-identical across
runs and across worker counts.
"""

import numpy as np

from stellarq import dhd, fockspace as fs

# --- a lossless Fock state and a lossy one --------------------------------
two = fs.make_fock(2, 8)
lossy = fs.make_lossy_fock(2, 0.8, 8)
print("lossy |2> populations:", np.round(lossy.populations()[:3], 4))

batch = dhd.sample_q(two, 100_000, seed=1)
# a Fock state is diagonal, so every phase proposal is accepted (rate 1.0)
print(f"sampled {batch.n} outcomes, phase acceptance rate {batch.acceptance_rate:.3f}")
# E_Q[|z|^2] = <n> + 1
print(f"mean |z|^2 = {np.mean(np.abs(batch.samples) ** 2):.4f} (expect 3.0)")

# --- determinism across worker counts --------------------------------------
b1 = dhd.sample_q(lossy, 50_000, seed=7, n_workers=1)
b8 = dhd.sample_q(lossy, 50_000, seed=7, n_workers=8)
print("1-worker and 8-worker batches identical:", np.array_equal(b1.samples, b8.samples))

# --- unbalanced detection = squeeze, then balanced detection ---------------
r = fs.db_to_r(3.0)
squeezed_samples = dhd.sample_unbalanced(fs.make_fock(0, 16), r, 100_000, seed=2)
vr = np.var(squeezed_samples.samples.real)
vi = np.var(squeezed_samples.samples.imag)
print(f"squeezed-vacuum quadrature variances {vr:.4f}, {vi:.4f} "
      f"(expect {(1 + np.exp(-2 * r)) / 4:.4f}, {(1 + np.exp(2 * r)) / 4:.4f})")

# --- displacements are reverted by translating the samples -----------------
alpha = 0.8 - 0.5j
translated = dhd.translate_samples(batch, alpha)
restored = dhd.translate_samples(translated, -alpha)
print("translate round trip exact:", restored == batch)

# --- persistence ------------------------------------------------------------
dhd.save_csv(batch, "/tmp/demo_samples.csv")
again = dhd.load_csv("/tmp/demo_samples.csv")
print("CSV round trip:", np.array_equal(again.samples, batch.samples))
