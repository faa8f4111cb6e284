"""Scan the probe across the resonant dip and watch the window open.

Prints a small table of on-resonance transmission versus intracavity
photon number, then the window profile at one photon number, all from
the analytic model with the realistic correction stack.
"""

import numpy as np

from vitlab.config import MHZ, corrections, load_config, physical_config
from vitlab.core import transmission
from vitlab.recipes import ETA_EFF_0, transparency_curve
from vitlab.spatial import corrected_spectrum, effective_cooperativity

conf = load_config()
cfg = physical_config(conf)

print(f"bare two-level transmission exp(-OD) = {np.exp(-cfg.od):.4f}")
print()
print(" n_c   eta_eff   T(0,0)   contrast")
for n_c, eta, t0, theta in transparency_curve(conf, cfg, range(0, 11, 2)):
    print(f"{n_c:4d}  {eta:8.1f}  {t0:.4f}     {theta:.3f}")

print()
print("window profile at n_c = 4 (uncorrected single atom for comparison):")
corr = corrections(conf, average=True, side=True, jitter=True)
grid = np.linspace(-4.0, 4.0, 17) * MHZ
eta = effective_cooperativity(ETA_EFF_0, 4)
print(" delta/2pi (MHz)   corrected   ideal")
for d in grid:
    tc = corrected_spectrum(cfg, eta, d, 0.0, corr)[0]
    ti = transmission(cfg, eta, d, 0.0)
    print(f"{d / MHZ:15.2f}   {tc:.4f}      {ti:.4f}")
