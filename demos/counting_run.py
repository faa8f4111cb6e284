"""Simulate one photon-counting run and fit the model back out.

Generates Poisson counts on both detectors for three resonator
detunings, then runs the joint fit and prints truth versus estimate.
Fully deterministic for a fixed seed.
"""

import argparse

import numpy as np

from vitlab.config import MHZ, load_config, physical_config
from vitlab.fitting import fit_vit_spectra, format_value_error
from vitlab.recipes import RESONATOR_DETUNINGS_MHZ
from vitlab.synth import ScanPlan, generate_scan, spectrum_from_records

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=7)
parser.add_argument("--dwell-ms", type=float, default=50.0)
args = parser.parse_args()

conf = load_config()
cfg = physical_config(conf)
eta_true = 5.0

plan = ScanPlan(
    delta_cavity_list=tuple(np.array(RESONATOR_DETUNINGS_MHZ) * MHZ),
    probe_grid=tuple(np.linspace(-4.0, 4.0, 81) * MHZ),
    photon_flux=1e6,
    dwell=args.dwell_ms * 1e-3,
    rng_seed=args.seed,
)

records = generate_scan(cfg, eta_true, plan)
total = int(records.counts_d1.sum() + records.counts_d2.sum())
print(f"generated {len(plan.delta_cavity_list)} scans x {len(plan.probe_grid)} points, "
      f"{total} photons detected")

fit = fit_vit_spectra([spectrum_from_records(records, plan)], cfg)

n_pts = 2 * len(records)
print(f"converged: {fit.converged} after {fit.iterations} iterations, "
      f"chi2/dof = {fit.residual_norm / (n_pts - 3):.3f}")
print(f"truth      eta_eff = {eta_true}, od = {cfg.od}")
print(f"estimate   eta_eff = {format_value_error(fit.value('eta_eff'), fit.error('eta_eff'))}, "
      f"od = {format_value_error(fit.value('od'), fit.error('od'))}")
for name in ("eta_eff", "od"):
    truth = {"eta_eff": eta_true, "od": cfg.od}[name]
    pull = (fit.value(name) - truth) / fit.error(name)
    print(f"{name:8s} pull = {pull:+.2f} sigma")
