"""Send a probe pulse through the medium and measure its group delay.

Compares the propagated delay against the narrowband prediction
tau = (OD/kappa) eta/(eta+1)^2, then repeats in the measured regime
(correction stack on) where the pulse is short enough to clip the
window. The velocity uses the double-pass path through the column.
"""

from dataclasses import replace

from vitlab.config import load_config, physical_config, corrections
from vitlab.core import (
    Detunings,
    group_delay_analytic,
    group_velocity,
    susceptibility,
    transfer_amplitude,
)
from vitlab.pulses import PulseSpec, make_gaussian_pulse, run_pulse, run_pulse_ensemble
from vitlab.spatial import ensemble_transfer

conf = load_config()
cfg = replace(physical_config(conf), od=0.5)
eta = 5.0

tau = group_delay_analytic(cfg.od, cfg.kappa, eta)
print(f"narrowband prediction tau = {tau / 1e-9:.1f} ns")


def medium(w):
    return transfer_amplitude(susceptibility(cfg, eta, Detunings(w, 0.0)), cfg)


for tp_us in (20.0, 80.0):
    pulse = make_gaussian_pulse(PulseSpec(duration=tp_us * 1e-6), n_samples=2**16)
    res = run_pulse(pulse, medium)
    print(f"T_P = {tp_us:5.1f} us: centroid delay {res.delay_centroid / 1e-9:6.2f} ns, "
          f"energy transmission {res.energy_transmission:.4f}")

print()
print("measured regime: T_P = 1.73 us with the full correction stack")
corr = corrections(conf, average=True, side=True, jitter=True)
pulse = make_gaussian_pulse(PulseSpec(duration=1.73e-6))
# one transfer row per ensemble member on the pulse's frequency grid,
# the resonator at zero detuning
blocks = ensemble_transfer(cfg, eta, Detunings(pulse.omega, 0.0), corr)
res = run_pulse_ensemble(pulse, ((w, t) for w, _, _, t in blocks))
path = 2.0 * conf["length_um"] * 1e-6
print(f"centroid delay {res.delay_centroid / 1e-9:.1f} ns, "
      f"peak delay {res.delay_peak / 1e-9:.1f} ns")
print(f"peak-delay group velocity over the {path / 1e-6:.0f} um double pass: "
      f"{group_velocity(res.delay_peak, path):.0f} m/s")
