"""Send a probe pulse through the medium and measure its group delay.

Compares the propagated delay against the narrowband prediction
tau = (OD/kappa) eta/(eta+1)^2, then repeats in the measured regime
(correction stack on) where the pulse is short enough to clip the
window. The velocity uses the double-pass path through the column.
"""

from dataclasses import replace

from vitlab import recipes
from vitlab.config import load_config, physical_config
from vitlab.core import group_delay_analytic
from vitlab.pulses import PulseSpec, make_gaussian_pulse
from vitlab.spatial import IDEAL

conf = load_config()
cfg = replace(physical_config(conf), od=recipes.MEASURED_OD)
eta = recipes.ETA_EFF_0

tau = group_delay_analytic(cfg.od, cfg.kappa, eta)
print(f"narrowband prediction tau = {tau / 1e-9:.1f} ns")

for tp_us in (20.0, 80.0):
    pulse = make_gaussian_pulse(PulseSpec(duration=tp_us * 1e-6), n_samples=2**16)
    res = recipes.pulse_ensemble(cfg, eta, pulse, IDEAL)
    print(f"T_P = {tp_us:5.1f} us: centroid delay {res.delay_centroid / 1e-9:6.2f} ns, "
          f"energy transmission {res.energy_transmission:.4f}")

print()
print(f"measured regime: T_P = {recipes.PULSE_FWHM_US} us with the full correction stack")
_, _, summary, params = recipes.fig3(conf, cfg)
jittered = summary["with_jitter"]
print(f"centroid delay {jittered['delay_centroid_ns']:.1f} ns, "
      f"peak delay {jittered['delay_peak_ns']:.1f} ns")
print(f"peak-delay group velocity over the {params['path_um']:.0f} um double pass: "
      f"{jittered['velocity_peak_m_per_s']:.0f} m/s")
