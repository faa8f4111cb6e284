"""The paper's experiments as functions that return data.

fig2 (spectra across resonator detunings), fig3 (slow-light delays in
the measured regime) and fig4 (photon-number calibration of the vacuum
offset, with the transparency curve) of arXiv:1107.3999.  Every plan
constant lives here once; `vitlab reproduce` writes what the recipes
return, and the demos and the acceptance tests call them too.
"""

from dataclasses import replace

import numpy as np

from vitlab import config as cfgmod
from vitlab.config import MHZ
from vitlab.core import TWO_PI, group_delay_analytic, group_velocity, transfer_amplitude
from vitlab.errors import BandCoverageError
from vitlab.fitting import (extract_transparency, fit_linear_weighted, fit_vit_spectra,
                            line_json_dict, ratio_with_error, value_error_doc)
from vitlab.pulses import make_gaussian_pulse, run_pulse_ensemble
from vitlab.spatial import corrected_spectrum, effective_cooperativity, ensemble_transfer
from vitlab.synth import ScanPlan, generate_scan, spectrum_from_records

# resonator detunings the paper scans (fig2 panels B-D), MHz
RESONATOR_DETUNINGS_MHZ = (0.5, -2.2, 2.8)
# the measured regime of the slow-light and transparency data
MEASURED_OD = 0.5        # double-pass optical depth
ETA_EFF_0 = 5.0          # antinode cooperativity from the scan fits
PULSE_FWHM_US = 1.73     # probe pulse intensity FWHM
SPEED_OF_LIGHT = 299792458.0  # m/s
# the published calibration line: intercept 5(1), slope 3.7(1)
PUBLISHED_INTERCEPT = (5.0, 1.0)
PUBLISHED_SLOPE = (3.7, 0.1)


def fig2_detunings(cfg):
    """The fig2 probe grid (rad/s) and each panel's resonator detuning, by file name."""
    # panel A parks the resonator 1000 atomic linewidths away: the bare line
    grid = np.linspace(-8.0 * MHZ, 8.0 * MHZ, 321)
    dcavs = [1000.0 * cfg.gamma] + [d * MHZ for d in RESONATOR_DETUNINGS_MHZ]
    return grid, dict(zip(("fig2A.csv", "fig2B.csv", "fig2C.csv", "fig2D.csv"), dcavs))


def fig2(conf, cfg):
    """Spectra across resonator detunings with the full correction stack.

    Returns (grid, spectra, params): the probe grid (rad/s), the
    (transmission, emission) pair of each panel by file name, and the
    manifest parameters.
    """
    eta = cfgmod.model_cooperativity(conf)
    corr = cfgmod.corrections(conf, average=True, side=True, jitter=True)
    grid, panels = fig2_detunings(cfg)
    spectra = {name: corrected_spectrum(cfg, eta, grid, dcav, corr)
               for name, dcav in panels.items()}
    params = {"eta": eta, "od": cfg.od,
              "delta_cavity_MHz": {k: v / MHZ for k, v in panels.items()},
              "corrections": "average+side+jitter"}
    return grid, spectra, params


def delays(result):
    """The delays (ns) and energy transmission of a PropagationResult, as JSON carries them."""
    return {"delay_centroid_ns": result.delay_centroid / 1e-9,
            "delay_peak_ns": result.delay_peak / 1e-9,
            "energy_transmission": result.energy_transmission}


def pulse_ensemble(cfg, eta, pulse, corrections, carrier=0.0):
    """The correction ensemble's PropagationResult, the resonator at zero detuning."""
    # chi is an envelope model, which does not hold for a band this wide
    if 2.0 * SPEED_OF_LIGHT * pulse.dt < cfg.wavelength:
        raise BandCoverageError("grid too fine: its band reaches the optical carrier")
    if abs(carrier) + np.pi / pulse.dt >= TWO_PI * SPEED_OF_LIGHT / cfg.wavelength:
        raise ValueError("the carrier detuning puts the band past the optical frequency")
    return run_pulse_ensemble(pulse, lambda omega: (
        (w, transfer_amplitude(chi, cfg)) for w, _, _, chi in
        ensemble_transfer(cfg, eta, carrier + omega, 0.0, corrections)))


def fig3(conf, cfg):
    """Slow light in the measured regime, with and without resonator jitter.

    Returns (pulse, results, summary, params): the input pulse, the
    PropagationResult under each label ("no_jitter", "with_jitter"), the
    delay and group-velocity summary over the double-pass path, and the
    manifest parameters.
    """
    cfg = replace(cfg, od=MEASURED_OD)
    pulse = make_gaussian_pulse(PULSE_FWHM_US * 1e-6)
    results = {
        label: pulse_ensemble(cfg, ETA_EFF_0, pulse, cfgmod.corrections(
            conf, average=True, side=True, jitter=jitter))
        for label, jitter in (("no_jitter", False), ("with_jitter", True))
    }
    path = 2.0 * cfg.length
    summary = {label: dict(delays(r),
                           velocity_centroid_m_per_s=group_velocity(r.delay_centroid, path),
                           velocity_peak_m_per_s=group_velocity(r.delay_peak, path))
               for label, r in results.items()}
    summary["tau_max_analytic_ns"] = group_delay_analytic(cfg.od, cfg.kappa, ETA_EFF_0) / 1e-9
    params = {"od": MEASURED_OD, "eta_eff_0": ETA_EFF_0, "T_P_us": PULSE_FWHM_US,
              "path_um": path / 1e-6}
    return pulse, results, summary, params


def photon_number_scan(cfg, eta_eff_0, n_c_values, corrections, seed):
    """Fitted eta_eff at each intracavity photon number.

    The i-th n_c gets one synthetic scan (resonator on resonance, rng
    seed + i) of truth effective_cooperativity(eta_eff_0, n_c), fitted
    for eta_eff, od and scale_d2.  Returns (n_c, eta_eff, eta_eff_err)
    rows.  High-eta spectra are shallow; the generous dwell keeps every
    fit tame.
    """
    grid = tuple(np.linspace(-4.0 * MHZ, 4.0 * MHZ, 81))
    rows = []
    for i, n_c in enumerate(n_c_values):
        plan = ScanPlan(delta_cavity_list=(0.0,), probe_grid=grid, photon_flux=2.0e6,
                        dwell=20e-3, rng_seed=seed + i, corrections=corrections)
        records = generate_scan(cfg, effective_cooperativity(eta_eff_0, n_c), plan)
        fit = fit_vit_spectra([spectrum_from_records(records, plan)], cfg)
        rows.append((n_c, fit.value("eta_eff"), fit.error("eta_eff")))
    return rows


def calibration_line(rows):
    """Weighted line eta_eff = slope n_c + intercept through the rows with n_c > 2.

    A FitResult over ("slope", "intercept"); its intercept/slope ratio
    (fitting.line_ratio) measures the vacuum offset of n_c -> n_c + 1,
    which is 1 in the model.
    """
    kept = [r for r in rows if r[0] > 2]
    return fit_linear_weighted([r[0] for r in kept], [r[1] for r in kept],
                               [r[2] for r in kept])


def transparency_curve(conf, cfg, n_c_values):
    """Transparency on double resonance against the intracavity photon number.

    Full correction stack at eta_eff = effective_cooperativity(ETA_EFF_0,
    n_c) and the config's od.  Returns (n_c, eta_eff, T', theta) rows,
    theta = (T' - e^-od)/(1 - e^-od).
    """
    corr = cfgmod.corrections(conf, average=True, side=True, jitter=True)
    rows = []
    for n_c in n_c_values:
        eta = effective_cooperativity(ETA_EFF_0, n_c)
        t_prime = float(corrected_spectrum(cfg, eta, 0.0, 0.0, corr)[0])
        rows.append((n_c, eta, t_prime, extract_transparency(t_prime, cfg.od)[0]))
    return rows


def fig4(conf, cfg, seed):
    """The photon-number calibration and the transparency curve.

    Returns (rows, line, curve, params): the photon_number_scan rows at
    n_c = 2, 4, ..., 22 for the config's model cooperativity, the calibration
    line's document (with the model prediction and the ratio of the
    published line), the (n_c, theta) rows of the transparency curve,
    and the manifest parameters.
    """
    eta_model = cfgmod.model_cooperativity(conf)
    n_c_values = list(range(2, 23, 2))
    rows = photon_number_scan(cfg, eta_model, n_c_values,
                              cfgmod.corrections(conf, average=True), seed)
    line = dict(line_json_dict(calibration_line(rows)), model_prediction=eta_model)
    line["reported_reference_ratio"] = value_error_doc(
        *ratio_with_error(*PUBLISHED_INTERCEPT, *PUBLISHED_SLOPE))
    curve = [(n_c, theta) for n_c, _, _, theta in transparency_curve(conf, cfg, range(11))]
    params = {"eta_eff_0_truth": eta_model, "n_c_values": n_c_values, "seed": seed,
              "linear_fit_uses": "n_c > 2"}
    return rows, line, curve, params
