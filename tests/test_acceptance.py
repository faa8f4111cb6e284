"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line with the measured numbers so a
log scrape shows the whole scoreboard.  Tolerances are part of the
project contract and are not to be loosened here.
"""

import numpy as np
import pytest
from dataclasses import replace

from conftest import STIFF_GAMMA
from vitlab.config import MHZ
from vitlab.core import (
    CavityGeometry,
    cooperativity_geometric,
    group_delay,
    group_delay_analytic,
    group_velocity,
    susceptibility,
    transmission,
)
from vitlab.fitting import (fit_lorentzian, fit_vit_spectra, format_value_error, line_ratio,
                            ratio_with_error)
from vitlab.oracle import branching_ratio, susceptibility_from_oracle
from vitlab.pulses import make_gaussian_pulse
from vitlab.recipes import (
    PUBLISHED_INTERCEPT,
    PUBLISHED_SLOPE,
    RESONATOR_DETUNINGS_MHZ,
    calibration_line,
    fig3,
    photon_number_scan,
    pulse_ensemble,
    transparency_curve,
)
from vitlab.spatial import IDEAL, Corrections
from vitlab.synth import ScanPlan, Spectrum, generate_scan, spectrum_from_records


@pytest.fixture
def report(capsys):
    def _report(num, label, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label} ({detail})")
        assert ok, f"criterion {num}: {label}: {detail}"

    return _report


def _grid_mhz(lo=-15.0, hi=15.0, n=100):
    return np.linspace(lo, hi, n) * MHZ


def test_criterion_01_geometric_cooperativity(report):
    geom = CavityGeometry(finesse=6.3e4, waist=35e-6, wavelength=852e-9)
    eta0 = cooperativity_geometric(geom)
    report(1, "geometric cooperativity 7.2 +/- 0.1", abs(eta0 - 7.2) <= 0.1,
           f"eta0 = {eta0:.4f}")


def test_criterion_02_resonant_transmission_identity(report, cfg):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        od = rng.uniform(0.0, 3.0)
        eta = rng.uniform(0.0, 20.0)
        got = transmission(replace(cfg, od=od), eta, 0.0, 0.0)
        want = np.exp(-od / (eta + 1.0))
        worst = max(worst, abs(got - want) / want)
    report(2, "|t(0,0)|^2 = exp(-OD/(eta+1)), 1000 draws", worst < 1e-12,
           f"worst rel dev = {worst:.2e}")


def test_criterion_03_oracle_equivalence(report, cfg):
    dp, dc = np.meshgrid(_grid_mhz(), _grid_mhz(), indexing="ij")
    worst = 0.0
    for eta in (0.1, 1.0, 3.4, 7.2):
        chi_o = susceptibility_from_oracle(cfg, eta, dp, dc)
        chi_c = susceptibility(cfg, eta, dp, dc)
        worst = max(worst, float(np.max(np.abs(chi_o - chi_c) / np.abs(chi_c))))
    report(3, "amplitude-solver susceptibility matches closed form",
           worst < 1e-10, f"worst rel dev = {worst:.2e} on 100x100 x 4 etas")


def test_criterion_04_two_level_limit(report, cfg):
    delta = _grid_mhz(n=10_000)
    chi = susceptibility(cfg, 0.0, delta, 0.0)
    dt = 2.0 * delta / cfg.gamma
    ref = -(cfg.od / cfg.kl) * (dt - 1j) / (1.0 + dt**2)
    worst = float(np.max(np.abs(chi - ref) / np.abs(ref)))
    report(4, "eta=0 susceptibility is the bare Lorentzian", worst < 1e-12,
           f"worst rel dev = {worst:.2e}")


def test_criterion_05_delay_identity_and_maximum(report, cfg):
    # the analytic delay drops the small kappa/gamma dispersion term, so
    # the comparison runs on an artificially broad line where that term
    # is negligible; the resonator is the stated 173 kHz either way
    stiff = replace(cfg, gamma=STIFF_GAMMA)
    worst = 0.0
    for eta in (0.5, 1.0, 3.4, 5.0):
        for od in (0.1, 0.5):
            c = replace(stiff, od=od)
            num = group_delay(c, eta, 0.0, 0.0)
            ana = group_delay_analytic(od, c.kappa, eta)
            worst = max(worst, abs(num - ana) / ana)
    etas = np.arange(0.90, 1.10, 0.002)
    cmax = replace(stiff, od=0.5)
    peak = float(etas[int(np.argmax(group_delay(cmax, etas, 0.0, 0.0)))])
    ok = worst < 5e-3 and abs(peak - 1.0) <= 0.01
    report(5, "delay matches (OD/kappa) eta/(eta+1)^2; max at eta=1", ok,
           f"worst rel dev = {worst:.2e}, argmax eta = {peak:.3f}")


def test_criterion_06_pulse_delays(report, cfg, conf):
    # narrowband limit, on the same broad-line medium as criterion 5
    stiff = replace(cfg, gamma=STIFF_GAMMA)
    pulse = make_gaussian_pulse(80e-6)
    res = pulse_ensemble(stiff, 3.4, pulse, IDEAL)
    tau = group_delay_analytic(stiff.od, stiff.kappa, 3.4)
    narrow_err = abs(res.delay_centroid - tau) / tau

    # measured regime (the fig3 recipe): OD = 0.5 double pass, antinode
    # cooperativity from the photon-number scan fits, standing-wave
    # averaging + side channel, without and with resonator jitter
    results = fig3(conf, cfg)[1]
    vals = [v / 1e-9 for r in results.values() for v in (r.delay_centroid, r.delay_peak)]
    ok = narrow_err < 0.01 and all(20.0 <= v <= 45.0 for v in vals)
    report(6, "narrowband delay -> tau_max; measured-regime delay in 20-45 ns", ok,
           f"narrowband rel dev = {narrow_err:.4f}; delays ns = "
           + ", ".join(f"{v:.1f}" for v in vals))


def test_criterion_07_group_velocity(report):
    v = group_velocity(25e-9, 40e-6)
    report(7, "25 ns over 40 um = 1600 m/s", abs(v - 1600.0) / 1600.0 < 1e-12,
           f"v = {v:.1f} m/s")


def test_criterion_08_branching_ratio(report, cfg):
    worst = 0.0
    for eta in (0.1, 1.0, 7.2):
        worst = max(worst, abs(branching_ratio(cfg, eta, 0.0, 0.0) - eta / (eta + 1.0)))
    report(8, "resonant branching ratio eta/(eta+1)", worst < 1e-12,
           f"worst abs dev = {worst:.2e}")


GRID81 = tuple(np.linspace(-4.0, 4.0, 81) * MHZ)
DCAVS = tuple(d * MHZ for d in RESONATOR_DETUNINGS_MHZ)


def _spectra(cfg, eta, plan, noiseless=False, corr=Corrections()):
    recs = generate_scan(cfg, eta, plan, corr)
    if not noiseless:
        return [spectrum_from_records(recs, plan)]
    norm = plan.photon_flux * plan.dwell
    sigma = np.full(len(recs), 1.0 / norm)
    return [Spectrum(recs.delta_probe, recs.expected_d1 / norm, recs.expected_d2 / norm,
                     sigma, sigma, recs.delta_cavity)]


def test_criterion_09_fit_round_trip_and_coverage(report, cfg):
    plan = ScanPlan(delta_cavity_list=DCAVS, probe_grid=GRID81,
                    photon_flux=1e6, dwell=50e-3, rng_seed=0)
    clean = _spectra(cfg, 5.0, plan, noiseless=True)
    fit = fit_vit_spectra(clean, cfg)
    eta_err = abs(fit.value("eta_eff") - 5.0) / 5.0
    od_err = abs(fit.value("od") - 0.4) / 0.4

    hits = 0
    for seed in range(100):
        noisy = _spectra(cfg, 5.0, replace(plan, rng_seed=seed))
        f = fit_vit_spectra(noisy, cfg)
        if f.converged and abs(f.value("eta_eff") - 5.0) <= f.error("eta_eff"):
            hits += 1

    ok = eta_err < 1e-3 and od_err < 1e-3 and 60 <= hits <= 76
    report(9, "noiseless round trip 0.1%; 1-sigma coverage 60-76/100", ok,
           f"eta rel dev = {eta_err:.2e}, od rel dev = {od_err:.2e}, coverage = {hits}/100")


def test_criterion_10_photon_number_pipeline(report, cfg):
    # truth eta_eff = 3.4 (n_c + 1): slope and intercept 3.4, ratio 1
    rows = photon_number_scan(cfg, 3.4, range(2, 23), Corrections(averaging_nodes=64),
                              seed=100)
    lf = calibration_line(rows)
    slope, slope_err = lf.value("slope"), lf.error("slope")
    icpt, icpt_err = lf.value("intercept"), lf.error("intercept")
    slope_pull = abs(slope - 3.4) / slope_err
    icpt_pull = abs(icpt - 3.4) / icpt_err
    ratio, ratio_err = line_ratio(lf)
    ratio_pull = abs(ratio - 1.0) / ratio_err

    # the same arithmetic applied to the published numbers
    ref, ref_err = ratio_with_error(*PUBLISHED_INTERCEPT, *PUBLISHED_SLOPE)
    formatted = format_value_error(ref, ref_err)

    ok = (slope_pull <= 2.0 and icpt_pull <= 2.0 and ratio_pull <= 2.0
          and formatted == "1.4(3)")
    report(10, "photon-number scan recovers slope=intercept=3.4; 1.4(3) arithmetic", ok,
           f"slope {slope:.3f}+/-{slope_err:.3f} ({slope_pull:.2f}s), "
           f"intercept {icpt:.3f}+/-{icpt_err:.3f} ({icpt_pull:.2f}s), "
           f"ratio {ratio:.3f}+/-{ratio_err:.3f}, published -> {formatted}")


def test_criterion_11_transparency_endpoints(report, cfg, conf):
    thetas = {n_c: theta for n_c, _, _, theta in transparency_curve(conf, cfg, (0, 10))}
    ok = abs(thetas[0] - 0.40) <= 0.08 and abs(thetas[10] - 0.80) <= 0.08
    report(11, "transparency 0.40 -> 0.80 from zero to ten photons", ok,
           f"theta(0) = {thetas[0]:.3f}, theta(10) = {thetas[10]:.3f}")


def test_criterion_12_linewidth_fit(report, cfg):
    grid = np.linspace(-12.0, 12.0, 401) * MHZ
    t = transmission(cfg, 0.0, grid, 0.0)
    fit = fit_lorentzian(Spectrum(grid, t))
    fwhm = fit.value("fwhm_mhz")
    rel = abs(fwhm - 5.20) / 5.20
    report(12, "noiseless two-level linewidth 5.20 MHz to 0.1%", rel < 1e-3,
           f"fwhm = {fwhm:.4f} MHz, rel dev = {rel:.2e}")
