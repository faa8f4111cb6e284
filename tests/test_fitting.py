import json
from dataclasses import replace

import numpy as np
import pytest

from vitlab.config import MHZ, write_json
from vitlab.core import transmission
from vitlab.errors import RankDeficientError
from vitlab.fitting import (
    damped_least_squares,
    extract_transparency,
    fit_linear_weighted,
    fit_lorentzian,
    fit_vit_spectra,
    format_value_error,
    line_ratio,
    lorentzian,
    ratio_with_error,
)
from vitlab.recipes import RESONATOR_DETUNINGS_MHZ
from vitlab.spatial import Corrections
from vitlab.synth import ScanPlan, Spectrum, generate_scan

GRID = np.linspace(-4e6, 4e6, 81) * 2 * np.pi


def _clean_spectrum(cfg, eta, dcavs, corrections=None, od=None):
    """A noiseless scan's spectrum, straight from the generator expectations."""
    c = replace(cfg, od=od) if od is not None else cfg
    plan = ScanPlan(delta_cavity_list=tuple(dcavs), probe_grid=tuple(GRID),
                    photon_flux=1e6, dwell=1e-2, rng_seed=0)
    corr = corrections if corrections is not None else Corrections()
    recs = generate_scan(c, eta, plan, corr)
    norm = plan.photon_flux * plan.dwell
    sigma = np.full(len(recs), 1.0 / norm)
    return Spectrum(recs.delta_probe, recs.expected_d1 / norm, recs.expected_d2 / norm,
                    sigma, sigma, recs.delta_cavity)


def test_damped_least_squares_quadratic():
    # exactly solvable problem: residual linear in p
    target = np.array([2.0, -3.0])

    def resid(p):
        return np.array([p[0] - target[0], p[1] - target[1], 0.1 * (p[0] + p[1] + 1.0)])

    fit = damped_least_squares(resid, np.zeros(2), ("a", "b"))
    assert fit.converged
    assert fit.covariance.shape == (2, 2)
    assert np.allclose(fit.covariance, fit.covariance.T)


def test_damped_least_squares_monotone():
    costs = []

    def resid(p):
        r = np.array([np.exp(p[0]) - 2.0, 10.0 * (p[1] - p[0] ** 2)])
        costs.append(float(r @ r))
        return r

    fit = damped_least_squares(resid, np.array([2.0, -2.0]), ("a", "b"))
    assert fit.converged
    # accepted costs only ever decrease; probe evaluations may be anything,
    # so check the final cost is the global minimum of everything seen
    assert fit.residual_norm <= min(costs) + 1e-12


def test_damped_least_squares_out_of_iterations_is_not_converged():
    def resid(p):
        return np.array([np.exp(p[0]) - 2.0, 10.0 * (p[1] - p[0] ** 2)])

    assert damped_least_squares(resid, np.array([2.0, -2.0]), ("a", "b")).iterations > 1
    fit = damped_least_squares(resid, np.array([2.0, -2.0]), ("a", "b"), max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1


def test_damped_least_squares_stays_in_the_domain():
    # the unconstrained optimum a = -1 lies below the bound a >= 0
    seen = []

    def resid(p):
        seen.append(p[0])
        return np.array([p[0] + 1.0, 0.5 * p[0] + 0.5])

    fit = damped_least_squares(resid, np.array([3.0]), ("a",), lower=[0.0])
    assert min(seen) >= 0.0
    assert fit.converged
    assert fit.value("a") == 0.0
    # held at its bound, a cannot move: the fit stops instead of damping on
    assert len(seen) < 10
    with pytest.raises(ValueError, match="below its lower bounds"):
        damped_least_squares(resid, np.array([-0.5]), ("a",), lower=[0.0])


def test_damped_least_squares_frees_the_others_at_a_bound():
    # a stops at its bound a >= 0 and b still reaches its optimum
    def resid(p):
        return np.array([p[0] + 1.0, p[1] - 2.0])

    fit = damped_least_squares(resid, np.array([3.0, 0.0]), ("a", "b"), lower=[0.0, -np.inf])
    assert fit.converged
    assert np.allclose(fit.values, [0.0, 2.0], rtol=0.0, atol=1e-9)


def test_rank_deficiency_names_parameter():
    def resid(p):
        return np.array([p[0] - 1.0, p[0] - 2.0, 0.0 * p[1]])

    with pytest.raises(RankDeficientError) as err:
        damped_least_squares(resid, np.zeros(2), ("alive", "dead"))
    assert err.value.parameter == "dead"


def test_lorentzian_shape():
    x = np.linspace(-10, 10, 101)
    y = lorentzian(x, center=1.0, fwhm=4.0, depth=0.5, baseline=0.1)
    assert np.isclose(y[np.argmin(np.abs(x - 1.0))], 0.6, atol=1e-12)
    # half depth at center +/- fwhm/2
    assert np.isclose(np.interp(3.0, x, y), 0.35, atol=1e-3)


def test_fit_lorentzian_noiseless_two_level(cfg):
    t = transmission(cfg, 0.0, GRID, 0.0)
    fit = fit_lorentzian(Spectrum(GRID, t))
    assert fit.converged
    assert abs(fit.value("fwhm_mhz") - 5.2) / 5.2 < 1e-6
    assert abs(fit.value("depth") - cfg.od) < 1e-9
    assert abs(fit.value("center_mhz")) < 1e-9


def test_fit_lorentzian_raw_transmission_is_broader(cfg):
    # e^{-L(x)} has wider wings than 1 - L(x): fitting raw transmission
    # overestimates the linewidth, which is why absorbance is the default
    t = transmission(cfg, 0.0, GRID, 0.0)
    raw = fit_lorentzian(Spectrum(GRID, t), on="transmission")
    assert raw.value("fwhm_mhz") > 5.4


def test_fit_lorentzian_flat_is_degenerate():
    flat = Spectrum(GRID, np.full(81, 0.9), None, np.full(81, 0.01), None)
    with pytest.raises(RankDeficientError):
        fit_lorentzian(flat)


def test_fit_lorentzian_against_scipy(cfg):
    # same model, independent optimizer
    from scipy.optimize import curve_fit

    rng = np.random.default_rng(4)
    t = transmission(cfg, 0.0, GRID, 0.0)
    noisy = np.clip(t + rng.normal(0, 0.005, t.shape), 1e-6, None)
    sigma = np.full_like(t, 0.005)
    spec = Spectrum(GRID, noisy, None, sigma, None)
    mine = fit_lorentzian(spec)

    x = GRID / MHZ
    y = -np.log(noisy)
    popt, _ = curve_fit(
        lambda x, c, w, d, b: lorentzian(x, c, w, d, b),
        x, y, p0=(0.0, 5.0, 0.4, 0.0), sigma=sigma / noisy,
    )
    assert abs(mine.value("center_mhz") - popt[0]) < 1e-4
    assert abs(mine.value("fwhm_mhz") - popt[1]) < 1e-4
    assert abs(mine.value("depth") - popt[2]) < 1e-5


def test_vit_round_trip_all_free(cfg):
    spectrum = _clean_spectrum(cfg, 5.0, [d * MHZ for d in RESONATOR_DETUNINGS_MHZ])
    fit = fit_vit_spectra(
        [spectrum], cfg,
        free=("eta_eff", "od", "scale_d2", "probe_offset_mhz", "cavity_offset_mhz"),
    )
    assert fit.converged
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3
    assert abs(fit.value("od") - 0.4) / 0.4 < 1e-3
    assert abs(fit.value("scale_d2") - 1.0) < 1e-3
    assert abs(fit.value("probe_offset_mhz")) < 1e-4
    assert abs(fit.value("cavity_offset_mhz")) < 1e-4


def test_vit_round_trip_with_offsets_in_data(cfg):
    # data axis reads 0.3 MHz high; the fitted calibration is the
    # correction back to the true axis, hence -0.3
    s = _clean_spectrum(cfg, 5.0, (0.5 * MHZ,))
    shifted = replace(s, delta_probe=s.delta_probe + 0.3 * MHZ)
    fit = fit_vit_spectra([shifted], cfg,
                          free=("eta_eff", "od", "scale_d2", "probe_offset_mhz"))
    assert abs(fit.value("probe_offset_mhz") + 0.3) < 1e-3
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3


def test_vit_fixed_parameters(cfg):
    # the truths are the config's od (0.4) and a scale of 1, where they are held
    spectra = [_clean_spectrum(cfg, 5.0, (0.0,))]
    fit = fit_vit_spectra(spectra, cfg, free=("eta_eff",))
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3
    assert fit.names == ("eta_eff",)
    with pytest.raises(ValueError, match="eta_eff"):
        fit_vit_spectra(spectra, cfg, free=("od", "scale_d2"))


def test_vit_round_trip_with_corrections(cfg):
    corr = Corrections(averaging_nodes=32)
    spectra = [_clean_spectrum(cfg, 5.0, (0.0,), corrections=corr)]
    fit = fit_vit_spectra(spectra, cfg, corrections=corr)
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3
    # fitting the same data without the averaging misattributes eta
    naive = fit_vit_spectra(spectra, cfg)
    assert abs(naive.value("eta_eff") - 5.0) / 5.0 > 0.01


@pytest.mark.parametrize("field", ("sigma_transmission", "sigma_emission"))
@pytest.mark.parametrize("bad", (0.0, -1.0, np.nan, np.inf))
def test_spectrum_refuses_a_sigma_that_is_not_positive_and_finite(field, bad):
    sigma = np.full(81, 0.01)
    sigma[40] = bad
    with pytest.raises(ValueError, match=field):
        Spectrum(GRID, np.ones(81), np.ones(81), **{field: sigma})
    assert getattr(Spectrum(GRID, np.ones(81), np.ones(81), **{field: None}), field) is None


def test_vit_flat_data_rank_deficient(cfg):
    flat = Spectrum(GRID, np.ones(81), None, np.full(81, 0.01), None)
    with pytest.raises(RankDeficientError) as err:
        fit_vit_spectra([flat], cfg, free=("eta_eff", "od"))
    assert err.value.parameter in ("eta_eff", "od")


def test_vit_transmission_only_dataset(cfg):
    s = _clean_spectrum(cfg, 5.0, (0.0,))
    no_d2 = replace(s, emission=None, sigma_emission=None)
    fit = fit_vit_spectra([no_d2], cfg, free=("eta_eff", "od"))
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3


def test_linear_fit_exact_line():
    x = np.arange(2.0, 23.0, 2.0)
    y = 3.4 * (x + 1.0)
    fit = fit_linear_weighted(x, y, np.full_like(x, 1e-6))
    assert np.isclose(fit.value("slope"), 3.4, rtol=1e-10)
    assert np.isclose(fit.value("intercept"), 3.4, rtol=1e-10)
    r, _ = line_ratio(fit)
    assert np.isclose(r, 1.0, rtol=1e-10)
    assert fit.converged and fit.iterations == 0


def test_linear_fit_two_points_interpolates():
    fit = fit_linear_weighted([0.0, 1.0], [1.0, 3.0], [0.5, 0.5])
    assert np.isclose(fit.value("slope"), 2.0, rtol=1e-12)
    assert np.isclose(fit.value("intercept"), 1.0, rtol=1e-12)
    assert fit.residual_norm < 1e-20


def test_linear_fit_sigma_scale_invariance():
    rng = np.random.default_rng(1)
    x = np.linspace(0, 10, 12)
    y = 2.0 * x + 1.0 + rng.normal(0, 0.3, 12)
    s = np.full_like(x, 0.3)
    a = fit_linear_weighted(x, y, s)
    b = fit_linear_weighted(x, y, 10.0 * s)
    assert np.isclose(a.value("slope"), b.value("slope"), rtol=1e-12)
    assert np.isclose(a.value("intercept"), b.value("intercept"), rtol=1e-12)
    assert np.isclose(a.residual_norm, 100.0 * b.residual_norm, rtol=1e-9)


def test_linear_fit_degenerate_abscissa():
    with pytest.raises(RankDeficientError):
        fit_linear_weighted([3.0, 3.0, 3.0], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1])


def test_linear_fit_against_numpy_cov():
    rng = np.random.default_rng(2)
    x = np.linspace(0, 10, 30)
    sig = rng.uniform(0.1, 0.5, 30)
    y = -1.2 * x + 0.7 + rng.normal(0, sig)
    fit = fit_linear_weighted(x, y, sig)
    # reference: generalized least squares via lstsq on whitened design
    a = np.stack([x / sig, 1.0 / sig], axis=1)
    coef, *_ = np.linalg.lstsq(a, y / sig, rcond=None)
    assert np.isclose(fit.value("slope"), coef[0], rtol=1e-10)
    assert np.isclose(fit.value("intercept"), coef[1], rtol=1e-10)
    cov = np.linalg.inv(a.T @ a)
    assert np.isclose(fit.error("slope"), np.sqrt(cov[0, 0]), rtol=1e-10)
    assert np.isclose(fit.error("intercept"), np.sqrt(cov[1, 1]), rtol=1e-10)
    assert np.isclose(fit.covariance[0, 1], cov[0, 1], rtol=1e-10)


def test_ratio_error_propagation():
    # against a brute-force Monte Carlo with correlated inputs
    rng = np.random.default_rng(3)
    cov = np.array([[1.0, 0.06], [0.06, 0.01]])
    draws = rng.multivariate_normal([5.0, 3.7], cov, size=200_000)
    mc = draws[:, 0] / draws[:, 1]
    r, err = ratio_with_error(5.0, 1.0, 3.7, 0.1, cov=0.06)
    assert abs(r - 5.0 / 3.7) < 1e-12
    assert abs(err - mc.std()) / mc.std() < 0.05


def test_format_value_error_cases():
    assert format_value_error(1.3514, 0.2728) == "1.4(3)"
    assert format_value_error(3.7, 0.1) == "3.7(1)"
    assert format_value_error(5.0, 1.0) == "5(1)"
    assert format_value_error(7.224, 0.5) == "7.2(5)"
    # rounding an error like 0.097 carries to one digit up
    assert format_value_error(3.4, 0.097) == "3.4(1)"


def test_extract_transparency():
    t = np.exp(-0.4)
    theta, err = extract_transparency(t, 0.4)
    assert theta == pytest.approx(0.0, abs=1e-15)
    theta, err = extract_transparency(1.0, 0.4, t_prime_err=0.033)
    assert theta == pytest.approx(1.0, rel=1e-12)
    assert err == pytest.approx(0.033 / (1.0 - t), rel=1e-12)
    # linear in T' between the bare baseline (0) and full transmission (1)
    theta, _ = extract_transparency(0.5 * (1.0 + t), 0.4)
    assert theta == pytest.approx(0.5, rel=1e-12)
    # a baseline of T = e^{-od} >= 1 leaves no window to open
    for od in (0.0, -0.1):
        with pytest.raises(ValueError):
            extract_transparency(0.5, od)


def test_fit_json_writer(tmp_path, cfg):
    fit = fit_vit_spectra([_clean_spectrum(cfg, 5.0, (0.0,))], cfg)
    path = tmp_path / "fit.json"
    write_json(path, fit.to_json_dict())
    doc = json.loads(path.read_text())
    assert doc["converged"] is True
    assert doc["params"]["eta_eff"]["value"] == pytest.approx(5.0, rel=1e-4)
    assert doc["params"]["eta_eff"]["error"] >= 0


@pytest.mark.parametrize("free, name", ((("eta_eff", "od", "eta_eff"), "'eta_eff'"),
                                        (("eta_eff", "eta"), "'eta'")))
def test_fit_vit_rejects_bad_free(cfg, free, name):
    with pytest.raises(ValueError, match=name):
        fit_vit_spectra([_clean_spectrum(cfg, 5.0, (0.0,))], cfg, free=free)
