import json
import re
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vitlab.config import MHZ, corrections, write_json
from vitlab.core import transmission
from vitlab.errors import RankDeficientError
from vitlab.fitting import (
    VIT_PARAMS,
    _initial_guess,
    _vit_model,
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
from vitlab.spatial import Corrections, corrected_spectrum
from vitlab.synth import ScanPlan, Spectrum, generate_scan

GRID = np.linspace(-4e6, 4e6, 81) * 2 * np.pi


def _clean_spectrum(cfg, eta, dcavs, corrections=None, od=None):
    """A noiseless scan's spectrum, straight from the generator expectations."""
    c = replace(cfg, od=od) if od is not None else cfg
    corr = corrections if corrections is not None else Corrections()
    plan = ScanPlan(delta_cavity_list=tuple(dcavs), probe_grid=tuple(GRID),
                    photon_flux=1e6, dwell=1e-2, rng_seed=0, corrections=corr)
    recs = generate_scan(c, eta, plan)
    norm = plan.photon_flux * plan.dwell
    sigma = np.full(len(recs), 1.0 / norm)
    return Spectrum(recs.delta_probe, recs.expected_d1 / norm, recs.expected_d2 / norm,
                    sigma, sigma, recs.delta_cavity, corr)


def test_damped_least_squares_quadratic():
    # exactly solvable problem: residual linear in p
    target = np.array([2.0, -3.0])
    jac = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]])

    def resid(p):
        return np.array([p[0] - target[0], p[1] - target[1], 0.1 * (p[0] + p[1] + 1.0)]), jac

    fit = damped_least_squares(resid, np.zeros(2), ("a", "b"))
    assert fit.converged
    assert fit.correlation.shape == (2, 2)
    assert np.allclose(fit.correlation, fit.correlation.T)


def _banana(p):
    """A curved valley's residual and its Jacobian."""
    r = np.array([np.exp(p[0]) - 2.0, 10.0 * (p[1] - p[0] ** 2)])
    return r, np.array([[np.exp(p[0]), 0.0], [-20.0 * p[0], 10.0]])


def test_damped_least_squares_monotone():
    costs = []

    def resid(p):
        r, jac = _banana(p)
        costs.append(float(r @ r))
        return r, jac

    fit = damped_least_squares(resid, np.array([2.0, -2.0]), ("a", "b"))
    assert fit.converged
    # accepted costs only ever decrease; probe evaluations may be anything,
    # so check the final cost is the global minimum of everything seen
    assert fit.residual_norm <= min(costs) + 1e-12


def test_damped_least_squares_out_of_iterations_is_not_converged():
    assert damped_least_squares(_banana, np.array([2.0, -2.0]), ("a", "b")).iterations > 1
    fit = damped_least_squares(_banana, np.array([2.0, -2.0]), ("a", "b"), max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1


def test_damped_least_squares_stays_in_the_domain():
    # the unconstrained optimum a = -1 lies below the bound a >= 0
    seen = []

    def resid(p):
        seen.append(p[0])
        return np.array([p[0] + 1.0, 0.5 * p[0] + 0.5]), np.array([[1.0], [0.5]])

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
        return np.array([p[0] + 1.0, p[1] - 2.0]), np.eye(2)

    fit = damped_least_squares(resid, np.array([3.0, 0.0]), ("a", "b"), lower=[0.0, -np.inf])
    assert fit.converged
    assert np.allclose(fit.values, [0.0, 2.0], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("c", (1e7, 1e8, 1e9, 3e9))
def test_damped_least_squares_errors_at_high_condition(c):
    # J = L diag(1, 1e-3, 1/c) V^T, which the rank rule accepts: the errors are
    # the row norms of V/s, where an inverse of J^T J, whose condition is c^2,
    # read 0.80 of them at c = 1e9 and raised LinAlgError at 3e9
    v = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 2 + np.eye(3))[0]
    left = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, 5), 3))[0]
    s = np.array([1.0, 1e-3, 1.0 / c])
    jac = left @ np.diag(s) @ v.T
    fit = damped_least_squares(lambda p: (jac @ p, jac), np.ones(3), ("a", "b", "c"))
    assert fit.errors == pytest.approx(np.linalg.norm(v / s, axis=1), rel=1e-2)
    assert np.allclose(np.diag(fit.correlation), 1.0)


def test_damped_least_squares_counts_its_model_passes():
    target = np.array([2.0, -3.0])
    jac = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]])
    calls = []

    def resid(p):
        calls.append(p.copy())
        return jac @ p - np.array([target[0], target[1], -0.1]), jac

    fit = damped_least_squares(resid, np.zeros(2), ("a", "b"))
    # the start and one pass per trial: 28 trials, most of them the rejected
    # ones that grow the damping past 1e14 at the optimum
    assert fit.evaluations == len(calls) == 29
    assert fit.iterations == 6
    assert np.allclose(fit.values, target, rtol=0.0, atol=1e-12)


def test_rank_deficiency_names_parameter():
    jac = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])

    def resid(p):
        return np.array([p[0] - 1.0, p[0] - 2.0, 0.0 * p[1]]), jac

    with pytest.raises(RankDeficientError) as err:
        damped_least_squares(resid, np.zeros(2), ("alive", "dead"))
    assert err.value.parameter == "dead"


def test_lorentzian_shape():
    x = np.linspace(-10, 10, 101)
    y, _ = lorentzian(x, center=1.0, fwhm=4.0, depth=0.5, baseline=0.1)
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
        lambda x, c, w, d, b: lorentzian(x, c, w, d, b)[0],
        x, y, p0=(0.0, 5.0, 0.4, 0.0), sigma=sigma / noisy,
    )
    assert abs(mine.value("center_mhz") - popt[0]) < 1e-4
    assert abs(mine.value("fwhm_mhz") - popt[1]) < 1e-4
    assert abs(mine.value("depth") - popt[2]) < 1e-5



class _Residual(Exception):
    """Carries the residual that a fit hands its solver."""


def _lorentzian_residual(spectrum, on):
    def capture(residual_fn, *_):
        raise _Residual(residual_fn)

    with mock.patch("vitlab.fitting.damped_least_squares", capture), \
            pytest.raises(_Residual) as got:
        fit_lorentzian(spectrum, on=on)
    return got.value.args[0]


def _line_spectrum(n, center, fwhm, depth, noise=0.0, seed=0):
    """n points on [-5, 5] MHz of exp(-line), noise on -ln T and sigmas to match (none at 0)."""
    x = np.linspace(-5.0, 5.0, n)
    absorbance = depth / (1.0 + (2.0 * (x - center) / fwhm) ** 2)
    t = np.exp(-(absorbance + noise * np.random.default_rng(seed).standard_normal(n)))
    return Spectrum(x * MHZ, t, None, noise * t if noise else None, None)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(on=st.sampled_from(("absorbance", "transmission")), n=st.integers(8, 40),
       line=st.tuples(st.floats(-3.0, 3.0), st.floats(0.3, 6.0), st.floats(0.05, 2.0)),
       noise=st.sampled_from((0.0, 0.01)),
       point=st.tuples(st.floats(-4.0, 4.0), st.floats(0.5, 8.0), st.booleans(),
                       st.floats(-2.0, 2.0), st.floats(-1.0, 2.0)))
def test_lorentzian_columns_match_central_differences(on, n, line, noise, point):
    # the residual fit_lorentzian hands its solver, in either domain, with
    # sigmas or without, at a point of either width sign: its exact columns
    # against central differences of its values, to 1e-6 of each column's
    # largest entry and 1e-9 of the residual for the differences' rounding
    residual = _lorentzian_residual(_line_spectrum(n, *line, noise), on)
    center, width, negative, depth, baseline = point
    p = np.array([center, -width if negative else width, depth, baseline])
    r, jac = residual(p)
    assert jac.shape == (n, 4)
    for k in range(4):
        h = np.zeros(4)
        h[k] = 1e-5 * max(abs(p[k]), 1.0)
        diff = (residual(p + h)[0] - residual(p - h)[0]) / (2.0 * h[k])
        assert np.abs(jac[:, k] - diff).max() <= 1e-6 * np.abs(diff).max() + 1e-9 * (
            np.abs(r).max() + 1.0), k


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(on=st.sampled_from(("absorbance", "transmission")), n=st.integers(8, 20),
       line=st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 6.0), st.floats(0.01, 2.0)),
       noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)), seed=st.integers(0, 2**32 - 1))
@example(on="absorbance", n=9, line=(2.5, 0.2, 0.1), noise=0.0, seed=0)
@example(on="absorbance", n=9, line=(0.0, 0.2, 0.1), noise=0.0, seed=0)
def test_fit_lorentzian_width_is_never_negative(on, n, line, noise, seed):
    # the line holds fwhm only squared, so a fit that ends at a negative
    # width reports its magnitude: the residual there is the fit's chi^2,
    # bit for bit, and the correlations are those of its Jacobian there
    spectrum = _line_spectrum(n, *line, noise, seed)
    try:
        fit = fit_lorentzian(spectrum, on=on)
    except (RankDeficientError, ValueError):
        return
    assert fit.value("fwhm_mhz") >= 0.0
    r, jac = _lorentzian_residual(spectrum, on)(fit.values)
    assert float(r @ r) == fit.residual_norm
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    root = vt.T / s
    unit = root / np.hypot.reduce(root, axis=1)[:, None]
    assert np.allclose(unit @ unit.T, fit.correlation, rtol=0.0, atol=1e-6)


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


def test_vit_dark_resonator_fits_scale_d2_to_zero(cfg):
    # a resonator that emits nothing: scale_d2 reaches its bound of 0, and
    # the transmission alone still gives eta_eff
    s = _clean_spectrum(cfg, 5.0, (0.0,))
    fit = fit_vit_spectra([replace(s, emission=np.zeros_like(s.emission))], cfg,
                          free=("eta_eff", "scale_d2"))
    assert fit.converged and fit.value("scale_d2") == 0.0
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-6


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
    corr = Corrections(average=True)  # 32 classes at eta_max 5
    spectra = [_clean_spectrum(cfg, 5.0, (0.0,), corrections=corr)]
    fit = fit_vit_spectra(spectra, cfg)
    assert abs(fit.value("eta_eff") - 5.0) / 5.0 < 1e-3
    # fitting the same data without the averaging misattributes eta
    naive = fit_vit_spectra([replace(s, corrections=Corrections()) for s in spectra], cfg)
    assert abs(naive.value("eta_eff") - 5.0) / 5.0 > 0.01


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(eta=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
       od=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), scale=st.floats(0.1, 3.0),
       offsets=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       dcav=st.sampled_from((0.0,) + RESONATOR_DETUNINGS_MHZ),
       switches=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_vit_model_jacobian_matches_central_differences(cfg, conf, eta, od, scale, offsets,
                                                        dcav, switches):
    # the fit's exact columns for all five parameters against central
    # differences of corrected_spectrum, to 1e-6 of each column's largest
    # entry and 1e-9 for the differences' rounding (eps/h of values near 1);
    # within a step of a bound of 0, the one-sided second-order difference
    corr = corrections(conf, *switches)
    spec = Spectrum(np.linspace(-4.0, 4.0, 9) * MHZ, np.ones(9), None, None, None,
                    np.full(9, dcav * MHZ), corr)
    p = {"eta_eff": eta, "od": od, "scale_d2": scale,
         "probe_offset_mhz": offsets[0], "cavity_offset_mhz": offsets[1]}
    trans, emis, dtrans, demis = _vit_model(cfg, spec, p, corr, list(VIT_PARAMS))
    # the values are those of a call without derivatives, bit for bit
    plain = _vit_model(cfg, spec, p, corr)
    assert np.array_equal(trans, plain[0]) and np.array_equal(emis, plain[1])

    def model(name, h):
        q = dict(p, **{name: p[name] + h})
        t, e = corrected_spectrum(replace(cfg, od=q["od"]), q["eta_eff"],
                                  spec.delta_probe + q["probe_offset_mhz"] * MHZ,
                                  spec.delta_cavity + q["cavity_offset_mhz"] * MHZ, corr)
        return np.concatenate([t, q["scale_d2"] * e])

    for k, name in enumerate(VIT_PARAMS):
        h = 1e-5 * max(abs(p[name]), 1.0)
        if p[name] - h < VIT_PARAMS[name]:
            diff = (4.0 * model(name, h) - 3.0 * model(name, 0.0) - model(name, 2 * h)) / (2 * h)
        else:
            # the standing wave's class count steps where sqrt(eta_eff) is a whole number
            if name == "eta_eff":
                assume(np.ceil(np.sqrt(eta - h)) == np.ceil(np.sqrt(eta + h)))
            diff = (model(name, h) - model(name, -h)) / (2 * h)
        exact = np.concatenate([dtrans[k], demis[k]])
        assert np.abs(exact - diff).max() <= 1e-6 * np.abs(diff).max() + 1e-9, name


@pytest.mark.parametrize("field", ("sigma_transmission", "sigma_emission"))
@pytest.mark.parametrize("bad", (0.0, -1.0, np.nan, np.inf))
def test_spectrum_refuses_a_sigma_that_is_not_positive_and_finite(field, bad):
    sigma = np.full(81, 0.01)
    sigma[40] = bad
    with pytest.raises(ValueError, match=field):
        Spectrum(GRID, np.ones(81), np.ones(81), **{field: sigma})
    assert getattr(Spectrum(GRID, np.ones(81), np.ones(81), **{field: None}), field) is None


@pytest.mark.parametrize("detuning_mhz", (0.0, 3.0, -1e4, 1e9, 1e150, -1e300))
@pytest.mark.parametrize("t_min", (1e-7, 0.5, 1.0 - 2.0**-53, 1.0, 1.5))
def test_initial_od_saturates_without_overflow(cfg, detuning_mhz, t_min):
    # the wing formula's factor 1 + Dt^2 overflows far out; the guess is the
    # formula's wherever the product is finite, and its clip beyond
    guess = _initial_guess(Spectrum([detuning_mhz * MHZ], [t_min]), cfg)
    dt_norm = np.float64(2.0 * detuning_mhz * MHZ / cfg.gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        product = -np.log(max(t_min, 1e-6)) * (1.0 + dt_norm**2)
    if np.isfinite(product):
        assert guess["od"] == float(np.clip(product, 1e-3, 10.0))
    else:
        assert guess["od"] == (10.0 if t_min < 1.0 else 1e-3)


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
    assert fit.converged and fit.iterations == 0 and fit.evaluations == 0


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
    # at 1e-100 and 1e100, 1/sigma^2 sums past a double's range
    for unit in (10.0, 1e-100, 1e100):
        b = fit_linear_weighted(x, y, unit * s)
        assert np.isclose(a.value("slope"), b.value("slope"), rtol=1e-12)
        assert np.isclose(a.value("intercept"), b.value("intercept"), rtol=1e-12)
        assert np.isclose(a.residual_norm, unit**2 * b.residual_norm, rtol=1e-9)
        for name in a.names:
            assert np.isclose(unit * a.error(name), b.error(name), rtol=1e-12)


def test_linear_fit_degenerate_abscissa():
    with pytest.raises(RankDeficientError):
        fit_linear_weighted([3.0, 3.0, 3.0], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
    # the weight rests on one point: the others weigh 1e-400, which is 0
    with pytest.raises(RankDeficientError):
        fit_linear_weighted([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1e200, 1e200])


def test_linear_fit_midrange_spans_a_double():
    # y runs from -1.5e308 to 1.5e308: its range, and the uncentred sum of w x y, overflow
    fit = fit_linear_weighted([0.0, 1.0, 2.0], [-1.5e308, 0.0, 1.5e308], [1.0, 1.0, 1.0])
    assert fit.values.tolist() == [1.5e308, -1.5e308]
    assert fit.error("slope") == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert fit.residual_norm == 0.0


def test_ratio_error_in_range_where_its_squares_are_not():
    # (b_err/m)^2 is 1e400, past a double, though the ratio and its error are not
    r, err = ratio_with_error(1.0, 1e100, 1e-100, 1.0)
    assert r == 1e100 and err == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-12)
    with pytest.raises(ValueError, match="outside a double's range"):
        ratio_with_error(1.0, 1e200, 1e-200, 0.0)


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
    assert np.isclose(fit.error("slope") * fit.error("intercept") * fit.correlation[0, 1],
                      cov[0, 1], rtol=1e-10)


def test_ratio_error_propagation():
    # against a brute-force Monte Carlo with correlated inputs
    rng = np.random.default_rng(3)
    cov = np.array([[1.0, 0.06], [0.06, 0.01]])
    draws = rng.multivariate_normal([5.0, 3.7], cov, size=200_000)
    mc = draws[:, 0] / draws[:, 1]
    r, err = ratio_with_error(5.0, 1.0, 3.7, 0.1, rho=0.06 / (1.0 * 0.1))
    assert abs(r - 5.0 / 3.7) < 1e-12
    assert abs(err - mc.std()) / mc.std() < 0.05


def test_format_value_error_cases():
    assert format_value_error(1.3514, 0.2728) == "1.4(3)"
    assert format_value_error(3.7, 0.1) == "3.7(1)"
    assert format_value_error(5.0, 1.0) == "5(1)"
    assert format_value_error(7.224, 0.5) == "7.2(5)"
    # rounding an error like 0.097 carries to one digit up
    assert format_value_error(3.4, 0.097) == "3.4(1)"
    # a fixed form of over 24 characters turns scientific, the value rounded
    # at the error's digit; the ratio of a line with sigmas of 1e200, and of
    # one whose slope is 2.2e-216 +/- 1.4e-200, ran to over 200 and 400 characters
    assert format_value_error(0.5, 6.038073644245599e199) == "0(6)e+199"
    assert format_value_error(4.503599627370496e215, 2.8683658739090507e231) == "0(3)e+231"
    assert format_value_error(-1.2345e-30, 9.7e-33) == "-1.23(1)e-30"
    assert format_value_error(9.996e25, 1e23) == "1.000(1)e+26"
    # an error of 10 or more, once written with all its integer digits, is
    # scientific too: the x ~ 1e10 line's intercept/slope ratio was "-9999999063(142)"
    assert format_value_error(5, 12) == "0(1)e+01"
    assert format_value_error(-9999999063.0, 142.0) == "-9.9999991(1)e+09"
    assert format_value_error(5, 9.6) == "0(1)e+01"
    assert format_value_error(5, 9.4) == "5(9)"
    # an error past the 17 digits a double holds of its value stands apart
    assert format_value_error(16.9, 1e-20) == "16.9(1e-20)"
    scientific = 0
    for value in (0.0, 1.0, -0.7, np.pi * 1e-300, -np.e * 1e150, 1.7e308, 5e-324):
        for error in np.logspace(-323, 308, 40):
            text = format_value_error(value, error)
            assert len(text) <= 32, text
            form = re.fullmatch(r"(-?\d)\.?(\d*)\((\d)\)e([+-]\d+)", text)
            if form:
                # the value within half a unit of the error's digit
                lead, tail, _, power = form.groups()
                unit = Decimal(1).scaleb(int(power) - len(tail))
                assert abs(Decimal(f"{lead}.{tail}e{power}") - Decimal(value)) <= unit / 2, text
                scientific += 1
    assert scientific > 100


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
