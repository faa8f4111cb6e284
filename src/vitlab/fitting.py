"""Least-squares estimation: line fits, full two-channel model fits,
weighted linear regression, and transparency extraction.

The nonlinear solver is projected Levenberg-Marquardt (Kanzow et al.,
J. Comput. Appl. Math. 172 (2004) 375), written here because two
behaviors are load bearing and must be guaranteed, not assumed: a step,
projected onto the lower bounds (VIT_PARAMS for the model fit), is
accepted only if it lowers the weighted residual norm, and a rank
deficient final Jacobian fails the fit naming the unidentifiable
parameter.  Jacobians are forward differences with relative step 1e-6;
fit parameters are therefore kept order-one (offsets in MHz, not rad/s).

A residual is (model - data) / sigma with the Spectrum's own sigmas,
positive and finite by construction (Poisson for scans: sqrt(counts)
with a floor of one count); a channel without sigmas weighs each point
1.  Every fit returns a FitResult; parameter covariances are
(J^T J)^{-1} at the optimum with J the weighted Jacobian.
"""

from dataclasses import dataclass, replace

import numpy as np

from vitlab.config import MHZ
from vitlab.errors import RankDeficientError
from vitlab.spatial import IDEAL, corrected_spectrum

# the model fit's parameters and their lower bounds; corrected_spectrum needs scale_d2 > 0
VIT_PARAMS = {"eta_eff": 0.0, "od": 0.0, "scale_d2": np.nextafter(0.0, 1.0),
              "probe_offset_mhz": -np.inf, "cavity_offset_mhz": -np.inf}


@dataclass(frozen=True)
class FitResult:
    names: tuple
    values: object
    covariance: object
    residual_norm: float
    converged: bool
    iterations: int

    def value(self, name):
        return float(self.values[self.names.index(name)])

    def error(self, name):
        i = self.names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))

    def to_json_dict(self):
        return {
            "params": {
                n: {"value": self.value(n), "error": self.error(n)} for n in self.names
            },
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _jacobian(residual_fn, p, r0):
    jac = np.empty((len(r0), len(p)))
    for i in range(len(p)):
        h = 1e-6 * max(abs(p[i]), 1.0)
        q = p.copy()
        q[i] += h
        jac[:, i] = (residual_fn(q) - r0) / h
    return jac


def damped_least_squares(residual_fn, p0, names, max_iter=200, lower=None):
    """Minimize sum residual_fn(p)^2 over p >= lower with adaptive damping.

    lower holds a bound per parameter (-inf for none, the default); a p0
    below it raises ValueError.  Each iteration holds the parameters at
    their bound with a positive gradient, and those with a zero Jacobian
    column, solves for the rest and projects the trial onto the bounds.
    A trial that does not descend grows the damping (from 1e-3) 8-fold,
    an accepted one shrinks it 4-fold, to no less than 1e-12.  Converged
    means a step gained under 1e-12 relative, none descends below damping
    1e14, or all are held; not after max_iter.  Singular values of the
    final Jacobian spanning over 1e10 raise RankDeficientError.
    """
    p = np.asarray(p0, dtype=float).copy()
    names = tuple(names)
    lower = np.full(len(p), -np.inf) if lower is None else np.asarray(lower, dtype=float)
    if np.any(p < lower):
        raise ValueError(f"the fit starts below its lower bounds, at "
                         f"{dict(zip(names, p.tolist()))}")
    r = residual_fn(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = _jacobian(residual_fn, p, r)
        jtj = jac.T @ jac
        g = jac.T @ r
        # hold what descent pushes past its bound, and what the data do not inform here
        move = ((p > lower) | (g <= 0)) & (np.diag(jtj) > 0)
        jtj = jtj[np.ix_(move, move)]
        delta = np.zeros_like(p)
        while lam < 1e14 and move.any():
            try:
                delta[move] = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g[move])
            except np.linalg.LinAlgError:
                lam *= 8.0
                continue
            trial = np.maximum(p + delta, lower)
            r_new = residual_fn(trial)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                converged = (cost - cost_new) / max(cost, 1e-300) < 1e-12
                p, r, cost = trial, r_new, cost_new
                lam = max(lam / 4.0, 1e-12)
                break
            lam *= 8.0
        else:
            # no descending step exists at machine precision, or none can move: at an optimum
            converged = True
        if converged:
            break

    jac = _jacobian(residual_fn, p, r)
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < 1e-10:
        offender = names[int(np.argmax(np.abs(vt[-1])))]
        raise RankDeficientError(offender)
    cov = np.linalg.inv(jac.T @ jac)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        names=names,
        values=p,
        covariance=cov,
        residual_norm=cost,
        converged=converged,
        iterations=iterations,
    )


def lorentzian(x, center, fwhm, depth, baseline):
    """baseline + depth / (1 + (2 (x - center)/fwhm)^2)."""
    u = 2.0 * (x - center) / fwhm
    return baseline + depth / (1.0 + u * u)


def fit_lorentzian(spectrum, on="absorbance"):
    """Fit a Lorentzian line to a transmission spectrum.

    on="absorbance" (default) fits -ln T, which for a bare two-level
    medium is exactly Lorentzian with FWHM equal to the atomic
    linewidth; on="transmission" fits the raw dip instead (its width is
    not the atomic linewidth unless the medium is optically thin).
    The detunings are handled in MHz, so the fitted fwhm is already in MHz.
    Returns FitResult with parameters (center_mhz, fwhm_mhz, depth,
    baseline).
    """
    x = spectrum.delta_probe / MHZ
    y = t = spectrum.transmission
    sigma = spectrum.sigma_transmission
    if len(x) < 8:
        raise ValueError("need at least 8 points across the line")
    if on == "absorbance":
        safe_t = np.maximum(t, 1e-12)
        y = -np.log(safe_t)
        if sigma is not None:
            sigma = sigma / safe_t
    elif on != "transmission":
        raise ValueError("on must be 'absorbance' or 'transmission'")
    if sigma is None:
        sigma = 1.0

    lo, hi = float(np.min(y)), float(np.max(y))
    if on == "absorbance":
        baseline0, depth0, center0 = lo, hi - lo, float(x[np.argmax(y)])
    else:
        baseline0, depth0, center0 = hi, lo - hi, float(x[np.argmin(y)])
    half = baseline0 + 0.5 * depth0
    above = (y > half) if depth0 > 0 else (y < half)
    step = float(np.median(np.diff(x)))
    fwhm0 = max(float(np.count_nonzero(above)) * step, 2.0 * step)

    def residual(p):
        return (lorentzian(x, *p) - y) / sigma

    return damped_least_squares(
        residual,
        [center0, fwhm0, depth0, baseline0],
        ("center_mhz", "fwhm_mhz", "depth", "baseline"),
    )


def _vit_model(cfg, spec, p, corrections):
    return corrected_spectrum(replace(cfg, od=p["od"]), p["eta_eff"],
                              spec.delta_probe + p["probe_offset_mhz"] * MHZ,
                              spec.delta_cavity + p["cavity_offset_mhz"] * MHZ, corrections,
                              p["scale_d2"])


def _initial_guess(spec, cfg):
    """Deterministic starting point from one spectrum.

    od from the deepest transmission point (wing formula with the local
    normalized detuning), eta_eff by inverting the on-resonance
    transmission exp(-od/(eta+1)) at the point nearest two-photon
    resonance (each against its own resonator detuning), scale_d2 by
    matching the emission peak.
    """
    grid = spec.delta_probe
    t = np.clip(spec.transmission, 1e-6, None)
    i_min = int(np.argmin(t))
    dt_norm = 2.0 * grid[i_min] / cfg.gamma
    od0 = float(np.clip(-np.log(t[i_min]) * (1.0 + dt_norm**2), 1e-3, 10.0))
    i_res = int(np.argmin(np.abs(grid - spec.delta_cavity)))
    t_res = float(np.clip(t[i_res], 1e-6, 1.0 - 1e-9))
    eta0 = float(np.clip(od0 / max(-np.log(t_res), 1e-9) - 1.0, 0.05, 1e3))
    guess = {"eta_eff": eta0, "od": od0, "scale_d2": 1.0,
             "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0}
    if spec.emission is not None:
        peak = float(np.max(_vit_model(cfg, spec, guess, IDEAL)[1]))
        if peak > 0:
            guess["scale_d2"] = float(np.clip(np.max(spec.emission) / peak, 1e-3, 1e6))
    return guess


def fit_vit_spectra(spectra, cfg, free=("eta_eff", "od", "scale_d2"), corrections=IDEAL):
    """Joint fit of the coupled-ensemble model over spectra and channels.

    spectra: list of Spectrum, each point at its own resonator detuning
    (a scan's spectrum holds all of its detunings); every spectrum's
    transmission channel enters the residual, and the emission channel
    too when present, each weighed by its sigmas (1 without); a residual
    evaluates the model once per spectrum.  free names parameters from
    VIT_PARAMS, each once and always eta_eff (else ValueError); they
    start from _initial_guess of the first spectrum, and the rest are
    held at cfg.od, a scale_d2 of 1 and zero offsets.  The solver keeps
    the free parameters at or above their VIT_PARAMS lower bounds.

    probe_offset_mhz and cavity_offset_mhz are axis calibrations: the
    correction added to the recorded detunings to recover the true ones,
    so data whose axis reads 0.3 MHz high fits to an offset of -0.3.
    """
    if not spectra:
        raise ValueError("need at least one spectrum")
    for name in free:
        if name not in VIT_PARAMS:
            raise ValueError(f"unknown parameter '{name}'")
        if free.count(name) > 1:
            raise ValueError(f"parameter '{name}' is listed more than once in free")
    if "eta_eff" not in free:
        raise ValueError("free must include eta_eff, which no config value holds")
    guess = _initial_guess(spectra[0], cfg)
    held = {"od": cfg.od, "scale_d2": 1.0, "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0}
    base = {name: guess[name] if name in free else held[name] for name in VIT_PARAMS}

    def residual(pvec):
        p = dict(base)
        p.update({name: pvec[i] for i, name in enumerate(free)})
        chunks = []
        for spec in spectra:
            model = _vit_model(cfg, spec, p, corrections)
            for m, data, sigma in zip(model, (spec.transmission, spec.emission),
                                      (spec.sigma_transmission, spec.sigma_emission)):
                if data is not None:
                    chunks.append((m - data) / (1.0 if sigma is None else sigma))
        return np.concatenate(chunks)

    p0 = [base[name] for name in free]
    return damped_least_squares(residual, p0, free, lower=[VIT_PARAMS[n] for n in free])


def fit_linear_weighted(x, y, sigma):
    """Weighted straight-line fit by the closed-form normal equations.

    Returns a FitResult over ("slope", "intercept"): covariance the
    inverse normal matrix, residual_norm the weighted chi^2, converged
    after 0 iterations.  Multiplying every sigma by a constant leaves
    slope and intercept untouched and rescales chi^2 by its inverse square.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.any(sigma <= 0):
        raise ValueError("sigmas must be positive")
    w = 1.0 / sigma**2
    s = w.sum()
    sx, sy = (w * x).sum(), (w * y).sum()
    sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
    d = s * sxx - sx * sx
    if d <= 0 or d < 1e-12 * s * sxx:
        raise RankDeficientError("slope", "abscissa values are degenerate")
    m = (s * sxy - sx * sy) / d
    b = (sxx * sy - sx * sxy) / d
    return FitResult(names=("slope", "intercept"), values=np.array([m, b]),
                     covariance=np.array([[s, -sx], [-sx, sxx]]) / d,
                     residual_norm=float((w * (y - m * x - b) ** 2).sum()),
                     converged=True, iterations=0)


def line_ratio(fit):
    """intercept/slope of a fit_linear_weighted result and its error, covariance included."""
    return ratio_with_error(fit.value("intercept"), fit.error("intercept"),
                            fit.value("slope"), fit.error("slope"), fit.covariance[0, 1])


def line_json_dict(fit):
    """A line fit's JSON document: its to_json_dict() plus ratio_intercept_slope."""
    return dict(fit.to_json_dict(), ratio_intercept_slope=value_error_doc(*line_ratio(fit)))


def ratio_with_error(b, b_err, m, m_err, cov=0.0):
    """b/m with first-order error propagation (optional covariance)."""
    if m == 0:
        raise ValueError("ratio undefined for zero denominator")
    r = b / m
    var = (b_err / m) ** 2 + (b * m_err / m**2) ** 2 - 2.0 * b * cov / m**3
    return r, float(np.sqrt(max(var, 0.0)))


def format_value_error(value, error):
    """Concise value(error) string, error to one significant digit.

    format_value_error(1.351, 0.273) == '1.4(3)'.
    """
    if error <= 0:
        return repr(float(value))
    exponent = int(np.floor(np.log10(error)))
    decimals = max(0, -exponent)
    scaled = int(round(error * 10.0**decimals))
    if scaled == 10 and decimals > 0:
        decimals -= 1
        scaled = 1
    return f"{value:.{decimals}f}({scaled})"


def value_error_doc(value, error):
    """A value and its error as JSON documents carry them, with the value(error) text."""
    return {"value": value, "error": error, "formatted": format_value_error(value, error)}


def extract_transparency(t_prime, od, t_prime_err=0.0):
    """Transparency (T' - T)/(1 - T) against the bare-ensemble T = e^{-od}.

    Returns (theta, theta_err) with the uncertainty propagated linearly
    from the transmission measurement.
    """
    if od <= 0:
        raise ValueError("od must be positive")
    t0 = float(np.exp(-od))
    theta = (t_prime - t0) / (1.0 - t0)
    return float(theta), float(t_prime_err / (1.0 - t0))

