"""Least-squares estimation: line fits, full two-channel model fits,
weighted linear regression, and transparency extraction.

The nonlinear solver is projected Levenberg-Marquardt (Kanzow et al.,
J. Comput. Appl. Math. 172 (2004) 375), written here because two
behaviors are load bearing and must be guaranteed, not assumed: a step,
projected onto the lower bounds (VIT_PARAMS for the model fit), is
accepted only if it lowers the weighted residual norm, and a rank
deficient final Jacobian fails the fit naming the unidentifiable
parameter.  Every residual comes with its exact Jacobian: the model
fit's is corrected_spectrum's derivatives from the pass that forms the
model, fit_lorentzian's the line's four closed-form columns.  A fit
that ends at a chi^2 or a Jacobian that is not finite raises
ValueError.

A residual is (model - data) / sigma with the Spectrum's own sigmas,
positive and finite by construction (Poisson for scans: sqrt(counts)
with a floor of one count); a channel without sigmas weighs each point
1.  Every fit returns a FitResult; the parameter covariance (J^T J)^{-1}
at the optimum, J the weighted Jacobian, is carried as errors and a
correlation matrix, both read off the SVD of J that tests its rank
(Numerical Recipes, 3rd ed., sec. 15.4.2), never from an inverse of
J^T J, which would square its condition number.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from vitlab.config import MHZ
from vitlab.errors import RankDeficientError
from vitlab.spatial import IDEAL, corrected_spectrum

# the least ratio of a fit's smallest singular value to its largest (the rank rule)
RANK_RATIO = 1e-10
# the model fit's parameters and their lower bounds
VIT_PARAMS = {"eta_eff": 0.0, "od": 0.0, "scale_d2": 0.0,
              "probe_offset_mhz": -np.inf, "cavity_offset_mhz": -np.inf}


@dataclass(frozen=True)
class FitResult:
    """A fit's parameters and chi^2, the covariance carried as errors and a
    correlation matrix: an error stays in a double's range where its square
    may not."""

    names: tuple
    values: object
    errors: object
    correlation: object
    residual_norm: float
    converged: bool
    iterations: int
    evaluations: int  # the solver's model passes, 0 for a closed-form fit

    def value(self, name):
        return float(self.values[self.names.index(name)])

    def error(self, name):
        return float(self.errors[self.names.index(name)])

    def to_json_dict(self):
        return {
            "params": {
                n: {"value": self.value(n), "error": self.error(n)} for n in self.names
            },
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


@np.errstate(all="ignore")
def damped_least_squares(residual_fn, p0, names, max_iter=200, lower=None):
    """Minimize sum residual_fn(p)^2 over p >= lower with adaptive damping.

    residual_fn(p) returns (r, J), the residual and its exact Jacobian,
    at every point it is given, so an accepted trial brings the next
    iteration's J.  lower holds a bound per parameter (-inf for none, the
    default); a p0 below it raises ValueError.  Each iteration holds the
    parameters at their bound with a positive gradient, and those with a
    zero Jacobian column, solves for the rest and projects the trial onto
    the bounds.  A trial that does not descend grows the damping (from
    1e-3) 8-fold, an accepted one shrinks it 4-fold, to no less than
    1e-12; a trial whose chi^2 is not finite never descends.  Converged
    means a step gained under 1e-12 relative, none descends below damping
    1e14, or all are held; not after max_iter.  The model is evaluated
    without warnings, and a final chi^2 or Jacobian that is not finite
    raises ValueError.  With the final J = U S V^T, singular values
    spanning more than 1/RANK_RATIO raise RankDeficientError; else the
    covariance is R R^T with R = V/s (Numerical Recipes sec. 15.4.2).
    The result's evaluations counts the calls of residual_fn.
    """
    p = np.asarray(p0, dtype=float).copy()
    names = tuple(names)
    lower = np.full(len(p), -np.inf) if lower is None else np.asarray(lower, dtype=float)
    if np.any(p < lower):
        raise ValueError(f"the fit starts below its lower bounds, at "
                         f"{dict(zip(names, p.tolist()))}")
    r, jac = residual_fn(p)
    evaluations = 1
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
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
            r_new, jac_new = residual_fn(trial)
            evaluations += 1
            cost_new = float(r_new @ r_new)
            if cost_new < cost:  # never true of a nan or inf trial
                converged = (cost - cost_new) / max(cost, 1e-300) < 1e-12
                p, r, jac, cost = trial, r_new, jac_new, cost_new
                lam = max(lam / 4.0, 1e-12)
                break
            lam *= 8.0
        else:
            # no descending step exists at machine precision, or none can move: at an optimum
            converged = True
        if converged:
            break

    # numpy's SVD may never return from an inf
    if not (math.isfinite(cost) and np.isfinite(jac).all()):
        raise ValueError(f"the fit ends where chi^2 or its Jacobian is not finite, at "
                         f"{dict(zip(names, p.tolist()))}")
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < RANK_RATIO:
        offender = names[int(np.argmax(np.abs(vt[-1])))]
        raise RankDeficientError(offender)
    root = vt.T / s
    errors = np.hypot.reduce(root, axis=1)
    unit = root / errors[:, None]
    return FitResult(
        names=names,
        values=p,
        errors=errors,
        correlation=unit @ unit.T,
        residual_norm=cost,
        converged=converged,
        iterations=iterations,
        evaluations=evaluations,
    )


def lorentzian(x, center, fwhm, depth, baseline):
    """baseline + depth f, f = 1 / (1 + u^2) with u = 2 (x - center)/fwhm,
    and its exact derivatives along (center, fwhm, depth, baseline), of
    shape (4, points)."""
    u = 2.0 * (x - center) / fwhm
    f = 1.0 / (1.0 + u * u)
    slope = 2.0 * depth * u * f * f / fwhm  # d/dfwhm is u slope, d/dcenter 2 slope
    return baseline + depth * f, np.array([2.0 * slope, u * slope, f, np.ones_like(f)])


def fit_lorentzian(spectrum, on="absorbance"):
    """Fit a Lorentzian line to a transmission spectrum.

    on="absorbance" (default) fits -ln T, which for a bare two-level
    medium is exactly Lorentzian with FWHM equal to the atomic
    linewidth; on="transmission" fits the raw dip instead (its width is
    not the atomic linewidth unless the medium is optically thin).
    The detunings are handled in MHz, so the fitted fwhm is already in MHz.
    The residual carries lorentzian's exact columns.  The line holds fwhm
    only squared, so a fit that ends at a negative width reports its
    magnitude, with the same error and its correlations negated.
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
        model, columns = lorentzian(x, *p)
        return (model - y) / sigma, (columns / sigma).T

    fit = damped_least_squares(residual, [center0, fwhm0, depth0, baseline0],
                               ("center_mhz", "fwhm_mhz", "depth", "baseline"))
    flip = np.array([1.0, math.copysign(1.0, fit.values[1]), 1.0, 1.0])
    return replace(fit, values=fit.values * flip,
                   correlation=fit.correlation * np.outer(flip, flip))


# the corrected_spectrum argument each offset or model parameter moves, and its rate
_SPECTRUM_ARGS = {"eta_eff": ("eta_max", 1.0), "od": ("od", 1.0),
                 "probe_offset_mhz": ("delta_probe", MHZ),
                 "cavity_offset_mhz": ("delta_cavity", MHZ)}


def _vit_model(cfg, spec, p, corrections, free=None):
    """spec's (transmission, emission) model at the parameters p.

    With free, parameter names, each channel's exact derivatives along
    them follow, of shape (len(free), points): scale_d2's is the
    unscaled emission, every other corrected_spectrum's.
    """
    moved = [name for name in free or () if name != "scale_d2"]
    trans, emis, *grads = corrected_spectrum(
        replace(cfg, od=p["od"]), p["eta_eff"],
        spec.delta_probe + p["probe_offset_mhz"] * MHZ,
        spec.delta_cavity + p["cavity_offset_mhz"] * MHZ,
        corrections, None if free is None else [_SPECTRUM_ARGS[name][0] for name in moved])
    scale = p["scale_d2"]
    if free is None:
        return trans, scale * emis
    rows = {name: (_SPECTRUM_ARGS[name][1] * dtrans, _SPECTRUM_ARGS[name][1] * scale * demis)
            for name, dtrans, demis in zip(moved, *grads)}
    rows["scale_d2"] = np.zeros_like(trans), emis
    return (trans, scale * emis, *np.array([rows[name] for name in free]).swapaxes(0, 1))


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
    # past 1e9 the factor saturates the clip, -log t being 0 or at least 1.1e-16 in magnitude
    dt_norm = min(abs(2.0 * grid[i_min] / cfg.gamma), 1e9)
    od0 = float(np.clip(-np.log(t[i_min]) * (1.0 + dt_norm**2), 1e-3, 10.0))
    i_res = int(np.argmin(np.abs(grid - spec.delta_cavity)))
    t_res = float(np.clip(t[i_res], 1e-6, 1.0 - 1e-9))
    eta0 = float(np.clip(od0 / max(-np.log(t_res), 1e-9) - 1.0, 0.05, 1e3))
    guess = {"eta_eff": eta0, "od": od0, "scale_d2": 1.0,
             "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0}
    if spec.emission is not None:
        peak = float(np.max(_vit_model(cfg, spec, guess, IDEAL)[1]))
        if peak > 0:
            with np.errstate(over="ignore"):  # a ratio that overflows clips to 1e6
                guess["scale_d2"] = float(np.clip(np.max(spec.emission) / peak, 1e-3, 1e6))
    return guess


def check_free(free):
    """free as a tuple of VIT_PARAMS names, each once and eta_eff among them, else ValueError."""
    free = tuple(free)
    for name in free:
        if name not in VIT_PARAMS:
            raise ValueError(f"unknown parameter '{name}'")
        if free.count(name) > 1:
            raise ValueError(f"parameter '{name}' is listed more than once")
    if "eta_eff" not in free:
        raise ValueError("the free parameters must include eta_eff, which no config value holds")
    return free


def fit_vit_spectra(spectra, cfg, free=("eta_eff", "od", "scale_d2")):
    """Joint fit of the coupled-ensemble model over spectra and channels.

    spectra: list of Spectrum, each point at its own resonator detuning
    (a scan's spectrum holds all of its detunings) and each modelled
    with its own corrections, so scans made with different corrections
    fit jointly; every spectrum's transmission channel enters the
    residual, and the emission channel too when present, each weighed by
    its sigmas (1 without); a residual evaluates the model and its exact
    Jacobian in one pass per spectrum.  free names parameters as
    check_free takes them; they start from _initial_guess of the first
    spectrum, and the rest are held at cfg.od, a scale_d2 of 1 and zero
    offsets.  The solver keeps the free parameters at or above their
    VIT_PARAMS lower bounds.

    probe_offset_mhz and cavity_offset_mhz are axis calibrations: the
    correction added to the recorded detunings to recover the true ones,
    so data whose axis reads 0.3 MHz high fits to an offset of -0.3.
    """
    if not spectra:
        raise ValueError("need at least one spectrum")
    free = check_free(free)
    guess = _initial_guess(spectra[0], cfg)
    held = {"od": cfg.od, "scale_d2": 1.0, "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0}
    base = {name: guess[name] if name in free else held[name] for name in VIT_PARAMS}

    def residual(pvec):
        p = dict(base)
        p.update({name: pvec[i] for i, name in enumerate(free)})
        chunks, rows = [], []
        for spec in spectra:
            trans, emis, dtrans, demis = _vit_model(cfg, spec, p, spec.corrections, free)
            for m, dm, data, sigma in zip((trans, emis), (dtrans, demis),
                                          (spec.transmission, spec.emission),
                                          (spec.sigma_transmission, spec.sigma_emission)):
                if data is not None:
                    sigma = 1.0 if sigma is None else sigma
                    chunks.append((m - data) / sigma)
                    rows.append(dm / sigma)
        return np.concatenate(chunks), np.concatenate(rows, axis=1).T

    p0 = [base[name] for name in free]
    return damped_least_squares(residual, p0, free, lower=[VIT_PARAMS[n] for n in free])


def fit_linear_weighted(x, y, sigma):
    """Weighted straight-line fit by the closed-form normal equations.

    Returns a FitResult over ("slope", "intercept"): errors and
    correlation those of the inverse normal matrix, residual_norm the
    weighted chi^2, converged after 0 iterations.  Multiplying every
    sigma by a constant leaves slope and intercept untouched and
    rescales chi^2 by its inverse square.
    The sums are the centred ones of Numerical Recipes (sec. 15.2), formed
    on scaled data: weights relative to the tightest point, x and y about
    their midrange over their half-range, so no finite input overflows
    them.  The rank rule is the solver's: the singular values of that
    scaled design spanning more than 1/RANK_RATIO raise
    RankDeficientError, equal abscissae among them.  A value, error or
    chi^2 that a double cannot hold in the data's units raises
    ValueError; so does an error below a double's normal range, which
    would read 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.any(sigma <= 0):
        raise ValueError("sigmas must be positive")
    (cx, hx), (cy, hy) = _midrange(x), _midrange(y)
    hx, hy = hx or 1.0, hy or 1.0  # equal abscissae fail the rank rule below; a flat line fits
    tight = sigma.min()
    w = np.square(tight / sigma)
    u, v = (x - cx) / hx, (y - cy) / hy
    s = w.sum()
    ubar = (w @ u) / s
    t = u - ubar
    stt = w @ (t * t)
    xbar = cx / hx + ubar  # the weighted mean of x, in units of hx
    # the solver's rank rule on the design's singular values, sqrt(stt) <= 2 sqrt(s) and sqrt(s)
    if not np.sqrt(stt / s) >= RANK_RATIO:
        raise RankDeficientError("slope", "abscissa values are degenerate")
    # mapped back, any of these may leave a double's range: the check follows.
    # Each error is a product, never the root of a variance; g/h is minus the
    # slope-intercept correlation
    with np.errstate(over="ignore", invalid="ignore"):
        m, vbar = (w @ (t * v)) / stt, (w @ v) / s
        chi2 = np.square(hy * np.sqrt(w @ np.square(v - vbar - m * t)) / tight)
        values = np.array([hy / hx * m, cy + hy * (vbar - xbar * m)])
        g = xbar / np.sqrt(stt)
        h = np.hypot(1.0 / np.sqrt(s), g)
        errors = np.array([tight / hx / np.sqrt(stt), tight * h])
    if not (np.isfinite([*values, chi2, *errors]).all()
            and (errors >= np.finfo(float).tiny).all()):
        raise ValueError("the slope, the intercept, their errors or chi^2 lie "
                         "outside a double's range in the data's units")
    return FitResult(names=("slope", "intercept"), values=values, errors=errors,
                     correlation=np.array([[1.0, -g / h], [-g / h, 1.0]]),
                     residual_norm=float(chi2), converged=True, iterations=0, evaluations=0)


def _midrange(a):
    """(centre, half-range) of an array; each end is halved first, so neither overflows."""
    lo, hi = a.min() / 2.0, a.max() / 2.0
    return lo + hi, hi - lo


def line_ratio(fit):
    """intercept/slope of a fit_linear_weighted result and its error, correlation included."""
    if fit.value("slope") == 0:
        raise ValueError("the fitted slope is 0, so intercept/slope is undefined")
    return ratio_with_error(fit.value("intercept"), fit.error("intercept"),
                            fit.value("slope"), fit.error("slope"), fit.correlation[0, 1])


def line_json_dict(fit):
    """A line fit's JSON document: its to_json_dict() plus ratio_intercept_slope."""
    return dict(fit.to_json_dict(), ratio_intercept_slope=value_error_doc(*line_ratio(fit)))


def ratio_with_error(b, b_err, m, m_err, rho=0.0):
    """b/m with first-order error propagation (optional correlation rho of b and m)."""
    if m == 0:
        raise ValueError("ratio undefined for zero denominator")
    r = b / m
    # m^2 var = b_err^2 + p^2 - 2 rho b_err p, p = r m_err, as a sum of two
    # squares taken by hypot: no square of an error leaves a double's range
    p = r * m_err
    root = math.hypot(b_err - rho * p, math.sqrt(max(1.0 - rho * rho, 0.0)) * p)
    err = root / abs(m)
    # an error that overflowed, or that fell below a double's normal range
    if not (math.isfinite(r) and math.isfinite(err) and (err >= np.finfo(float).tiny or not root)):
        raise ValueError("the ratio or its error lies outside a double's range")
    return r, err


def format_value_error(value, error):
    """Concise value(error) string, error to one significant digit.

    format_value_error(1.351, 0.273) == '1.4(3)'.  An error that rounds
    to 10 or more, or a fixed form longer than 24 characters, gives way
    to a scientific form, the value rounded at the error's leading digit:
    format_value_error(5, 12) == '0(1)e+01' and
    format_value_error(0.5, 6e200) == '0(6)e+200'.  Where that digit lies
    past the 17 a double holds of the value, the value is written as repr
    writes it and the error apart:
    format_value_error(1e300, 1e-300) == '1e+300(1e-300)'.
    """
    if error <= 0:
        return repr(float(value))
    exponent = int(np.floor(np.log10(error)))
    if -24 < exponent < 1:
        decimals = -exponent
        scaled = int(round(error * 10.0**decimals))
        if scaled == 10 and decimals > 0:
            decimals -= 1
            scaled = 1
        fixed = f"{value:.{decimals}f}({scaled})"
        if scaled < 10 and len(fixed) <= 24:
            return fixed
    # the error to one digit, and the value in units of that digit, rounded
    # half to even in exact integer arithmetic
    digit, exponent = map(int, f"{error:.0e}".split("e"))
    n, d = float(value).as_integer_ratio()
    n, d = (n * 10**-exponent, d) if exponent < 0 else (n, d * 10**exponent)
    units, rest = divmod(n, d)
    units += 2 * rest > d or (2 * rest == d and units % 2)
    digits = str(abs(units))
    if len(digits) > 17:
        return f"{float(value)!r}({error:.0e})"
    sign, point = "-" * (units < 0), "." * (len(digits) > 1)
    return f"{sign}{digits[0]}{point}{digits[1:]}({digit})e{exponent + len(digits) - 1:+03d}"


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

