"""Least-squares estimation: line fits, full two-channel model fits,
weighted linear regression, and transparency extraction.

The nonlinear solver is a small damped (Levenberg-style) least-squares
loop written here rather than imported, because two behaviors are load
bearing for this package and must be guaranteed, not assumed: a step is
accepted only if it lowers the weighted residual norm, and a rank
deficient Jacobian aborts the fit naming the parameter that cannot be
identified.  Jacobians are forward finite differences with relative
step 1e-6; fit parameters are therefore kept order-one (detuning
offsets are expressed in MHz, not rad/s).

Weights come from Poisson counting: sigma = sqrt(counts) with a floor
of one count.  Parameter covariances are (J^T J)^{-1} at the optimum
with J the weighted Jacobian.
"""

from dataclasses import dataclass, replace

import numpy as np

from vitlab.config import MHZ
from vitlab.errors import RankDeficientError
from vitlab.spatial import IDEAL, corrected_spectrum

VIT_PARAMS = ("eta_eff", "od", "scale_d2", "probe_offset_mhz", "cavity_offset_mhz")


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


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    slope_err: float
    intercept_err: float
    chi2: float
    cov_slope_intercept: float = 0.0

    @property
    def ratio(self):
        """intercept/slope and its error, the slope-intercept covariance included."""
        return ratio_with_error(self.intercept, self.intercept_err, self.slope,
                                self.slope_err, self.cov_slope_intercept)

    def to_json_dict(self):
        return {
            "slope": {"value": self.slope, "error": self.slope_err},
            "intercept": {"value": self.intercept, "error": self.intercept_err},
            "chi2": self.chi2,
            "ratio_intercept_slope": value_error_doc(*self.ratio),
        }


def _jacobian(residual_fn, p, r0, rel_step=1e-6):
    jac = np.empty((len(r0), len(p)))
    for i in range(len(p)):
        h = rel_step * max(abs(p[i]), 1.0)
        q = p.copy()
        q[i] += h
        jac[:, i] = (residual_fn(q) - r0) / h
    return jac


def _check_rank(jac, names, threshold=1e-10):
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < threshold:
        offender = names[int(np.argmax(np.abs(vt[-1])))]
        raise RankDeficientError(offender)


def damped_least_squares(residual_fn, p0, names, max_iter=200, ftol=1e-12, lam0=1e-3):
    """Minimize sum residual_fn(p)^2 with adaptive damping.

    Only descending steps are ever accepted; the damping parameter
    grows until a step descends or the search stalls at the optimum.
    Returns a FitResult whose converged flag is honest: max_iter
    exhaustion leaves it False.
    """
    p = np.asarray(p0, dtype=float).copy()
    names = tuple(names)
    r = np.asarray(residual_fn(p), dtype=float)
    cost = float(r @ r)
    lam = lam0
    converged = False
    iterations = 0
    jac = None

    for iterations in range(1, max_iter + 1):
        jac = _jacobian(residual_fn, p, r)
        _check_rank(jac, names)
        jtj = jac.T @ jac
        g = jac.T @ r
        stepped = False
        while lam < 1e14:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g)
            except np.linalg.LinAlgError:
                lam *= 8.0
                continue
            r_new = np.asarray(residual_fn(p + delta), dtype=float)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                improvement = (cost - cost_new) / max(cost, 1e-300)
                p, r, cost = p + delta, r_new, cost_new
                lam = max(lam / 4.0, 1e-12)
                stepped = True
                if improvement < ftol:
                    converged = True
                break
            lam *= 8.0
        if not stepped:
            # no descending step exists at machine precision: at an optimum
            converged = True
            break
        if converged:
            break

    jac = _jacobian(residual_fn, p, r)
    _check_rank(jac, names)
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
    x = np.asarray(spectrum.delta_probe, dtype=float) / MHZ
    t = np.asarray(spectrum.transmission, dtype=float)
    if len(x) < 8:
        raise ValueError("need at least 8 points across the line")
    if on == "absorbance":
        safe_t = np.maximum(t, 1e-12)
        y = -np.log(safe_t)
        sigma = (
            np.asarray(spectrum.sigma_transmission, dtype=float) / safe_t
            if spectrum.sigma_transmission is not None
            else np.ones_like(y)
        )
    elif on == "transmission":
        y = t
        sigma = (
            np.asarray(spectrum.sigma_transmission, dtype=float)
            if spectrum.sigma_transmission is not None
            else np.ones_like(y)
        )
    else:
        raise ValueError("on must be 'absorbance' or 'transmission'")
    sigma = np.where(sigma > 0, sigma, 1.0)

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


def _vit_model(cfg, grid, dcav, p, corrections):
    cfg_fit = replace(cfg, od=p["od"])
    return corrected_spectrum(cfg_fit, p["eta_eff"], grid + p["probe_offset_mhz"] * MHZ,
                              dcav + p["cavity_offset_mhz"] * MHZ, corrections, p["scale_d2"])


def _initial_guess(datasets, cfg):
    """Deterministic starting point.

    od from the deepest transmission point (wing formula with the local
    normalized detuning), eta_eff by inverting the on-resonance
    transmission exp(-od/(eta+1)) at the point nearest two-photon
    resonance, scale_d2 by matching the emission peak.
    """
    dcav0, spec0 = datasets[0]
    grid = np.asarray(spec0.delta_probe, dtype=float)
    t = np.clip(np.asarray(spec0.transmission, dtype=float), 1e-6, None)
    i_min = int(np.argmin(t))
    dt_norm = 2.0 * grid[i_min] / cfg.gamma
    od0 = float(np.clip(-np.log(t[i_min]) * (1.0 + dt_norm**2), 1e-3, 10.0))
    i_res = int(np.argmin(np.abs(grid - dcav0)))
    t_res = float(np.clip(t[i_res], 1e-6, 1.0 - 1e-9))
    eta0 = float(np.clip(od0 / max(-np.log(t_res), 1e-9) - 1.0, 0.05, 1e3))
    scale0 = 1.0
    if spec0.emission is not None:
        model = _vit_model(
            cfg, grid, dcav0,
            {"eta_eff": eta0, "od": od0, "scale_d2": 1.0,
             "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0},
            IDEAL,
        )[1]
        peak = float(np.max(model))
        if peak > 0:
            scale0 = float(np.clip(np.max(spec0.emission) / peak, 1e-3, 1e6))
    return {"eta_eff": eta0, "od": od0, "scale_d2": scale0,
            "probe_offset_mhz": 0.0, "cavity_offset_mhz": 0.0}


def _divisor(sigma, grid):
    """A channel's residual divisor: its sigmas, 1 where one is missing or nonpositive."""
    sigma = np.ones_like(grid) if sigma is None else np.asarray(sigma, dtype=float)
    return np.where(sigma > 0, sigma, 1.0)


def fit_vit_spectra(datasets, cfg, free=("eta_eff", "od", "scale_d2"),
                    fixed=None, corrections=IDEAL):
    """Joint fit of the coupled-ensemble model over spectra and channels.

    datasets: list of (delta_cavity, Spectrum); every spectrum's
    transmission channel enters the residual, and the emission channel
    too when present.  free names parameters from VIT_PARAMS, each
    once (an unknown or repeated name raises ValueError); the rest
    stay at their initial values (overridable through fixed).

    probe_offset_mhz and cavity_offset_mhz are axis calibrations: the
    correction added to the recorded detunings to recover the true ones,
    so data whose axis reads 0.3 MHz high fits to an offset of -0.3.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    for name in free:
        if name not in VIT_PARAMS:
            raise ValueError(f"unknown parameter '{name}'")
        if free.count(name) > 1:
            raise ValueError(f"parameter '{name}' is listed more than once in free")
    base = _initial_guess(datasets, cfg)
    if fixed:
        base.update(fixed)

    grids = [np.asarray(s.delta_probe, dtype=float) for _, s in datasets]
    sigmas = [(_divisor(s.sigma_transmission, g), _divisor(s.sigma_emission, g))
              for (_, s), g in zip(datasets, grids)]
    total_len = sum(
        len(g) * (2 if s.emission is not None else 1)
        for (_, s), g in zip(datasets, grids)
    )

    def residual(pvec):
        p = dict(base)
        p.update({name: pvec[i] for i, name in enumerate(free)})
        if p["eta_eff"] < 0 or p["od"] < 0 or p["scale_d2"] <= 0:
            # barrier: reflect unphysical trials back with a large penalty
            return np.full(total_len, 1e6)
        chunks = []
        for (dcav, spec), grid, (st, se) in zip(datasets, grids, sigmas):
            trans, emis = _vit_model(cfg, grid, dcav, p, corrections)
            chunks.append((trans - spec.transmission) / st)
            if spec.emission is not None:
                chunks.append((emis - spec.emission) / se)
        return np.concatenate(chunks)

    p0 = [base[name] for name in free]
    return damped_least_squares(residual, p0, free)


def fit_linear_weighted(x, y, sigma):
    """Weighted straight-line fit by the closed-form normal equations.

    Returns LinearFit with parameter errors from the inverse normal
    matrix; multiplying every sigma by a constant leaves slope and
    intercept untouched and rescales chi2 by its inverse square.
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
    chi2 = float((w * (y - m * x - b) ** 2).sum())
    return LinearFit(
        slope=float(m),
        intercept=float(b),
        slope_err=float(np.sqrt(s / d)),
        intercept_err=float(np.sqrt(sxx / d)),
        chi2=chi2,
        cov_slope_intercept=float(-sx / d),
    )


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

