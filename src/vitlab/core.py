"""Analytic model of a driven three-level ensemble coupled to a resonator.

Everything here evaluates closed forms of the linear weak-probe response:
the complex susceptibility chi(Delta, delta), the amplitude transfer
function t = exp(i k L chi / 2) of the ensemble, and the group-delay and
transparency quantities derived from them.

Conventions, fixed once for the whole package:
  * gamma and kappa are FWHM linewidths in angular units (rad/s);
    amplitude decay rates are gamma/2 and kappa/2.
  * delta_probe is the probe-atom detuning Delta, delta_cavity the
    cavity-atom detuning delta, both rad/s.  The normalized forms are
    Dt = 2*Delta/gamma and dc = 2*(Delta - delta)/kappa.
  * Im(chi) >= 0 for a passive medium; the forward wave then always
    attenuates, |t| <= 1.
"""

from dataclasses import dataclass

import numpy as np

from vitlab.errors import ConvergenceError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhysicalConfig:
    """Ensemble and resonator constants.

    gamma: atomic FWHM linewidth (rad/s)
    kappa: resonator FWHM linewidth (rad/s)
    wavelength: probe wavelength (m)
    od: resonant optical depth of the ensemble
    length: ensemble length L (m)
    """

    gamma: float
    kappa: float
    wavelength: float
    od: float
    length: float

    def __post_init__(self):
        if self.gamma <= 0 or self.kappa <= 0:
            raise ValueError("linewidths must be positive")
        if self.wavelength <= 0 or self.length <= 0:
            raise ValueError("wavelength and length must be positive")
        if self.od < 0:
            raise ValueError("optical depth must be nonnegative")

    @property
    def wavenumber(self):
        # derived, never stored: k and lambda cannot drift apart
        return TWO_PI / self.wavelength

    @property
    def kl(self):
        return self.wavenumber * self.length


@dataclass(frozen=True)
class CavityGeometry:
    """Resonator geometry that sets the single-atom cooperativity."""

    finesse: float
    waist: float
    wavelength: float

    def __post_init__(self):
        if self.finesse <= 0 or self.waist <= 0 or self.wavelength <= 0:
            raise ValueError("geometry fields must be positive")


def susceptibility(cfg, eta, delta_probe, delta_cavity):
    """Linear weak-probe susceptibility of the coupled ensemble.

    chi = -(OD/kL) * [Dt - (eta - Dt*dc)*dc - i*(eta + 1 + dc^2)]
          / [(eta + 1 - Dt*dc)^2 + (Dt + dc)^2]

    eta is the cooperativity; eta = 0 gives the bare two-level response.
    The detunings are scalars or arrays that broadcast together.  A 1-d
    array of cooperativities (one per ensemble member) is taken as a
    (member, 1) column, so it broadcasts against detunings of shape
    (point,) or (member, point).  Returns a complex ndarray, or a complex
    scalar for scalar inputs.
    """
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any():
        raise ValueError("cooperativity must be nonnegative")
    if eta.ndim == 1:
        eta = eta[:, None]
    dp = np.asarray(delta_probe, dtype=float)
    dt = 2.0 * dp / cfg.gamma
    dc = 2.0 * (dp - np.asarray(delta_cavity, dtype=float)) / cfg.kappa
    # real arithmetic throughout: Re and Im share the scale (OD/kL)/den
    dtdc = dt * dc
    scale = (cfg.od / cfg.kl) / ((eta + 1.0 - dtdc) ** 2 + (dt + dc) ** 2)
    chi = np.empty(np.shape(scale), dtype=complex)
    chi.real = scale * ((eta - dtdc) * dc - dt)
    chi.imag = scale * (eta + 1.0 + dc * dc)
    return chi[()]


def transfer_amplitude(chi, cfg):
    """Amplitude transfer function t = exp(i k L chi / 2) of a susceptibility array."""
    return np.exp(0.5j * cfg.kl * chi)


def transmission(cfg, eta, delta_probe, delta_cavity):
    """Power transmission |t|^2 = exp(-k L Im chi) through the ensemble."""
    return np.exp(-cfg.kl * susceptibility(cfg, eta, delta_probe, delta_cavity).imag)


def cooperativity_geometric(geom):
    """Single-atom cooperativity from resonator geometry, 24 F / (pi k^2 w^2)."""
    k = TWO_PI / geom.wavelength
    return 24.0 * geom.finesse / (np.pi * k * k * geom.waist * geom.waist)


def resonant_transmission(od, eta):
    """Power transmission on double resonance, exp(-OD/(eta+1))."""
    if od < 0 or eta < 0:
        raise ValueError("od and eta must be nonnegative")
    return np.exp(-od / (eta + 1.0))


def group_delay_analytic(od, kappa, eta):
    """Narrowband group delay on double resonance, (OD/kappa) eta/(eta+1)^2.

    Maximized over eta at eta = 1.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if od < 0 or eta < 0:
        raise ValueError("od and eta must be nonnegative")
    # a product, not ** 2: a Python float power overflows with an exception
    return (od / kappa) * eta / ((eta + 1.0) * (eta + 1.0))


def group_delay_numeric(cfg, eta, step=None, tol=5e-3):
    """Group delay d(arg t)/dDelta at double resonance by finite differences.

    The probe frequency scans while the resonator stays put, so the
    two-photon detuning scans too (delta_cavity is held at 0).  Uses a
    5-point central difference at step h and h/2 with one Richardson
    extrapolation; raises ConvergenceError when the two estimates
    disagree by more than tol relative.

    Note this is the exact local slope.  It contains the small
    anomalous-dispersion contribution of the bare atomic line, so it
    approaches group_delay_analytic only when kappa/gamma << eta.
    """
    if step is None:
        step = cfg.kappa / 100.0

    def phase(delta):
        return np.angle(transfer_amplitude(susceptibility(cfg, eta, delta, 0.0), cfg))

    def diff5(h):
        return (phase(-2 * h) - 8 * phase(-h) + 8 * phase(h) - phase(2 * h)) / (12.0 * h)

    d1 = diff5(step)
    d2 = diff5(step / 2.0)
    extrap = (16.0 * d2 - d1) / 15.0
    if extrap != 0.0 and abs(d2 - d1) > tol * abs(extrap):
        raise ConvergenceError(
            f"group delay did not converge: {d1:.6e} vs {d2:.6e} at step {step:.3e}"
        )
    return extrap


def group_velocity(delay, path_length):
    """Group velocity for a given delay over a given physical path."""
    if delay <= 0:
        raise ValueError("delay must be positive")
    return path_length / delay
