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

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhysicalConfig:
    """Ensemble and resonator constants, each finite, as are k L > 0 and od/(k L).

    gamma: atomic FWHM linewidth (rad/s), positive
    kappa: resonator FWHM linewidth (rad/s), positive
    wavelength: probe wavelength (m), positive
    od: resonant optical depth of the ensemble, nonnegative
    length: ensemble length L (m), positive
    """

    gamma: float
    kappa: float
    wavelength: float
    od: float
    length: float

    def __post_init__(self):
        if not (0 < self.gamma < np.inf and 0 < self.kappa < np.inf):
            raise ValueError("linewidths must be positive and finite")
        if not (0 < self.wavelength < np.inf and 0 < self.length < np.inf):
            raise ValueError("wavelength and length must be positive and finite")
        if not 0 <= self.od < np.inf:
            raise ValueError("optical depth must be nonnegative and finite")
        if not (0 < self.kl < np.inf and self.od / self.kl < np.inf):
            raise ValueError("k L = 2 pi length/wavelength must be positive and finite, "
                             "and od/(k L) finite")

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


def _factors(cfg, delta_probe, delta_cavity):
    """p = 1 - i Dt and q = 1/(1 - i dc), at the detunings' broadcast shape."""
    dp = np.asarray(delta_probe, dtype=float)
    return (1.0 - (2j / cfg.gamma) * dp,
            1.0 / (1.0 - (2j / cfg.kappa) * (dp - np.asarray(delta_cavity, dtype=float))))


def _mobius(c, eta, p, q):
    """c/(p + eta q), formed in place; the one refusal of a negative cooperativity."""
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any():
        raise ValueError("cooperativity must be nonnegative")
    w = np.asarray(eta * q)
    w += p
    return np.divide(c, w, out=w)[()]


def susceptibility(cfg, eta, delta_probe, delta_cavity, od=None, factors=None):
    """Linear weak-probe susceptibility of the coupled ensemble.

    chi = (OD/kL) (dc + i)/(eta + z) with z = (1 - i Dt)(1 - i dc): a
    Moebius map of eta, evaluated divided through by 1 - i dc as
    chi = i (OD/kL)/(p + eta q), p = 1 - i Dt, q = 1/(1 - i dc).  No
    product of two detunings is formed, so chi is finite, with
    Im chi >= 0, for every finite eta and detuning.

    eta is the cooperativity, 0 for the bare two-level response; it
    broadcasts against the detunings as in group_delay.  od (default
    cfg.od) is a channel's share of the optical depth, and factors the
    (p, q) of _factors at these detunings, when the caller formed them.
    Returns a complex ndarray, or a complex scalar for scalar inputs.
    """
    p, q = _factors(cfg, delta_probe, delta_cavity) if factors is None else factors
    return _mobius(1j * (cfg.od if od is None else od) / cfg.kl, eta, p, q)


def transfer_amplitude(chi, cfg):
    """Amplitude transfer function t = exp(i k L chi / 2) of a susceptibility array."""
    return np.exp(0.5j * cfg.kl * chi)


def transmission(cfg, eta, delta_probe, delta_cavity):
    """Power transmission |t|^2 = exp(-k L Im chi) through the ensemble."""
    return np.exp(-cfg.kl * susceptibility(cfg, eta, delta_probe, delta_cavity).imag)


def cooperativity_geometric(geom):
    """Single-atom cooperativity from resonator geometry, 24 F / (pi k^2 w^2), or inf."""
    k = TWO_PI / geom.wavelength
    denominator = np.pi * k * k * geom.waist * geom.waist
    return 24.0 * geom.finesse / denominator if denominator else np.inf


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


def group_delay(cfg, eta, delta_probe, delta_cavity):
    """Group delay d(arg t)/dDelta = (kL/2) Re dchi/dDelta, in closed form.

    The probe frequency scans while the resonator stays put, so the
    two-photon detuning scans too.  With w = p + eta q the denominator
    of susceptibility, dp/dDelta = -2i/gamma and dq/dDelta = (2i/kappa) q^2,
    so tau = OD Re[(eta q^2/kappa - 1/gamma) / w^2]; eta and the detunings
    broadcast together.  This exact local slope, (OD/kappa) (eta -
    kappa/gamma)/(eta + 1)^2 on double resonance, holds the small
    anomalous dispersion of the bare atomic line, so it approaches
    group_delay_analytic only when kappa/gamma << eta.
    """
    eta = np.asarray(eta, dtype=float)
    p, q = _factors(cfg, delta_probe, delta_cavity)
    u = _mobius(1.0, eta, p, q)  # |u| <= 1: u^2 cannot overflow where w^2 would
    return (cfg.od * ((eta * q * q / cfg.kappa - 1.0 / cfg.gamma) * u * u).real)[()]


def group_velocity(delay, path_length):
    """Group velocity for a given delay over a given physical path."""
    if delay <= 0:
        raise ValueError("delay must be positive")
    return path_length / delay
