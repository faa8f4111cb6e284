"""Corrections that map the ideal single-coupling model onto the apparatus.

Four effects are modeled, each switchable:

  * standing-wave averaging: atoms sit at random positions z along the
    resonator axis, so each sees a coupling eta(z) = eta_max cos^2(kz);
    detected quantities are intensity averages over a quarter period.
  * photon-number scaling: a control field with mean photon number n_c
    raises the effective antinode cooperativity to eta_eff_0 (n_c + 1).
  * a weak parallel transition, two-photon shifted by a Zeeman splitting,
    that adds its own susceptibility on top of the main channel.
  * resonator frequency jitter, modeled as a Gaussian spread of the
    cavity detuning and applied as a Gauss-Hermite quadrature.

Averaging and jitter together define the correction ensemble: one
member per coupling class x jitter offset, each with a weight.
Corrections.members enumerates it once, and ensemble_transfer turns
the members into transfer amplitudes block by block; corrected_spectrum
and the pulse ensemble (vitlab.pulses.run_pulse_ensemble) consume those
blocks.

Everything here is a pure function; quadrature node/weight choices are
deterministic so results never depend on evaluation order.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from operator import index

import numpy as np

from vitlab.core import Detunings, susceptibility, transfer_amplitude

SIGMA_PER_FWHM = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))

# member x point elements evaluated at once by ensemble_transfer; larger
# blocks buy no speed and raise the peak memory of a wide ensemble
BLOCK_POINTS = 4096


@lru_cache(maxsize=8)
def _unit_standing_wave(nodes):
    """Read-only Gauss-Legendre (cos^2(kz), weights) over a quarter period."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    cos2, w = np.cos((x + 1.0) * (np.pi / 4.0)) ** 2, w / w.sum()
    cos2.flags.writeable = w.flags.writeable = False
    return cos2, w


def standing_wave_distribution(eta_max, nodes=64):
    """Gauss-Legendre (etas, weights) of eta_max cos^2(kz) over a quarter period."""
    if eta_max < 0:
        raise ValueError("eta_max must be nonnegative")
    if nodes < 1:
        raise ValueError("need at least one node")
    cos2, w = _unit_standing_wave(nodes)
    return eta_max * cos2, w.copy()


def effective_cooperativity(eta_eff_0, n_c):
    """Effective antinode cooperativity eta_eff_0 (n_c + 1); exactly linear in n_c."""
    if eta_eff_0 <= 0:
        raise ValueError("eta_eff_0 must be positive")
    if n_c < 0:
        raise ValueError("n_c must be nonnegative")
    return eta_eff_0 * (n_c + 1.0)


def composite_susceptibility(cfg, eta, det, corrections):
    """Main plus side-channel susceptibility with the total resonant OD conserved.

    The side channel carries od * side_weight/(1 + side_weight), the main
    channel the rest, so the wide-scan integrated absorption is unchanged.
    Both share the coupling eta; the side channel's two-photon resonance
    is displaced by side_shift.  eta broadcasts as in core.susceptibility.
    """
    if corrections.side_weight == 0.0:
        return susceptibility(cfg, eta, det)
    od_main = cfg.od / (1.0 + corrections.side_weight)
    cfg_main = replace(cfg, od=od_main)
    cfg_side = replace(cfg, od=cfg.od - od_main)
    det_side = Detunings(det.delta_probe,
                         np.asarray(det.delta_cavity) + corrections.side_shift)
    return susceptibility(cfg_main, eta, det) + susceptibility(cfg_side, eta, det_side)


def jitter_quadrature(sigma, nodes=16):
    """Gauss-Hermite offsets and weights for an rms frequency jitter sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return np.zeros(1), np.ones(1)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * sigma * x, w / w.sum()


@dataclass(frozen=True)
class Corrections:
    """Which apparatus corrections to apply, and their knobs.

    averaging_nodes: 0 disables standing-wave averaging, otherwise the
        Gauss-Legendre node count (64 is plenty; doubling it moves the
        fig2 spectra by < 1e-12).
    side_weight: Zeeman-shifted side channel's od over the main's, in [0, 1], 0 off.
    side_shift: the side channel's two-photon shift (rad/s).
    jitter_fwhm: FWHM of the resonator frequency jitter (rad/s), 0 off.
    jitter_nodes: Gauss-Hermite node count (doubling 16 moves the fig2
        spectra by < 1e-5).
    """

    averaging_nodes: int = 0
    side_weight: float = 0.0
    side_shift: float = 0.0
    jitter_fwhm: float = 0.0
    jitter_nodes: int = 16

    def __post_init__(self):
        if not 0.0 <= self.side_weight <= 1.0:
            raise ValueError("side-channel weight must lie in [0, 1]")
        if index(self.averaging_nodes) < 0 or index(self.jitter_nodes) < 1:
            raise ValueError("averaging_nodes must be >= 0 and jitter_nodes >= 1")
        if not (abs(self.side_shift) < np.inf and 0.0 <= self.jitter_fwhm < np.inf):
            raise ValueError("side_shift must be finite, jitter_fwhm nonnegative and finite")

    def members(self, eta_max):
        """The correction ensemble as flat arrays (etas, offsets, weights).

        One member per coupling class x jitter offset, classes major:
        max(averaging_nodes, 1) classes (eta_max alone when averaging is
        off) times the jitter nodes (one zero offset when jitter_fwhm
        is 0).  offsets shift the cavity detuning (rad/s); the weights
        sum to 1.
        """
        if self.averaging_nodes:
            etas, wz = standing_wave_distribution(eta_max, self.averaging_nodes)
        else:
            etas, wz = np.array([float(eta_max)]), np.ones(1)
        offs, wj = jitter_quadrature(self.jitter_fwhm * SIGMA_PER_FWHM, self.jitter_nodes)
        return np.repeat(etas, len(offs)), np.tile(offs, len(etas)), np.outer(wz, wj).ravel()


IDEAL = Corrections()


def ensemble_transfer(cfg, eta_max, det, corrections=IDEAL):
    """Transfer amplitudes of the ensemble members, in blocks.

    Yields (weights, etas, det_m, t) per block of about BLOCK_POINTS
    member x point elements (at least one member): the block's member
    weights and cooperativities, its Detunings of shape (member, point)
    (the broadcast detunings flattened, each row's cavity detuning
    shifted by the member's jitter offset) and t = exp(i k L chi / 2)
    of the same shape.  This is the only place Corrections.members is
    turned into transfer amplitudes.
    """
    etas, offsets, weights = corrections.members(eta_max)
    dp, dcav = np.broadcast_arrays(np.asarray(det.delta_probe, dtype=float),
                                   np.asarray(det.delta_cavity, dtype=float))
    dp, dcav = dp.ravel(), dcav.ravel()
    step = max(BLOCK_POINTS // max(dp.size, 1), 1)
    for lo in range(0, len(etas), step):
        block = slice(lo, lo + step)
        det_m = Detunings(dp, dcav + offsets[block, None])
        chi = composite_susceptibility(cfg, etas[block], det_m, corrections)
        yield weights[block], etas[block], det_m, transfer_amplitude(chi, cfg)


def corrected_spectrum(cfg, eta_max, det, corrections=IDEAL, emission_scale=1.0):
    """Transmission and resonator-emission spectra with the full correction stack.

    Returns (transmission, emission), each the intensity-level average
    of the ensemble members (ensemble_transfer), with the shape of the
    broadcast detunings.  The emission channel multiplies the absorbed
    fraction by the branching ratio of the main two-photon channel,
    beta = eta/(eta + 1 + dc^2) with dc the member's normalized cavity
    detuning (the closed form of the amplitude equations in
    vitlab.oracle), and by emission_scale.  Overflow raises ValueError.
    """
    if not 0 < emission_scale < np.inf:
        raise ValueError("emission_scale must be positive and finite")
    shape = np.broadcast_shapes(np.shape(det.delta_probe), np.shape(det.delta_cavity))
    trans = emis = 0.0
    for weights, etas, det_m, t in ensemble_transfer(cfg, eta_max, det, corrections):
        t2 = np.abs(t) ** 2
        eta = etas[:, None]
        dc = det_m.normalized(cfg)[1]
        trans = trans + weights @ t2
        emis = emis + weights @ ((1.0 - t2) * (eta / (eta + 1.0 + dc * dc)))
    trans, emis = trans.reshape(shape)[()], emission_scale * emis.reshape(shape)[()]
    if not (np.isfinite(trans).all() and np.isfinite(emis).all()):
        raise ValueError(f"cooperativity {eta_max:g} gives a non-finite spectrum")
    return trans, emis

