"""Steady-state single-excitation solver, independent of the closed form.

The driven system restricted to one excitation has three amplitudes:
the ground state with the probe photon (c_f, pinned to 1 in the weak
probe limit), the atomic excited state (c_e), and the second ground
state with one resonator photon (c_g).  Their steady state follows from
a 2x2 complex linear system, solved here with numpy.linalg rather than
by algebra, so the result is an honest cross-check of the closed-form
susceptibility in vitlab.core rather than a restatement of it.  The
package computes nothing with this module: it is the witness the tests
hold the closed forms (chi, and the branching ratio inside
vitlab.spatial.corrected_spectrum) against.

Amplitude equations (e^{+i omega t} rotating frame, FWHM linewidths):

    (gamma/2 + i Delta)           c_e = i g c_g + i Omega_p / 2
    (kappa/2 + i (Delta - delta)) c_g = i g c_e

The forward-propagating susceptibility lives in the conjugate frame
(fields ~ e^{-i omega t}); see susceptibility_from_oracle.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DriveSpec",
    "AmplitudeState",
    "steady_state_amplitudes",
    "susceptibility_from_oracle",
    "branching_ratio",
]


@dataclass(frozen=True)
class DriveSpec:
    """Probe Rabi frequency Omega_p and atom-resonator coupling g (rad/s)."""

    omega_p: float
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("coupling g must be nonnegative")


@dataclass(frozen=True)
class AmplitudeState:
    """Steady-state amplitudes (scalar or array), c_f fixed to 1."""

    c_e: object
    c_g: object


def steady_state_amplitudes(cfg, drive, delta_probe, delta_cavity):
    """Solve the 2x2 steady-state system for (c_e, c_g).

    Vectorizes over detuning arrays by stacking one small linear system
    per grid point; no closed-form simplification is used anywhere.
    """
    dp = np.asarray(delta_probe, dtype=float)
    dc = np.asarray(delta_cavity, dtype=float)
    dp, dc = np.broadcast_arrays(dp, dc)
    shape = dp.shape

    a = np.zeros(shape + (2, 2), dtype=complex)
    a[..., 0, 0] = 0.5 * cfg.gamma + 1j * dp
    a[..., 0, 1] = -1j * drive.g
    a[..., 1, 0] = -1j * drive.g
    a[..., 1, 1] = 0.5 * cfg.kappa + 1j * (dp - dc)
    b = np.zeros(shape + (2, 1), dtype=complex)
    b[..., 0, 0] = 0.5j * drive.omega_p

    sol = np.linalg.solve(a, b)[..., 0]
    c_e, c_g = sol[..., 0], sol[..., 1]
    if shape == ():
        c_e, c_g = complex(c_e), complex(c_g)
    return AmplitudeState(c_e, c_g)


def susceptibility_from_oracle(cfg, drive, delta_probe, delta_cavity):
    """Susceptibility from the amplitude solver alone.

    The amplitude equations above use the e^{+i omega t} convention; the
    susceptibility seen by a forward wave e^{i(kz - omega t)} is the
    conjugate response.  The single real constant -gamma*OD/(kL) is
    fixed by matching the uncoupled (g = 0) case to the two-level form
    -(OD/kL)(Dt - i)/(1 + Dt^2), and is independent of all detunings.
    """
    if drive.omega_p == 0:
        raise ValueError("omega_p must be nonzero to normalize the response")
    state = steady_state_amplitudes(cfg, drive, delta_probe, delta_cavity)
    scale = -cfg.gamma * cfg.od / cfg.kl
    return scale * np.conj(np.asarray(state.c_e) / drive.omega_p)


def branching_ratio(state, cfg):
    """Fraction of scattered light leaving through the resonator.

    beta = kappa |c_g|^2 / (kappa |c_g|^2 + gamma |c_e|^2)
    """
    pe = cfg.gamma * np.abs(np.asarray(state.c_e)) ** 2
    pc = cfg.kappa * np.abs(np.asarray(state.c_g)) ** 2
    total = pe + pc
    if np.any(total == 0):
        raise ValueError("branching ratio undefined for identically zero amplitudes")
    return pc / total
