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

Every function takes (cfg, eta, delta_probe, delta_cavity), like
vitlab.core.susceptibility; the coupling is g = sqrt(eta kappa gamma)/2,
from eta = 4 g^2 / (kappa gamma).  Amplitude equations per unit probe
Rabi frequency (e^{+i omega t} rotating frame, FWHM linewidths):

    (gamma/2 + i Delta)           c_e = i g c_g + i / 2
    (kappa/2 + i (Delta - delta)) c_g = i g c_e

The forward-propagating susceptibility lives in the conjugate frame
(fields ~ e^{-i omega t}); see susceptibility_from_oracle.
"""

import numpy as np


def steady_state_amplitudes(cfg, eta, delta_probe, delta_cavity):
    """Solve the 2x2 steady-state system for (c_e, c_g).

    Vectorizes over detuning arrays by stacking one small linear system
    per grid point; no closed-form simplification is used anywhere.
    Returns two arrays, or two complex scalars for scalar detunings.
    """
    if eta < 0:
        raise ValueError("cooperativity must be nonnegative")
    g = 0.5 * np.sqrt(eta * cfg.kappa * cfg.gamma)
    dp, dc = np.broadcast_arrays(np.asarray(delta_probe, dtype=float),
                                 np.asarray(delta_cavity, dtype=float))
    a = np.zeros(dp.shape + (2, 2), dtype=complex)
    a[..., 0, 0] = 0.5 * cfg.gamma + 1j * dp
    a[..., 0, 1] = a[..., 1, 0] = -1j * g
    a[..., 1, 1] = 0.5 * cfg.kappa + 1j * (dp - dc)
    b = np.zeros(dp.shape + (2, 1), dtype=complex)
    b[..., 0, 0] = 0.5j

    sol = np.linalg.solve(a, b)[..., 0]
    return sol[..., 0][()], sol[..., 1][()]


def susceptibility_from_oracle(cfg, eta, delta_probe, delta_cavity):
    """Susceptibility from the amplitude solver alone.

    The amplitude equations above use the e^{+i omega t} convention; the
    susceptibility seen by a forward wave e^{i(kz - omega t)} is the
    conjugate response.  The single real constant -gamma*OD/(kL) is
    fixed by matching the uncoupled (eta = 0) case to the two-level form
    -(OD/kL)(Dt - i)/(1 + Dt^2), and is independent of all detunings.
    """
    c_e, _ = steady_state_amplitudes(cfg, eta, delta_probe, delta_cavity)
    return -cfg.gamma * cfg.od / cfg.kl * np.conj(c_e)


def branching_ratio(cfg, eta, delta_probe, delta_cavity):
    """Fraction of scattered light leaving through the resonator.

    beta = kappa |c_g|^2 / (kappa |c_g|^2 + gamma |c_e|^2)
    """
    c_e, c_g = steady_state_amplitudes(cfg, eta, delta_probe, delta_cavity)
    pc = cfg.kappa * np.abs(c_g) ** 2
    return pc / (pc + cfg.gamma * np.abs(c_e) ** 2)
