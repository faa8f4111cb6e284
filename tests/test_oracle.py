import numpy as np
import pytest
from dataclasses import replace

from vitlab.core import (
    coupling_from_cooperativity,
    susceptibility,
    transmission,
)
from vitlab.oracle import (
    DriveSpec,
    branching_ratio,
    steady_state_amplitudes,
    susceptibility_from_oracle,
)
from vitlab.spatial import IDEAL, corrected_spectrum


def _emission(cfg, eta, dp, dcav, scale=1.0):
    return corrected_spectrum(cfg, eta, dp, dcav, IDEAL, scale)[1]


def _drive(cfg, eta, omega_p=0.2):
    g = coupling_from_cooperativity(eta, cfg.kappa, cfg.gamma)
    return DriveSpec(omega_p=omega_p * cfg.gamma, g=g)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveSpec(omega_p=1.0, g=-1.0)


def test_oracle_matches_closed_form_on_grid(cfg):
    delta = np.linspace(-15e6, 15e6, 100) * 2 * np.pi
    dp, dc = np.meshgrid(delta, delta, indexing="ij")
    for eta in (0.1, 1.0, 3.4, 7.2):
        chi_o = susceptibility_from_oracle(cfg, _drive(cfg, eta), dp, dc)
        chi_c = susceptibility(cfg, eta, dp, dc)
        rel = np.abs(chi_o - chi_c) / np.abs(chi_c)
        assert np.max(rel) < 1e-10


def test_oracle_linear_in_drive(cfg):
    # weak-probe linearity: c_e / omega_p independent of omega_p
    det = (0.4 * cfg.gamma, -0.2 * cfg.gamma)
    a = steady_state_amplitudes(cfg, _drive(cfg, 2.0, omega_p=0.01), *det)
    b = steady_state_amplitudes(cfg, _drive(cfg, 2.0, omega_p=1.7), *det)
    assert np.isclose(a.c_e / 0.01, b.c_e / 1.7, rtol=1e-12)
    assert np.isclose(a.c_g / 0.01, b.c_g / 1.7, rtol=1e-12)


def test_oracle_normalization_guard(cfg):
    with pytest.raises(ValueError):
        susceptibility_from_oracle(cfg, DriveSpec(omega_p=0.0, g=1.0), 0.0, 0.0)


def test_uncoupled_oracle_is_two_level(cfg):
    delta = np.linspace(-8, 8, 101) * cfg.gamma
    chi = susceptibility_from_oracle(cfg, DriveSpec(omega_p=0.3, g=0.0), delta, 0.0)
    dt = 2.0 * delta / cfg.gamma
    ref = -(cfg.od / cfg.kl) * (dt - 1j) / (1.0 + dt**2)
    assert np.max(np.abs(chi - ref) / np.abs(ref)) < 1e-12


def test_branching_ratio_double_resonance(cfg):
    for eta in (0.1, 1.0, 7.2):
        state = steady_state_amplitudes(cfg, _drive(cfg, eta), 0.0, 0.0)
        assert abs(branching_ratio(state, cfg) - eta / (eta + 1.0)) < 1e-12


def test_branching_ratio_decays_off_two_photon_resonance(cfg):
    # far from Raman resonance the resonator channel shuts off
    near = steady_state_amplitudes(cfg, _drive(cfg, 3.4), 0.0, 0.0)
    far = steady_state_amplitudes(cfg, _drive(cfg, 3.4), 0.0, 30.0 * cfg.kappa)
    assert branching_ratio(far, cfg) < 0.1 * branching_ratio(near, cfg)


def test_emission_probability_shape(cfg):
    delta = np.linspace(-4e6, 4e6, 81) * 2 * np.pi
    p = _emission(cfg, 3.4, delta, 0.0)
    assert p.shape == delta.shape
    assert np.all(p >= 0) and np.all(p <= 1)
    # peaks at two-photon resonance
    assert np.argmax(p) == 40
    # consistency: scale multiplies through
    assert np.allclose(_emission(cfg, 3.4, delta, 0.0, scale=0.5),
                       0.5 * p, rtol=1e-12)


def test_emission_probability_vanishes_without_coupling(cfg):
    delta = np.linspace(-4e6, 4e6, 11) * 2 * np.pi
    p = _emission(cfg, 0.0, delta, 0.0)
    assert np.all(p == 0)
    with pytest.raises(ValueError):
        _emission(cfg, 3.4, 0.0, 0.0, scale=0.0)


def test_emission_probability_on_resonance_value(cfg):
    # (1 - |t|^2) * eta/(eta+1) on double resonance
    eta = 3.4
    p = _emission(cfg, eta, 0.0, 0.0)
    t2 = transmission(cfg, eta, 0.0, 0.0)
    assert np.isclose(p, (1.0 - t2) * eta / (eta + 1.0), rtol=1e-12)


def test_oracle_vectorization_matches_scalar(cfg):
    delta = np.array([0.0, 0.5e6, -1.7e6]) * 2 * np.pi
    d = _drive(cfg, 2.2)
    vec = steady_state_amplitudes(cfg, d, delta, 0.3e6 * 2 * np.pi)
    for i, dp in enumerate(delta):
        one = steady_state_amplitudes(cfg, d, float(dp), 0.3e6 * 2 * np.pi)
        assert np.isclose(vec.c_e[i], one.c_e, rtol=1e-14)
        assert np.isclose(vec.c_g[i], one.c_g, rtol=1e-14)
