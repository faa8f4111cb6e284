import numpy as np
import pytest

from vitlab.core import susceptibility, transmission
from vitlab.oracle import (
    branching_ratio,
    steady_state_amplitudes,
    susceptibility_from_oracle,
)
from vitlab.spatial import IDEAL, corrected_spectrum


def _emission(cfg, eta, dp, dcav, scale=1.0):
    return corrected_spectrum(cfg, eta, dp, dcav, IDEAL, scale)[1]


@pytest.mark.parametrize("fn", (steady_state_amplitudes, susceptibility_from_oracle,
                                branching_ratio))
def test_oracle_rejects_negative_cooperativity(cfg, fn):
    with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
        fn(cfg, -0.5, 0.0, 0.0)


def test_oracle_matches_closed_form_on_grid(cfg):
    delta = np.linspace(-15e6, 15e6, 100) * 2 * np.pi
    dp, dc = np.meshgrid(delta, delta, indexing="ij")
    for eta in (0.1, 1.0, 3.4, 7.2):
        chi_o = susceptibility_from_oracle(cfg, eta, dp, dc)
        chi_c = susceptibility(cfg, eta, dp, dc)
        rel = np.abs(chi_o - chi_c) / np.abs(chi_c)
        assert np.max(rel) < 1e-10


def test_uncoupled_oracle_is_two_level(cfg):
    delta = np.linspace(-8, 8, 101) * cfg.gamma
    chi = susceptibility_from_oracle(cfg, 0.0, delta, 0.0)
    dt = 2.0 * delta / cfg.gamma
    ref = -(cfg.od / cfg.kl) * (dt - 1j) / (1.0 + dt**2)
    assert np.max(np.abs(chi - ref) / np.abs(ref)) < 1e-12


def test_branching_ratio_double_resonance(cfg):
    for eta in (0.1, 1.0, 7.2):
        assert abs(branching_ratio(cfg, eta, 0.0, 0.0) - eta / (eta + 1.0)) < 1e-12


def test_branching_ratio_decays_off_two_photon_resonance(cfg):
    # far from Raman resonance the resonator channel shuts off
    near = branching_ratio(cfg, 3.4, 0.0, 0.0)
    far = branching_ratio(cfg, 3.4, 0.0, 30.0 * cfg.kappa)
    assert far < 0.1 * near


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
    vec_e, vec_g = steady_state_amplitudes(cfg, 2.2, delta, 0.3e6 * 2 * np.pi)
    for i, dp in enumerate(delta):
        one_e, one_g = steady_state_amplitudes(cfg, 2.2, float(dp), 0.3e6 * 2 * np.pi)
        assert np.isclose(vec_e[i], one_e, rtol=1e-14)
        assert np.isclose(vec_g[i], one_g, rtol=1e-14)
