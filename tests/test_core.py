import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from conftest import STIFF_GAMMA
from vitlab.core import (
    CavityGeometry,
    PhysicalConfig,
    cooperativity_geometric,
    group_delay,
    group_delay_analytic,
    group_velocity,
    resonant_transmission,
    susceptibility,
    transfer_amplitude,
    transmission,
)
from vitlab.fitting import extract_transparency


def test_config_validation():
    with pytest.raises(ValueError):
        PhysicalConfig(gamma=-1.0, kappa=1.0, wavelength=852e-9, od=0.4, length=20e-6)
    with pytest.raises(ValueError):
        PhysicalConfig(gamma=1.0, kappa=1.0, wavelength=852e-9, od=-0.1, length=20e-6)
    with pytest.raises(ValueError):
        CavityGeometry(finesse=0.0, waist=35e-6, wavelength=852e-9)


def test_wavenumber(cfg):
    assert np.isclose(cfg.wavenumber, 2.0 * np.pi / cfg.wavelength, rtol=1e-12)
    assert np.isclose(cfg.kl, cfg.wavenumber * cfg.length, rtol=1e-12)


def test_geometric_cooperativity_value(geom):
    # 24 F / (pi k^2 w^2) at the default cavity
    k = 2.0 * np.pi / geom.wavelength
    expected = 24.0 * geom.finesse / (np.pi * k**2 * geom.waist**2)
    assert np.isclose(cooperativity_geometric(geom), expected, rtol=1e-12)
    assert abs(cooperativity_geometric(geom) - 7.2241) < 1e-3
    # k w underflows pi k^2 w^2 to 0: the cooperativity is infinite, not an exception
    assert cooperativity_geometric(replace(geom, waist=1e-210)) == np.inf


def test_susceptibility_rejects_negative_eta(cfg):
    # one refusal, in core._mobius, serves both
    for model in (susceptibility, group_delay):
        for eta in (-0.5, np.array([1.0, -0.5])):
            with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
                model(cfg, eta, 0.0, 0.0)


def _textbook_susceptibility(cfg, eta, dp, dcav):
    """The closed form as written, -(OD/kL) num/den with a complex numerator."""
    eta = np.asarray(eta, dtype=float)
    dp = np.asarray(dp, dtype=float)
    dt, dc = 2.0 * dp / cfg.gamma, 2.0 * (dp - np.asarray(dcav, dtype=float)) / cfg.kappa
    num = dt - (eta - dt * dc) * dc - 1j * (eta + 1.0 + dc * dc)
    den = (eta + 1.0 - dt * dc) ** 2 + (dt + dc) ** 2
    return -(cfg.od / cfg.kl) * num / den


MHZ_VALUES = st.floats(-200.0, 200.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data(), layout=st.sampled_from(("scalar", "row", "column", "grid")),
       n=st.integers(1, 6), m=st.integers(1, 4))
def test_susceptibility_matches_textbook_form(cfg, data, layout, n, m):
    # the Moebius form against the textbook quotient, for a scalar point, a
    # row of probe detunings, and members as a (member, 1) column or a full grid
    mhz = 2e6 * np.pi
    etas = st.floats(0.0, 1e4)
    if layout == "scalar":
        eta = data.draw(etas)
        det = (data.draw(MHZ_VALUES) * mhz, data.draw(MHZ_VALUES) * mhz)
    else:
        grid = np.array(data.draw(st.lists(MHZ_VALUES, min_size=n, max_size=n))) * mhz
        if layout == "row":
            eta, dcav = data.draw(etas), data.draw(MHZ_VALUES) * mhz
        else:
            eta = np.array(data.draw(st.lists(etas, min_size=m, max_size=m)))[:, None]
            cols = n if layout == "grid" else 1
            dcav = np.array(data.draw(st.lists(MHZ_VALUES, min_size=m * cols,
                                               max_size=m * cols))).reshape(m, cols) * mhz
        det = (grid, dcav)
    got, want = susceptibility(cfg, eta, *det), _textbook_susceptibility(cfg, eta, *det)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(eta=st.lists(st.floats(0.0, 1e308), min_size=1, max_size=3),
       probe=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=3),
       cavity=st.floats(-1e300, 1e300))
def test_susceptibility_is_finite_and_passive(cfg, eta, probe, cavity):
    # every finite cooperativity and detuning (MHz): no product of two
    # detunings is formed and eta multiplies only |q| <= 1, so nothing
    # overflows (a warning fails the test) and the medium never amplifies
    mhz = 2e6 * np.pi
    chi = susceptibility(cfg, np.array(eta)[:, None], np.array(probe) * mhz, cavity * mhz)
    assert chi.shape == (len(eta), len(probe))
    assert np.all(np.isfinite(chi)) and np.all(chi.imag >= 0.0)


def test_susceptibility_broadcasts_member_column(cfg):
    # a (member, 1) eta column against a (point,) row: row m equals the scalar call
    etas = np.array([0.0, 3.4, 37.4])
    grid = np.linspace(-2, 2, 7) * cfg.gamma
    offsets = np.array([[0.0], [0.1], [-0.2]]) * cfg.kappa
    rows = susceptibility(cfg, etas[:, None], grid, offsets)
    assert rows.shape == (3, 7)
    for m, eta in enumerate(etas):
        one = susceptibility(cfg, eta, grid, offsets[m, 0])
        assert np.array_equal(rows[m], one)
    assert susceptibility(cfg, etas[:, None], grid, 0.0).shape == (3, 7)
    # numpy's rules, as in group_delay: a 1-d eta pairs with a point axis of its length
    pointwise = susceptibility(cfg, etas, grid[:3], 0.0)
    assert pointwise.shape == (3,)
    assert np.array_equal(pointwise, np.diag(susceptibility(cfg, etas[:, None], grid[:3], 0.0)))


def test_resonant_transmission_identity(cfg):
    rng = np.random.default_rng(11)
    for _ in range(200):
        od = rng.uniform(0.0, 3.0)
        eta = rng.uniform(0.0, 20.0)
        c = replace(cfg, od=od)
        got = transmission(c, eta, 0.0, 0.0)
        assert np.isclose(got, np.exp(-od / (eta + 1.0)), rtol=1e-13, atol=0)
        assert np.isclose(resonant_transmission(od, eta), got, rtol=1e-13, atol=0)


def test_two_level_limit(cfg):
    delta = np.linspace(-10, 10, 401) * cfg.gamma
    chi = susceptibility(cfg, 0.0, delta, 0.0)
    dt = 2.0 * delta / cfg.gamma
    ref = -(cfg.od / cfg.kl) * (dt - 1j) / (1.0 + dt**2)
    assert np.max(np.abs(chi - ref) / np.abs(ref)) < 1e-13


def test_transfer_amplitude_is_exponential(cfg):
    chi = susceptibility(cfg, 2.0, 0.3 * cfg.gamma, -0.1 * cfg.gamma)
    t = transfer_amplitude(chi, cfg)
    assert np.isclose(t, np.exp(0.5j * cfg.kl * chi), rtol=1e-14)


def test_detuning_normalization(cfg):
    # the closed form sees Dt = 2 Delta/gamma and dc = 2 (Delta - delta)/kappa
    eta, dt, dc = 2.0, 1.4, 2.0 * (0.7 - 0.2) * cfg.gamma / cfg.kappa
    want = -(cfg.od / cfg.kl) * (dt - (eta - dt * dc) * dc - 1j * (eta + 1.0 + dc * dc)) / (
        (eta + 1.0 - dt * dc) ** 2 + (dt + dc) ** 2)
    chi = susceptibility(cfg, eta, 0.7 * cfg.gamma, 0.2 * cfg.gamma)
    assert np.isclose(chi, want, rtol=1e-12, atol=0)


def test_group_delay_matches_exact_slope(cfg):
    # linear-response slope carries a small anomalous-dispersion term from
    # the bare line: (OD/kappa) (eta - kappa/gamma) / (eta+1)^2
    for eta in (0.5, 1.0, 3.4, 5.0):
        for od in (0.1, 0.5):
            c = replace(cfg, od=od)
            num = group_delay(c, eta, 0.0, 0.0)
            exact = (od / c.kappa) * (eta - c.kappa / c.gamma) / (eta + 1.0) ** 2
            assert abs(num - exact) / exact < 1e-13


def test_group_delay_is_the_phase_slope(cfg):
    # off resonance too: the closed form against a central difference of arg t
    def phase(dp, dcav):
        return np.angle(transfer_amplitude(susceptibility(cfg, 3.4, dp, dcav), cfg))

    h = 1e-4 * cfg.kappa
    for dp, dcav in ((0.0, 0.0), (0.3 * cfg.kappa, 0.0), (0.2 * cfg.gamma, -0.1 * cfg.gamma)):
        slope = (phase(dp + h, dcav) - phase(dp - h, dcav)) / (2.0 * h)
        assert np.isclose(group_delay(cfg, 3.4, dp, dcav), slope, rtol=1e-6)


def test_group_delay_stiff_atom_matches_analytic(cfg):
    stiff = replace(cfg, gamma=STIFF_GAMMA)
    for eta in (0.5, 1.0, 3.4, 5.0):
        num = group_delay(stiff, eta, 0.0, 0.0)
        ana = group_delay_analytic(stiff.od, stiff.kappa, eta)
        assert abs(num - ana) / ana < 5e-3


def test_delay_maximum_location(cfg):
    # d tau / d eta = 0 at eta = 1 + 2 kappa/gamma for the exact slope
    etas = np.arange(0.90, 1.10, 0.002)
    delays = group_delay(cfg, etas, 0.0, 0.0)
    peak = etas[int(np.argmax(delays))]
    assert abs(peak - (1.0 + 2.0 * cfg.kappa / cfg.gamma)) < 0.005


def test_group_delay_analytic_huge_cooperativity(cfg):
    # eta/(eta+1)^2 underflows to 0 instead of overflowing the square
    assert group_delay_analytic(cfg.od, cfg.kappa, 1e300) == 0.0
    for eta in (1.0, 3.39, 5.0, 37.4):
        assert group_delay_analytic(cfg.od, cfg.kappa, eta) == (
            (cfg.od / cfg.kappa) * eta / (eta + 1.0) ** 2)


def test_group_velocity():
    assert group_velocity(25e-9, 40e-6) == pytest.approx(1600.0, rel=1e-12)
    with pytest.raises(ValueError):
        group_velocity(0.0, 40e-6)


def test_transparency_definition():
    # theta = (T' - T)/(1 - T) against the bare-ensemble T = e^{-od}
    t = np.exp(-0.4)
    assert extract_transparency(t, 0.4)[0] == pytest.approx(0.0, abs=1e-15)
    assert extract_transparency(1.0, 0.4)[0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        extract_transparency(0.5, 0.0)
