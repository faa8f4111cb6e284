import numpy as np
import pytest
from dataclasses import replace

from vitlab.config import MHZ, corrections, model_cooperativity
from vitlab.core import transfer_amplitude, transmission
from vitlab.oracle import branching_ratio, susceptibility_from_oracle
from vitlab.pulses import make_gaussian_pulse
from vitlab.recipes import fig2_detunings, pulse_ensemble, transparency_curve
from vitlab.spatial import (
    IDEAL,
    Corrections,
    SIGMA_PER_FWHM,
    corrected_spectrum,
    effective_cooperativity,
    ensemble_transfer,
    jitter_quadrature,
    standing_wave_distribution,
)


def test_standing_wave_distribution_moments():
    e, w = standing_wave_distribution(4.0, nodes=64)
    assert np.isclose(w.sum(), 1.0, atol=1e-14)
    assert np.all(e >= 0) and np.all(e <= 4.0)
    # mean of cos^2 over a quarter period is 1/2
    assert np.isclose((w * e).sum(), 2.0, rtol=1e-10)
    # mean of cos^4 is 3/8
    assert np.isclose((w * e**2).sum(), 16.0 * 3.0 / 8.0, rtol=1e-10)


def test_standing_wave_distribution_returns_fresh_arrays():
    # the unit nodes are cached; writing to one result must not reach the next
    e, w = standing_wave_distribution(4.0, nodes=8)
    ref = np.polynomial.legendre.leggauss(8)[1]
    e[:] = -1.0
    w[:] = -1.0
    e2, w2 = standing_wave_distribution(4.0, nodes=8)
    assert np.all(e2 >= 0)
    assert np.array_equal(w2, ref / ref.sum())


def test_distribution_validation():
    with pytest.raises(ValueError):
        standing_wave_distribution(-1.0)
    with pytest.raises(ValueError):
        standing_wave_distribution(4.0, nodes=0)


def test_averaging_lowers_transparency(cfg):
    # nodes of the standing wave absorb like bare atoms, so the averaged
    # dip at two-photon resonance is deeper than the antinode-only one
    ideal = corrected_spectrum(cfg, 5.0, 0.0, 0.0, IDEAL)[0]
    avg = corrected_spectrum(cfg, 5.0, 0.0, 0.0, Corrections(averaging_nodes=64))[0]
    assert avg < ideal
    assert avg > transmission(cfg, 0.0, 0.0, 0.0)


def test_negative_cooperativity_is_refused(cfg):
    # averaging off: no standing-wave quadrature checks eta_max on the way to chi
    with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
        corrected_spectrum(cfg, -1.0, np.linspace(-4, 4, 9) * MHZ, 0.0, IDEAL)
    with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
        pulse_ensemble(cfg, -1.0, make_gaussian_pulse(1e-6, n_samples=2**10), IDEAL)


# the packaged defaults' side channel: a quarter of the main od, 0.6 MHz away
SIDE = Corrections(side_weight=0.25, side_shift=0.6 * MHZ)


def test_side_weight_conserves_optical_depth(cfg):
    # far off resonance both channels absorb in their 1/delta^2 tails;
    # splitting od must not change the total wing absorbance
    far = 2000.0 * cfg.gamma
    t_plain = corrected_spectrum(cfg, 5.0, far, 0.0, IDEAL)[0]
    t_side = corrected_spectrum(cfg, 5.0, far, 0.0, SIDE)[0]
    assert np.isclose(np.log(t_plain), np.log(t_side), rtol=1e-6)


def test_side_weight_shifts_absorption(cfg):
    def chi(corr):
        # the one member's one block, on double resonance
        (_, _, _, block), = ensemble_transfer(cfg, 5.0, 0.0, 0.0, corr)
        assert block.shape == (1, 1)
        return block[0, 0]

    chi_plain, chi_split = chi(IDEAL), chi(SIDE)
    # the shifted channel leaks absorption into the window
    assert chi_split.imag > chi_plain.imag
    # zero weight is off, whatever the shift
    off = chi(replace(SIDE, side_weight=0.0))
    assert off == chi_plain


@pytest.mark.parametrize("fields, error", (
    ({"side_weight": 1.5}, ValueError),
    ({"side_weight": -0.1}, ValueError),
    ({"side_weight": float("nan")}, ValueError),
    ({"averaging_nodes": -1}, ValueError),
    ({"jitter_nodes": 0}, ValueError),
    ({"averaging_nodes": 64.0}, TypeError),
    ({"side_shift": float("inf")}, ValueError),
    ({"jitter_fwhm": -1.0}, ValueError),
    ({"jitter_fwhm": float("nan")}, ValueError),
))
def test_corrections_validation(fields, error):
    with pytest.raises(error):
        Corrections(**fields)


def test_jitter_quadrature_is_normal():
    off, w = jitter_quadrature(sigma=1.0, nodes=16)
    assert np.isclose(np.sum(w), 1.0, atol=1e-12)
    assert np.isclose(np.sum(w * off), 0.0, atol=1e-12)
    assert np.isclose(np.sum(w * off**2), 1.0, rtol=1e-12)
    assert np.isclose(np.sum(w * off**4), 3.0, rtol=1e-10)


def test_jitter_zero_width_identity(cfg):
    grid = np.linspace(-2, 2, 21) * MHZ
    t0 = corrected_spectrum(cfg, 5.0, grid, 0.0, IDEAL)[0]
    t1 = corrected_spectrum(cfg, 5.0, grid, 0.0, Corrections(jitter_fwhm=0.0))[0]
    assert np.allclose(t0, t1, rtol=1e-14)


def test_jitter_softens_the_window(cfg):
    sharp = corrected_spectrum(cfg, 5.0, 0.0, 0.0, IDEAL)[0]
    fuzzy = corrected_spectrum(cfg, 5.0, 0.0, 0.0, Corrections(jitter_fwhm=0.2 * MHZ))[0]
    assert fuzzy < sharp


def test_effective_cooperativity_ladder():
    assert effective_cooperativity(3.4, 0) == pytest.approx(3.4)
    assert effective_cooperativity(3.4, 10) == pytest.approx(37.4)
    with pytest.raises(ValueError):
        effective_cooperativity(3.4, -1)


def test_corrections_factory_roundtrip():
    c = replace(SIDE, averaging_nodes=32, jitter_fwhm=0.2 * MHZ)
    etas, offs, w = c.members(5.0)
    assert len(etas) == len(offs) == len(w) == 32 * c.jitter_nodes
    # classes major, jitter offsets minor, weights the outer product
    cetas, cwts = standing_wave_distribution(5.0, 32)
    joffs, jwts = jitter_quadrature(0.2 * MHZ * SIGMA_PER_FWHM, c.jitter_nodes)
    assert np.array_equal(etas.reshape(32, -1)[:, 0], cetas)
    assert np.all(etas.reshape(32, -1) == etas.reshape(32, -1)[:, :1])
    assert np.array_equal(offs.reshape(32, -1), np.tile(joffs, (32, 1)))
    assert np.array_equal(w.reshape(32, -1), np.outer(cwts, jwts))
    assert np.isclose(w.sum(), 1.0, atol=1e-12)
    assert np.isclose(np.sqrt(np.sum(w * offs**2)), 0.2 * MHZ * SIGMA_PER_FWHM,
                      rtol=1e-10)
    # IDEAL collapses to a single member at eta_max with no offset
    assert [a.tolist() for a in IDEAL.members(5.0)] == [[5.0], [0.0], [1.0]]
    # one correction alone keeps the other axis at a single node
    assert len(Corrections(averaging_nodes=8).members(5.0)[0]) == 8
    etas, offs, _ = Corrections(jitter_fwhm=0.2 * MHZ, jitter_nodes=4).members(5.0)
    assert etas.tolist() == [5.0] * 4 and len(set(offs)) == 4


def test_corrected_spectrum_channels(cfg):
    trans, emis = corrected_spectrum(cfg, 5.0, np.linspace(-4, 4, 81) * MHZ, 0.0,
                                     Corrections(averaging_nodes=16))
    assert trans.shape == emis.shape == (81,)
    assert np.all((trans > 0) & (trans <= 1))
    assert np.all((emis >= 0) & (emis <= 1))
    # transparency is a local peak at two-photon resonance (the far wings
    # transmit more, so only compare against the line shoulders)
    assert trans[40] > trans[32] and trans[40] > trans[48]
    assert abs(int(np.argmax(emis)) - 40) <= 1


def test_measured_regime_transparency_endpoints(conf, cfg):
    # full correction stack at the fitted antinode cooperativity
    curve = transparency_curve(conf, cfg, (0, 10))
    for (_, _, _, theta), want in zip(curve, (0.4356, 0.8123), strict=True):
        assert abs(theta - want) < 5e-4


ETAS = (0.0, 3.4, 37.4)


def _oracle_spectrum(cfg, eta_max, dp, dcav, corr, scale):
    """Per-member reference: the amplitude solver's chi on each channel and its
    branching ratio, summed one member at a time."""
    trans = emis = 0.0
    for eta, off, w in zip(*corr.members(eta_max)):
        dcav_m = np.asarray(dcav) + off
        if corr.side_weight == 0:
            chi = susceptibility_from_oracle(cfg, eta, dp, dcav_m)
        else:
            od_main = cfg.od / (1.0 + corr.side_weight)
            chi = (susceptibility_from_oracle(replace(cfg, od=od_main), eta, dp, dcav_m)
                   + susceptibility_from_oracle(replace(cfg, od=cfg.od - od_main),
                                                eta, dp, dcav_m + corr.side_shift))
        t2 = np.exp(-cfg.kl * np.imag(chi))
        beta = branching_ratio(cfg, eta, dp, dcav_m)
        trans = trans + w * t2
        emis = emis + w * (1.0 - t2) * beta
    return trans, scale * emis


@pytest.mark.parametrize("average", (False, True))
@pytest.mark.parametrize("side", (False, True))
@pytest.mark.parametrize("jitter", (False, True))
def test_corrected_spectrum_matches_oracle_loop(cfg, conf, average, side, jitter):
    corr = replace(corrections(conf, average=average, side=side, jitter=jitter),
                   averaging_nodes=6, jitter_nodes=4)
    # 1001 points split the members into blocks of four (BLOCK_POINTS 4096)
    dets = ((np.linspace(-4, 4, 1001) * MHZ, 0.5 * MHZ),
            (0.3 * MHZ, -2.2 * MHZ),
            (np.linspace(-4, 4, 5) * MHZ, 1000.0 * cfg.gamma))
    for eta in ETAS:
        for dp, dcav in dets:
            trans, emis = corrected_spectrum(cfg, eta, dp, dcav, corr, 0.7)
            ref_t, ref_e = _oracle_spectrum(cfg, eta, dp, dcav, corr, 0.7)
            assert np.shape(trans) == np.shape(emis) == np.shape(ref_t)
            assert np.max(np.abs(trans - ref_t)) < 1e-12
            assert np.max(np.abs(emis - ref_e)) < 1e-12


def test_pulse_blocks_match_corrected_spectrum(cfg, conf):
    # the (weights, t) blocks the pulse ensemble consumes, four members of
    # 1024 frequencies each, average to the spectrum path's transmission
    # taken one frequency at a time (all 32 members in one block)
    corr = replace(corrections(conf, average=True, side=True, jitter=True),
                   averaging_nodes=8, jitter_nodes=4)
    carrier = 0.4 * MHZ
    omega = 2 * np.pi * np.fft.fftfreq(1024, 4e-9)
    for eta in ETAS:
        blocks = [(w, transfer_amplitude(chi, cfg))
                  for w, _, _, chi in ensemble_transfer(cfg, eta, carrier + omega, 0.0, corr)]
        assert [len(w) for w, _ in blocks] == [4] * 8
        assert all(t.shape == (4, 1024) for _, t in blocks)
        summed = sum(w @ np.abs(t) ** 2 for w, t in blocks)
        want = [corrected_spectrum(cfg, eta, carrier + w, 0.0, corr)[0]
                for w in omega[::16]]
        assert np.max(np.abs(summed[::16] - want)) < 1e-14


def test_quadrature_convergence_fig2_panels(cfg, conf):
    # the node counts that `vitlab reproduce fig2` uses are converged
    eta = model_cooperativity(conf)
    grid, dcavs = fig2_detunings(cfg)

    def panels(**nodes):
        corr = replace(corrections(conf, average=True, side=True, jitter=True), **nodes)
        return np.array([corrected_spectrum(cfg, eta, grid, d, corr)
                         for d in dcavs.values()])

    base = panels()
    assert np.max(np.abs(panels(jitter_nodes=32) - base)) < 1e-5
    assert np.max(np.abs(panels(averaging_nodes=128) - base)) < 1e-12
