import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_nodes
from vitlab import core, spatial
from vitlab.config import MHZ, corrections, model_cooperativity
from vitlab.core import PhysicalConfig, transfer_amplitude, transmission
from vitlab.oracle import branching_ratio, susceptibility_from_oracle
from vitlab.pulses import make_gaussian_pulse
from vitlab.recipes import fig2_detunings, pulse_ensemble, transparency_curve
from vitlab.spatial import (
    BLOCK_POINTS,
    IDEAL,
    JITTER_NODES,
    Corrections,
    SIGMA_PER_FWHM,
    corrected_spectrum,
    effective_cooperativity,
    ensemble_transfer,
)


def test_members_standing_wave_moments():
    # eta_max 4 takes 8 ceil(1 + 2) = 24 of the cap's 64 nodes
    e, _, w = Corrections(average=True).members(4.0)
    assert w.shape == (24, 1)
    w = w[:, 0]
    assert np.isclose(w.sum(), 1.0, atol=1e-14)
    assert np.all(e >= 0) and np.all(e <= 4.0)
    # mean of cos^2 over a quarter period is 1/2
    assert np.isclose((w * e).sum(), 2.0, rtol=1e-10)
    # mean of cos^4 is 3/8
    assert np.isclose((w * e**2).sum(), 16.0 * 3.0 / 8.0, rtol=1e-10)


def test_members_returns_fresh_arrays():
    # the unit rules are cached; writing to one result must not reach the next
    corr = Corrections(average=True, jitter_fwhm=1.0)
    wz = np.polynomial.legendre.leggauss(24)[1]
    wj = np.polynomial.hermite.hermgauss(16)[1]
    for a in corr.members(4.0):
        a[:] = -1.0
    e2, o2, w2 = corr.members(4.0)
    assert np.all(e2 >= 0) and len(set(o2)) == 16
    assert np.array_equal(w2, np.outer(wz / wz.sum(), wj / wj.sum()))


@pytest.mark.parametrize("cap, eta_max, classes", (
    (64, 0.0, 8), (64, 1.0, 16), (64, 3.3953, 24), (64, 50.0, 64), (64, 1e3, 64),
    (8, 5.0, 8),  # a cap below the rule wins
))
def test_members_sized_to_the_cooperativity(cap, eta_max, classes):
    with mock.patch.object(spatial, "MAX_CLASSES", cap):
        etas, _, w = Corrections(average=True, jitter_fwhm=1.0).members(eta_max)
    assert etas.shape == (classes,) and w.shape == (classes, spatial.JITTER_NODES)


def test_every_rung_stays_cached():
    # a fit whose eta crosses a rung never rebuilds a rule
    corr = Corrections(average=True, jitter_fwhm=1.0)
    spatial._unit_rule.cache_clear()
    for _ in range(2):
        for eta_max in (m * m for m in range(9)):
            corr.members(eta_max)
    assert spatial._unit_rule.cache_info().misses == 9


def test_averaging_lowers_transparency(cfg):
    # nodes of the standing wave absorb like bare atoms, so the averaged
    # dip at two-photon resonance is deeper than the antinode-only one
    ideal = corrected_spectrum(cfg, 5.0, 0.0, 0.0, IDEAL)[0]
    avg = corrected_spectrum(cfg, 5.0, 0.0, 0.0, Corrections(average=True))[0]
    assert avg < ideal
    assert avg > transmission(cfg, 0.0, 0.0, 0.0)


def test_negative_cooperativity_is_refused(cfg):
    # core.susceptibility alone refuses it, with averaging on or off, and
    # sizing the rule to it warns of nothing first
    pulse = make_gaussian_pulse(1e-6, n_samples=2**10)
    for corr in (IDEAL, Corrections(average=True, jitter_fwhm=0.2 * MHZ),
                 Corrections(average=True)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
                corrected_spectrum(cfg, -1.0, np.linspace(-4, 4, 9) * MHZ, 0.0, corr)
            with pytest.raises(ValueError, match="cooperativity must be nonnegative"):
                pulse_ensemble(cfg, -1.0, pulse, corr)


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
    ({"side_shift": float("nan")}, ValueError),
    ({"side_shift": -float("inf")}, ValueError),
    ({"averaging_nodes": 64}, TypeError),  # the node counts are spatial's constants
    ({"side_shift": float("inf")}, ValueError),
    ({"jitter_fwhm": -1.0}, ValueError),
    ({"jitter_fwhm": float("nan")}, ValueError),
    ({"jitter_fwhm": float("inf")}, ValueError),
    ({"side_weight": float("inf")}, ValueError),
    ({"side_weight": 10**400}, ValueError),
    ({"side_shift": 10**400}, OverflowError),
))
def test_corrections_validation(fields, error):
    with pytest.raises(error):
        Corrections(**fields)


def test_corrections_store_floats():
    corr = Corrections(side_weight=1, side_shift=2, jitter_fwhm=3)
    assert [type(v) for v in (corr.side_weight, corr.side_shift, corr.jitter_fwhm)] == [float] * 3


def test_members_jitter_is_normal():
    _, off, (w,) = Corrections(jitter_fwhm=1.0 / SIGMA_PER_FWHM).members(4.0)
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
    c = replace(SIDE, average=True, jitter_fwhm=0.2 * MHZ)
    etas, offs, w = c.members(5.0)  # 8 ceil(1 + sqrt(5)) = 32 classes
    assert etas.shape == (32,) and offs.shape == (c.jitter_nodes,)
    # classes by jitter offsets, weights the outer product
    z, cwts = np.polynomial.legendre.leggauss(32)
    cetas, cwts = 5.0 * np.cos((z + 1.0) * (np.pi / 4.0)) ** 2, cwts / cwts.sum()
    x, jwts = np.polynomial.hermite.hermgauss(c.jitter_nodes)
    joffs, jwts = np.sqrt(2.0) * (0.2 * MHZ * SIGMA_PER_FWHM) * x, jwts / jwts.sum()
    assert np.array_equal(etas, cetas)
    assert np.array_equal(offs, joffs)
    assert np.array_equal(w, np.outer(cwts, jwts))
    assert np.isclose(w.sum(), 1.0, atol=1e-12)
    assert np.isclose(np.sqrt(np.sum(w * offs**2)), 0.2 * MHZ * SIGMA_PER_FWHM,
                      rtol=1e-10)
    # IDEAL collapses to a single member at eta_max with no offset
    assert [a.tolist() for a in IDEAL.members(5.0)] == [[5.0], [0.0], [[1.0]]]
    # one correction alone keeps the other axis at a single node
    assert Corrections(average=True).members(5.0)[2].shape == (32, 1)
    etas, offs, w = Corrections(jitter_fwhm=0.2 * MHZ).members(5.0)
    assert etas.tolist() == [5.0] and len(set(offs)) == 16 and w.shape == (1, 16)


def test_corrected_spectrum_channels(cfg):
    trans, emis = corrected_spectrum(cfg, 5.0, np.linspace(-4, 4, 81) * MHZ, 0.0,
                                     Corrections(average=True))
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


def _oracle_spectrum(cfg, eta_max, dp, dcav, corr):
    """Per-member reference: the amplitude solver's chi on each channel and its
    branching ratio, summed one member at a time."""
    trans = emis = 0.0
    etas, offs, weights = corr.members(eta_max)
    for (c, j), w in np.ndenumerate(weights):
        eta, dcav_m = etas[c], np.asarray(dcav) + offs[j]
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
    return trans, emis


@pytest.mark.parametrize("average", (False, True))
@pytest.mark.parametrize("side", (False, True))
@pytest.mark.parametrize("jitter", (False, True))
def test_corrected_spectrum_matches_oracle_loop(cfg, conf, average, side, jitter):
    corr = corrections(conf, average=average, side=side, jitter=jitter)
    # 1001 points split the members into blocks of four (BLOCK_POINTS 4096)
    dets = ((np.linspace(-4, 4, 1001) * MHZ, 0.5 * MHZ),
            (0.3 * MHZ, -2.2 * MHZ),
            (np.linspace(-4, 4, 5) * MHZ, 1000.0 * cfg.gamma))
    for eta in ETAS:
        for dp, dcav in dets:
            with at_nodes(6, 4):
                trans, emis = corrected_spectrum(cfg, eta, dp, dcav, corr)
                ref_t, ref_e = _oracle_spectrum(cfg, eta, dp, dcav, corr)
            assert np.shape(trans) == np.shape(emis) == np.shape(ref_t)
            assert np.max(np.abs(trans - ref_t)) < 1e-12
            assert np.max(np.abs(emis - ref_e)) < 1e-12


@pytest.mark.parametrize("points", (1, 1001, 5000))
def test_ensemble_blocks_cover_every_member_once(cfg, points):
    # each block is one jitter offset and a chunk of classes (7 classes in
    # one chunk, in chunks of 4 and 3, or one by one): every (class, offset)
    # member comes out once with its weight, and only a lone class may
    # exceed BLOCK_POINTS
    corr = Corrections(average=True, jitter_fwhm=0.2 * MHZ, side_weight=0.25,
                       side_shift=0.6 * MHZ)
    dp, dcav = np.linspace(-4, 4, points) * MHZ, 0.3 * MHZ
    with at_nodes(7, 5):
        etas, offs, weights = corr.members(5.0)
        blocks = list(ensemble_transfer(cfg, 5.0, dp, dcav, corr))
    seen = np.zeros(weights.shape, dtype=int)
    for w, e, q, chi in blocks:
        assert q.shape == (points,) and chi.shape == (len(e), points)
        assert len(e) == 1 or chi.size <= BLOCK_POINTS
        # the block's offset, read back from its q row: q = 1/(1 - i dc)
        dc = -(1.0 / q).imag
        j, = np.flatnonzero(np.isclose(offs, dp[0] - dcav - 0.5 * cfg.kappa * dc[0],
                                       rtol=0, atol=1.0))
        assert np.allclose(dp - dcav - 0.5 * cfg.kappa * dc, offs[j], rtol=0, atol=1.0)
        c = [int(np.flatnonzero(etas == eta)[0]) for eta in e]
        assert np.array_equal(w, weights[c, j])
        seen[c, j] += 1
    assert np.all(seen == 1)


def test_full_stack_forms_factors_once_per_offset_and_copies_no_config(cfg, monkeypatch):
    # p and q once per jitter offset, the side channel's q once more, and no
    # config copied to split the od: every chunk of classes is one
    # core.susceptibility call per channel, handed those factors, so each
    # member-point of each channel passes through it once
    calls = {"factors": 0, "configs": 0, "chi_points": 0}
    factors, post_init = core._factors, PhysicalConfig.__post_init__

    def counted_factors(*args):
        calls["factors"] += 1
        return factors(*args)

    def counted_chi(*args, **kwargs):
        assert kwargs["factors"] is not None
        chi = core.susceptibility(*args, **kwargs)
        calls["chi_points"] += chi.size
        return chi

    def counted_post_init(self):
        calls["configs"] += 1
        post_init(self)

    for module in (core, spatial):
        monkeypatch.setattr(module, "_factors", counted_factors)
    monkeypatch.setattr(spatial, "susceptibility", counted_chi)
    monkeypatch.setattr(PhysicalConfig, "__post_init__", counted_post_init)
    corr = Corrections(average=True, side_weight=0.25, side_shift=0.6 * MHZ,
                       jitter_fwhm=0.2 * MHZ)
    corrected_spectrum(cfg, 37.4, np.linspace(-4, 4, 321) * MHZ, 0.3 * MHZ, corr)
    members = corr.members(37.4)[2].size
    assert calls == {"factors": 2 * JITTER_NODES, "configs": 0,
                     "chi_points": 2 * members * 321}


def test_far_detunings_are_transparent_without_overflow(cfg, conf):
    # 1 + dc^2 overflowed here (|q|^2 = 1/(1 + dc^2) cannot); the probe
    # detunings stay finite, and so does Delta - delta with the resonator at 0
    corr = corrections(conf, average=True, side=True, jitter=True)
    dp = np.array([-1.7e308, -1e308, 1e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trans, emis = corrected_spectrum(cfg, model_cooperativity(conf), dp, 0.0, corr)
    assert np.max(np.abs(trans - 1.0)) < 1e-15 and np.all(emis == 0.0)


def test_transmission_never_exceeds_one(cfg, conf):
    # far from resonance every member transmits 1, and the weights sum to
    # 1 + 2e-16 in the order the blocks add them
    corr = corrections(conf, average=True, side=True, jitter=True)
    dp = np.array([-1e300, 1e300])
    for eta in np.logspace(-3, 3, 201):
        trans, emis = corrected_spectrum(cfg, eta, dp, 0.0, corr)
        assert np.all(trans <= 1.0) and np.all(emis >= 0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(eta=st.floats(0.0, 1e3), od=st.floats(0.0, 50.0),
       dp=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
       dcav=st.floats(-20.0, 20.0), switches=st.tuples(st.booleans(), st.booleans(),
                                                      st.booleans()))
def test_sized_rule_matches_the_cap(cfg, conf, eta, od, dp, dcav, switches):
    # dp in units of gamma, dcav of kappa; the sized rule keeps the cap's
    # spectra to rounding, with every correction combination
    cfg = replace(cfg, od=od)
    args = (eta, np.array(dp) * cfg.gamma, dcav * cfg.kappa, corrections(conf, *switches))
    sized = corrected_spectrum(cfg, *args)
    with at_nodes(64):
        cap = corrected_spectrum(cfg, *args)
    assert np.max(np.abs(np.subtract(sized, cap))) < 1e-14


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
@pytest.mark.parametrize("name", ("eta_max", "delta_probe", "delta_cavity"))
def test_non_finite_input_is_named_before_any_warning(cfg, name, bad):
    args = {"eta_max": 5.0, "delta_probe": np.linspace(-4, 4, 9) * MHZ, "delta_cavity": 0.0}
    args[name] = bad if name != "delta_probe" else np.append(args[name], bad)
    corr = Corrections(average=True, jitter_fwhm=0.2 * MHZ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            corrected_spectrum(cfg, corrections=corr, **args)


def test_pulse_blocks_match_corrected_spectrum(cfg, conf):
    # the (weights, t) blocks the pulse ensemble consumes, four members of
    # 1024 frequencies each, average to the spectrum path's transmission
    # taken one frequency at a time (all 32 members in one block)
    corr = corrections(conf, average=True, side=True, jitter=True)
    carrier = 0.4 * MHZ
    omega = 2 * np.pi * np.fft.fftfreq(1024, 4e-9)
    for eta in ETAS:
        with at_nodes(8, 4):
            blocks = [(w, transfer_amplitude(chi, cfg)) for w, _, _, chi
                      in ensemble_transfer(cfg, eta, carrier + omega, 0.0, corr)]
            want = [corrected_spectrum(cfg, eta, carrier + w, 0.0, corr)[0]
                    for w in omega[::16]]
        assert [len(w) for w, _ in blocks] == [4] * 8
        assert all(t.shape == (4, 1024) for _, t in blocks)
        summed = sum(w @ np.abs(t) ** 2 for w, t in blocks)
        assert np.max(np.abs(summed[::16] - want)) < 1e-14


def test_quadrature_convergence_fig2_panels(cfg, conf):
    # the node counts that `vitlab reproduce fig2` uses are converged
    eta = model_cooperativity(conf)
    grid, dcavs = fig2_detunings(cfg)

    def panels():
        corr = corrections(conf, average=True, side=True, jitter=True)
        return np.array([corrected_spectrum(cfg, eta, grid, d, corr)
                         for d in dcavs.values()])

    base = panels()
    with at_nodes(24, 32):  # the rule sized to eta takes 24 classes here
        assert np.max(np.abs(panels() - base)) < 1e-5
    with at_nodes(128):
        assert np.max(np.abs(panels() - base)) < 1e-12
