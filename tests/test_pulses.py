import numpy as np
import pytest
from dataclasses import replace

from conftest import STIFF_GAMMA, at_nodes
from vitlab.config import MHZ, corrections, read_csv
from vitlab.core import (
    group_delay_analytic,
    resonant_transmission,
    susceptibility,
    transfer_amplitude,
)
from vitlab.errors import BandCoverageError
from vitlab.pulses import (
    TRACE_COLUMNS,
    SampledPulse,
    make_gaussian_pulse,
    run_pulse_ensemble,
    write_trace_csv,
)
from vitlab.recipes import ETA_EFF_0, MEASURED_OD, PULSE_FWHM_US, pulse_ensemble
from vitlab.spatial import IDEAL, ensemble_transfer


def _one_member(pulse, row):
    """The one-member ensemble whose transfer values on omega are row(omega)."""
    return run_pulse_ensemble(
        pulse, lambda omega: [(np.ones(1), np.asarray(row(omega), dtype=complex)[None])])


def _vit_row(cfg, eta, omega):
    """Single-coupling transfer values on omega, resonator on resonance."""
    return transfer_amplitude(susceptibility(cfg, eta, omega, 0.0), cfg)


def _full_band_intensity(cfg, eta, pulse, corr, carrier=0.0):
    """Ensemble intensity from a loop of plain numpy FFTs over every bin, one member at a time.

    Each member's side channel is added by hand, (chi + w chi_side)/(1 + w).
    """
    spectrum = np.fft.ifft(pulse.samples)
    want = np.zeros(pulse.n)
    dp, w = carrier + pulse.omega, corr.side_weight
    etas, offs, weights = corr.members(eta)
    for (c, j), wt in np.ndenumerate(weights):
        eta_m, off = etas[c], offs[j]
        chi = susceptibility(cfg, eta_m, dp, off)
        if w:
            chi = (chi + w * susceptibility(cfg, eta_m, dp, off + corr.side_shift)) / (1.0 + w)
        want += wt * np.abs(np.fft.fft(spectrum * transfer_amplitude(chi, cfg))) ** 2
    return want


@pytest.mark.parametrize("duration", (0.0, -1e-6, float("nan")))
def test_duration_validation(duration):
    with pytest.raises(ValueError, match="duration must be positive"):
        make_gaussian_pulse(duration)


def test_gaussian_grid_properties():
    pulse = make_gaussian_pulse(1e-6)
    s = np.asarray(pulse.samples)
    assert len(s) == 2**14
    # symmetric grid: mirror symmetry is exact
    assert np.array_equal(s, s[::-1])
    # even sample count leaves the true peak between the two center samples
    assert np.max(np.abs(s)) == pytest.approx(1.0, abs=1e-6)
    # intensity fwhm on the grid matches the requested duration
    inten = np.abs(s) ** 2
    above = inten >= 0.5
    width = pulse.dt * (np.count_nonzero(above) - 1)
    assert abs(width - 1e-6) < 2 * pulse.dt


def test_gaussian_grid_guards():
    with pytest.raises(BandCoverageError, match="grid too short"):
        make_gaussian_pulse(1e-6, span=4e-6)
    with pytest.raises(ValueError):
        make_gaussian_pulse(1e-6, n_samples=1000)
    with pytest.raises(BandCoverageError):
        # 8-duration span with few samples: Nyquist margin too small
        make_gaussian_pulse(1e-6, n_samples=16, span=8e-6)
    # the margin is 10 spectral FWHMs of 2 ln2 / (pi 1 us) = 0.44 MHz:
    # a 4 MHz Nyquist frequency falls short, 8 MHz clears it
    with pytest.raises(BandCoverageError, match="grid too coarse"):
        make_gaussian_pulse(1e-6, n_samples=64, span=8e-6)
    assert make_gaussian_pulse(1e-6, n_samples=128, span=8e-6).n == 128
    # a nan span, or a time step that underflows to zero, is no grid
    for duration, span in ((1e-6, float("nan")), (1e-321, 8e-321)):
        with pytest.raises(BandCoverageError, match="time step"):
            make_gaussian_pulse(duration, n_samples=4096, span=span)


def test_sampled_pulse_validation():
    with pytest.raises(ValueError):
        SampledPulse(t0=0.0, dt=1.0, samples=np.ones(3))
    with pytest.raises(ValueError):
        SampledPulse(t0=0.0, dt=-1.0, samples=np.ones(4))


def test_identity_medium_is_lossless():
    pulse = make_gaussian_pulse(1e-6)
    res = _one_member(pulse, np.ones_like)
    assert np.allclose(res.output.samples, pulse.samples, atol=1e-12)
    assert abs(res.delay_centroid) < 1e-12
    assert abs(res.delay_peak) < 1e-12
    assert np.isclose(res.energy_transmission, 1.0, rtol=1e-12)


def test_pure_delay_medium():
    # t(w) = e^{i w tau} must delay the envelope by +tau
    pulse = make_gaussian_pulse(1e-6)
    tau = 37.0 * pulse.dt / 8.0  # deliberately off-grid
    res = _one_member(pulse, lambda w: np.exp(1j * w * tau))
    assert abs(res.delay_centroid - tau) < 1e-3 * tau
    assert abs(res.delay_peak - tau) < 0.2 * pulse.dt
    assert np.isclose(res.energy_transmission, 1.0, rtol=1e-12)


def test_flat_absorber():
    pulse = make_gaussian_pulse(1e-6)
    res = _one_member(pulse, lambda w: np.full(len(w), np.exp(-0.2)))
    assert np.isclose(res.energy_transmission, np.exp(-0.4), rtol=1e-12)


def test_propagation_is_linear():
    pulse = make_gaussian_pulse(1e-6)
    def med(w):
        return np.exp(1j * w * 1e-8 - (w * 1e-7) ** 2)

    out1 = _one_member(pulse, med).output
    doubled = SampledPulse(pulse.t0, pulse.dt, 2.0 * np.asarray(pulse.samples))
    out2 = _one_member(doubled, med).output
    assert np.allclose(np.asarray(out2.samples),
                       2.0 * np.asarray(out1.samples), rtol=1e-12)


def test_band_guard_rejects_coarse_grid(cfg):
    # T_P = 80 us on the default grid puts the band edge mid-wing of the
    # atomic line, where |t| still slopes by > 1e-6 per frequency step
    pulse = make_gaussian_pulse(80e-6)
    with pytest.raises(BandCoverageError):
        pulse_ensemble(cfg, 3.4, pulse, IDEAL)
    # quadrupling the sample rate pushes the edge far into the flat tail
    fine = make_gaussian_pulse(80e-6, n_samples=2**16)
    pulse_ensemble(cfg, 3.4, fine, IDEAL)


def test_medium_output_validation():
    pulse = make_gaussian_pulse(1e-6)
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, lambda w: [(np.ones(1), np.ones((1, 3), dtype=complex))])
    with pytest.raises(ValueError):
        _one_member(pulse, lambda w: np.full(len(w), np.nan))


def test_narrowband_convergence_trio(cfg):
    # window (1+eta)kappa wide enough at eta0 that even T_P = 5 us sits
    # inside; errors fall roughly 16x per 4x in duration
    stiff = replace(cfg, gamma=STIFF_GAMMA)
    eta = 7.2
    tau = group_delay_analytic(stiff.od, stiff.kappa, eta)
    t_res = resonant_transmission(stiff.od, eta)
    errs = []
    for tp, n in ((5e-6, 2**18), (20e-6, 2**14), (80e-6, 2**14)):
        pulse = make_gaussian_pulse(tp, n_samples=n)
        res = pulse_ensemble(stiff, eta, pulse, IDEAL)
        errs.append(abs(res.delay_centroid - tau) / tau)
        assert errs[-1] < 0.01
        assert abs(res.energy_transmission - t_res) / t_res < 0.005
    assert errs[0] > errs[1] > errs[2]


def test_narrowband_delay_matches_exact_slope(cfg):
    # at the default atom the asymptote is the kappa/gamma-corrected slope
    exact = (cfg.od / cfg.kappa) * (3.4 - cfg.kappa / cfg.gamma) / 4.4**2
    pulse = make_gaussian_pulse(80e-6, n_samples=2**16)
    res = pulse_ensemble(cfg, 3.4, pulse, IDEAL)
    assert abs(res.delay_centroid - exact) / exact < 1e-3


def test_ensemble_single_member_matches_fft(cfg):
    # the one-member ensemble against the coherent output of plain numpy
    # FFTs over every bin, summarized here
    pulse = make_gaussian_pulse(1.73e-6)
    solo = np.fft.fft(np.fft.ifft(pulse.samples) * _vit_row(cfg, 5.0, pulse.omega))
    ens = pulse_ensemble(cfg, 5.0, pulse, IDEAL)
    t = pulse.times
    i_in = np.abs(np.asarray(pulse.samples)) ** 2
    i_out = np.abs(solo) ** 2
    centroid = (t @ i_out) / i_out.sum() - (t @ i_in) / i_in.sum()
    assert np.isclose(ens.delay_centroid, centroid, rtol=1e-12)
    assert abs(ens.delay_peak - centroid) < 0.1 * centroid
    assert np.isclose(ens.energy_transmission, i_out.sum() / i_in.sum(), rtol=1e-12)
    # a single member keeps its field, phase included; the bins off the
    # pulse's spectral support are dropped, which moves it in the last digits
    assert np.max(np.abs(ens.output.samples - solo)) < 1e-13 * np.max(np.abs(solo))


@pytest.mark.parametrize("jitter, transforms", ((False, 1), (True, 0)))
def test_one_member_field_is_formed_once(cfg, conf, monkeypatch, jitter, transforms):
    # only a one-member ensemble keeps its field, formed after the blocks:
    # jitter alone makes 16 one-member blocks and no length-n transform
    pulse = make_gaussian_pulse(PULSE_FWHM_US * 1e-6)
    sizes, fft = [], np.fft.fft

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr("vitlab.pulses.np.fft.fft", spy)
    pulse_ensemble(cfg, ETA_EFF_0, pulse, corrections(conf, jitter=jitter))
    assert sizes and sizes.count(pulse.n) == transforms


@pytest.mark.parametrize("tp, n", ((1.73e-6, 2**12), (20e-6, 2**14)))
def test_ideal_ensemble_is_the_single_coupling_row(cfg, tp, n):
    # with no corrections the recipe's one ensemble_transfer row is the
    # plain single-coupling transfer, so the propagation is bit-identical
    pulse = make_gaussian_pulse(tp, n_samples=n)
    ens = pulse_ensemble(cfg, 5.0, pulse, IDEAL)
    solo = _one_member(pulse, lambda w: _vit_row(cfg, 5.0, w))
    assert np.array_equal(ens.output.samples, solo.output.samples)
    assert ens.delay_centroid == solo.delay_centroid
    assert ens.energy_transmission == solo.energy_transmission


def test_ensemble_weight_validation(cfg):
    pulse = make_gaussian_pulse(1.73e-6)
    def rows(weights):
        return lambda w: [(np.array(weights), np.tile(_vit_row(cfg, 5.0, w), (2, 1)))]

    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, rows([0.7]))
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, rows([0.7, 0.7]))
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, lambda w: [])


def test_ensemble_delay_between_members():
    # two pure delays: the intensity centroid is the weighted mean
    pulse = make_gaussian_pulse(1e-6)
    t1, t2 = 20e-9, 60e-9
    res = run_pulse_ensemble(
        pulse, lambda w: [(np.array([0.25, 0.75]), np.exp(1j * np.outer([t1, t2], w)))])
    assert np.isclose(res.delay_centroid, 0.25 * t1 + 0.75 * t2, rtol=1e-6)
    # the interpolated intensity dips to -3e-18 of its unit peak in the tails;
    # the output field is its clipped square root, real and finite
    out = np.asarray(res.output.samples)
    assert np.all(np.isfinite(out)) and np.all(out.real >= 0) and not np.any(out.imag)


@pytest.mark.parametrize("carrier_mhz", (0.0, 0.3))
def test_ensemble_matches_member_loop(cfg, conf, carrier_mhz):
    # blocks of several members on the pulse's spectral support against an
    # independent loop of plain numpy FFTs over every bin, one transfer row
    # per member: the witness that dropping the other bins is exact
    corr = corrections(conf, average=True, side=True, jitter=True)
    carrier = carrier_mhz * MHZ
    # a 32-duration span: the medium's ringing puts 3e-9 of the output
    # energy in the window's outer sixteenths (1.8e-5 on 8 durations)
    pulse = make_gaussian_pulse(0.5e-6, n_samples=2**11, span=16e-6)
    sizes = []

    def transfer(omega):
        assert len(omega) < pulse.n
        for w, _, _, chi in ensemble_transfer(cfg, 5.0, carrier + omega, 0.0, corr):
            sizes.append(len(w))
            yield w, transfer_amplitude(chi, cfg)

    with at_nodes(8, 4):
        res = run_pulse_ensemble(pulse, transfer)
        want = _full_band_intensity(cfg, 5.0, pulse, corr, carrier)
    assert len(sizes) > 1 and max(sizes) > 1 and sum(sizes) == 32
    got = np.abs(np.asarray(res.output.samples)) ** 2
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(want)


def test_fig3_sized_ensemble_matches_full_band(cfg, conf):
    # the fig3 pulse on the default 16384-sample grid, whose spectral
    # support is under one percent of the bins, through the full correction
    # stack (fewer nodes than fig3, so the full-band loop stays quick)
    corr = corrections(conf, average=True, side=True, jitter=True)
    medium = replace(cfg, od=MEASURED_OD)
    pulse = make_gaussian_pulse(PULSE_FWHM_US * 1e-6)
    support = []

    def transfer(omega):
        support.append(len(omega))
        return ((w, transfer_amplitude(chi, medium))
                for w, _, _, chi in ensemble_transfer(medium, ETA_EFF_0, omega, 0.0, corr))

    with at_nodes(16, 4):
        res = run_pulse_ensemble(pulse, transfer)
        want = _full_band_intensity(medium, ETA_EFF_0, pulse, corr)
    # the Gaussian's lobe of 71 bins plus the four band edges, not the round-off
    assert support[0] < 128
    out = np.asarray(res.output.samples)
    assert np.all(np.isfinite(out)) and np.all(out.real >= 0)
    got = np.abs(out) ** 2
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(want)
    t = pulse.times
    i_in = np.abs(np.asarray(pulse.samples)) ** 2
    centroid = (t @ want) / want.sum() - (t @ i_in) / i_in.sum()
    assert np.isclose(res.delay_centroid, centroid, rtol=1e-12)
    assert np.isclose(res.energy_transmission, want.sum() / i_in.sum(), rtol=1e-12)


@pytest.mark.parametrize("band", ("full", "compact"))
def test_ensemble_matches_plain_ffts(band):
    # full: a single-sample pulse has a flat spectrum, so its support is
    # every bin and the coarse grid is the whole grid.  compact: a raised
    # cosine on 41 bins off the centre, 6e-3 of its peak at the outer ones:
    # the intensity holds frequencies up to 40, past the 32 that a coarse
    # grid of one width (64 samples, not 128) could hold
    n, dt = 1024, 1e-9
    spectrum = np.full(n, 1.0 / n)
    if band == "compact":
        q = np.arange(-20, 21)
        spectrum = np.zeros(n)
        spectrum[q + 30] = np.cos(np.pi * q / 42) ** 2
    # centred in the window: synthesis by fft puts e^{i pi q} at t = n dt / 2
    spectrum = spectrum * (-1.0) ** np.arange(n)
    pulse = SampledPulse(t0=0.0, dt=dt, samples=np.fft.fft(spectrum))
    weights = np.array([0.3, 0.7])

    def rows(w):
        # two shifts with a smooth absorption, flat (zero) at the band edges
        return np.array([0.9 * np.exp(1j * w * 3 * dt), 0.5 * np.exp(-1j * w * 5.5 * dt)]) \
            * np.exp(-(w * 4 * dt) ** 2)

    support = []

    def transfer(omega):
        support.append(len(omega))
        return [(weights, rows(omega))]

    res = run_pulse_ensemble(pulse, transfer)
    assert support == [n + 4 if band == "full" else 41 + 4]
    want = weights @ (np.abs(np.fft.fft(np.fft.ifft(pulse.samples) * rows(pulse.omega))) ** 2)
    out = np.asarray(res.output.samples)
    assert np.all(np.isfinite(out)) and np.all(out.real >= 0)
    assert np.max(np.abs(np.abs(out) ** 2 - want)) < 1e-12 * np.max(want)


def test_active_medium_is_rejected():
    # dropping the bins off the spectral support is exact only for |t| <= 1
    pulse = make_gaussian_pulse(1e-6)
    with pytest.raises(ValueError, match="passive"):
        _one_member(pulse, lambda w: np.full(len(w), 1.0 + 1e-9))
    with pytest.raises(ValueError, match="passive"):
        _one_member(pulse, lambda w: np.exp(1j * w * 1e-8 + 1e-9 * (w * 1e-7) ** 2))


@pytest.mark.parametrize("fraction", (0.45, 0.6))
def test_band_guard_rejects_time_wrap(fraction):
    # a pure delay keeps |t| = 1, flat at the band edges, but a delay of
    # 0.45 span pushes the pulse into the window's end and 0.6 span wraps
    # it round to the start (centroid -6.4 us instead of +9.6 us)
    pulse = make_gaussian_pulse(1e-6)
    tau = fraction * pulse.n * pulse.dt
    with pytest.raises(BandCoverageError, match="ends of the time window"):
        _one_member(pulse, lambda w: np.exp(1j * w * tau))
    # 0.3 span still fits, and the delay comes out exact
    tau = 0.3 * pulse.n * pulse.dt
    res = _one_member(pulse, lambda w: np.exp(1j * w * tau))
    assert abs(res.delay_centroid - tau) < 1e-3 * tau


def test_ensemble_band_guard_per_row(cfg):
    # one flat row, one row whose |t| still slopes at the band edge
    pulse = make_gaussian_pulse(1e-6)
    top = np.max(pulse.omega)

    def rows(sloped):
        return lambda w: [(np.array([0.5, 0.5]), np.array(
            [np.ones(len(w)), np.exp(-(w / top) ** 2) if sloped else np.ones(len(w))]))]

    run_pulse_ensemble(pulse, rows(False))
    with pytest.raises(BandCoverageError):
        run_pulse_ensemble(pulse, rows(True))


def test_trace_round_trip(tmp_path):
    # the trace is an output format: its cells read back as the exact doubles
    pulse = make_gaussian_pulse(1.73e-6, n_samples=2**10,
                                span=16 * 1.73e-6)
    out = _one_member(pulse, lambda w: np.exp(1j * w * 30e-9 - (w * 4e-8) ** 2)).output
    path = tmp_path / "trace.csv"
    write_trace_csv({path: out})
    time_us, re, im = np.array(read_csv(path, TRACE_COLUMNS)).T
    assert np.array_equal(time_us, out.times * 1e6)
    assert np.array_equal(re, out.samples.real) and np.array_equal(im, out.samples.imag)


def test_traces_written_together_match_each_alone(tmp_path):
    # fig3's three traces on one grid: one lockstep call shares the time
    # column and formats the all-zero im blocks once, byte for byte as alone
    pulse = make_gaussian_pulse(1.73e-6, n_samples=2**11, span=16 * 1.73e-6)
    traces = {"input": pulse,
              "delayed": _one_member(pulse, lambda w: np.exp(1j * w * 30e-9)).output,
              "real": SampledPulse(pulse.t0, pulse.dt, np.abs(pulse.samples) * (1 + 0j))}
    write_trace_csv({tmp_path / f"{name}.csv": trace for name, trace in traces.items()})
    for name, trace in traces.items():
        write_trace_csv({tmp_path / f"{name}_alone.csv": trace})
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_alone.csv").read_bytes()


def test_traces_written_together_share_one_grid(tmp_path):
    pulse = make_gaussian_pulse(1.73e-6, n_samples=2**10, span=16 * 1.73e-6)
    shifted = SampledPulse(pulse.t0 + pulse.dt, pulse.dt, pulse.samples)
    with pytest.raises(ValueError, match="one time grid"):
        write_trace_csv({tmp_path / "a.csv": pulse, tmp_path / "b.csv": shifted})
    assert not list(tmp_path.iterdir())
