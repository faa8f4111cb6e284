import numpy as np
import pytest
from dataclasses import replace

from conftest import STIFF_GAMMA
from vitlab.config import MHZ, corrections
from vitlab.core import (
    Detunings,
    group_delay_analytic,
    resonant_transmission,
    susceptibility,
    transfer_amplitude,
)
from vitlab.errors import BandCoverageError
from vitlab.pulses import (
    PulseSpec,
    SampledPulse,
    make_gaussian_pulse,
    read_trace_csv,
    run_pulse_ensemble,
    write_trace_csv,
)
from vitlab.recipes import pulse_ensemble
from vitlab.spatial import IDEAL, composite_susceptibility, ensemble_transfer


def _one_member(pulse, t):
    """The one-member ensemble of transfer values t on pulse.omega."""
    return run_pulse_ensemble(pulse, [(np.ones(1), np.asarray(t, dtype=complex)[None])])


def _vit_row(cfg, eta, pulse):
    """Single-coupling transfer values on pulse.omega, resonator on resonance."""
    return transfer_amplitude(susceptibility(cfg, eta, Detunings(pulse.omega, 0.0)), cfg)


def test_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(duration=0.0)


def test_spectral_width_time_bandwidth():
    spec = PulseSpec(duration=1.73e-6)
    assert np.isclose(spec.spectral_fwhm, 2 * np.log(2) / (np.pi * 1.73e-6),
                      rtol=1e-12)


def test_gaussian_grid_properties():
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
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
    with pytest.raises(ValueError):
        make_gaussian_pulse(PulseSpec(duration=1e-6), span=4e-6)
    with pytest.raises(ValueError):
        make_gaussian_pulse(PulseSpec(duration=1e-6), n_samples=1000)
    with pytest.raises(ValueError):
        # 8-duration span with few samples: Nyquist margin too small
        make_gaussian_pulse(PulseSpec(duration=1e-6), n_samples=16, span=8e-6)


def test_sampled_pulse_validation():
    with pytest.raises(ValueError):
        SampledPulse(t0=0.0, dt=1.0, samples=np.ones(3))
    with pytest.raises(ValueError):
        SampledPulse(t0=0.0, dt=-1.0, samples=np.ones(4))


def test_identity_medium_is_lossless():
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    res = _one_member(pulse, np.ones(pulse.n))
    assert np.allclose(res.output.samples, pulse.samples, atol=1e-12)
    assert abs(res.delay_centroid) < 1e-12
    assert abs(res.delay_peak) < 1e-12
    assert np.isclose(res.energy_transmission, 1.0, rtol=1e-12)


def test_pure_delay_medium():
    # t(w) = e^{i w tau} must delay the envelope by +tau
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    tau = 37.0 * pulse.dt / 8.0  # deliberately off-grid
    res = _one_member(pulse, np.exp(1j * pulse.omega * tau))
    assert abs(res.delay_centroid - tau) < 1e-3 * tau
    assert abs(res.delay_peak - tau) < 0.2 * pulse.dt
    assert np.isclose(res.energy_transmission, 1.0, rtol=1e-12)


def test_flat_absorber():
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    res = _one_member(pulse, np.full(pulse.n, np.exp(-0.2)))
    assert np.isclose(res.energy_transmission, np.exp(-0.4), rtol=1e-12)


def test_propagation_is_linear():
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    med = np.exp(1j * pulse.omega * 1e-8 - (pulse.omega * 1e-7) ** 2)
    out1 = _one_member(pulse, med).output
    doubled = SampledPulse(pulse.t0, pulse.dt, 2.0 * np.asarray(pulse.samples))
    out2 = _one_member(doubled, med).output
    assert np.allclose(np.asarray(out2.samples),
                       2.0 * np.asarray(out1.samples), rtol=1e-12)


def test_band_guard_rejects_coarse_grid(cfg):
    # T_P = 80 us on the default grid puts the band edge mid-wing of the
    # atomic line, where |t| still slopes by > 1e-6 per frequency step
    pulse = make_gaussian_pulse(PulseSpec(duration=80e-6))
    with pytest.raises(BandCoverageError):
        pulse_ensemble(cfg, 3.4, pulse, IDEAL)
    # quadrupling the sample rate pushes the edge far into the flat tail
    fine = make_gaussian_pulse(PulseSpec(duration=80e-6), n_samples=2**16)
    pulse_ensemble(cfg, 3.4, fine, IDEAL)


def test_medium_output_validation():
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, [(np.ones(1), np.ones((1, 3), dtype=complex))])
    with pytest.raises(ValueError):
        _one_member(pulse, np.full(pulse.n, np.nan))


def test_narrowband_convergence_trio(cfg):
    # window (1+eta)kappa wide enough at eta0 that even T_P = 5 us sits
    # inside; errors fall roughly 16x per 4x in duration
    stiff = replace(cfg, gamma=STIFF_GAMMA)
    eta = 7.2
    tau = group_delay_analytic(stiff.od, stiff.kappa, eta)
    t_res = resonant_transmission(stiff.od, eta)
    errs = []
    for tp, n in ((5e-6, 2**18), (20e-6, 2**14), (80e-6, 2**14)):
        pulse = make_gaussian_pulse(PulseSpec(duration=tp), n_samples=n)
        res = pulse_ensemble(stiff, eta, pulse, IDEAL)
        errs.append(abs(res.delay_centroid - tau) / tau)
        assert errs[-1] < 0.01
        assert abs(res.energy_transmission - t_res) / t_res < 0.005
    assert errs[0] > errs[1] > errs[2]


def test_narrowband_delay_matches_exact_slope(cfg):
    # at the default atom the asymptote is the kappa/gamma-corrected slope
    exact = (cfg.od / cfg.kappa) * (3.4 - cfg.kappa / cfg.gamma) / 4.4**2
    pulse = make_gaussian_pulse(PulseSpec(duration=80e-6), n_samples=2**16)
    res = pulse_ensemble(cfg, 3.4, pulse, IDEAL)
    assert abs(res.delay_centroid - exact) / exact < 1e-3


def test_ensemble_single_member_matches_fft(cfg):
    # the one-member ensemble against the coherent output of plain numpy
    # FFTs, summarized here
    pulse = make_gaussian_pulse(PulseSpec(duration=1.73e-6))
    solo = np.fft.fft(np.fft.ifft(pulse.samples) * _vit_row(cfg, 5.0, pulse))
    ens = pulse_ensemble(cfg, 5.0, pulse, IDEAL)
    t = pulse.times
    i_in = np.abs(np.asarray(pulse.samples)) ** 2
    i_out = np.abs(solo) ** 2
    centroid = (t @ i_out) / i_out.sum() - (t @ i_in) / i_in.sum()
    assert np.isclose(ens.delay_centroid, centroid, rtol=1e-12)
    assert abs(ens.delay_peak - centroid) < 0.1 * centroid
    assert np.isclose(ens.energy_transmission, i_out.sum() / i_in.sum(), rtol=1e-12)
    # a single member keeps its field, phase included
    assert np.array_equal(ens.output.samples, solo)


@pytest.mark.parametrize("tp, n", ((1.73e-6, 2**12), (20e-6, 2**14)))
def test_ideal_ensemble_is_the_single_coupling_row(cfg, tp, n):
    # with no corrections the recipe's one ensemble_transfer row is the
    # plain single-coupling transfer, so the propagation is bit-identical
    pulse = make_gaussian_pulse(PulseSpec(duration=tp), n_samples=n)
    ens = pulse_ensemble(cfg, 5.0, pulse, IDEAL)
    solo = _one_member(pulse, _vit_row(cfg, 5.0, pulse))
    assert np.array_equal(ens.output.samples, solo.output.samples)
    assert ens.delay_centroid == solo.delay_centroid
    assert ens.energy_transmission == solo.energy_transmission


def test_ensemble_weight_validation(cfg):
    pulse = make_gaussian_pulse(PulseSpec(duration=1.73e-6))
    rows = np.tile(_vit_row(cfg, 5.0, pulse), (2, 1))
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, [(np.array([0.7]), rows)])
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, [(np.array([0.7, 0.7]), rows)])
    with pytest.raises(ValueError):
        run_pulse_ensemble(pulse, [])


def test_ensemble_delay_between_members():
    # two pure delays: the intensity centroid is the weighted mean
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    t1, t2 = 20e-9, 60e-9
    rows = np.exp(1j * np.outer([t1, t2], pulse.omega))
    res = run_pulse_ensemble(pulse, [(np.array([0.25, 0.75]), rows)])
    assert np.isclose(res.delay_centroid, 0.25 * t1 + 0.75 * t2, rtol=1e-6)


@pytest.mark.parametrize("carrier_mhz", (0.0, 0.3))
def test_ensemble_matches_member_loop(cfg, conf, carrier_mhz):
    # blocks of several members (1024 samples, BLOCK_POINTS 4096) against
    # an independent loop of plain numpy FFTs, one transfer row per member
    corr = corrections(conf, average=True, side=True, jitter=True,
                       averaging_nodes=8, jitter_nodes=4)
    carrier = carrier_mhz * MHZ
    # a 0.5 us pulse on an 8-duration span keeps the band edges flat
    pulse = make_gaussian_pulse(PulseSpec(duration=0.5e-6), n_samples=2**10, span=4e-6)
    blocks = list(ensemble_transfer(cfg, 5.0, Detunings(carrier + pulse.omega, 0.0), corr))
    assert len(blocks) == 8 and all(len(w) == 4 for w, _, _, _ in blocks)
    res = run_pulse_ensemble(pulse, ((w, t) for w, _, _, t in blocks))

    spectrum = np.fft.ifft(pulse.samples)
    want = np.zeros(pulse.n)
    for eta, off, wt in zip(*corr.members(5.0)):
        det = Detunings(carrier + pulse.omega, off)
        row = transfer_amplitude(composite_susceptibility(cfg, eta, det, corr.side), cfg)
        want += wt * np.abs(np.fft.fft(spectrum * row)) ** 2
    got = np.abs(np.asarray(res.output.samples)) ** 2
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(want)


def test_ensemble_band_guard_per_row(cfg):
    # one flat row, one row whose |t| still slopes at the band edge
    pulse = make_gaussian_pulse(PulseSpec(duration=1e-6))
    flat = np.ones(pulse.n, dtype=complex)
    slope = np.exp(-(pulse.omega / np.max(pulse.omega)) ** 2).astype(complex)
    run_pulse_ensemble(pulse, [(np.array([0.5, 0.5]), np.array([flat, flat]))])
    with pytest.raises(BandCoverageError):
        run_pulse_ensemble(pulse, [(np.array([0.5, 0.5]), np.array([flat, slope]))])


def test_trace_round_trip(tmp_path):
    pulse = make_gaussian_pulse(PulseSpec(duration=1.73e-6), n_samples=2**10,
                                span=16 * 1.73e-6)
    w = pulse.omega
    out = _one_member(pulse, np.exp(1j * w * 30e-9 - (w * 4e-8) ** 2)).output
    path = tmp_path / "trace.csv"
    write_trace_csv(path, out)
    back = read_trace_csv(path)
    assert back.n == out.n
    assert np.isclose(back.dt, out.dt, rtol=1e-12)
    assert np.allclose(np.asarray(back.samples), np.asarray(out.samples),
                       rtol=0, atol=1e-15)


def test_trace_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(bad)
    for text in ("", "time_us,re,im\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            read_trace_csv(bad)
    for row in ("0.1,1.0", "0.1,abc,0.0", "0.1,1.0,0.0,2.0", "0.1,inf,0.0"):
        bad.write_text("time_us,re,im\n0.0,1.0,0.0\n" + row + "\n")
        with pytest.raises(ValueError, match="bad.csv, line 3"):
            read_trace_csv(bad)
