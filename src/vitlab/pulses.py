"""Dispersive pulse propagation through the correction ensemble.

A probe pulse is held as a complex baseband envelope on a uniform time
grid; the optical carrier never appears.  Propagation multiplies the
envelope spectrum by each ensemble member's transfer row t(omega) from
vitlab.spatial.ensemble_transfer, omega the offset from the carrier
(a carrier detuning shifts the probe detuning: recipes.pulse_ensemble).

Sign convention: the envelope is synthesized as sum of e^{-i omega t}
components (analysis via numpy ifft, synthesis via fft), so a medium
t(omega) = e^{i omega tau} shifts the pulse later by tau, and the group
delay is + d(arg t)/d omega, matching vitlab.core.group_delay_numeric.

Traces are read and written as CSV with columns time_us, re, im.
"""

from dataclasses import dataclass

import numpy as np

from vitlab.config import read_csv, write_csv
from vitlab.core import TWO_PI
from vitlab.errors import BandCoverageError

TRACE_COLUMNS = ("time_us", "re", "im")
EDGE_FLATNESS = 1e-6


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian probe pulse of intensity FWHM duration (s)."""

    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def spectral_fwhm(self):
        """Intensity spectral FWHM in Hz (Gaussian time-bandwidth 2 ln2 / pi)."""
        return 2.0 * np.log(2.0) / (np.pi * self.duration)


@dataclass(frozen=True)
class SampledPulse:
    """Complex envelope on the uniform grid t0 + i*dt, i = 0..n-1."""

    t0: float
    dt: float
    samples: object

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 1 or len(s) == 0:
            raise ValueError("samples must be a nonempty 1-d sequence")
        n = len(s)
        if n & (n - 1):
            raise ValueError("sample count must be a power of two")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n(self):
        return len(np.asarray(self.samples))

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def omega(self):
        """Angular frequency offsets of the envelope spectrum, in numpy fft order."""
        return TWO_PI * np.fft.fftfreq(self.n, self.dt)


@dataclass(frozen=True)
class PropagationResult:
    delay_centroid: float
    delay_peak: float
    energy_transmission: float
    output: object  # SampledPulse


def make_gaussian_pulse(spec, n_samples=2**14, span=None):
    """Sample a unit-amplitude Gaussian envelope centered on t = 0.

    The grid is symmetric about the center, so samples[i] equals
    samples[n-1-i] exactly.  span defaults to 16 durations and must be
    at least 8; the sample rate must keep the Nyquist frequency at
    least 10 spectral FWHMs away.
    """
    if span is None:
        span = 16.0 * spec.duration
    if span < 8.0 * spec.duration:
        raise ValueError("grid too short: span must cover at least 8 durations")
    if n_samples & (n_samples - 1) or n_samples <= 0:
        raise ValueError("n_samples must be a power of two")
    dt = span / n_samples
    nyquist_hz = 0.5 / dt
    if nyquist_hz < 10.0 * spec.spectral_fwhm:
        raise ValueError("grid too coarse: Nyquist margin below 10 spectral widths")
    t = dt * (np.arange(n_samples) - (n_samples - 1) / 2.0)
    field = np.exp(-2.0 * np.log(2.0) * (t / spec.duration) ** 2).astype(complex)
    return SampledPulse(t0=t[0], dt=dt, samples=field)


def _centroid(times, intensity):
    total = intensity.sum()
    if total <= 0:
        raise ValueError("zero-energy pulse has no centroid")
    return float((times * intensity).sum() / total)


def _peak(times, intensity):
    i = int(np.argmax(intensity))
    if intensity[i] <= 0:
        raise ValueError("zero-energy pulse has no peak")
    if i == 0 or i == len(intensity) - 1:
        return float(times[i])
    a, b, c = intensity[i - 1], intensity[i], intensity[i + 1]
    denom = a - 2.0 * b + c
    if denom == 0:
        return float(times[i])
    return float(times[i] + 0.5 * (a - c) / denom * (times[1] - times[0]))


def run_pulse_ensemble(pulse, blocks):
    """Incoherent ensemble propagation: delays and energy of the averaged intensity.

    blocks yields (weights, t) pairs, t holding one row of transfer
    values on pulse.omega per member, as vitlab.spatial.ensemble_transfer
    does.  Detected intensity is the weighted sum of the member
    intensities.  Delays are taken from its centroid (first moment) and
    from its peak (quadratic interpolation around the maximum sample);
    the two can legitimately disagree for distorted pulses.  The output
    pulse is the member's field for a one-member ensemble, otherwise
    the square root of the intensity (member phases are dropped).
    Raises BandCoverageError when a row's |t| still varies by more than
    EDGE_FLATNESS at either band edge, where spectral weight would wrap.
    """
    spectrum = np.fft.ifft(np.asarray(pulse.samples, dtype=complex))
    # in fft order the band runs from index n/2 (most negative) up to n/2 - 1
    h = pulse.n // 2
    edge_index = [h, (h + 1) % pulse.n, h - 1, h - 2]
    intensity = np.zeros(pulse.n)
    total, members = 0.0, 0
    for weights, t in blocks:
        weights = np.asarray(weights, dtype=float)
        if np.shape(t) != (len(weights), pulse.n):
            raise ValueError("each block needs one weight and one transfer row per member")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(t)):
            raise ValueError("transfer function must be finite over the pulse band")
        edges = np.abs(t[:, edge_index])
        if np.any(np.abs(edges[:, 0] - edges[:, 1]) > EDGE_FLATNESS) or np.any(
                np.abs(edges[:, 2] - edges[:, 3]) > EDGE_FLATNESS):
            raise BandCoverageError(
                "transfer function still varies at the grid edge; widen the band"
            )
        out = np.fft.fft(spectrum * t, axis=-1)
        intensity += weights @ np.abs(out) ** 2
        total += weights.sum()
        members += len(weights)
    if not np.isclose(total, 1.0, atol=1e-12):
        raise ValueError("weights must be nonnegative and sum to 1")

    t = pulse.times
    iin = np.abs(np.asarray(pulse.samples)) ** 2
    centroid = _centroid(t, intensity) - _centroid(t, iin)
    peak = _peak(t, intensity) - _peak(t, iin)
    energy = float(intensity.sum() / iin.sum())
    field = out[0] if members == 1 else np.sqrt(intensity).astype(complex)
    return PropagationResult(centroid, peak, energy, SampledPulse(pulse.t0, pulse.dt, field))


def write_trace_csv(path, pulse):
    """Write a pulse trace as CSV columns time_us, re, im."""
    write_csv(path, TRACE_COLUMNS,
              ((float(t) * 1e6, float(v.real), float(v.imag))
               for t, v in zip(pulse.times, np.asarray(pulse.samples))))


def read_trace_csv(path):
    """Read a pulse trace written by write_trace_csv."""
    rows = np.array(read_csv(path, TRACE_COLUMNS))
    if len(rows) < 2:
        raise ValueError(f"{path}: a trace needs at least two samples")
    t = rows[:, 0] * 1e-6
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0):
        raise ValueError("trace grid is not uniform")
    samples = rows[:, 1].astype(complex)
    samples.imag = rows[:, 2]
    return SampledPulse(t0=t[0], dt=float(dt[0]), samples=samples)
