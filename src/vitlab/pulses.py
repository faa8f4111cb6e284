"""Dispersive pulse propagation through the correction ensemble.

A probe pulse is held as a complex baseband envelope on a uniform time
grid; the optical carrier never appears.  Propagation multiplies the
envelope spectrum by each ensemble member's transfer row t(omega) from
vitlab.spatial.ensemble_transfer, omega the offset from the carrier
(a carrier detuning shifts the probe detuning: recipes.pulse_ensemble).
Rows are evaluated only on the envelope's spectral support (bins above
SUPPORT_FLOOR of its peak, plus the band edges): exact, as a passive medium
has |t| <= 1, which is checked.  Member intensities then hold frequencies
below the support's width, so their weighted sum is formed on a power-of-two
grid of at least two widths and interpolated back exactly.  BandCoverageError
guards the grid: |t| flat to EDGE_FLATNESS at the band edges, and at most
WRAP_FRACTION of the output energy in the outer 1/16 of the window at either
end, where delays wrap.

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
SUPPORT_FLOOR = 1e-15  # above the ifft's own round-off
EDGE_FLATNESS = 1e-6
WRAP_FRACTION = 1e-6


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


def make_gaussian_pulse(duration, n_samples=2**14, span=None):
    """Sample a unit-amplitude Gaussian envelope of intensity FWHM duration (s).

    The grid is symmetric about t = 0, so samples[i] equals samples[n-1-i]
    exactly.  BandCoverageError unless duration and time step are positive,
    span (default 16 durations) >= 8 durations and the Nyquist frequency
    >= 10 spectral FWHMs of 2 ln2 / (pi duration) (time-bandwidth product).
    """
    if n_samples & (n_samples - 1) or n_samples <= 0:
        raise ValueError("n_samples must be a power of two")
    span = 16.0 * duration if span is None else span
    dt = span / n_samples
    if not (duration > 0 and dt > 0):
        raise BandCoverageError("duration must be positive, as must the time step span/n_samples")
    if span < 8.0 * duration:
        raise BandCoverageError("grid too short: span must cover at least 8 durations")
    if 0.5 * np.pi * duration / dt < 10.0 * 2.0 * np.log(2.0):
        raise BandCoverageError("grid too coarse: Nyquist margin below 10 spectral widths")
    t = dt * (np.arange(n_samples) - (n_samples - 1) / 2.0)
    field = np.exp(-2.0 * np.log(2.0) * (t / duration) ** 2).astype(complex)
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


def run_pulse_ensemble(pulse, transfer):
    """Incoherent ensemble propagation: delays and energy of the averaged intensity.

    transfer(omega), called once on the pulse's spectral support and the
    four band-edge offsets, yields (weights, t) blocks, t holding one row
    of transfer values on omega per member, as
    vitlab.spatial.ensemble_transfer does.  Detected intensity is the
    weighted sum of the member intensities.  Delays are taken from its
    centroid (first moment) and from its peak (quadratic interpolation
    around the maximum sample); the two can legitimately disagree for
    distorted pulses.  The output pulse is the member's field for a
    one-member ensemble, otherwise the square root of the intensity
    (member phases are dropped).  A row with |t| > 1 raises ValueError, a
    grid that fails a guard of the module docstring BandCoverageError.
    """
    n, h = pulse.n, pulse.n // 2
    spectrum = np.fft.ifft(np.asarray(pulse.samples, dtype=complex))
    magnitude = np.abs(spectrum)
    cols = np.flatnonzero(magnitude > SUPPORT_FLOOR * magnitude.max())
    if len(cols) == 0:
        raise ValueError("zero-energy pulse has no centroid")
    # signed frequency indices -n/2 .. n/2 - 1; the intensity's lie below their width
    q = (cols + h) % n - h
    nc = min(n, 1 << int(2 * (q.max() - q.min() + 1) - 1).bit_length())
    # in fft order the band runs from index n/2 (most negative) up to n/2 - 1
    edge_index = [h, (h + 1) % n, h - 1, h - 2]
    coarse, total, members = np.zeros(nc), 0.0, 0
    buf = np.empty((0, nc), dtype=complex)
    for weights, t in transfer(pulse.omega[np.concatenate((cols, edge_index))]):
        weights = np.asarray(weights, dtype=float)
        m = len(weights)
        if np.shape(t) != (m, len(cols) + 4):
            raise ValueError("each block needs one weight and one transfer row per member")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(t)):
            raise ValueError("transfer function must be finite over the pulse band")
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("|t| exceeds 1 somewhere in the band; the medium must be passive")
        edges = np.abs(t[:, -4:])
        if np.any(np.abs(edges[:, 0::2] - edges[:, 1::2]) > EDGE_FLATNESS):
            raise BandCoverageError("transfer function varies at the grid edge; widen the band")
        rows = spectrum[cols] * t[:, :-4]
        if m == 1:
            field = np.zeros(n, dtype=complex)
            field[cols] = rows[0]
            np.fft.fft(field, out=field)
        # one buffer of nc-sample rows, reused and transformed in place
        out = buf[:m] if len(buf) >= m else (buf := np.empty((m, nc), dtype=complex))
        out[:] = 0.0
        out[:, cols % nc] = rows
        np.fft.fft(out, axis=-1, out=out)
        sq = np.square(out.view(float), out=out.view(float))
        coarse += (weights @ sq).reshape(-1, 2).sum(1)
        total += weights.sum()
        members += m
    if not np.isclose(total, 1.0, atol=1e-12):
        raise ValueError("weights must be nonnegative and sum to 1")
    intensity = coarse if nc == n else np.fft.irfft(np.fft.rfft(coarse), n) * (n / nc)
    k = n // 16
    if max(intensity[:k].sum(), intensity[n - k:].sum()) > WRAP_FRACTION * intensity.sum():
        raise BandCoverageError("output reaches the ends of the time window; widen the span")

    t = pulse.times
    iin = np.abs(np.asarray(pulse.samples)) ** 2
    centroid = _centroid(t, intensity) - _centroid(t, iin)
    peak = _peak(t, intensity) - _peak(t, iin)
    energy = float(intensity.sum() / iin.sum())
    # interpolation can leave -1e-16 of the peak in the tails
    field = field if members == 1 else np.sqrt(np.maximum(intensity, 0.0)).astype(complex)
    return PropagationResult(centroid, peak, energy, SampledPulse(pulse.t0, pulse.dt, field))


def write_trace_csv(path, pulse):
    """Write a pulse trace as CSV columns time_us, re, im."""
    s = np.asarray(pulse.samples)
    # row by row: whole-column lists would add 1.5 MB to the peak of fig3
    write_csv(path, TRACE_COLUMNS,
              map(np.ndarray.tolist, np.column_stack((pulse.times * 1e6, s.real, s.imag))))


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
