"""Dispersive pulse propagation through a frequency-domain transfer function.

A probe pulse is held as a complex baseband envelope on a uniform time
grid; the optical carrier never appears.  Propagation multiplies the
envelope spectrum by a caller-supplied transfer function t(omega), with
omega the offset from the carrier, so a carrier detuning is folded into
the transfer function by the caller.

Sign convention: the envelope is synthesized as sum of e^{-i omega t}
components (analysis via numpy ifft, synthesis via fft), so a medium
t(omega) = e^{i omega tau} shifts the pulse later by tau, and the group
delay is + d(arg t)/d omega, matching vitlab.core.group_delay_numeric.

Traces are read and written as CSV with columns time_us, re, im.
"""

import csv
from dataclasses import dataclass

import numpy as np

from vitlab.core import TWO_PI
from vitlab.errors import BandCoverageError

EDGE_FLATNESS = 1e-6


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian probe pulse: duration (s), carrier detuning (rad/s).

    duration is the intensity FWHM by default; width_convention="1/e2"
    reinterprets it as the full 1/e^2 intensity width.
    """

    duration: float
    carrier_detuning: float = 0.0
    shape: str = "gaussian"
    width_convention: str = "fwhm"

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.shape != "gaussian":
            raise ValueError(f"unsupported pulse shape '{self.shape}'")
        if self.width_convention not in ("fwhm", "1/e2"):
            raise ValueError("width_convention must be 'fwhm' or '1/e2'")

    @property
    def intensity_fwhm(self):
        if self.width_convention == "fwhm":
            return self.duration
        # full 1/e^2 width W: |E|^2 = exp(-8 t^2/W^2), FWHM = W sqrt(ln2/2)
        return self.duration * np.sqrt(np.log(2.0) / 2.0)

    @property
    def spectral_fwhm(self):
        """Intensity spectral FWHM in Hz (Gaussian time-bandwidth 2 ln2 / pi)."""
        return 2.0 * np.log(2.0) / (np.pi * self.intensity_fwhm)


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
    tau = spec.intensity_fwhm
    field = np.exp(-2.0 * np.log(2.0) * (t / tau) ** 2).astype(complex)
    return SampledPulse(t0=t[0], dt=dt, samples=field)


def propagate(pulse, medium):
    """Apply t(omega) to the envelope spectrum and return the output pulse.

    Exactly linear in the input.  Raises BandCoverageError when |t|
    still varies by more than 1e-6 between the outermost frequency
    samples of the grid, since spectral weight there would wrap around.
    """
    s = np.asarray(pulse.samples, dtype=complex)
    w = TWO_PI * np.fft.fftfreq(pulse.n, pulse.dt)
    tvals = np.asarray(medium(w), dtype=complex)
    if tvals.shape != w.shape:
        raise ValueError("medium must return one value per frequency sample")
    if not np.all(np.isfinite(tvals)):
        raise ValueError("transfer function must be finite over the pulse band")

    order = np.argsort(w)
    mag = np.abs(tvals[order])
    if abs(mag[0] - mag[1]) > EDGE_FLATNESS or abs(mag[-1] - mag[-2]) > EDGE_FLATNESS:
        raise BandCoverageError(
            "transfer function still varies at the grid edge; widen the band"
        )

    out = np.fft.fft(np.fft.ifft(s) * tvals)
    return SampledPulse(t0=pulse.t0, dt=pulse.dt, samples=out)


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


def _same_grid(p, q):
    return p.n == q.n and np.isclose(p.dt, q.dt, rtol=1e-12, atol=0) and np.isclose(
        p.t0, q.t0, rtol=0, atol=1e-9 * p.dt + abs(p.t0) * 1e-12
    )


def extract_delay(pulse_in, pulse_out):
    """(centroid delay, peak delay) between two pulses on one grid.

    Centroid is the first moment of |field|^2; peak uses quadratic
    interpolation around the maximum sample.  The two can legitimately
    disagree for distorted pulses; both are always reported.
    """
    if not _same_grid(pulse_in, pulse_out):
        raise ValueError("pulses must share the same time grid")
    t = pulse_in.times
    ii = np.abs(np.asarray(pulse_in.samples)) ** 2
    io = np.abs(np.asarray(pulse_out.samples)) ** 2
    return (_centroid(t, io) - _centroid(t, ii), _peak(t, io) - _peak(t, ii))


def attenuation(pulse_in, pulse_out):
    """Output/input energy ratio."""
    ein = float(np.sum(np.abs(np.asarray(pulse_in.samples)) ** 2))
    if ein == 0:
        raise ValueError("input pulse has zero energy")
    return float(np.sum(np.abs(np.asarray(pulse_out.samples)) ** 2)) / ein


def run_pulse(pulse, medium):
    """Propagate and summarize: delays, energy ratio, output pulse."""
    out = propagate(pulse, medium)
    centroid, peak = extract_delay(pulse, out)
    return PropagationResult(centroid, peak, attenuation(pulse, out), out)


def run_pulse_ensemble(pulse, media, weights):
    """Incoherent ensemble propagation: weight-averaged output intensity.

    Each medium represents one member of an ensemble (for instance one
    coupling class of the standing wave, one jitter offset); detected
    intensity is the weighted sum of the member intensities.  Delays
    and energy come from that averaged intensity; the returned output
    pulse carries its square root as a magnitude envelope (member phase
    information is deliberately dropped).
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(media):
        raise ValueError("one weight per medium required")
    if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0, atol=1e-12):
        raise ValueError("weights must be nonnegative and sum to 1")

    intensity = np.zeros(pulse.n)
    for medium, w in zip(media, weights):
        out = propagate(pulse, medium)
        intensity += w * np.abs(np.asarray(out.samples)) ** 2

    t = pulse.times
    iin = np.abs(np.asarray(pulse.samples)) ** 2
    centroid = _centroid(t, intensity) - _centroid(t, iin)
    peak = _peak(t, intensity) - _peak(t, iin)
    energy = float(intensity.sum() / iin.sum())
    avg = SampledPulse(pulse.t0, pulse.dt, np.sqrt(intensity).astype(complex))
    return PropagationResult(centroid, peak, energy, avg)


def write_trace_csv(path, pulse):
    """Write a pulse trace as CSV columns time_us, re, im."""
    s = np.asarray(pulse.samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_us", "re", "im"])
        for t, v in zip(pulse.times, s):
            writer.writerow([repr(float(t) * 1e6), repr(float(v.real)), repr(float(v.imag))])


def read_trace_csv(path):
    """Read a pulse trace written by write_trace_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["time_us", "re", "im"]:
            raise ValueError(f"{path} is not a pulse trace file (bad header)")
        rows = [(float(r[0]), float(r[1]), float(r[2])) for r in reader]
    if len(rows) < 2:
        raise ValueError(f"{path}: a trace needs at least two samples")
    t = np.array([r[0] for r in rows]) * 1e-6
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0):
        raise ValueError("trace grid is not uniform")
    samples = np.array([complex(r[1], r[2]) for r in rows])
    return SampledPulse(t0=t[0], dt=float(dt[0]), samples=samples)
