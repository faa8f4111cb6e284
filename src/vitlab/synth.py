"""Synthetic photon-counting scans with reproducible Poisson shot noise.

A scan steps the probe detuning across a grid for each of several
resonator detunings and records counts on two detectors: D1 behind the
ensemble (transmission) and D2 on the resonator output (emission).
Expected counts are flux * dwell * efficiency * model; observed counts
are Poisson draws.

Noise streams are derived per grid point from
numpy.random.SeedSequence([seed, scan_index, point_index]) feeding
PCG64, so results are identical whether points are generated serially
or in parallel, and the scheme is explicit enough to reproduce outside
this package.

File format: CSV with columns delta_probe_MHz, delta_cavity_MHz,
counts_d1, counts_d2, expected_d1, expected_d2, plus a JSON sidecar
carrying the plan, the physical constants and the seed.
"""

import json
from dataclasses import dataclass
from operator import index

import numpy as np

from vitlab.config import MHZ, read_csv, write_csv, write_json
from vitlab.spatial import IDEAL, Corrections, corrected_spectrum


# largest expected count per point drawn; numpy's Poisson sampler stops near 9e18
MAX_EXPECTED_COUNTS = 1e15
SCAN_COLUMNS = ("delta_probe_MHz", "delta_cavity_MHz", "counts_d1", "counts_d2",
                "expected_d1", "expected_d2")
# relative slack of read_scan_sidecar's check of expected counts against the plan
NORM_MARGIN = 1e-9
# the sidecar's physics entries that must match the fit's config
PHYSICS_KEYS = ("gamma_MHz", "kappa_MHz", "wavelength_um", "length_um")
# the columns of one scan's record array (probe detuning in rad/s)
RECORD_FIELDS = "delta_probe,counts_d1,counts_d2,expected_d1,expected_d2"


@dataclass(frozen=True)
class ScanPlan:
    """Measurement plan for one synthetic run.

    delta_cavity_list: resonator detunings to scan (rad/s)
    probe_grid: probe detunings (rad/s)
    photon_flux: mean probe photons per second
    dwell: integration time per grid point (s)
    efficiency_d1, efficiency_d2: detection efficiencies in [0, 1]
    rng_seed: nonnegative integer
    """

    delta_cavity_list: tuple
    probe_grid: tuple
    photon_flux: float
    dwell: float
    efficiency_d1: float = 1.0
    efficiency_d2: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if len(self.delta_cavity_list) == 0 or len(self.probe_grid) == 0:
            raise ValueError("plan needs at least one detuning on each axis")
        if not 0 < self.dwell < np.inf:
            raise ValueError("dwell must be positive and finite")
        if not 0 <= self.photon_flux < np.inf:
            raise ValueError("photon flux must be nonnegative and finite")
        for eff in (self.efficiency_d1, self.efficiency_d2):
            if not 0.0 <= eff <= 1.0:
                raise ValueError("efficiencies must lie in [0, 1]")
        if index(self.rng_seed) < 0:
            raise ValueError("rng_seed must be a nonnegative integer")


@dataclass(frozen=True)
class Spectrum:
    """Normalized spectra on a probe-detuning grid, with optional sigmas."""

    delta_probe: object
    transmission: object
    emission: object = None
    sigma_transmission: object = None
    sigma_emission: object = None


def _point_rng(seed, scan_index, point_index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, scan_index, point_index]))
    )


def generate_scan(cfg, eta, plan, corrections=IDEAL, emission_scale=1.0):
    """Generate counts for every (resonator detuning, probe detuning) point.

    Returns a list of (delta_cavity, records) in plan order, records a
    numpy record array with the RECORD_FIELDS columns, one row per probe
    detuning.  Identical (cfg, eta, plan) always produce identical records.
    """
    grid = np.asarray(plan.probe_grid, dtype=float)
    out = []
    for i, dcav in enumerate(plan.delta_cavity_list):
        trans, emis = corrected_spectrum(cfg, eta, grid, float(dcav), corrections,
                                         emission_scale)
        e1 = plan.photon_flux * plan.dwell * plan.efficiency_d1 * trans
        e2 = plan.photon_flux * plan.dwell * plan.efficiency_d2 * emis
        if max(e1.max(), e2.max()) > MAX_EXPECTED_COUNTS:
            raise ValueError(f"expected counts per point exceed {MAX_EXPECTED_COUNTS:.0e}: "
                             "lower the photon flux, dwell or emission scale")
        c1 = np.empty(len(grid), dtype=np.int64)
        c2 = np.empty(len(grid), dtype=np.int64)
        for j in range(len(grid)):
            rng = _point_rng(plan.rng_seed, i, j)
            c1[j] = rng.poisson(e1[j])
            c2[j] = rng.poisson(e2[j])
        out.append((float(dcav), np.rec.fromarrays((grid, c1, c2, e1, e2),
                                                   names=RECORD_FIELDS)))
    return out


def spectrum_from_records(records, plan):
    """Counts to normalized two-channel spectrum with Poisson sigmas.

    Count variance uses a floor of one count so zero-count points keep
    a finite weight.
    """
    norm1 = plan.photon_flux * plan.dwell * plan.efficiency_d1
    norm2 = plan.photon_flux * plan.dwell * plan.efficiency_d2
    if norm1 <= 0 or norm2 <= 0:
        raise ValueError("plan normalization is zero; cannot form a spectrum")
    c1 = records.counts_d1.astype(float)
    c2 = records.counts_d2.astype(float)
    return Spectrum(
        delta_probe=records.delta_probe.copy(),
        transmission=c1 / norm1,
        emission=c2 / norm2,
        sigma_transmission=np.sqrt(np.maximum(c1, 1.0)) / norm1,
        sigma_emission=np.sqrt(np.maximum(c2, 1.0)) / norm2,
    )


def write_scan_csv(path, scans):
    """Write generate_scan output; detunings go out in MHz."""
    rows = np.concatenate([records for _, records in scans])
    dcav = np.repeat([float(d) / MHZ for d, _ in scans], [len(r) for _, r in scans])
    write_csv(path, SCAN_COLUMNS, (rows["delta_probe"] / MHZ, dcav, rows["counts_d1"],
                                   rows["counts_d2"], rows["expected_d1"], rows["expected_d2"]))


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"counts must be nonnegative, got {value}")
    return value


def read_scan_csv(path):
    """Read a scan CSV back into (delta_cavity, records) groups, in file order.

    Count cells must be nonnegative integers.
    """
    rows = read_csv(path, SCAN_COLUMNS, ((2, _count), (3, _count)))
    dp, dcav, c1, c2, e1, e2 = map(np.array, list(zip(*rows))[:len(SCAN_COLUMNS)])
    records = np.rec.fromarrays((dp * MHZ, c1, c2, e1, e2), names=RECORD_FIELDS)
    _, first, group = np.unique(dcav, return_index=True, return_inverse=True)
    return [(float(dcav[first[k]]) * MHZ, records[group == k]) for k in np.argsort(first)]


def _physics(cfg, eta):
    """The sidecar's physics block: the constants in laboratory units, and eta."""
    return {"gamma_MHz": cfg.gamma / MHZ, "kappa_MHz": cfg.kappa / MHZ,
            "wavelength_um": cfg.wavelength * 1e6, "od": cfg.od,
            "length_um": cfg.length * 1e6, "eta": eta}


def write_scan_sidecar(path, plan, cfg, eta, corrections=IDEAL, emission_scale=1.0):
    """JSON sidecar recording everything needed to regenerate a scan."""
    meta = {
        "plan": {
            "delta_cavity_MHz": [d / MHZ for d in plan.delta_cavity_list],
            "probe_grid_MHz": [d / MHZ for d in np.asarray(plan.probe_grid)],
            "photon_flux_per_s": plan.photon_flux,
            "dwell_us": plan.dwell * 1e6,
            "efficiency_d1": plan.efficiency_d1,
            "efficiency_d2": plan.efficiency_d2,
            "rng_seed": plan.rng_seed,
        },
        "physics": _physics(cfg, eta),
        "corrections": {
            "averaging_nodes": corrections.averaging_nodes,
            "side_weight": corrections.side_weight,
            "side_shift_MHz": corrections.side_shift / MHZ,
            "jitter_fwhm_MHz": corrections.jitter_fwhm / MHZ,
            "jitter_nodes": corrections.jitter_nodes,
        },
        "emission_scale": emission_scale,
        "rng": "numpy PCG64, SeedSequence([rng_seed, scan_index, point_index]) per point",
    }
    write_json(path, meta)


def read_scan_sidecar(path, scans, cfg):
    """The (ScanPlan, Corrections) recorded by write_scan_sidecar, doubles unchanged.

    scans, read_scan_csv's groups, are checked against the plan: an
    expected count above flux * dwell * efficiency of its detector
    (times the emission scale on D2), by more than NORM_MARGIN relative,
    cannot come from the model, and raises ValueError naming the sidecar;
    so does a zero flux * dwell * efficiency, which leaves nothing to
    normalise the counts by.
    The recorded linewidths, wavelength and length must equal cfg's,
    written as write_scan_sidecar writes them (od and eta are what a fit
    estimates, so they are not compared); a mismatch raises ValueError
    naming the sidecar, the key and both values.
    """
    with open(path) as fh:
        try:
            meta = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"sidecar {path} is not valid JSON: {err}") from None
    try:
        plan, corr, scale = meta["plan"], meta["corrections"], meta["emission_scale"]
        recorded = {key: meta["physics"][key] for key in PHYSICS_KEYS}
        if any(isinstance(v, bool) for v in [*plan.values(), *corr.values(), scale]):
            raise ValueError("true or false where a number belongs")
        if not 0 < scale < np.inf:
            raise ValueError("emission_scale must be positive and finite")
        plan = ScanPlan(
            delta_cavity_list=tuple(d * MHZ for d in plan["delta_cavity_MHz"]),
            probe_grid=tuple(d * MHZ for d in plan["probe_grid_MHz"]),
            photon_flux=plan["photon_flux_per_s"],
            dwell=plan["dwell_us"] * 1e-6,
            efficiency_d1=plan["efficiency_d1"],
            efficiency_d2=plan["efficiency_d2"],
            rng_seed=plan["rng_seed"],
        )
        corr = Corrections(
            averaging_nodes=corr["averaging_nodes"], side_weight=corr["side_weight"],
            side_shift=corr["side_shift_MHz"] * MHZ, jitter_fwhm=corr["jitter_fwhm_MHz"] * MHZ,
            jitter_nodes=corr["jitter_nodes"])
    except KeyError as err:
        raise ValueError(f"{path}: sidecar lacks key {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed sidecar ({err})") from None
    expected = _physics(cfg, None)
    for key in PHYSICS_KEYS:
        if recorded[key] != expected[key]:
            raise ValueError(f"{path}: the scan was made with {key} {recorded[key]!r}, "
                             f"and the config gives {expected[key]!r}")
    flux_dwell = plan.photon_flux * plan.dwell * (1.0 + NORM_MARGIN)
    for name, bound in (("expected_d1", flux_dwell * plan.efficiency_d1),
                        ("expected_d2", flux_dwell * plan.efficiency_d2 * scale)):
        if bound == 0:
            raise ValueError(f"{path}: its flux, dwell and efficiency give detector "
                             f"{name[-2:].upper()} no counts; cannot form a spectrum")
        worst = max((records[name].max() for _, records in scans), default=0.0)
        if worst > bound:
            raise ValueError(f"{path}: its flux, dwell and efficiencies allow {name} up to "
                             f"{bound:.6g} per point, and the scan reaches {worst:.6g}")
    return plan, corr
