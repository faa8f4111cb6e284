"""Synthetic photon-counting scans with reproducible Poisson shot noise.

A scan steps the probe detuning across a grid for each of several
resonator detunings and records counts on two detectors: D1 behind the
ensemble (transmission) and D2 on the resonator output (emission).
Expected counts are flux * dwell * efficiency * model; observed counts
are Poisson draws.  In memory a scan is one record array (RECORD_FIELDS,
detunings in rad/s), one row per point, as the CSV holds it.

Noise streams are derived per grid point from
numpy.random.SeedSequence([seed, scan_index, point_index]) feeding
PCG64, so results are identical whether points are generated serially
or in parallel, and the scheme is explicit enough to reproduce outside
this package.

File format: CSV with columns delta_probe_MHz, delta_cavity_MHz,
counts_d1, counts_d2, expected_d1, expected_d2, one row per point with
resonator detunings major, plus a JSON sidecar carrying the plan, the
physical constants and the seed.
"""

from dataclasses import dataclass, fields
from operator import index

import numpy as np

from vitlab.config import MHZ, read_csv, read_json, write_csv, write_json
from vitlab.spatial import IDEAL, Corrections, corrected_spectrum


# largest expected count per point drawn; numpy's Poisson sampler stops near 9e18
MAX_EXPECTED_COUNTS = 1e15
SCAN_COLUMNS = ("delta_probe_MHz", "delta_cavity_MHz", "counts_d1", "counts_d2",
                "expected_d1", "expected_d2")
# relative slack of read_scan_sidecar's check of expected counts against the plan
NORM_MARGIN = 1e-9
# the sidecar's physics entries that must match the fit's config
PHYSICS_KEYS = ("gamma_MHz", "kappa_MHz", "wavelength_um", "length_um")
# the columns of a scan's record array, SCAN_COLUMNS with the detunings in rad/s
RECORD_FIELDS = "delta_probe,delta_cavity,counts_d1,counts_d2,expected_d1,expected_d2"


@dataclass(frozen=True)
class ScanPlan:
    """Measurement plan for one synthetic run.

    delta_cavity_list: resonator detunings to scan (rad/s)
    probe_grid: probe detunings (rad/s)
    photon_flux: mean probe photons per second
    dwell: integration time per grid point (s)
    efficiency_d1, efficiency_d2: detection efficiencies in [0, 1]
    rng_seed: nonnegative integer
    The flux, dwell and efficiencies are stored as floats once checked.
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
        for name in ("photon_flux", "dwell", "efficiency_d1", "efficiency_d2"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class Spectrum:
    """Normalized spectra on probe detunings, with optional sigmas.

    delta_cavity is each point's resonator detuning, or one for every
    point (rad/s, default 0).  Given fields are stored as float arrays;
    a given sigma that is not positive and finite raises ValueError
    naming the field.
    """

    delta_probe: object
    transmission: object
    emission: object = None
    sigma_transmission: object = None
    sigma_emission: object = None
    delta_cavity: object = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            value = np.asarray(value, dtype=float)
            if field.name.startswith("sigma") and not np.all((value > 0) & (value < np.inf)):
                raise ValueError(f"{field.name} must be positive and finite")
            object.__setattr__(self, field.name, value)


def generate_scan(cfg, eta, plan, corrections=IDEAL, emission_scale=1.0):
    """Generate counts for every (resonator detuning, probe detuning) point.

    Returns a numpy record array with the RECORD_FIELDS columns, one row
    per point, resonator detunings major: row k is probe detuning
    k % len(grid) at resonator detuning k // len(grid), in plan order.
    Identical (cfg, eta, plan) always produce identical records.
    """
    grid = np.asarray(plan.probe_grid, dtype=float)
    dp = np.tile(grid, len(plan.delta_cavity_list))
    dc = np.repeat(np.asarray(plan.delta_cavity_list, dtype=float), len(grid))
    trans, emis = corrected_spectrum(cfg, eta, dp, dc, corrections, emission_scale)
    e1 = plan.photon_flux * plan.dwell * plan.efficiency_d1 * trans
    e2 = plan.photon_flux * plan.dwell * plan.efficiency_d2 * emis
    if max(e1.max(), e2.max()) > MAX_EXPECTED_COUNTS:
        raise ValueError(f"expected counts per point exceed {MAX_EXPECTED_COUNTS:.0e}: "
                         "lower the photon flux, dwell or emission scale")
    c1, c2 = np.empty((2, len(dp)), dtype=np.int64)
    for k in range(len(dp)):
        scan, point = divmod(k, len(grid))
        rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, scan, point]))
        c1[k] = rng.poisson(e1[k])
        c2[k] = rng.poisson(e2[k])
    return np.rec.fromarrays((dp, dc, c1, c2, e1, e2), names=RECORD_FIELDS)


def spectrum_from_records(records, plan):
    """Counts to normalized two-channel spectrum with Poisson sigmas.

    Count variance uses a floor of one count so zero-count points keep
    a finite weight.  A D2 the plan gives no counts is an absent channel
    (emission None); D1 must have counts.
    """
    norm1 = plan.photon_flux * plan.dwell * plan.efficiency_d1
    norm2 = plan.photon_flux * plan.dwell * plan.efficiency_d2
    if norm1 == 0:
        raise ValueError("plan normalization of D1 is zero; cannot form a spectrum")
    c1 = records.counts_d1.astype(float)
    emission = sigma_emission = None
    if norm2 > 0:
        c2 = records.counts_d2.astype(float)
        emission, sigma_emission = c2 / norm2, np.sqrt(np.maximum(c2, 1.0)) / norm2
    return Spectrum(
        delta_probe=records.delta_probe.copy(),
        transmission=c1 / norm1,
        emission=emission,
        sigma_transmission=np.sqrt(np.maximum(c1, 1.0)) / norm1,
        sigma_emission=sigma_emission,
        delta_cavity=records.delta_cavity.copy(),
    )


def write_scan_csv(path, records):
    """Write generate_scan's records, one row each; detunings go out in MHz."""
    write_csv(path, SCAN_COLUMNS, (records.delta_probe / MHZ, records.delta_cavity / MHZ,
                                   records.counts_d1, records.counts_d2,
                                   records.expected_d1, records.expected_d2))


def _count(text):
    value = int(text)
    # above 2**53 a count is no longer an exact double (nor always an int64)
    if not 0 <= value <= 2**53:
        raise ValueError(f"counts must be integers in [0, 2**53], got {value}")
    return value


def read_scan_csv(path):
    """Read a scan CSV back into generate_scan's record array, rows in file order.

    Count cells must be integers in [0, 2**53].
    """
    rows = read_csv(path, SCAN_COLUMNS, ((2, _count), (3, _count)))
    dp, dcav, c1, c2, e1, e2 = map(np.array, list(zip(*rows))[:len(SCAN_COLUMNS)])
    return np.rec.fromarrays((dp * MHZ, dcav * MHZ, c1, c2, e1, e2), names=RECORD_FIELDS)


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


def read_scan_sidecar(path, records, cfg):
    """The (ScanPlan, Corrections) recorded by write_scan_sidecar.

    Values the sidecar holds in SI come back as the same doubles; those
    it holds in MHz or us (frequencies, dwell) pass one unit conversion
    each way and may come back one ulp off (about a tenth of frequencies,
    a third of dwells).

    records, read_scan_csv's, are checked against the plan: their
    detuning columns must be those generate_scan makes of it, row for
    row and double for double; an expected count above flux * dwell *
    efficiency of its detector (times the emission scale on D2), by more
    than NORM_MARGIN relative, cannot come from the model, and raises
    ValueError naming the sidecar;
    so does a zero flux * dwell * efficiency_d1, which leaves nothing to
    normalise D1 by (a zero on D2 makes a scan without emission), a
    negative expected count, and an observed count above e + 50 sqrt(e)
    + 50 with e its expected count, which a Poisson draw reaches with
    probability below 1e-150 (Chernoff bound), whatever e.
    The recorded linewidths, wavelength and length must equal cfg's,
    written as write_scan_sidecar writes them (od and eta are what a fit
    estimates, so they are not compared); a mismatch raises ValueError
    naming the sidecar, the key and both values.
    """
    meta = read_json(path)
    try:
        plan, corr, scale = meta["plan"], meta["corrections"], meta["emission_scale"]
        recorded = {key: meta["physics"][key] for key in PHYSICS_KEYS}
        if any(isinstance(v, bool) for v in [*plan.values(), *corr.values(), scale]):
            raise ValueError("true or false where a number belongs")
        if not 0 < scale < np.inf:
            raise ValueError("emission_scale must be positive and finite")
        scale = float(scale)
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
    except (AttributeError, TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{path}: malformed sidecar ({err})") from None
    expected = _physics(cfg, None)
    for key in PHYSICS_KEYS:
        if recorded[key] != expected[key]:
            raise ValueError(f"{path}: the scan was made with {key} {recorded[key]!r}, "
                             f"and the config gives {expected[key]!r}")
    grid, dcavs = np.asarray(plan.probe_grid), plan.delta_cavity_list
    if not (np.array_equal(records.delta_probe, np.tile(grid, len(dcavs)))
            and np.array_equal(records.delta_cavity, np.repeat(dcavs, len(grid)))):
        raise ValueError(f"{path}: its plan's resonator detunings and probe grid "
                         "are not the scan's")
    flux_dwell = plan.photon_flux * plan.dwell * (1.0 + NORM_MARGIN)
    if flux_dwell * plan.efficiency_d1 == 0:
        raise ValueError(f"{path}: its flux, dwell and efficiency give detector D1 no counts; "
                         "cannot form a spectrum")
    for name, bound in (("expected_d1", flux_dwell * plan.efficiency_d1),
                        ("expected_d2", flux_dwell * plan.efficiency_d2 * scale)):
        worst = records[name].max()
        if worst > bound:
            raise ValueError(f"{path}: its flux, dwell and efficiencies allow {name} up to "
                             f"{bound:.6g} per point, and the scan reaches {worst:.6g}")
    for counts, name in (("counts_d1", "expected_d1"), ("counts_d2", "expected_d2")):
        e = records[name]
        if e.min() < 0:
            raise ValueError(f"{path}: the scan's {name} reaches {e.min():.6g}, below zero")
        bound = e + 50.0 * np.sqrt(e) + 50.0
        over = np.flatnonzero(records[counts] > bound)
        if over.size:
            i = over[0]
            raise ValueError(f"{path}: its plan cannot produce {counts} {records[counts][i]} "
                             f"at probe detuning {records.delta_probe[i] / MHZ:.6g} MHz and "
                             f"resonator detuning {records.delta_cavity[i] / MHZ:.6g} MHz, "
                             f"where {name} is {e[i]:.6g} (at most {bound[i]:.6g})")
    return plan, corr
