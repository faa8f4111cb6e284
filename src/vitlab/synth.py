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

generate_scan builds no such objects per point.  It derives every
point's SeedSequence state in one vectorised pass of numpy's hash and
seeds PCG64 from it with the two LCG steps of pcg_setseq_128_srandom_r;
one Generator takes each state in turn.  The states equal those
SeedSequence and PCG64 make, bit for bit, so any single point can still
be re-drawn in isolation with stock numpy.

File format: CSV with columns delta_probe_MHz, delta_cavity_MHz,
counts_d1, counts_d2, expected_d1, expected_d2, one row per point with
resonator detunings major, plus a JSON sidecar carrying the plan, the
physical constants and the seed.
"""

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import index

import numpy as np

from vitlab.config import MHZ, read_csv, read_json, write_csv, write_json
from vitlab.spatial import IDEAL, JITTER_NODES, MAX_CLASSES, Corrections, corrected_spectrum


# largest expected count per point drawn; numpy's Poisson sampler stops near 9e18
MAX_EXPECTED_COUNTS = 1e15
SCAN_COLUMNS = ("delta_probe_MHz", "delta_cavity_MHz", "counts_d1", "counts_d2",
                "expected_d1", "expected_d2")
# relative slack of read_scan_sidecar's check of expected counts against the plan
NORM_MARGIN = 1e-9
# the least nonzero exposure flux * dwell * efficiency: a count up to 2**53 over it is finite
MIN_EXPOSURE = 2.0**53 / np.finfo(float).max
# the sidecar's physics entries that must match the fit's config
PHYSICS_KEYS = ("gamma_MHz", "kappa_MHz", "wavelength_um", "length_um")
# the columns of a scan's record array, SCAN_COLUMNS with the detunings in rad/s
RECORD_FIELDS = "delta_probe,delta_cavity,counts_d1,counts_d2,expected_d1,expected_d2"
# numpy.random.SeedSequence's hash constants (a pool of 4 uint32 words, shift 16)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# points whose streams are seeded together; it bounds the Python ints held at once
STREAM_CHUNK = 512


@dataclass(frozen=True)
class ScanPlan:
    """Measurement plan for one synthetic run.

    delta_cavity_list: resonator detunings to scan (rad/s)
    probe_grid: probe detunings (rad/s)
    photon_flux: mean probe photons per second
    dwell: integration time per grid point (s)
    efficiency_d1, efficiency_d2: detection efficiencies in [0, 1]
    rng_seed: nonnegative integer
    emission_scale: gain on the emission D2 sees, positive and finite
    corrections: the apparatus corrections the scan is made with
    The flux, dwell, efficiencies and scale are stored as floats once checked,
    the seed as an int.
    Each detector's exposure flux * dwell * efficiency must be finite and at
    least MIN_EXPOSURE, so counts over it stay finite, or 0 on D2 alone.
    """

    delta_cavity_list: tuple
    probe_grid: tuple
    photon_flux: float
    dwell: float
    efficiency_d1: float = 1.0
    efficiency_d2: float = 1.0
    rng_seed: int = 0
    emission_scale: float = 1.0
    corrections: Corrections = IDEAL

    def __post_init__(self):
        if len(self.delta_cavity_list) == 0 or len(self.probe_grid) == 0:
            raise ValueError("plan needs at least one detuning on each axis")
        for name in ("delta_cavity_list", "probe_grid"):
            if len(getattr(self, name)) >= 2**32:  # each index is one uint32 seed word
                raise ValueError(f"{name} must hold fewer than 2**32 detunings")
        for name in ("dwell", "emission_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for eff in (self.efficiency_d1, self.efficiency_d2):
            if not 0.0 <= eff <= 1.0:
                raise ValueError("efficiencies must lie in [0, 1]")
        object.__setattr__(self, "rng_seed", index(self.rng_seed))
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a nonnegative integer")
        for name in ("photon_flux", "dwell", "efficiency_d1", "efficiency_d2", "emission_scale"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for detector, eff, zero in (("D1", self.efficiency_d1, ""),
                                    ("D2", self.efficiency_d2, ", or 0 for no emission")):
            exposure = self.photon_flux * self.dwell * eff
            if not (MIN_EXPOSURE <= exposure < np.inf or exposure == 0 and zero):
                raise ValueError(f"detector {detector} has an exposure of {exposure:.6g}, which "
                                 f"must be finite and at least {MIN_EXPOSURE:.6g}{zero}")


@dataclass(frozen=True)
class Spectrum:
    """Normalized spectra on probe detunings, with optional sigmas.

    delta_cavity is each point's resonator detuning, or one for every
    point (rad/s, default 0); a fit models them with corrections.  Array
    fields are stored as float arrays; a given sigma that is not
    positive and finite raises ValueError naming the field.
    """

    delta_probe: object
    transmission: object
    emission: object = None
    sigma_transmission: object = None
    sigma_emission: object = None
    delta_cavity: object = 0.0
    corrections: Corrections = IDEAL

    def __post_init__(self):
        for field in fields(self)[:-1]:  # the array fields: all but corrections
            value = getattr(self, field.name)
            if value is None:
                continue
            value = np.asarray(value, dtype=float)
            if field.name.startswith("sigma") and not np.all((value > 0) & (value < np.inf)):
                raise ValueError(f"{field.name} must be positive and finite")
            object.__setattr__(self, field.name, value)


def generate_scan(cfg, eta, plan):
    """Counts at every (resonator detuning, probe detuning) point, under plan.corrections.

    Returns a numpy record array with the RECORD_FIELDS columns, one row
    per point, resonator detunings major: row k is probe detuning
    k % len(grid) at resonator detuning k // len(grid), in plan order.
    Identical (cfg, eta, plan) always produce identical records.
    """
    grid = np.asarray(plan.probe_grid, dtype=float)
    dp = np.tile(grid, len(plan.delta_cavity_list))
    dc = np.repeat(np.asarray(plan.delta_cavity_list, dtype=float), len(grid))
    trans, emis = corrected_spectrum(cfg, eta, dp, dc, plan.corrections)
    with np.errstate(over="ignore"):  # an overflow reads inf, which the bound refuses
        e1 = plan.photon_flux * plan.dwell * plan.efficiency_d1 * trans
        e2 = plan.photon_flux * plan.dwell * plan.efficiency_d2 * (plan.emission_scale * emis)
    if max(e1.max(), e2.max()) > MAX_EXPECTED_COUNTS:
        raise ValueError(f"expected counts per point exceed {MAX_EXPECTED_COUNTS:.0e}: "
                         "lower the photon flux, dwell or emission scale")
    c1, c2 = np.empty((2, len(dp)), dtype=np.int64)
    # one Generator draws every point, from the state PCG64(SeedSequence(...)) would start at
    rng, pcg = np.random.Generator(np.random.PCG64(0)), {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, len(dp), STREAM_CHUNK):
        ks = np.arange(start, min(start + STREAM_CHUNK, len(dp)))
        states = _seed_states(plan.rng_seed, *np.divmod(ks, len(grid))).T.tolist()
        for k, (s0, s1, s2, s3) in zip(ks.tolist(), states):
            # pcg_setseq_128_srandom_r: from state 0, one LCG step, add the seed, one more
            inc = (s2 << 65 | s3 << 1 | 1) % 2**128
            pcg["state"], pcg["inc"] = ((inc + (s0 << 64 | s1)) * PCG_MULT + inc) % 2**128, inc
            rng.bit_generator.state = state
            c1[k] = rng.poisson(e1[k])
            c2[k] = rng.poisson(e2[k])
    return np.rec.fromarrays((dp, dc, c1, c2, e1, e2), names=RECORD_FIELDS)


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x, y):
    value = MIX_MULT_L * x - MIX_MULT_R * y
    return value ^ value >> 16


@lru_cache(maxsize=8)
def _hash_steps(n_words):
    """SeedSequence's hash constants over n_words (4 or more) entropy words, step by step.

    A step is a pair of uint32 columns, hashmix's xor and multiplier for
    each pool row: the pool's fill, one step per source word (in the first
    four, the source's own row takes a dummy, as its pool word is kept),
    then the eight output words.
    """
    a, b = (np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(count + 1)],
                     dtype=np.uint32)[:, None]
            for init, mult, count in ((INIT_A, MULT_A, 4 * n_words), (INIT_B, MULT_B, 8)))
    rows = np.arange(4)
    order = [rows, *(4 + 3 * src + rows - (rows >= src) for src in range(4)),
             *(4 * src + rows for src in range(4, n_words))]
    return [(a[i], a[i + 1]) for i in order] + [(b[:-1], b[1:])]


def _seed_states(seed, scans, points):
    """SeedSequence([seed, scan, point]).generate_state(4, np.uint64) for every index pair.

    Returns a (4, n) uint64 array, column j for (scans[j], points[j]).
    numpy's pool mixing runs on a (4, n) pool, one vector step per entropy
    word; the seed's words are shared, and each index, below 2**32, is one.
    """
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 2, 4), len(points)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words):len(words) + 2] = scans, points
    steps = _hash_steps(len(entropy))
    pool = _hashmix(entropy[:4], *steps[0])
    for src in range(4):
        mixed = _mix(pool, _hashmix(pool[src], *steps[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(4, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[src], *steps[1 + src]))
    state = _hashmix(np.tile(pool, (2, 1)), *steps[-1]).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def spectrum_from_records(records, plan):
    """Counts to normalized two-channel spectrum with Poisson sigmas.

    Count variance uses a floor of one count so zero-count points keep
    a finite weight.  A D2 the plan gives no exposure is an absent channel
    (emission None); ScanPlan gives D1 one, finite and nonzero.
    """
    norm1 = plan.photon_flux * plan.dwell * plan.efficiency_d1
    norm2 = plan.photon_flux * plan.dwell * plan.efficiency_d2
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
        corrections=plan.corrections,
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


def write_scan_sidecar(path, plan, cfg, eta):
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
            "averaging_nodes": plan.corrections.averaging_nodes,
            "side_weight": plan.corrections.side_weight,
            "side_shift_MHz": plan.corrections.side_shift / MHZ,
            "jitter_fwhm_MHz": plan.corrections.jitter_fwhm / MHZ,
            "jitter_nodes": plan.corrections.jitter_nodes,
        },
        "emission_scale": plan.emission_scale,
        "rng": "numpy PCG64, SeedSequence([rng_seed, scan_index, point_index]) per point",
    }
    write_json(path, meta)


def read_scan_sidecar(path, records, cfg):
    """The ScanPlan, corrections included, recorded by write_scan_sidecar.

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
    so does a plan ScanPlan refuses (a detector's exposure among them), a
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
        numbers = [*plan.values(), *plan["delta_cavity_MHz"], *plan["probe_grid_MHz"],
                   *corr.values(), scale]
        if any(isinstance(v, bool) for v in numbers):
            raise ValueError("true or false where a number belongs")
        for key, ok in ("averaging_nodes", (0, MAX_CLASSES)), ("jitter_nodes", (JITTER_NODES,)):
            if type(corr[key]) is not int or corr[key] not in ok:
                raise ValueError(f"{key} must be {' or '.join(map(str, ok))}")
        plan = ScanPlan(
            delta_cavity_list=tuple(d * MHZ for d in plan["delta_cavity_MHz"]),
            probe_grid=tuple(d * MHZ for d in plan["probe_grid_MHz"]),
            photon_flux=plan["photon_flux_per_s"],
            dwell=plan["dwell_us"] * 1e-6,
            efficiency_d1=plan["efficiency_d1"],
            efficiency_d2=plan["efficiency_d2"],
            rng_seed=plan["rng_seed"],
            emission_scale=scale,
            corrections=Corrections(
                average=corr["averaging_nodes"] > 0, side_weight=corr["side_weight"],
                side_shift=corr["side_shift_MHz"] * MHZ,
                jitter_fwhm=corr["jitter_fwhm_MHz"] * MHZ),
        )
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
    for name, bound in (("expected_d1", flux_dwell * plan.efficiency_d1),
                        ("expected_d2", flux_dwell * plan.efficiency_d2 * plan.emission_scale)):
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
    return plan
