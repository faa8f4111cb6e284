import json

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from vitlab.config import MHZ, corrections
from vitlab.core import transmission
from vitlab.spatial import Corrections
from vitlab import synth
from vitlab.synth import (
    RECORD_FIELDS,
    SCAN_COLUMNS,
    ScanPlan,
    generate_scan,
    read_scan_csv,
    read_scan_sidecar,
    spectrum_from_records,
    write_scan_csv,
    write_scan_sidecar,
)

GRID = tuple(np.linspace(-3e6, 3e6, 31) * 2 * np.pi)


def _plan(seed=0, dwell=1e-3, flux=1e6):
    return ScanPlan(delta_cavity_list=(0.0,), probe_grid=GRID,
                    photon_flux=flux, dwell=dwell, rng_seed=seed)


def test_plan_validation():
    with pytest.raises(ValueError):
        ScanPlan(delta_cavity_list=(), probe_grid=GRID, photon_flux=1e6, dwell=1e-3)
    with pytest.raises(ValueError):
        ScanPlan(delta_cavity_list=(0.0,), probe_grid=GRID, photon_flux=-1, dwell=1e-3)
    with pytest.raises(ValueError):
        ScanPlan(delta_cavity_list=(0.0,), probe_grid=GRID, photon_flux=1e6,
                 dwell=1e-3, efficiency_d1=1.5)
    for flux, dwell in ((np.inf, 1e-3), (np.nan, 1e-3), (1e6, np.nan), (1e6, np.inf)):
        with pytest.raises(ValueError):
            ScanPlan(delta_cavity_list=(0.0,), probe_grid=GRID, photon_flux=flux,
                     dwell=dwell)
    # the seed feeds SeedSequence: a nonnegative integer, never a float
    with pytest.raises(ValueError):
        _plan(seed=-1)
    for seed in (np.nan, 1.0):
        with pytest.raises(TypeError):
            _plan(seed=seed)
    # the float fields are stored as floats and the seed as an int, and an integer
    # beyond a double's range fails
    assert type(_plan(flux=10**6, dwell=1).dwell) is float
    assert type(_plan(seed=np.uint64(2**64 - 1)).rng_seed) is int
    assert type(replace(_plan(), emission_scale=2).emission_scale) is float
    with pytest.raises(OverflowError):
        _plan(flux=10**400)
    # each detector's exposure flux * dwell * efficiency is finite and at
    # least MIN_EXPOSURE, or 0 on D2 alone: a scan without emission
    for change, detector in (({"photon_flux": 0}, "D1"), ({"efficiency_d1": 0}, "D1"),
                             ({"efficiency_d1": 5e-324}, "D1"), ({"efficiency_d2": 5e-324}, "D2"),
                             ({"photon_flux": 1e300, "dwell": 1e300}, "D1")):
        with pytest.raises(ValueError, match=f"detector {detector} has an exposure"):
            replace(_plan(), **change)
    assert replace(_plan(), efficiency_d2=0).efficiency_d2 == 0.0


class _Sized:
    """A stand-in detuning list that has a length and allocates nothing."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def test_plan_indices_fit_one_seed_word():
    # each scan and point index is one uint32 word of the point's SeedSequence
    for name in ("delta_cavity_list", "probe_grid"):
        assert len(getattr(replace(_plan(), **{name: _Sized(2**32 - 1)}), name)) == 2**32 - 1
        with pytest.raises(ValueError, match=f"{name} must hold fewer than 2\\*\\*32"):
            replace(_plan(), **{name: _Sized(2**32)})


def test_counts_beyond_poisson_range_rejected(cfg):
    # finite but absurd: 1e27 expected photons per point
    with pytest.raises(ValueError, match="flux"):
        generate_scan(cfg, 3.4, _plan(flux=1e30))
    with pytest.raises(ValueError, match="emission scale"):
        generate_scan(cfg, 3.4, replace(_plan(), emission_scale=1e30))


@pytest.mark.parametrize("scale", (0.0, -1.0, np.inf, np.nan))
def test_emission_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ValueError, match="emission_scale must be positive and finite"):
        replace(_plan(), emission_scale=scale)


def test_determinism(cfg):
    a = generate_scan(cfg, 3.4, _plan(seed=42))
    b = generate_scan(cfg, 3.4, _plan(seed=42))
    assert np.array_equal(a, b)


def test_point_streams_independent(cfg):
    # neighbouring points draw from unrelated streams, and changing the
    # seed changes everything
    recs = generate_scan(cfg, 3.4, _plan(seed=1))
    other = generate_scan(cfg, 3.4, _plan(seed=2))
    assert np.any(recs.counts_d1 != other.counts_d1)


def test_expected_counts_match_model(cfg):
    plan = _plan()
    recs = generate_scan(cfg, 3.4, plan)
    norm = plan.photon_flux * plan.dwell
    t = transmission(cfg, 3.4, np.asarray(GRID), 0.0)
    assert np.allclose(recs.expected_d1, norm * t, rtol=1e-12)


def test_poisson_moments(cfg):
    # one grid point, many repetitions: mean within 3 sigma, Fano ~ 1
    n_rep = 10_000
    counts = np.empty(n_rep)

    def record(seed):
        plan = replace(_plan(seed=seed), probe_grid=(GRID[15],))
        return generate_scan(cfg, 3.4, plan)[0]

    lam = record(0).expected_d1
    for seed in range(n_rep):
        counts[seed] = record(seed).counts_d1
    assert abs(counts.mean() - lam) < 3.0 * np.sqrt(lam / n_rep)
    fano = counts.var(ddof=1) / counts.mean()
    assert 0.97 < fano < 1.03


def test_expected_d1_monotone_in_eta(cfg):
    plan = _plan()
    res = []
    for eta in (0.5, 1.0, 2.0, 4.0, 8.0):
        recs = generate_scan(cfg, eta, plan)
        res.append(recs[15].expected_d1)  # two-photon resonance point
    assert all(a < b for a, b in zip(res, res[1:]))


def test_efficiencies_scale_expectations(cfg):
    plan = replace(_plan(), efficiency_d1=0.3, efficiency_d2=0.7)
    full = generate_scan(cfg, 3.4, _plan())
    cut = generate_scan(cfg, 3.4, plan)
    assert np.allclose(cut.expected_d1, 0.3 * full.expected_d1, rtol=1e-12)
    assert np.allclose(cut.expected_d2, 0.7 * full.expected_d2, rtol=1e-12)


def test_spectrum_from_records_sigmas(cfg):
    plan = _plan()
    recs = generate_scan(cfg, 3.4, plan)
    spec = spectrum_from_records(recs, plan)
    norm = plan.photon_flux * plan.dwell
    assert np.all(spec.sigma_transmission >= 1.0 / norm)  # floor at 1 count
    i = 5
    assert np.isclose(spec.transmission[i], recs[i].counts_d1 / norm, rtol=1e-12)


def test_scan_rows_follow_the_plan(cfg):
    # resonator detunings major, each row drawn from SeedSequence([seed, scan, point])
    plan = ScanPlan(delta_cavity_list=(0.5 * MHZ, -2.2 * MHZ, 0.5 * MHZ), probe_grid=GRID,
                    photon_flux=1e6, dwell=1e-3, rng_seed=9)
    recs = generate_scan(cfg, 3.4, plan)
    assert recs.dtype.names == tuple(RECORD_FIELDS.split(","))
    assert np.array_equal(recs.delta_probe, np.tile(GRID, 3))
    assert np.array_equal(recs.delta_cavity, np.repeat(plan.delta_cavity_list, len(GRID)))
    for scan, point in ((0, 0), (1, 7), (2, 30)):
        rec = recs[scan * len(GRID) + point]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([9, scan, point])))
        assert (rec.counts_d1, rec.counts_d2) == (rng.poisson(rec.expected_d1),
                                                  rng.poisson(rec.expected_d2))
    # each resonator detuning's rows are the spectrum at that detuning alone
    alone = generate_scan(cfg, 3.4, replace(plan, delta_cavity_list=(-2.2 * MHZ,)))
    np.testing.assert_allclose(recs.expected_d1[len(GRID):2 * len(GRID)],
                               alone.expected_d1, rtol=1e-15)


INDICES = st.integers(0, 2**32 - 1)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(0, 2**128 - 1), st.lists(st.tuples(INDICES, INDICES), min_size=1, max_size=4))
def test_seed_states_are_seed_sequences(seed, pairs):
    # the one-pass hash gives each (scan, point) the words SeedSequence gives PCG64
    scans, points = np.array(pairs, dtype=np.int64).T
    states = synth._seed_states(seed, scans, points)
    for j, (scan, point) in enumerate(pairs):
        expected = np.random.SeedSequence([seed, scan, point]).generate_state(4, np.uint64)
        assert np.array_equal(states[:, j], expected), (seed, scan, point)


@pytest.mark.parametrize("seed", (0, 2**32 + 5, 2**70 + 9))
def test_counts_are_the_per_point_streams(cfg, seed):
    # 3 x 201 points span two chunks of streams; od 2000 leaves D1 points of
    # zero expectation near resonance, and an --eff2 0 plan leaves D2 only zeros
    dense = replace(cfg, od=2000.0)
    grid = tuple(np.linspace(-300, 300, 201) * MHZ)
    plan = ScanPlan(delta_cavity_list=(0.5 * MHZ, -2.2 * MHZ, 0.0), probe_grid=grid,
                    photon_flux=1e6, dwell=1e-3, rng_seed=seed)
    for plan in (plan, replace(plan, efficiency_d2=0.0)):
        recs = generate_scan(dense, 3.4, plan)
        assert np.any(recs.expected_d1 == 0) and np.any(recs.expected_d1 > 10)
        reference = []
        for k, rec in enumerate(recs):
            scan, point = divmod(k, len(grid))
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, scan, point])))
            reference.append((rng.poisson(rec.expected_d1), rng.poisson(rec.expected_d2)))
        assert np.array_equal(np.array(reference).T, [recs.counts_d1, recs.counts_d2])
    assert not recs.expected_d2.any()


def test_scan_csv_round_trip(tmp_path, cfg):
    plan = ScanPlan(delta_cavity_list=(0.5 * MHZ, 0.0, -2.2 * MHZ), probe_grid=GRID,
                    photon_flux=1e6, dwell=1e-3, rng_seed=9)
    recs = generate_scan(cfg, 3.4, plan)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, recs)
    back = read_scan_csv(path)
    assert back.dtype.names == recs.dtype.names
    # the rows come back in their order, the detunings through MHz and back
    for name in ("delta_probe", "delta_cavity"):
        np.testing.assert_allclose(back[name], recs[name], rtol=1e-15, atol=1e-9)
    for name in ("counts_d1", "counts_d2", "expected_d1", "expected_d2"):
        assert np.array_equal(back[name], recs[name])


def test_sidecar_contents(tmp_path, cfg):
    plan = _plan(seed=5)
    path = tmp_path / "scan.json"
    write_scan_sidecar(path, replace(plan, corrections=Corrections(average=True)), cfg, 3.4)
    doc = json.loads(path.read_text())
    assert doc["plan"]["rng_seed"] == 5
    assert doc["physics"]["eta"] == 3.4
    assert doc["corrections"]["averaging_nodes"] == 64
    assert doc["corrections"]["jitter_nodes"] == 16
    assert "rng" in doc  # the noise recipe is spelled out for reproducers


def test_scan_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        read_scan_csv(bad)
    header = ("delta_probe_MHz,delta_cavity_MHz,counts_d1,counts_d2,"
              "expected_d1,expected_d2\n")
    for text in ("", header):
        bad.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            read_scan_csv(bad)
    # a short row, a non-numeric cell, a fractional count, a NaN: the
    # error names the file and the line
    good = "0.0,0.0,5,1,5.0,1.0\n"
    for row in ("0.1,0.0,5", "abc,0.0,5,1,5.0,1.0", "0.1,0.0,5.5,1,5.0,1.0",
                "0.1,0.0,5,1,nan,1.0"):
        bad.write_text(header + good + row + "\n")
        with pytest.raises(ValueError, match="bad.csv, line 3"):
            read_scan_csv(bad)


def test_scan_counts_are_exact_doubles(tmp_path):
    # 2**53 is the largest count a double holds exactly; one more is refused
    path = tmp_path / "big.csv"
    header = ",".join(SCAN_COLUMNS) + "\n"
    path.write_text(header + f"0.0,0.0,{2**53},1,5.0,1.0\n")
    records = read_scan_csv(path)
    assert records.counts_d1.dtype == np.int64 and records.counts_d1[0] == 2**53
    for count in (2**53 + 1, 10**19, 10**30):
        path.write_text(header + "0.0,0.0,5,1,5.0,1.0\n" + f"0.1,0.0,5,{count},5.0,1.0\n")
        with pytest.raises(ValueError, match=f"big.csv, line 3: .*got {count}"):
            read_scan_csv(path)


def test_sidecar_round_trip(tmp_path, cfg, conf):
    plan = ScanPlan(delta_cavity_list=(0.0, 0.5 * MHZ, -2.2 * MHZ), probe_grid=GRID,
                    photon_flux=2.5e6, dwell=20e-3, efficiency_d1=0.9,
                    efficiency_d2=0.35, rng_seed=7, emission_scale=0.3,
                    corrections=corrections(conf, average=True, side=True, jitter=True))
    path = tmp_path / "scan.json"
    write_scan_sidecar(path, plan, cfg, 3.4)
    # the plan's own scan, read back as a fit reads it
    write_scan_csv(tmp_path / "scan.csv", generate_scan(cfg, 3.4, plan))
    scans = read_scan_csv(tmp_path / "scan.csv")
    back = read_scan_sidecar(path, scans, cfg)
    # another scan is refused: a detuning missing, a probe grid cut short,
    # the rows in another order, or another resonator detuning
    other_dcav = scans.copy()
    other_dcav.delta_cavity[-1] = 2.8 * MHZ
    for other in (scans[:2 * len(GRID)], scans[:-1], scans[::-1], other_dcav):
        with pytest.raises(ValueError, match="scan.json.*probe grid"):
            read_scan_sidecar(path, other, cfg)
    # 0.6 MHz side shift and 0.2 MHz jitter come back as the same doubles
    assert back.corrections == plan.corrections
    # the sidecar holds MHz and us, so the rad/s and s values come back
    # through one unit conversion each way
    for name in ("delta_cavity_list", "probe_grid", "photon_flux", "dwell",
                 "efficiency_d1", "efficiency_d2"):
        np.testing.assert_allclose(getattr(back, name), getattr(plan, name),
                                   rtol=1e-15, atol=1e-9)
    assert back.rng_seed == plan.rng_seed
    assert back.emission_scale == plan.emission_scale
    assert len(back.probe_grid) == len(plan.probe_grid)

    doc = json.loads(path.read_text())
    # serialized now: the edits of doc below would reach these shallow copies.
    # Corrections a Corrections cannot hold (node counts other than the
    # rules', fractional nodes, weight above 1), true or false, which Python
    # would read as the numbers 1 and 0 (false stands for a 0 MHz detuning
    # in either list), and constants other than the config's
    probe_grid = list(doc["plan"]["probe_grid_MHz"])
    probe_grid[len(GRID) // 2] = False
    bad = [json.dumps(dict(doc, **{part: dict(doc[part], **fields)})) for part, fields in (
        ("corrections", {"averaging_nodes": 64.0}), ("corrections", {"side_weight": 2.0}),
        ("corrections", {"averaging_nodes": 8}), ("corrections", {"jitter_nodes": 4}),
        ("corrections", {"averaging_nodes": True}), ("plan", {"dwell_us": True}),
        ("plan", {"delta_cavity_MHz": [False, *doc["plan"]["delta_cavity_MHz"][1:]]}),
        ("plan", {"probe_grid_MHz": probe_grid}),
        ("physics", {"kappa_MHz": 0.5}), ("physics", {"length_um": "20"}))]
    # od and eta are what a fit estimates, so they may differ
    path.write_text(json.dumps(dict(doc, physics=dict(doc["physics"], od=0.9, eta=1.0))))
    assert read_scan_sidecar(path, scans, cfg).corrections == plan.corrections
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "physics"}))
    with pytest.raises(ValueError, match="scan.json.*'physics'"):
        read_scan_sidecar(path, scans, cfg)
    del doc["plan"]["dwell_us"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scan.json.*'dwell_us'"):
        read_scan_sidecar(path, scans, cfg)
    doc["plan"]["dwell_us"] = -1.0
    for text in ('{"plan": []}', '[1]', '{"plan": {"delta_cavity_MHz": "x"}}', '{"plan": ',
                 json.dumps(doc), *bad):
        path.write_text(text)
        with pytest.raises(ValueError, match="scan.json"):
            read_scan_sidecar(path, scans, cfg)


def test_sidecar_refuses_counts_the_plan_cannot_produce(tmp_path, cfg):
    plan = _plan(seed=2)
    path = tmp_path / "scan.json"
    write_scan_sidecar(path, plan, cfg, 3.4)
    records = generate_scan(cfg, 3.4, plan)
    e = records.expected_d2[5]
    ceiling = int(np.floor(e + 50.0 * np.sqrt(e) + 50.0))
    for name, value, message in (("counts_d2", ceiling, None),
                                 ("counts_d2", ceiling + 1, f"counts_d2 {ceiling + 1} "),
                                 ("expected_d1", -1.0, "expected_d1 reaches -1, below zero")):
        edited = records.copy()
        edited[name][5] = value
        if message is None:
            read_scan_sidecar(path, edited, cfg)
        else:
            with pytest.raises(ValueError, match=f"scan.json: .*{message}"):
                read_scan_sidecar(path, edited, cfg)
