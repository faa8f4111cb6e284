"""Command-line front end: spectra, pulses, synthetic scans, fits, recipes.

Every command reads physical constants from a JSON config (see
vitlab.config), takes frequencies in MHz and times in us on its flags,
and writes CSV or JSON only; plotting is someone else's job.

Exit codes: 0 success, 2 configuration or validation problem,
3 numerical non-convergence.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from vitlab import config as cfgmod
from vitlab.config import MHZ, NS, US
from vitlab.core import (
    Detunings,
    cooperativity_geometric,
    group_delay_analytic,
    group_velocity,
    resonant_transmission,
)
from vitlab.errors import ConvergenceError
from vitlab.fitting import (
    VIT_PARAMS,
    extract_transparency,
    fit_linear_weighted,
    fit_lorentzian,
    fit_vit_spectra,
    format_value_error,
    ratio_with_error,
    write_fit_json,
)
from vitlab.pulses import PulseSpec, make_gaussian_pulse, run_pulse_ensemble, write_trace_csv
from vitlab.spatial import (corrected_spectrum, corrected_transmission,
                            effective_cooperativity, ensemble_transfer)
from vitlab.synth import (
    ScanPlan,
    generate_scan,
    read_scan_csv,
    read_scan_sidecar,
    spectrum_from_records,
    write_scan_csv,
    write_scan_sidecar,
    Spectrum,
)


def _number(kind, ok=lambda v: True):
    """argparse type: a finite float for which ok holds; argparse names the flag."""
    def number(text):
        value = float(text)
        if math.isfinite(value) and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return number


FINITE = _number("a finite number")
POSITIVE = _number("a positive finite number", lambda v: v > 0)
NONNEGATIVE = _number("a nonnegative finite number", lambda v: v >= 0)
FRACTION = _number("a number in [0, 1]", lambda v: 0 <= v <= 1)


def _add_common(p):
    p.add_argument("--config", help="path to a JSON config document")
    p.add_argument("--eta", type=NONNEGATIVE, default=None,
                   help="antinode cooperativity; default f_eg * eta0 from the config")
    p.add_argument("--average", action="store_true",
                   help="average over the standing-wave coupling")
    p.add_argument("--side", action="store_true",
                   help="include the weak Zeeman-shifted side channel")
    p.add_argument("--jitter", action="store_true",
                   help="include resonator frequency jitter")


def _setup(args):
    conf = cfgmod.load_config(args.config)
    cfg = cfgmod.physical_config(conf)
    eta = args.eta
    if eta is None:
        eta = conf["f_eg"] * cooperativity_geometric(cfgmod.cavity_geometry(conf))
    corr = cfgmod.corrections(
        conf, average=args.average, side=args.side, jitter=args.jitter
    )
    return conf, cfg, eta, corr


def _probe_grid(args):
    if args.scan_to <= args.scan_from:
        raise ValueError("--scan-to must exceed --scan-from")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    return np.linspace(args.scan_from * MHZ, args.scan_to * MHZ, args.points)


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


def _write_spectrum_csv(fh, grid, trans, emis):
    writer = csv.writer(fh)
    writer.writerow(["delta_probe_MHz", "transmission", "cavity_emission"])
    for d, t, e in zip(grid, trans, emis):
        writer.writerow([repr(float(d) / MHZ), repr(float(t)), repr(float(e))])


def cmd_spectrum(args):
    conf, cfg, eta, corr = _setup(args)
    grid = _probe_grid(args)
    det = Detunings(grid, args.delta_cavity_mhz * MHZ)
    trans, emis = corrected_spectrum(cfg, eta, det, corr, args.emission_scale)
    fh = _open_out(args.out)
    try:
        _write_spectrum_csv(fh, grid, trans, emis)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _run_ensemble(cfg, eta, carrier, corr, pulse):
    """The correction ensemble's pulse result, the resonator at zero detuning."""
    det = Detunings(carrier + pulse.omega, 0.0)
    blocks = ensemble_transfer(cfg, eta, det, corr)
    return run_pulse_ensemble(pulse, ((w, t) for w, _, _, t in blocks))


def cmd_pulse(args):
    conf, cfg, eta, corr = _setup(args)
    if args.od is not None:
        cfg = replace(cfg, od=args.od)
    spec = PulseSpec(duration=args.tp_us * US, carrier_detuning=args.carrier_mhz * MHZ)
    pulse = make_gaussian_pulse(spec, n_samples=args.samples,
                                span=args.span_factor * spec.duration)
    result = _run_ensemble(cfg, eta, spec.carrier_detuning, corr, pulse)
    doc = {
        "delay_centroid_ns": result.delay_centroid / NS,
        "delay_peak_ns": result.delay_peak / NS,
        "energy_transmission": result.energy_transmission,
        "tau_max_analytic_ns": group_delay_analytic(cfg.od, cfg.kappa, eta) / NS,
        "resonant_transmission_analytic": resonant_transmission(cfg.od, eta),
    }
    if args.trace:
        write_trace_csv(args.trace, result.output)
        doc["trace"] = args.trace
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_synth(args):
    conf, cfg, eta, corr = _setup(args)
    grid = _probe_grid(args)
    plan = ScanPlan(
        delta_cavity_list=tuple(d * MHZ for d in args.delta_cavity_mhz),
        probe_grid=tuple(grid),
        photon_flux=args.flux,
        dwell=args.dwell_us * US,
        efficiency_d1=args.eff1,
        efficiency_d2=args.eff2,
        rng_seed=args.seed,
    )
    scans = generate_scan(cfg, eta, plan, corr, args.emission_scale)
    write_scan_csv(args.out + ".csv", scans)
    write_scan_sidecar(args.out + ".json", plan, cfg, eta, corr, args.emission_scale)
    return 0


def _scan_to_datasets(path, sidecar_path):
    scans = read_scan_csv(path)
    if sidecar_path is None:
        sidecar_path = os.path.splitext(path)[0] + ".json"
    plan = read_scan_sidecar(sidecar_path)
    return [(dcav, spectrum_from_records(records, plan)) for dcav, records in scans]


def _read_csv(path):
    """Header and finite float rows of a CSV file (see config.read_rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = cfgmod.read_rows(path, reader, len(header))
    return header, np.array(rows)


def _read_plain_spectrum(path):
    header, rows = _read_csv(path)
    if header[:2] != ["delta_probe_MHz", "transmission"]:
        raise ValueError(f"{path} is not a spectrum file (bad header)")
    e = rows[:, 2] if rows.shape[1] > 2 else None
    return Spectrum(delta_probe=rows[:, 0] * MHZ, transmission=rows[:, 1], emission=e)


def _read_datasets(path, sidecar_path, delta_cavity):
    """[(delta_cavity, Spectrum)] from a scan CSV (with sidecar) or a spectrum CSV."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    if header[1:2] == ["delta_cavity_MHz"]:
        return _scan_to_datasets(path, sidecar_path)
    return [(delta_cavity, _read_plain_spectrum(path))]


def cmd_fit(args):
    conf = cfgmod.load_config(args.config)
    cfg = cfgmod.physical_config(conf)
    corr = cfgmod.corrections(
        conf, average=args.average, side=args.side, jitter=args.jitter
    )
    if args.sidecar and len(args.input) > 1:
        raise ValueError("--sidecar needs a single --input; "
                         "each scan otherwise reads its own sidecar")

    if args.model == "linear":
        rows = np.vstack([_read_csv(path)[1] for path in args.input])
        if rows.shape[1] < 3:
            raise ValueError("--model linear needs columns x, y, sigma")
        fit = fit_linear_weighted(rows[:, 0], rows[:, 1], rows[:, 2])
        ratio, ratio_err = ratio_with_error(
            fit.intercept, fit.intercept_err, fit.slope, fit.slope_err,
            fit.cov_slope_intercept,
        )
        doc = {
            "slope": {"value": fit.slope, "error": fit.slope_err},
            "intercept": {"value": fit.intercept, "error": fit.intercept_err},
            "chi2": fit.chi2,
            "ratio_intercept_slope": {
                "value": ratio, "error": ratio_err,
                "formatted": format_value_error(ratio, ratio_err),
            },
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    dcav = args.delta_cavity_mhz * MHZ
    if args.model == "lorentzian":
        if len(args.input) > 1:
            raise ValueError("--model lorentzian fits one line: give a single --input")
        spec = _read_datasets(args.input[0], args.sidecar, dcav)[0][1]
        fit = fit_lorentzian(spec, on=args.on)
    else:
        datasets = [d for path in args.input
                    for d in _read_datasets(path, args.sidecar, dcav)]
        free = tuple(args.free.split(","))
        fit = fit_vit_spectra(datasets, cfg, free=free, corrections=corr)

    if args.out:
        write_fit_json(args.out, fit)
    else:
        print(json.dumps(fit.to_json_dict(), indent=2, sort_keys=True))
    return 0 if fit.converged else 3


def _manifest(out_dir, figure, files, parameters):
    doc = {"figure": figure, "files": sorted(files), "parameters": parameters}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _reproduce_fig2(args, conf, cfg):
    out_dir = args.out_dir
    eta = conf["f_eg"] * cooperativity_geometric(cfgmod.cavity_geometry(conf))
    corr = cfgmod.corrections(conf, average=True, side=True, jitter=True)
    grid = np.linspace(-8.0 * MHZ, 8.0 * MHZ, 321)
    panels = {
        "fig2A.csv": 1000.0 * cfg.gamma,   # resonator parked far away: bare line
        "fig2B.csv": 0.5 * MHZ,
        "fig2C.csv": -2.2 * MHZ,
        "fig2D.csv": 2.8 * MHZ,
    }
    files = []
    for name, dcav in panels.items():
        det = Detunings(grid, dcav)
        trans, emis = corrected_spectrum(cfg, eta, det, corr)
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            _write_spectrum_csv(fh, grid, trans, emis)
        files.append(name)
    params = {"eta": eta, "od": cfg.od,
              "delta_cavity_MHz": {k: v / MHZ for k, v in panels.items()},
              "corrections": "average+side+jitter"}
    return files, params


def _reproduce_fig3(args, conf, cfg):
    out_dir = args.out_dir
    cfg = replace(cfg, od=0.5)          # double-pass optical depth
    eta_eff_0 = 5.0                     # antinode value from the scan fits
    spec = PulseSpec(duration=1.73 * US)
    pulse = make_gaussian_pulse(spec)
    write_trace_csv(os.path.join(out_dir, "fig3_input.csv"), pulse)

    results = {}
    for label, jitter in (("no_jitter", False), ("with_jitter", True)):
        corr = cfgmod.corrections(conf, average=True, side=True, jitter=jitter)
        res = _run_ensemble(cfg, eta_eff_0, 0.0, corr, pulse)
        results[label] = res
        write_trace_csv(os.path.join(out_dir, f"fig3_output_{label}.csv"), res.output)

    path = 2.0 * cfg.length
    doc = {
        label: {
            "delay_centroid_ns": r.delay_centroid / NS,
            "delay_peak_ns": r.delay_peak / NS,
            "energy_transmission": r.energy_transmission,
            "velocity_centroid_m_per_s": group_velocity(r.delay_centroid, path),
            "velocity_peak_m_per_s": group_velocity(r.delay_peak, path),
        }
        for label, r in results.items()
    }
    doc["tau_max_analytic_ns"] = group_delay_analytic(cfg.od, cfg.kappa, eta_eff_0) / NS
    with open(os.path.join(out_dir, "fig3_delays.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files = ["fig3_input.csv", "fig3_output_no_jitter.csv",
             "fig3_output_with_jitter.csv", "fig3_delays.json"]
    params = {"od": 0.5, "eta_eff_0": eta_eff_0, "T_P_us": 1.73,
              "path_um": 2.0 * cfg.length / 1e-6}
    return files, params


def _reproduce_fig4(args, conf, cfg):
    out_dir = args.out_dir
    eta_model = conf["f_eg"] * cooperativity_geometric(cfgmod.cavity_geometry(conf))
    corr = cfgmod.corrections(conf, average=True)
    grid = np.linspace(-4.0 * MHZ, 4.0 * MHZ, 81)
    n_c_values = list(range(2, 23, 2))

    rows = []
    for i, n_c in enumerate(n_c_values):
        eta_eff = effective_cooperativity(eta_model, n_c)
        # high-eta spectra are shallow; generous dwell keeps every fit tame
        plan = ScanPlan(
            delta_cavity_list=(0.0,), probe_grid=tuple(grid),
            photon_flux=2.0e6, dwell=20e-3,
            rng_seed=args.seed + i,
        )
        scans = generate_scan(cfg, eta_eff, plan, corr)
        datasets = [(d, spectrum_from_records(r, plan)) for d, r in scans]
        fit = fit_vit_spectra(datasets, cfg, free=("eta_eff", "od", "scale_d2"),
                              corrections=corr)
        rows.append((n_c, fit.value("eta_eff"), fit.error("eta_eff")))

    with open(os.path.join(out_dir, "fig4_eta_eff.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_c", "eta_eff", "eta_eff_err"])
        for row in rows:
            writer.writerow([row[0], repr(row[1]), repr(row[2])])

    kept = [r for r in rows if r[0] > 2]
    fit = fit_linear_weighted([r[0] for r in kept], [r[1] for r in kept],
                              [r[2] for r in kept])
    ratio, ratio_err = ratio_with_error(
        fit.intercept, fit.intercept_err, fit.slope, fit.slope_err,
        fit.cov_slope_intercept,
    )
    ref_ratio, ref_err = ratio_with_error(5.0, 1.0, 3.7, 0.1)
    lin_doc = {
        "slope": {"value": fit.slope, "error": fit.slope_err},
        "intercept": {"value": fit.intercept, "error": fit.intercept_err},
        "chi2": fit.chi2,
        "model_prediction": eta_model,
        "ratio_intercept_slope": {
            "value": ratio, "error": ratio_err,
            "formatted": format_value_error(ratio, ratio_err),
        },
        "reported_reference_ratio": {
            "value": ref_ratio, "error": ref_err,
            "formatted": format_value_error(ref_ratio, ref_err),
        },
    }
    with open(os.path.join(out_dir, "fig4_linear_fit.json"), "w") as fh:
        json.dump(lin_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # transparency curve: measured regime, antinode eta_eff_0 = 5
    full = cfgmod.corrections(conf, average=True, side=True, jitter=True)
    res_det = Detunings(0.0, 0.0)
    with open(os.path.join(out_dir, "fig4_transparency.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_c", "theta"])
        for n_c in range(0, 11):
            t_prime = corrected_transmission(
                cfg, effective_cooperativity(5.0, n_c), res_det, full
            )
            theta, _ = extract_transparency(float(t_prime), cfg.od)
            writer.writerow([n_c, repr(float(theta))])

    files = ["fig4_eta_eff.csv", "fig4_linear_fit.json", "fig4_transparency.csv"]
    params = {"eta_eff_0_truth": eta_model, "n_c_values": n_c_values,
              "seed": args.seed, "linear_fit_uses": "n_c > 2"}
    return files, params


def cmd_reproduce(args):
    conf = cfgmod.load_config(args.config)
    cfg = cfgmod.physical_config(conf)
    os.makedirs(args.out_dir, exist_ok=True)
    recipe = {"fig2": _reproduce_fig2, "fig3": _reproduce_fig3,
              "fig4": _reproduce_fig4}[args.figure]
    files, params = recipe(args, conf, cfg)
    _manifest(args.out_dir, args.figure, files, params)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vitlab",
        description="Resonator-EIT spectra, pulse delays, synthetic scans and fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="deterministic two-channel spectrum CSV")
    _add_common(p)
    p.add_argument("--delta-cavity-mhz", type=FINITE, default=0.0)
    p.add_argument("--scan-from", type=FINITE, default=-8.0, help="MHz")
    p.add_argument("--scan-to", type=FINITE, default=8.0, help="MHz")
    p.add_argument("--points", type=int, default=161)
    p.add_argument("--emission-scale", type=POSITIVE, default=1.0)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pulse", help="propagate a Gaussian probe pulse")
    _add_common(p)
    p.add_argument("--tp-us", type=POSITIVE, required=True, help="intensity FWHM, us")
    p.add_argument("--od", type=NONNEGATIVE, default=None, help="override config od")
    p.add_argument("--carrier-mhz", type=FINITE, default=0.0)
    p.add_argument("--samples", type=int, default=2**14)
    p.add_argument("--span-factor", type=POSITIVE, default=16.0)
    p.add_argument("--trace", help="also write the output envelope CSV here")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_pulse)

    p = sub.add_parser("synth", help="Poisson-noise photon-counting scan")
    _add_common(p)
    p.add_argument("--delta-cavity-mhz", type=FINITE, nargs="+", required=True)
    p.add_argument("--scan-from", type=FINITE, default=-8.0)
    p.add_argument("--scan-to", type=FINITE, default=8.0)
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--flux", type=NONNEGATIVE, default=1e6, help="photons per second")
    p.add_argument("--dwell-us", type=POSITIVE, default=1000.0)
    p.add_argument("--eff1", type=FRACTION, default=1.0)
    p.add_argument("--eff2", type=FRACTION, default=1.0)
    p.add_argument("--emission-scale", type=POSITIVE, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix (.csv and .json)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit spectra or a linear trend")
    _add_common(p)
    p.add_argument("--model", choices=("lorentzian", "vit", "linear"), required=True)
    p.add_argument("--input", nargs="+", required=True,
                   help="scan or spectrum CSVs; vit fits them jointly, linear "
                        "pools their rows, lorentzian takes one")
    p.add_argument("--sidecar",
                   help="scan sidecar JSON for a single input (default: input .json)")
    p.add_argument("--free", default="eta_eff,od,scale_d2",
                   help=f"comma list from {','.join(VIT_PARAMS)}")
    p.add_argument("--on", choices=("absorbance", "transmission"),
                   default="absorbance", help="lorentzian fit domain")
    p.add_argument("--delta-cavity-mhz", type=FINITE, default=0.0,
                   help="resonator detuning for plain spectrum inputs")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="end-to-end recipe into a directory")
    p.add_argument("figure", choices=("fig2", "fig3", "fig4"))
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
