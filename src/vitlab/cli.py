"""Command-line front end: spectra, pulses, synthetic scans, fits, recipes.

Every command reads physical constants from a JSON config (see
vitlab.config), takes frequencies in MHz and times in us on its flags,
and writes CSV or JSON only; plotting is someone else's job.

Exit codes: 0 success, 2 configuration or validation problem,
3 a fit that does not converge or cannot identify a parameter.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from vitlab import config as cfgmod
from vitlab import recipes
from vitlab.config import MAX_DETUNING_MHZ, MHZ, write_csv, write_csv_tables, write_json
from vitlab.core import group_delay_analytic, resonant_transmission
from vitlab.errors import BandCoverageError, RankDeficientError
from vitlab.fitting import (VIT_PARAMS, check_free, fit_linear_weighted, fit_lorentzian,
                            fit_vit_spectra, line_json_dict)
from vitlab.pulses import make_gaussian_pulse, write_trace_csv
from vitlab.spatial import corrected_spectrum
from vitlab.synth import (SCAN_COLUMNS, ScanPlan, Spectrum, generate_scan, read_scan_csv,
                          read_scan_sidecar, spectrum_from_records, write_scan_csv,
                          write_scan_sidecar)


def _number(kind, ok=lambda v: True, parse=float):
    """argparse type: a finite parse(text) for which ok holds; argparse names the flag."""
    def number(text):
        value = parse(text)
        if abs(value) < math.inf and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")
    return number


# the largest grids the CLI makes: 2**20 points under the full correction
# stack already take minutes (CHANGES.md records the cost at each bound), and
# far larger grids die in numpy's allocator with a traceback
MAX_POINTS = 2**20
MAX_SAMPLES = 2**22

FINITE = _number("a finite number")
POSITIVE = _number("a positive finite number", lambda v: v > 0)
NONNEGATIVE = _number("a nonnegative finite number", lambda v: v >= 0)
FRACTION = _number("a number in [0, 1]", lambda v: 0 <= v <= 1)
SEED = _number("a nonnegative integer", lambda v: v >= 0, int)
DETUNING = _number(f"a number of MHz within +-{MAX_DETUNING_MHZ:g}",
                   lambda v: abs(v) <= MAX_DETUNING_MHZ)
POINTS = _number(f"an integer from 2 to {MAX_POINTS}", lambda v: 2 <= v <= MAX_POINTS, int)
SAMPLES = _number(f"a power of two up to {MAX_SAMPLES}",
                  lambda v: 0 < v <= MAX_SAMPLES and v & (v - 1) == 0, int)

# what vitlab spectrum writes; a spectrum input has the first two, and the third if any
SPECTRUM_COLUMNS = ("delta_probe_MHz", "transmission", "cavity_emission")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e9 and -.5 as values, not as flags.

    argparse in Python 3.10 and 3.11 (checked on 3.11.7) takes only -1
    and -1.5 for negative numbers; here a dash, an optional dot and a
    digit start a value (no flag starts so). Where a newer argparse
    already has this pattern, the assignment changes nothing. The
    attribute is private: if a release renames it, the assignment does
    nothing, and test_negative_exponent_values_parse_as_numbers, which
    CI runs on every Python of its matrix, fails there.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_common(p, eta=True):
    p.add_argument("--config", help="path to a JSON config document")
    if eta:
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
        eta = cfgmod.model_cooperativity(conf)
    corr = cfgmod.corrections(conf, average=args.average, side=args.side, jitter=args.jitter)
    return conf, cfg, eta, corr


def _probe_grid(args):
    if args.scan_to <= args.scan_from:
        raise ValueError("--scan-to must exceed --scan-from")
    return np.linspace(args.scan_from * MHZ, args.scan_to * MHZ, args.points)


def cmd_spectrum(args):
    conf, cfg, eta, corr = _setup(args)
    grid = _probe_grid(args)
    trans, emis = corrected_spectrum(cfg, eta, grid, args.delta_cavity_mhz * MHZ, corr)
    write_csv(args.out, SPECTRUM_COLUMNS, (grid / MHZ, trans, args.emission_scale * emis))
    return 0


def cmd_pulse(args):
    conf, cfg, eta, corr = _setup(args)
    if args.od is not None:
        cfg = replace(cfg, od=args.od)
    grid = f"--tp-us {args.tp_us:g} --span-factor {args.span_factor:g} --samples {args.samples}"
    if not args.span_factor / 2 * args.tp_us < math.inf:
        raise ValueError(f"{grid}: half the time span is beyond a double's range in us")
    duration = args.tp_us * 1e-6
    try:
        pulse = make_gaussian_pulse(duration, n_samples=args.samples,
                                    span=args.span_factor * duration)
        result = recipes.pulse_ensemble(cfg, eta, pulse, corr, args.carrier_mhz * MHZ)
    except BandCoverageError as err:
        raise ValueError(f"{grid}: {err}") from None
    except ValueError as err:  # the flags given, else the config file and keys behind them
        path = args.config or os.environ.get(cfgmod.ENV_VAR)
        source = f"config file {path}" if path else "default config"
        keys = {"eta": "'f_eg', 'finesse', 'waist_um', 'wavelength_um'", "od": "'od'"}
        named = [f"--{k} {v:g}" if getattr(args, k) is not None else
                 f"{k} {v:g} ({source}: {keys[k]})" for k, v in (("eta", eta), ("od", cfg.od))]
        raise ValueError(f"--carrier-mhz {args.carrier_mhz:g}, {', '.join(named)}: {err}") from None
    doc = dict(recipes.delays(result),
               tau_max_analytic_ns=group_delay_analytic(cfg.od, cfg.kappa, eta) / 1e-9,
               resonant_transmission_analytic=resonant_transmission(cfg.od, eta))
    if args.trace:
        write_trace_csv({args.trace: result.output})
        doc["trace"] = args.trace
    write_json(args.out, doc)
    return 0


def cmd_synth(args):
    """Write a scan and its sidecar, or neither for a plan that no fit can read."""
    conf, cfg, eta, corr = _setup(args)
    grid = _probe_grid(args)
    try:
        plan = ScanPlan(delta_cavity_list=tuple(d * MHZ for d in args.delta_cavity_mhz),
                        probe_grid=tuple(grid), photon_flux=args.flux, dwell=args.dwell_us * 1e-6,
                        efficiency_d1=args.eff1, efficiency_d2=args.eff2, rng_seed=args.seed,
                        emission_scale=args.emission_scale, corrections=corr)
        records = generate_scan(cfg, eta, plan)
    except ValueError as err:  # the plan's rules, or the bound on expected counts
        raise ValueError(f"--flux {args.flux:g} --dwell-us {args.dwell_us:g} --eff1 {args.eff1:g} "
                         f"--eff2 {args.eff2:g} --emission-scale {args.emission_scale:g}: "
                         f"{err}") from None
    write_scan_csv(args.out + ".csv", records)
    write_scan_sidecar(args.out + ".json", plan, cfg, eta)
    return 0


def _read_input(path, args, cfg, flag_corrections):
    """The Spectrum of a scan or spectrum CSV, carrying the corrections it fits with.

    The header's names are compared as write_csv writes them.  A file
    whose first two are a scan's is a scan: it carries its sidecar's
    corrections (a flag they lack is an error naming the sidecar, and so
    are constants other than cfg's, and --delta-cavity-mhz).  Any other
    is a spectrum at --delta-cavity-mhz (default 0) carrying
    flag_corrections; a third column must be its cavity_emission.
    config.read_csv decodes both.
    """
    with open(path, "rb") as fh:
        names = fh.readline(4096).decode("utf-8", "replace").rstrip("\r\n").split(",")
    if names[:2] != list(SCAN_COLUMNS[:2]):
        if args.sidecar is not None:
            raise ValueError(f"--sidecar goes with a scan CSV, and {path} is not one")
        rows = np.array(cfgmod.read_csv(path, SPECTRUM_COLUMNS[:2]))
        if rows.shape[1] > 2 and names[2] != SPECTRUM_COLUMNS[2]:
            raise ValueError(f"{path}: its third column is {names[2]!r}, and a spectrum's "
                             f"third column is {SPECTRUM_COLUMNS[2]}")
        dcav = 0.0 if args.delta_cavity_mhz is None else args.delta_cavity_mhz * MHZ
        e = rows[:, 2] if rows.shape[1] > 2 else None
        return Spectrum(rows[:, 0] * MHZ, rows[:, 1], e, delta_cavity=dcav,
                        corrections=flag_corrections)
    if args.delta_cavity_mhz is not None:
        raise ValueError(f"--delta-cavity-mhz goes with a spectrum CSV, and {path} is a scan, "
                         "whose rows carry their resonator detunings")
    records = read_scan_csv(path)
    sidecar = args.sidecar or os.path.splitext(path)[0] + ".json"
    plan = read_scan_sidecar(sidecar, records, cfg)
    for flag, field in (("average", "average"), ("side", "side_weight"),
                        ("jitter", "jitter_fwhm")):
        if getattr(args, flag) and not getattr(plan.corrections, field):
            raise ValueError(f"--{flag} is given, but {sidecar} records the scan without it")
    return spectrum_from_records(records, plan)


def cmd_fit(args):
    for i, path in enumerate(args.input):
        if os.path.realpath(path) in map(os.path.realpath, args.input[:i]):
            raise ValueError(f"--input gives the file {path} twice; its data would count twice")
    if args.sidecar and len(args.input) > 1:
        raise ValueError("--sidecar needs a single --input; "
                         "each scan otherwise reads its own sidecar")

    # the flags a model does not read, given when not at their default of None or False
    vit_only = ("average", "side", "jitter", "free", "delta_cavity_mhz")
    unread = {"linear": ("config", "sidecar", "on", *vit_only), "lorentzian": vit_only,
              "vit": ("on",)}
    for flag in unread[args.model]:
        if getattr(args, flag) is not None and getattr(args, flag) is not False:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to a {args.model} "
                             f"fit of {' '.join(args.input)}")
    free = ("eta_eff", "od", "scale_d2")
    if args.free is not None:  # a vit fit's, checked before any input is read
        try:
            free = check_free(args.free.split(","))
        except ValueError as err:
            raise ValueError(f"--free {args.free}: {err}") from None

    if args.model == "linear":
        tables = [np.array(cfgmod.read_csv(path)) for path in args.input]
        for path, table in zip(args.input, tables):
            if table.shape[1] < 3:
                raise ValueError(f"--model linear needs columns x, y, sigma, "
                                 f"and {path} has {table.shape[1]}")
        x, y, sigma = np.vstack([table[:, :3] for table in tables]).T
        try:
            doc = line_json_dict(fit_linear_weighted(x, y, sigma))
        except ValueError as err:
            raise ValueError(f"--input {' '.join(args.input)}: {err}") from None
        write_json(args.out, doc)
        return 0

    conf = cfgmod.load_config(args.config)
    cfg = cfgmod.physical_config(conf)
    flags = cfgmod.corrections(conf, average=args.average, side=args.side, jitter=args.jitter)
    spectra = [_read_input(path, args, cfg, flags) for path in args.input]
    if args.model == "vit":
        try:
            fit = fit_vit_spectra(spectra, cfg, free=free)
        except ValueError as err:
            raise ValueError(f"--input {' '.join(args.input)}: {err}") from None
    else:
        lines = sum(len(np.unique(spectrum.delta_cavity)) for spectrum in spectra)
        if lines > 1:
            raise ValueError(f"--model lorentzian fits one line: --input {' '.join(args.input)} "
                             f"holds {lines} spectra, one per file and resonator detuning")
        try:
            fit = fit_lorentzian(spectra[0], on=args.on or "absorbance")
        except ValueError as err:
            raise ValueError(f"{args.input[0]}: {err}") from None

    write_json(args.out, fit.to_json_dict())
    return 0 if fit.converged else 3


def cmd_reproduce(args):
    conf = cfgmod.load_config(args.config)
    cfg = cfgmod.physical_config(conf)
    files = []

    def path(name):
        # only after the recipe returned, so a failed run leaves no directory
        os.makedirs(args.out_dir, exist_ok=True)
        files.append(name)
        return os.path.join(args.out_dir, name)

    if args.figure == "fig2":
        grid, spectra, params = recipes.fig2(conf, cfg)
        probe_mhz = grid / MHZ
        write_csv_tables((path(name), SPECTRUM_COLUMNS, (probe_mhz, trans, emis))
                         for name, (trans, emis) in spectra.items())
    elif args.figure == "fig3":
        pulse, results, summary, params = recipes.fig3(conf, cfg)
        write_trace_csv({path("fig3_input.csv"): pulse,
                         **{path(f"fig3_output_{label}.csv"): result.output
                            for label, result in results.items()}})
        write_json(path("fig3_delays.json"), summary)
    else:
        rows, line, curve, params = recipes.fig4(conf, cfg, args.seed)
        write_csv(path("fig4_eta_eff.csv"), ["n_c", "eta_eff", "eta_eff_err"], list(zip(*rows)))
        write_json(path("fig4_linear_fit.json"), line)
        write_csv(path("fig4_transparency.csv"), ["n_c", "theta"], list(zip(*curve)))
    write_json(os.path.join(args.out_dir, "manifest.json"),
               {"figure": args.figure, "files": sorted(files), "parameters": params})
    return 0


def build_parser():
    parser = _Parser(
        prog="vitlab",
        description="Resonator-EIT spectra, pulse delays, synthetic scans and fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="deterministic two-channel spectrum CSV")
    _add_common(p)
    p.add_argument("--delta-cavity-mhz", type=DETUNING, default=0.0)
    p.add_argument("--scan-from", type=DETUNING, default=-8.0, help="MHz")
    p.add_argument("--scan-to", type=DETUNING, default=8.0, help="MHz")
    p.add_argument("--points", type=POINTS, default=161)
    p.add_argument("--emission-scale", type=POSITIVE, default=1.0)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pulse", help="propagate a Gaussian probe pulse")
    _add_common(p)
    p.add_argument("--tp-us", type=POSITIVE, required=True, help="intensity FWHM, us")
    p.add_argument("--od", type=NONNEGATIVE, default=None, help="override config od")
    p.add_argument("--carrier-mhz", type=FINITE, default=0.0)
    p.add_argument("--samples", type=SAMPLES, default=2**14)
    p.add_argument("--span-factor", type=POSITIVE, default=16.0)
    p.add_argument("--trace", help="also write the output envelope CSV here")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_pulse)

    p = sub.add_parser("synth", help="Poisson-noise photon-counting scan")
    _add_common(p)
    p.add_argument("--delta-cavity-mhz", type=DETUNING, nargs="+", required=True)
    p.add_argument("--scan-from", type=DETUNING, default=-8.0)
    p.add_argument("--scan-to", type=DETUNING, default=8.0)
    p.add_argument("--points", type=POINTS, default=81)
    p.add_argument("--flux", type=NONNEGATIVE, default=1e6, help="photons per second")
    p.add_argument("--dwell-us", type=POSITIVE, default=1000.0)
    p.add_argument("--eff1", type=FRACTION, default=1.0)
    p.add_argument("--eff2", type=FRACTION, default=1.0)
    p.add_argument("--emission-scale", type=POSITIVE, default=1.0)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", required=True, help="output prefix (.csv and .json)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit spectra or a linear trend")
    _add_common(p, eta=False)
    p.add_argument("--model", choices=("lorentzian", "vit", "linear"), required=True)
    p.add_argument("--input", nargs="+", required=True,
                   help="scan or spectrum CSVs; vit fits them jointly, linear "
                        "pools their rows, lorentzian takes one")
    p.add_argument("--sidecar",
                   help="scan sidecar JSON for a single input (default: input .json)")
    p.add_argument("--free", help=f"vit: comma list from {','.join(VIT_PARAMS)} "
                                  "(default eta_eff,od,scale_d2)")
    p.add_argument("--on", choices=("absorbance", "transmission"),
                   help="lorentzian fit domain (default absorbance)")
    p.add_argument("--delta-cavity-mhz", type=DETUNING,
                   help="vit: resonator detuning of plain spectrum inputs (default 0)")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="end-to-end recipe into a directory")
    p.add_argument("figure", choices=("fig2", "fig3", "fig4"))
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=SEED, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankDeficientError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
