"""Run configuration: flat JSON documents in laboratory units.

Configs hold frequencies in ordinary MHz and lengths in um;
physical_config converts them to the rad/s and meters used downstream.
SCHEMA names every key with its default and its closed range, in MHz
for *_MHz keys and in meters for *_um keys.  A config file may list any
subset of the keys; missing keys take their defaults.  Unknown keys
are rejected outright rather than silently ignored.

Resolution order for the default document: explicit path argument,
then the VIT_LAB_CONFIG environment variable, then the defaults alone.
read_json and read_csv read every outside file, each naming it in its
ValueError; write_csv_tables and write_json write every CSV and JSON
file.  write_csv_tables writes tables of one row count in lockstep,
CSV_BLOCK_ROWS rows of every file at a time: a column object that
several columns share is formatted once per block, and so is an array
block of one bit pattern; write_csv is its one-table call.
"""

import csv
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack, nullcontext
from itertools import chain
from operator import le

from vitlab.core import CavityGeometry, PhysicalConfig, TWO_PI, cooperativity_geometric
from vitlab.spatial import JITTER_NODES, SIGMA_PER_FWHM, Corrections

MHZ = TWO_PI * 1e6    # MHz -> rad/s: the only unit constant, the rest are powers of ten
# the largest detuning read from outside (flags, *_MHz keys and cells): past
# about 1.4e301 MHz a difference of two detunings overflows
MAX_DETUNING_MHZ = 1e300
# the narrowest gamma_MHz and kappa_MHz, about 1.3e-7: core's 2 Delta/gamma and
# 2 (Delta - delta)/kappa stay below 1e308 (room for rounding) with probe, resonator,
# side shift and jitter FWHM at the bound, and the widest jitter offset: sqrt(2) sigma
# times the largest of JITTER_NODES Hermite zeros, under sqrt(2 n + 1) (Szego): 3.45 FWHM
MIN_LINEWIDTH_MHZ = 2.0 * MAX_DETUNING_MHZ / 1e308 * (
    3.0 + (2.0 * (2 * JITTER_NODES + 1)) ** 0.5 * SIGMA_PER_FWHM)

ENV_VAR = "VIT_LAB_CONFIG"

# key: (default, lo, hi), lo <= value <= hi in MHz or m; 5e-324, the least
# positive double, stands for "positive"
SCHEMA = {
    "gamma_MHz": (5.2, MIN_LINEWIDTH_MHZ, MAX_DETUNING_MHZ),
    "kappa_MHz": (0.173, MIN_LINEWIDTH_MHZ, MAX_DETUNING_MHZ),
    "wavelength_um": (0.852, 5e-324, sys.float_info.max),
    "finesse": (63000.0, 5e-324, sys.float_info.max),
    "waist_um": (35.0, 5e-324, sys.float_info.max),
    "od": (0.4, 0.0, sys.float_info.max),
    "length_um": (20.0, 5e-324, sys.float_info.max),
    "f_ef": (0.42, 0.0, 1.0),
    "f_eg": (0.47, 0.0, 1.0),
    "side_weight": (0.25, 0.0, 1.0),
    "side_shift_MHz": (0.6, 0.0, MAX_DETUNING_MHZ),
    "jitter_fwhm_MHz": (0.2, 0.0, MAX_DETUNING_MHZ),
}


def read_csv(path, columns=(), types=()):
    """The data rows of a UTF-8 CSV file whose header starts with columns.

    Every row must hold as many cells as the header, each a finite
    float, within +-MAX_DETUNING_MHZ in a column whose name ends in
    _MHz; for each (i, read) pair in types, cell i is read by read(cell)
    instead.  Anything else (another header or row width, a cell that
    does not parse or is out of range, a csv.Error, a byte that is not
    UTF-8) or no data row raises ValueError naming the file, and the
    line of a faulty data row.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[:len(columns)] != list(columns):
                raise ValueError(f"expected a header starting {','.join(columns)}")
            limits = [MAX_DETUNING_MHZ if name.endswith("_MHz") else sys.float_info.max
                      for name in header]
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, found {len(row)}")
                values = list(map(float, row))
                if not all(map(le, map(abs, values), limits)):
                    raise ValueError(f"values must be finite, and within "
                                     f"+-{MAX_DETUNING_MHZ:g} in the *_MHz columns")
                for i, read in types:
                    values[i] = read(row[i])
                rows.append(values)
        except UnicodeDecodeError as err:  # text decodes in chunks: no line to name
            raise ValueError(f"{path} is not UTF-8 text ({err.reason})") from None
        except (ValueError, csv.Error) as err:
            line = f", line {reader.line_num}" if reader.line_num > 1 else ""
            raise ValueError(f"{path}{line}: {err}") from None
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return rows


def read_json(path):
    """The JSON document in path; ValueError naming the file unless it is UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise ValueError(f"{path} is not valid JSON: {err}") from None


def _output(path, newline=None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline=newline)


# rows formatted per block: larger blocks add to the peak memory of a
# fig3 run (1.25 MB at 4096) and buy nothing
CSV_BLOCK_ROWS = 512


def _cells(block, text):
    """One column block as the values "%s" formats: strings when text is set.

    An array block whose cells share one bit pattern (so -0.0 is not
    0.0, and any nan is nan) is formatted once and repeated.
    """
    if not hasattr(block, "tolist"):
        return list(map(str, block)) if text else block
    first = block[:1]
    # bytes, not a numpy comparison: (a == b).all() here raised the peak
    # resident memory of a fig3 run by about 0.16 MB
    if block.tobytes() == first.tobytes() * len(block):
        return [str(first.tolist()[0])] * len(block)
    return list(map(str, block.tolist())) if text else block.tolist()


def write_csv_tables(tables):
    """Write (path, header, columns) tables of one row count, block by block in lockstep.

    Each table is what write_csv writes.  A column object that several
    columns share, in one table or across tables, is formatted once per
    block of CSV_BLOCK_ROWS rows and its strings go to every file.  A
    None path (stdout) is allowed only for a single table.
    """
    tables = list(tables)
    every = [col for _, _, columns in tables for col in columns]
    n = len(every[0])
    if any(len(col) != n for col in every):
        raise ValueError("CSV columns must have equal lengths")
    if len(tables) > 1 and any(path is None for path, _, _ in tables):
        raise ValueError("only a single CSV table can go to stdout")
    uses = Counter(map(id, every))
    repeated = {id(col): col for col in every if uses[id(col)] > 1}
    rows = [",".join(["%s"] * len(columns)) + "\r\n" for _, _, columns in tables]
    with ExitStack() as stack:
        files = [stack.enter_context(_output(path, newline="")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            csv.writer(fh).writerow(header)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            shared = {key: _cells(col[lo:hi], True) for key, col in repeated.items()}
            for fh, row, (_, _, columns) in zip(files, rows, tables):
                parts = [shared[id(col)] if id(col) in shared else _cells(col[lo:hi], False)
                         for col in columns]
                fh.write(row * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))
                del parts  # freed before the next cells are made: 0.1 MB off a fig3 peak
            del shared


def write_csv(path, header, columns):
    """Write a header and equal-length 1-D columns; stdout when path is None.

    A column is a numpy array or a sequence of Python ints and floats.
    The bytes are those of csv.writer over the rows: floats go out as
    repr, so reading them back gives the same doubles.
    """
    write_csv_tables([(path, header, columns)])


def write_json(path, doc):
    """Write doc as indented, key-sorted JSON plus a newline; stdout when path is None."""
    with _output(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def packaged_defaults():
    """The default constants of SCHEMA, as a fresh dict."""
    return {key: default for key, (default, _, _) in SCHEMA.items()}


def validate_config(doc):
    """Schema-check a config dict; raises ValueError with a usable message."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    for key, value in doc.items():
        if key not in SCHEMA:
            raise ValueError(f"unknown config key '{key}'")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"config key '{key}' must be a number")
        if not abs(value) <= sys.float_info.max:  # ints compare exactly: 10**400 is beyond
            raise ValueError(f"config key '{key}' must be finite")
    merged = {**packaged_defaults(), **doc}
    for key, (_, lo, hi) in SCHEMA.items():  # lengths checked in m: 1e-320 um is 0 m
        unit = " MHz" if key.endswith("_MHz") else " m" if key.endswith("_um") else ""
        if not lo <= merged[key] * (1e-6 if unit == " m" else 1) <= hi:
            raise ValueError(f"config key '{key}' must lie in [{lo}, {hi}]{unit}")
    # every key is in range; two values derived from several can still overflow
    try:
        physical_config(merged)  # of its checks, only k L's and od/(k L)'s can fail here
    except ValueError:
        raise ValueError("config keys 'od', 'wavelength_um' and 'length_um' give a non-finite "
                         "k L = 2 pi length/wavelength or od/(k L), or k L = 0") from None
    if not model_cooperativity(merged) <= sys.float_info.max:
        raise ValueError("config keys 'finesse', 'waist_um' and 'wavelength_um' give a "
                         "non-finite cooperativity 24 F/(pi k^2 w^2)")
    return merged


def load_config(path=None):
    """Load and validate a config document (see module docstring for order)."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return validate_config({})
    doc = read_json(path)
    try:
        return validate_config(doc)
    except ValueError as err:
        raise ValueError(f"config file {path}: {err}") from None


def physical_config(conf):
    """PhysicalConfig (rad/s, m) from a validated config dict."""
    return PhysicalConfig(
        gamma=conf["gamma_MHz"] * MHZ,
        kappa=conf["kappa_MHz"] * MHZ,
        wavelength=conf["wavelength_um"] * 1e-6,
        od=conf["od"],
        length=conf["length_um"] * 1e-6,
    )


def cavity_geometry(conf):
    return CavityGeometry(
        finesse=conf["finesse"],
        waist=conf["waist_um"] * 1e-6,
        wavelength=conf["wavelength_um"] * 1e-6,
    )


def model_cooperativity(conf):
    """Antinode cooperativity the config implies: f_eg times the geometric eta0."""
    return conf["f_eg"] * cooperativity_geometric(cavity_geometry(conf))


def corrections(conf, average=False, side=False, jitter=False):
    """Corrections from boolean switches plus config knobs; a switch off leaves 0s."""
    return Corrections(
        average=average,
        side_weight=conf["side_weight"] if side else 0.0,
        side_shift=conf["side_shift_MHz"] * MHZ if side else 0.0,
        jitter_fwhm=conf["jitter_fwhm_MHz"] * MHZ if jitter else 0.0,
    )
