"""Run configuration: flat JSON documents in laboratory units.

Configs hold frequencies in ordinary MHz and lengths in um;
physical_config converts them to the rad/s and meters used downstream.
A config file may list any subset of the known keys; missing keys take
the packaged defaults (vitlab/defaults.json).  Unknown keys are
rejected outright rather than silently ignored.

Resolution order for the default document: explicit path argument,
then the VIT_LAB_CONFIG environment variable, then the packaged file.
read_csv reads every scan, spectrum, trace and line CSV; write_csv and
write_json write every CSV and JSON file.
"""

import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from importlib import resources
from itertools import chain

from vitlab.core import CavityGeometry, PhysicalConfig, TWO_PI, cooperativity_geometric
from vitlab.spatial import Corrections

MHZ = TWO_PI * 1e6    # MHz -> rad/s: the only unit constant, the rest are powers of ten

ENV_VAR = "VIT_LAB_CONFIG"

_POSITIVE = ("gamma_MHz", "kappa_MHz", "wavelength_um", "finesse", "waist_um",
             "length_um")
_NONNEGATIVE = ("od", "side_weight", "side_shift_MHz", "jitter_fwhm_MHz")
_UNIT_INTERVAL = ("f_ef", "f_eg", "side_weight")
KNOWN_KEYS = set(_POSITIVE) | set(_NONNEGATIVE) | set(_UNIT_INTERVAL)


def read_csv(path, columns=(), types=()):
    """The data rows of a CSV file whose header starts with columns.

    Every row must hold as many cells as the header, each a finite
    float; for each (i, read) pair in types, cell i is read by
    read(cell) instead.  Another header, a row of another width, a cell
    that does not parse or is not finite, or no data row at all raises
    ValueError naming the file (and the line).
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:len(columns)] != list(columns):
            raise ValueError(f"{path}: expected a header starting {','.join(columns)}")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, found {len(row)}")
                values = list(map(float, row))
                if not all(map(math.isfinite, values)):
                    raise ValueError("values must be finite")
                for i, read in types:
                    values[i] = read(row[i])
            except ValueError as err:
                raise ValueError(f"{path}, line {reader.line_num}: {err}") from None
            rows.append(values)
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return rows


def _output(path, newline=None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline=newline)


# rows formatted per block: larger blocks add to the peak memory of a
# fig3 run (1.25 MB at 4096) and buy nothing
CSV_BLOCK_ROWS = 512


def write_csv(path, header, columns):
    """Write a header and equal-length 1-D columns; stdout when path is None.

    A column is a numpy array or a sequence of Python ints and floats.
    The bytes are those of csv.writer over the rows: floats go out as
    repr, so reading them back gives the same doubles.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    with _output(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            parts = [col[lo:lo + CSV_BLOCK_ROWS] for col in columns]
            parts = [p.tolist() if hasattr(p, "tolist") else p for p in parts]
            fh.write(row * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))


def write_json(path, doc):
    """Write doc as indented, key-sorted JSON plus a newline; stdout when path is None."""
    with _output(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def packaged_defaults():
    """The in-repo default constants, as a fresh dict."""
    text = resources.files("vitlab").joinpath("defaults.json").read_text()
    return json.loads(text)


def validate_config(doc):
    """Schema-check a config dict; raises ValueError with a usable message."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    for key, value in doc.items():
        if key not in KNOWN_KEYS:
            raise ValueError(f"unknown config key '{key}'")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"config key '{key}' must be a number")
        if not math.isfinite(value):
            raise ValueError(f"config key '{key}' must be finite")
    merged = packaged_defaults()
    merged.update(doc)
    for key in _POSITIVE:
        if merged[key] <= 0:
            raise ValueError(f"config key '{key}' must be positive")
    for key in _NONNEGATIVE:
        if merged[key] < 0:
            raise ValueError(f"config key '{key}' must be nonnegative")
    for key in _UNIT_INTERVAL:
        if not 0 <= merged[key] <= 1:
            raise ValueError(f"config key '{key}' must lie in [0, 1]")
    return merged


def load_config(path=None):
    """Load and validate a config document (see module docstring for order)."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return validate_config({})
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path} is not valid JSON: {err}") from err
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
        averaging_nodes=64 if average else 0,
        side_weight=conf["side_weight"] if side else 0.0,
        side_shift=conf["side_shift_MHz"] * MHZ if side else 0.0,
        jitter_fwhm=conf["jitter_fwhm_MHz"] * MHZ if jitter else 0.0,
    )
