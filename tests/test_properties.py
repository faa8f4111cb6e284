"""Property tests of the input boundary: the one CSV reader and writer,
the config schema, the scan sidecar and the pulse grid flags.

The contract at every boundary is "a correct result, or a ValueError
that names the file (and line), the config key or the flags at fault".
"""

import contextlib
import copy
import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vitlab.cli import main
from vitlab.config import (CSV_BLOCK_ROWS, KNOWN_KEYS, packaged_defaults, read_csv,
                           validate_config, write_csv)
from vitlab.spatial import Corrections
from vitlab.synth import SCAN_COLUMNS, ScanPlan, read_scan_csv, read_scan_sidecar

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

NAMES = ("a", "b", "delta_probe_MHz", "transmission", "")
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
# numbers, near-numbers and garbage; float() itself decides which parse
CELLS = st.one_of(
    NUMBERS,
    st.sampled_from(["nan", "inf", "-inf", "NaN", "", " ", "abc", "1.2.3", "0x10", "1_0"]),
    st.text(alphabet="0123456789.e+-_ ab", max_size=5),
)


@st.composite
def tables(draw):
    """A header and data rows: numeric rows of its width, some with one odd
    cell, and rows of any width and content."""
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    width = len(header)
    numeric = st.lists(NUMBERS, min_size=width, max_size=width)

    def spoil(row, at, cell):
        return row[:at] + [cell] + row[at + 1:]

    rows = draw(st.lists(st.one_of(
        numeric,
        st.builds(spoil, numeric, st.integers(0, width - 1), CELLS),
        st.lists(CELLS, max_size=5),
    ), max_size=6))
    return header, rows


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "data.csv"


def _text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _good(row, width):
    try:
        return len(row) == width and all(math.isfinite(float(c)) for c in row)
    except ValueError:
        return False


@SETTINGS
@given(table=tables(),
       columns=st.one_of(st.integers(0, 4), st.lists(st.sampled_from(NAMES), max_size=3)))
def test_read_csv_returns_floats_or_names_the_fault(csv_path, table, columns):
    header, rows = table
    if isinstance(columns, int):
        columns = header[:columns]
    csv_path.write_text(_text([header, *rows]))
    bad = [line for line, row in enumerate(rows, start=2) if not _good(row, len(header))]
    try:
        got = read_csv(csv_path, columns)
    except ValueError as err:
        message = str(err)
        assert str(csv_path) in message
        if header[:len(columns)] != columns:
            assert ",".join(columns) in message
        elif bad:
            assert f", line {bad[0]}:" in message
        else:
            assert not rows
        return
    assert header[:len(columns)] == columns and rows and not bad
    assert got == [[float(c) for c in row] for row in rows]


# signed zeros, subnormals, 1e16 (repr switches to an exponent there) and non-finite
FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 1e16, -1e16, 9007199254740993.0, math.nan, math.inf,
     -math.inf]))
INT_CELLS = st.integers(-2**63, 2**63 - 1)


@pytest.mark.parametrize("n_rows", (0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                    CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7))
@settings(SETTINGS, max_examples=15)
@given(data=st.data(), kinds=st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4))
def test_write_csv_bytes_match_csv_writer(csv_path, n_rows, data, kinds):
    # a few drawn cells repeated to each column's length: a row count off
    # the block size costs no large draw
    columns = []
    for k, kind in enumerate(kinds):
        cells = FLOAT_CELLS if kind == "float" else INT_CELLS
        pool = data.draw(st.lists(cells, min_size=1, max_size=20), label=f"pool {k}")
        values = [pool[(i * (k + 1)) % len(pool)] for i in range(n_rows)]
        as_array = data.draw(st.booleans(), label=f"array {k}")
        columns.append(np.array(values, dtype=float if kind == "float" else np.int64)
                       if as_array else tuple(values))
    header = [f"c{k}" for k in range(len(kinds))]
    write_csv(csv_path, header, columns)
    want = _text([header, *zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                                 for c in columns])])
    assert csv_path.read_bytes() == want.encode()


def test_write_csv_needs_equal_columns(csv_path):
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(csv_path, ["a", "b"], ([1.0, 2.0], [1.0]))


SCAN_ROW = ["0.5", "0.0", "12", "3", "11.5", "2.5"]


@SETTINGS
@given(n_rows=st.integers(1, 5), data=st.data(),
       count=st.one_of(st.integers(-10**6, 10**12).map(str),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(["5.5", "1e3", "", "x", "0x10"])))
def test_scan_reader_reads_nonnegative_integer_counts_only(csv_path, n_rows, data, count):
    at = data.draw(st.integers(0, n_rows - 1), label="row")
    column = data.draw(st.sampled_from((2, 3)), label="column")
    rows = [list(SCAN_ROW) for _ in range(n_rows)]
    rows[at][column] = count
    csv_path.write_text(_text([SCAN_COLUMNS, *rows]))
    try:
        integer = int(count)
    except ValueError:
        integer = -1
    if integer < 0:
        with pytest.raises(ValueError, match=re.escape(f"{csv_path}, line {at + 2}:")):
            read_scan_csv(csv_path)
        return
    records = read_scan_csv(csv_path)
    name = ("counts_d1", "counts_d2")[column - 2]
    assert getattr(records[at], name) == integer
    assert len(records) == n_rows


POSITIVE = {"gamma_MHz", "kappa_MHz", "wavelength_um", "finesse", "waist_um", "length_um"}
NONNEGATIVE = {"od", "side_shift_MHz", "jitter_fwhm_MHz"}
UNIT_INTERVAL = {"f_ef", "f_eg", "side_weight"}


def _in_range(key, value):
    if key in POSITIVE:
        return value > 0
    if key in NONNEGATIVE:
        return value >= 0
    return 0 <= value <= 1


def _fault(key, value):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return (key not in KNOWN_KEYS or not number or not math.isfinite(value)
            or not _in_range(key, value))


@SETTINGS
@given(st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)),
                       st.one_of(st.floats(-0.5, 1.5), st.integers(-1, 3), st.floats(0, 1e300)),
                       max_size=4),
       st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS) + ["eta", "od_", ""]),
                       st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none()),
                       max_size=1))
def test_validate_config_merges_or_names_the_key(numbers, wild):
    # mostly numeric documents, with at most one entry of any key and type
    doc = {**numbers, **wild}
    assert POSITIVE | NONNEGATIVE | UNIT_INTERVAL == KNOWN_KEYS
    faulty = {key for key, value in doc.items() if _fault(key, value)}
    try:
        merged = validate_config(doc)
    except ValueError as err:
        named = re.findall(r"'([^']*)'", str(err))
        if "give a non-finite" in str(err):  # k L or the cooperativity overflowed
            assert not faulty and set(named) & set(doc)
        else:
            assert named and named[0] in faulty
        return
    assert not faulty
    assert merged == {**packaged_defaults(), **doc}
    assert all(not _fault(key, value) for key, value in merged.items())


GRID_FLAGS = ("--tp-us", "--span-factor", "--samples")


@pytest.fixture(scope="module")
def pulse_json(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "pulse.json"


# laboratory values mixed with extremes, down to the smallest positive float
# (its duration underflows to zero, and a band past the optical carrier
# would overflow core.susceptibility)
@SETTINGS
@given(tp_us=st.one_of(st.floats(0.3, 5.0), st.floats(0.0, 1e300, exclude_min=True)),
       span_factor=st.one_of(st.floats(6.0, 48.0), st.floats(1e-300, 1e300)),
       samples=st.one_of(st.integers(9, 12), st.integers(0, 12)).map(lambda k: 2 ** k))
def test_pulse_grid_runs_or_names_the_flags(pulse_json, tp_us, span_factor, samples):
    pulse_json.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pulse", "--tp-us", repr(tp_us), "--span-factor", repr(span_factor),
                     "--samples", str(samples), "--out", str(pulse_json)])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert all(math.isfinite(v) for v in json.loads(pulse_json.read_text()).values())
    else:
        assert code == 2 and not pulse_json.exists()
        assert all(flag in err.getvalue() for flag in GRID_FLAGS)


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """A small synthetic scan with jitter (16 members), and its sidecar document."""
    prefix = tmp_path_factory.mktemp("properties") / "scan"
    assert main(["synth", "--jitter", "--delta-cavity-mhz", "0.5", "--points", "41",
                 "--scan-from", "-3", "--scan-to", "3", "--flux", "1e6",
                 "--dwell-us", "20000", "--seed", "1", "--out", str(prefix)]) == 0
    sidecar = prefix.with_suffix(".json")
    return prefix.with_suffix(".csv"), sidecar, json.loads(sidecar.read_text())


# what a hand-edited sidecar may hold in place of a value; the positive
# fractions make flux, dwell or an efficiency smaller than the scan's counts allow
SIDECAR_VALUES = st.one_of(
    st.text(max_size=3), st.lists(st.floats(-10.0, 10.0), max_size=2), st.none(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1), st.floats(max_value=-1e-3, allow_infinity=False),
    st.floats(1e-6, 1.0))


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_sidecar_reads_or_names_the_file(scan, cfg, data):
    # keys deleted, values replaced at any level, the text truncated: the
    # reader returns a plan and corrections or names the sidecar, and a fit
    # of the scan exits 0 or 2 naming the sidecar, never with a traceback
    csv_path, sidecar, valid = scan
    doc = copy.deepcopy(valid)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        parts = [part for part in (doc, doc.get("plan"), doc.get("corrections"))
                 if isinstance(part, dict) and part]
        part = data.draw(st.sampled_from(parts), label="part")
        key = data.draw(st.sampled_from(sorted(part)), label="key")
        if data.draw(st.booleans(), label="delete"):
            del part[key]
        else:
            part[key] = data.draw(SIDECAR_VALUES, label="value")
    text = json.dumps(doc)
    if data.draw(st.integers(0, 3), label="truncate") == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    sidecar.write_text(text)
    try:
        plan, corr = read_scan_sidecar(sidecar, read_scan_csv(csv_path), cfg)
    except ValueError as err:
        assert str(sidecar) in str(err)
        refused = True
    else:
        assert isinstance(plan, ScanPlan) and isinstance(corr, Corrections)
        refused = False
    out = csv_path.with_name("fit.json")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["fit", "--model", "vit", "--input", str(csv_path), "--out", str(out)])
    # every sidecar the reader takes still describes this scan
    assert code == (2 if refused else 0), err.getvalue()
    assert out.exists() == (code == 0)
    assert str(sidecar) in err.getvalue() or not refused
