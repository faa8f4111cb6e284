"""Property tests of the input boundary: the one CSV reader, the config
schema and the pulse grid flags.

The contract at every boundary is "a correct result, or a ValueError
that names the file (and line), the config key or the flags at fault".
"""

import contextlib
import csv
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from vitlab.cli import main
from vitlab.config import KNOWN_KEYS, packaged_defaults, read_csv, validate_config
from vitlab.synth import SCAN_COLUMNS, read_scan_csv

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
    [(_, records)] = read_scan_csv(csv_path)
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
