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
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vitlab.cli import main
from vitlab.config import (CSV_BLOCK_ROWS, MAX_DETUNING_MHZ, MHZ, MIN_LINEWIDTH_MHZ, SCHEMA,
                           packaged_defaults, read_csv, validate_config, write_csv,
                           write_csv_tables)
from vitlab.fitting import VIT_PARAMS
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


# cells of long one-bit-pattern runs: whole blocks of 0.0, -0.0, a nan of
# either sign or an inf, which the writer formats once per block
RUN_CELLS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.5])


def _shared_column(data, k, n_rows):
    kind = data.draw(st.sampled_from(["float", "int", "runs", "zeros"]), label=f"kind {k}")
    if kind == "zeros":  # one -0.0 among 0.0s, the block holding it not constant
        values = [0.0] * n_rows
        if n_rows:
            values[data.draw(st.integers(0, n_rows - 1), label=f"at {k}")] = -0.0
    elif kind == "runs":
        runs = data.draw(st.lists(st.tuples(RUN_CELLS, st.integers(1, 2 * CSV_BLOCK_ROWS)),
                                  min_size=1, max_size=4), label=f"runs {k}")
        cells = [cell for cell, length in runs for _ in range(length)]
        values = [cells[i % len(cells)] for i in range(n_rows)]
    else:
        pool = data.draw(st.lists(FLOAT_CELLS if kind == "float" else INT_CELLS,
                                  min_size=1, max_size=20), label=f"pool {k}")
        values = [pool[(i * (k + 1)) % len(pool)] for i in range(n_rows)]
    if not data.draw(st.booleans(), label=f"array {k}"):
        return tuple(values)
    return np.array(values, dtype=np.int64 if kind == "int" else float)


@pytest.mark.parametrize("n_rows", (0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                    CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7))
@settings(SETTINGS, max_examples=15)
@given(data=st.data(), n_columns=st.integers(1, 4), n_tables=st.integers(1, 3))
def test_write_csv_tables_bytes_match_csv_writer(csv_path, n_rows, data, n_columns, n_tables):
    # every table draws its columns from one pool, so column objects recur
    # within a table and across tables
    pool = [_shared_column(data, k, n_rows) for k in range(n_columns)]
    tables = []
    for t in range(n_tables):
        picks = data.draw(st.lists(st.integers(0, n_columns - 1), min_size=1, max_size=4),
                          label=f"table {t}")
        tables.append((csv_path.with_name(f"table{t}.csv"), [f"c{k}" for k in picks],
                       [pool[k] for k in picks]))
    write_csv_tables(tables)
    for path, header, columns in tables:
        want = _text([header, *zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                                     for c in columns])])
        assert path.read_bytes() == want.encode()


def test_write_csv_tables_need_equal_tables(csv_path):
    first, second = csv_path.with_name("first.csv"), csv_path.with_name("second.csv")
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv_tables([(first, ["a"], ([1.0, 2.0],)), (second, ["a"], ([1.0],))])
    assert not first.exists() and not second.exists()


def test_write_csv_tables_stdout_only_alone(csv_path, capsys):
    path = csv_path.with_name("beside_stdout.csv")
    with pytest.raises(ValueError, match="stdout"):
        write_csv_tables([(None, ["a"], ([1.0],)), (path, ["a"], ([1.0],))])
    assert not path.exists() and capsys.readouterr().out == ""
    write_csv_tables([(None, ["a"], ([1.0],))])
    assert capsys.readouterr().out == "a\r\n1.0\r\n"


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
    if key not in SCHEMA or not number or not math.isfinite(value):
        return True
    # frequencies within the detunings' bound and linewidths above the floor;
    # the signs checked in SI (rad/s, m)
    si = value * (MHZ if key.endswith("_MHz") else 1e-6 if key.endswith("_um") else 1)
    return not ((abs(value) <= MAX_DETUNING_MHZ or not key.endswith("_MHz"))
                and _in_range(key, si)
                and (value >= MIN_LINEWIDTH_MHZ or key not in ("gamma_MHz", "kappa_MHz")))


@SETTINGS
@given(st.dictionaries(st.sampled_from(sorted(SCHEMA)),
                       st.one_of(st.floats(-0.5, 1.5), st.integers(-1, 3), st.floats(0, 1e300)),
                       max_size=4),
       st.dictionaries(st.sampled_from(sorted(SCHEMA) + ["eta", "od_", ""]),
                       st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none()),
                       max_size=1))
def test_validate_config_merges_or_names_the_key(numbers, wild):
    # mostly numeric documents, with at most one entry of any key and type
    doc = {**numbers, **wild}
    assert POSITIVE | NONNEGATIVE | UNIT_INTERVAL == set(SCHEMA)
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
        plan = read_scan_sidecar(sidecar, read_scan_csv(csv_path), cfg)
    except ValueError as err:
        assert str(sidecar) in str(err)
        refused = True
    else:
        assert isinstance(plan, ScanPlan) and isinstance(plan.corrections, Corrections)
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



# the extremes of a double, and values of a laboratory's order
EXTREMES = (0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308, math.nan, math.inf)
# the far scan with every correction, its detunings at the flags' bound, and a small scan
CONFIG_RUNS = (
    ("spectrum", "--average", "--side", "--jitter", "--scan-from", "-1e300", "--scan-to",
     "1e300", "--points", "3", "--out", "spectrum.csv"),
    ("synth", "--average", "--side", "--jitter", "--delta-cavity-mhz", "0.5", "--points", "5",
     "--out", "scan"),
)


def _numbers(node):
    """Every float of a JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in _numbers(child)]
    return [node] if isinstance(node, float) else []


@pytest.fixture(scope="module")
def config_run(tmp_path_factory):
    return tmp_path_factory.mktemp("config_run")


@settings(SETTINGS, max_examples=200)
@given(doc=st.dictionaries(st.sampled_from(sorted(SCHEMA)),
                           st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 100.0)),
                           max_size=2))
# an overflow warning with exit 0, and an unnamed refusal after warnings
@example(doc={"gamma_MHz": 1e-8})
@example(doc={"kappa_MHz": 1e-300})
@example(doc={"jitter_fwhm_MHz": 1e301})
@example(doc={"side_shift_MHz": 2.8e301})
def test_config_document_runs_or_names_the_key(config_run, doc):
    # exit 0 with finite outputs, or exit 2 naming the config file or one of
    # its keys; never a warning first
    config = config_run / "config.json"
    config.write_text(json.dumps(doc))
    for argv in CONFIG_RUNS:
        out = config_run / argv[-1]
        outputs = [out] if out.suffix else [out.with_suffix(".csv"), out.with_suffix(".json")]
        for path in outputs:
            path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv[:-1], str(out), "--config", str(config)])
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert str(config) in err.getvalue() or any(key in err.getvalue() for key in doc)
            continue
        for path in outputs:
            text = path.read_text()
            if path.suffix == ".json":
                cells = _numbers(json.loads(text))
            else:
                cells = [float(c) for row in csv.reader(text.splitlines()[1:]) for c in row]
            assert cells and all(map(math.isfinite, cells)), path


# each subcommand's required and optional valued flags; the correction
# switches are drawn apart from them
ARGV_FLAGS = {
    "spectrum": ((), ("--eta", "--delta-cavity-mhz", "--scan-from", "--scan-to", "--points",
                      "--emission-scale")),
    "pulse": (("--tp-us",), ("--eta", "--od", "--carrier-mhz", "--samples", "--span-factor")),
    "synth": (("--delta-cavity-mhz",), ("--eta", "--scan-from", "--scan-to", "--points",
                                        "--flux", "--dwell-us", "--eff1", "--eff2",
                                        "--emission-scale", "--seed")),
    "fit": (("--model", "--input"), ("--free", "--on", "--sidecar", "--delta-cavity-mhz")),
}
# the extremes, and laboratory values that the integer flags also take
ARGV_VALUES = st.sampled_from([*map(repr, EXTREMES), "0.5", "-2.2", "1.73", "2", "41"])
# what the fit_inputs fixture writes: a jittered scan, a scan without
# emission (each with its sidecar), a spectrum and a line
FIT_INPUTS = ("scan.csv", "d1.csv", "spectrum.csv", "line.csv")
FIT_SIDECARS = ("scan.json", "d1.json")
# the x, y and sigma cells of line.csv: a laboratory line, or rows drawn like the flags' values
LAB_LINE = (("3", "13.6", "0.1"), ("5", "20.4", "0.1"), ("7", "27.2", "0.2"))
LINES = st.one_of(st.just(LAB_LINE),
                  st.lists(st.tuples(ARGV_VALUES, ARGV_VALUES, ARGV_VALUES), min_size=1,
                           max_size=4))
# the cells of spectrum.csv: the laboratory spectrum the fit_inputs fixture
# writes (21 rows of 3), up to 10 of its cells drawn like the flags' values
# (a dictionary by row and column), or 8 to 21 rows of 2 or 3 such cells
SPECTRA = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 20), st.integers(0, 2)), ARGV_VALUES, max_size=10),
    st.integers(2, 3).flatmap(lambda width: st.lists(st.tuples(*[ARGV_VALUES] * width),
                                                     min_size=8, max_size=21)))
# the words of fit's flags; --free lists VIT_PARAMS names mixed with junk and
# empty names, and --delta-cavity-mhz takes ARGV_VALUES like the other flags
FIT_WORDS = {
    "--model": st.sampled_from(("vit", "lorentzian", "linear")).map(lambda word: [word]),
    "--input": st.lists(st.sampled_from(FIT_INPUTS), min_size=1, max_size=2),
    "--free": st.lists(st.sampled_from((*VIT_PARAMS, "", "eta", " od")), min_size=1,
                       max_size=3).map(lambda names: [",".join(names)]),
    "--on": st.sampled_from(("absorbance", "transmission")).map(lambda word: [word]),
    "--sidecar": st.sampled_from(FIT_SIDECARS).map(lambda word: [word]),
}


@st.composite
def argvs(draw):
    """A spectrum, pulse, synth or fit argv, its output paths left out; a
    fit's files are named as the fit_inputs fixture names them."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    required, optional = ARGV_FLAGS[command]
    argv = [command, *draw(st.lists(st.sampled_from(("--average", "--side", "--jitter")),
                                    unique=True, max_size=3))]
    for flag in [*required, *draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))]:
        argv += [flag, *draw(FIT_WORDS.get(flag, ARGV_VALUES.map(lambda word: [word])))]
    return argv


def _run(argv, files=()):
    """The exit code of one in-process run; a warning fails the test, and so
    does an exit 2 that names none of argv's flags and paths, nor files."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal of a flag
            code = exc.code
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 2:
        named = [word for word in argv if word.startswith("--") or "/" in word] + list(files)
        assert any(word in err.getvalue() for word in named), (argv, err.getvalue())
    return code


def _cells(path):
    """Every number of an output CSV or JSON file."""
    text = path.read_text()
    if path.suffix == ".json":
        return _numbers(json.loads(text))
    return [float(c) for row in csv.reader(text.splitlines()[1:]) for c in row]


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """The directory of FIT_INPUTS but line.csv and spectrum.csv, of FIT_SIDECARS, and of
    lab.csv, the laboratory spectrum, small enough to fit fast."""
    where = tmp_path_factory.mktemp("fit_inputs")
    scan = ["synth", "--points", "21", "--scan-from", "-3", "--scan-to", "3", "--out"]
    assert main([*scan, str(where / "scan"), "--jitter", "--delta-cavity-mhz", "0.5",
                 "--dwell-us", "20000", "--seed", "1"]) == 0
    assert main([*scan, str(where / "d1"), "--delta-cavity-mhz", "0", "--eff2", "0"]) == 0
    assert main(["spectrum", "--points", "21", "--out", str(where / "lab.csv")]) == 0
    return where


@settings(SETTINGS, max_examples=200)
@given(argv=argvs(), line=LINES, spectrum=SPECTRA)
# a trace time axis past a double's range, an initial od whose wing factor
# overflows, a dwell that is 0 s, and expected counts past the sampler's
@example(argv=["pulse", "--tp-us", "1e308"], line=LAB_LINE, spectrum={})
@example(argv=["synth", "--delta-cavity-mhz", "0", "--points", "41", "--scan-from", "-1e300",
               "--eff2", "0.5", "--average"], line=LAB_LINE, spectrum={})
@example(argv=["synth", "--delta-cavity-mhz", "0", "--dwell-us", "5e-324"], line=LAB_LINE,
         spectrum={})
@example(argv=["synth", "--delta-cavity-mhz", "0", "--flux", "1e300"], line=LAB_LINE, spectrum={})
# a --free name with a leading blank, and a line fit of a scan, whose second
# column (the resonator detuning) is a flat line: neither named a flag or file
@example(argv=["fit", "--model", "vit", "--input", "scan.csv", "--free", "eta_eff, od"],
         line=LAB_LINE, spectrum={})
@example(argv=["fit", "--model", "linear", "--input", "scan.csv"], line=LAB_LINE, spectrum={})
# x spanning 1e200, which once warned and then named no cause
@example(argv=["fit", "--model", "linear", "--input", "line.csv"],
         line=[("0", "1", "1"), ("1e200", "1.0000000000000002", "1")], spectrum={})
# a fit whose end held an inf, from which numpy's SVD never returned, and one
# that warned twice and wrote a chi^2 of Infinity
@example(argv=["fit", "--model", "lorentzian", "--on", "transmission", "--input", "spectrum.csv"],
         line=LAB_LINE, spectrum=[("1e-300", "1e-300"), ("2", "-1e-300"), ("1.73", "1e308"),
                                  ("-2.2", "-1e300"), ("-1e-300", "41"), ("5e-324", "0.0"),
                                  ("-2.2", "1.73"), ("1.73", "41")])
@example(argv=["fit", "--model", "vit", "--input", "spectrum.csv"], line=LAB_LINE,
         spectrum=[("-4", "0.9", "0.1"), ("-3", "0.8", "0.1"), ("-2", "0.7", "0.1"),
                   ("-1", "0.6", "0.1"), ("0", "0.5", "0.1"), ("1", "0.6", "0.1"),
                   ("2", "1e300", "0.1"), ("3", "0.8", "0.1")])
def test_argv_exits_0_2_or_3_and_names_the_fault(config_run, fit_inputs, argv, line, spectrum):
    # exit 0 with finite outputs, 2 naming a flag or file, or 3 (a fit only);
    # never a warning; each scan written is fitted too
    (fit_inputs / "line.csv").write_text(
        "n_c,eta_eff,eta_eff_err\n" + "".join(",".join(row) + "\n" for row in line))
    header, *lab = (fit_inputs / "lab.csv").read_text().splitlines()
    if isinstance(spectrum, dict):
        spectrum = [[spectrum.get((i, j), cell) for j, cell in enumerate(row.split(","))]
                    for i, row in enumerate(lab)]
    (fit_inputs / "spectrum.csv").write_text(
        ",".join(header.split(",")[:len(spectrum[0])]) + "\n"
        + "".join(",".join(row) + "\n" for row in spectrum))
    argv = [str(fit_inputs / word) if word in FIT_INPUTS + FIT_SIDECARS else word
            for word in argv]
    out = config_run / "out"
    outputs = {"spectrum": (".csv",), "pulse": (".json", ".trace.csv"),
               "synth": (".csv", ".json"), "fit": (".json",)}[argv[0]]
    for suffix in (*outputs, ".fit.json"):
        out.with_suffix(suffix).unlink(missing_ok=True)
    if argv[0] == "synth":
        files = ["--out", str(out)]
    else:
        files = ["--out", str(out.with_suffix(outputs[0]))]
        files += ["--trace", str(out.with_suffix(outputs[1]))] if argv[0] == "pulse" else []
    code = _run(argv + files)
    assert code in (0, 2) or argv[0] == "fit"
    if code == 0:
        for suffix in outputs:
            cells = _cells(out.with_suffix(suffix))
            assert cells and all(map(math.isfinite, cells)), (argv, suffix)
    if argv[0] == "synth" and code == 0:
        fit = out.with_suffix(".fit.json")
        if _run(["fit", "--model", "vit", "--input", str(out.with_suffix(".csv")),
                 "--out", str(fit)], [str(out.with_suffix(".json"))]) == 0:
            assert all(map(math.isfinite, _cells(fit))), argv
