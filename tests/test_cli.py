import copy
import csv
import json
import math

import numpy as np
import pytest

from vitlab import fitting, recipes
from vitlab.cli import MAX_POINTS, MAX_SAMPLES, build_parser, main
from vitlab.config import ENV_VAR, MAX_DETUNING_MHZ, packaged_defaults
from vitlab.spatial import corrected_spectrum


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--delta-cavity-mhz", "0.5", "--points", "41",
               "--scan-from", "-4", "--scan-to", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["delta_probe_MHz", "transmission", "cavity_emission"]
    assert len(rows) == 41
    t = np.array([float(r[1]) for r in rows])
    assert np.all((t > 0) & (t <= 1))


def test_spectrum_rejects_bad_range(capsys):
    assert main(["spectrum", "--scan-from", "3", "--scan-to", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_pulse_command(tmp_path):
    out = tmp_path / "pulse.json"
    trace = tmp_path / "trace.csv"
    # the measured regime of the fig3 recipe
    rc = main(["pulse", "--tp-us", str(recipes.PULSE_FWHM_US), "--od", str(recipes.MEASURED_OD),
               "--eta", str(recipes.ETA_EFF_0), "--average", "--side",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 20.0 < doc["delay_centroid_ns"] < 45.0
    assert trace.exists()


def test_synth_fit_round_trip(tmp_path):
    prefix = tmp_path / "scan"
    rc = main(["synth", "--delta-cavity-mhz", "0", "--points", "41",
               "--scan-from", "-3", "--scan-to", "3", "--flux", "1e6",
               "--dwell-us", "20000", "--seed", "11", "--out", str(prefix)])
    assert rc == 0
    assert (tmp_path / "scan.csv").exists()
    assert (tmp_path / "scan.json").exists()

    fit_out = tmp_path / "fit.json"
    rc = main(["fit", "--model", "vit", "--input", str(prefix) + ".csv",
               "--out", str(fit_out)])
    assert rc == 0
    doc = json.loads(fit_out.read_text())
    assert doc["converged"] is True
    eta = doc["params"]["eta_eff"]
    # default truth is f_eg * eta0 ~ 3.4; loose window, one noisy seed
    assert abs(eta["value"] - 3.4) < 5 * max(eta["error"], 0.05)


def test_fit_lorentzian_on_spectrum_csv(tmp_path):
    spec = tmp_path / "twolevel.csv"
    assert main(["spectrum", "--eta", "0", "--points", "161",
                 "--scan-from", "-12", "--scan-to", "12", "--out", str(spec)]) == 0
    out = tmp_path / "lor.json"
    assert main(["fit", "--model", "lorentzian", "--input", str(spec),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["fwhm_mhz"]["value"] == pytest.approx(5.2, rel=1e-4)


def test_fit_degenerate_returns_3(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    with open(flat, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta_probe_MHz", "transmission", "cavity_emission"])
        for i in range(41):
            w.writerow([repr(-2.0 + 0.1 * i), "0.9", "0.0"])
    rc = main(["fit", "--model", "lorentzian", "--input", str(flat)])
    assert rc == 3
    assert "not identifiable" in capsys.readouterr().err


def test_fit_linear_command(tmp_path):
    data = tmp_path / "line.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_c", "eta_eff", "eta_eff_err"])
        for n in range(3, 23, 2):
            w.writerow([n, 3.4 * (n + 1), 0.1])
    out = tmp_path / "lin.json"
    assert main(["fit", "--model", "linear", "--input", str(data),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["slope"]["value"] == pytest.approx(3.4, rel=1e-9)
    assert doc["ratio_intercept_slope"]["value"] == pytest.approx(1.0, rel=1e-9)
    # a closed-form fit: converged, without iterating
    assert doc["converged"] is True and doc["iterations"] == 0


@pytest.mark.parametrize("flag", ("--average", "--side", "--jitter"))
def test_fit_linear_rejects_correction_flags(tmp_path, capsys, flag):
    # a line has no spectrum to correct; the flag is an error, not ignored
    data = tmp_path / "line.csv"
    data.write_text("n_c,eta_eff,eta_eff_err\n3,13.6,0.1\n5,20.4,0.1\n7,27.2,0.1\n")
    out = tmp_path / "lin.json"
    assert main(["fit", "--model", "linear", "--input", str(data), flag,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "line.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("model, argv", (
    ("vit", ["--on", "transmission"]),
    ("lorentzian", ["--free", "eta_eff"]),
    ("lorentzian", ["--average"]),
    ("lorentzian", ["--delta-cavity-mhz", "0"]),
    ("linear", ["--free", "eta_eff,od"]),
    ("linear", ["--on", "absorbance"]),
    ("linear", ["--delta-cavity-mhz", "0.5"]),
))
def test_fit_refuses_flags_its_model_does_not_read(tmp_path, capsys, model, argv):
    # each of these changed nothing in the fit; now it is an error, not ignored
    data = tmp_path / "data.csv"
    if model == "linear":
        data.write_text("n_c,eta_eff,eta_eff_err\n3,13.6,0.1\n5,20.4,0.1\n7,27.2,0.1\n")
    else:
        assert main(["spectrum", "--points", "41", "--out", str(data)]) == 0
    out = tmp_path / "fit.json"
    fit = ["fit", "--model", model, "--input", str(data), "--out", str(out)]
    assert main(fit + argv) == 2
    err = capsys.readouterr().err
    assert argv[0] in err and "data.csv" in err
    assert not out.exists()
    assert main(fit) == 0


def test_fit_scan_refuses_a_resonator_detuning_flag(tmp_path, capsys):
    # a scan's rows carry their resonator detunings; the flag is for spectra
    scan = _synth(tmp_path / "scan", "0.5", "1")
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--input", scan, "--delta-cavity-mhz", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--delta-cavity-mhz" in err and "scan.csv" in err
    assert not out.exists()


def test_fit_spectrum_at_its_resonator_detuning(tmp_path):
    # a plain spectrum fits at --delta-cavity-mhz, 0 when it is not given
    spec = tmp_path / "sp.csv"
    assert main(["spectrum", "--delta-cavity-mhz", "0.5", "--points", "81", "--eta", "5",
                 "--out", str(spec)]) == 0
    out = tmp_path / "fit.json"

    def eta(*argv):
        assert main(["fit", "--model", "vit", "--input", str(spec), "--out", str(out),
                     *argv]) == 0
        return json.loads(out.read_text())["params"]["eta_eff"]["value"]

    assert eta("--delta-cavity-mhz", "0.5") == pytest.approx(5.0, rel=1e-6)
    assert abs(eta() - 5.0) > 0.01


@pytest.mark.parametrize("model", ("vit", "lorentzian"))
def test_spectrum_third_column_is_the_emission(tmp_path, capsys, model):
    # a third column fitted as cavity emission whatever its name; a sigma
    # column so fitted gave a wrong fit and exit 0
    spec = tmp_path / "sp.csv"
    assert main(["spectrum", "--points", "41", "--out", str(spec)]) == 0
    header, body = spec.read_text().split("\n", 1)
    out = tmp_path / "fit.json"
    fit = ["fit", "--model", model, "--out", str(out), "--input"]
    bad = tmp_path / "sigma.csv"
    bad.write_text(header.replace("cavity_emission", "sigma") + "\n" + body)
    assert main(fit + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert "sigma.csv" in err and "'sigma'" in err and "cavity_emission" in err
    assert not out.exists()
    # the column under its own name, and no third column (nor scale_d2), fit
    assert main(fit + [str(spec)]) == 0
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                            for line in spec.read_text().splitlines()))
    assert main(fit + [str(bare)] + (["--free", "eta_eff,od"] if model == "vit" else [])) == 0


def test_env_config_changes_defaults(tmp_path, monkeypatch):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"od": 2.0}))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["spectrum", "--points", "11", "--scan-from", "-1",
                 "--scan-to", "1", "--out", str(out_a)]) == 0
    monkeypatch.setenv(ENV_VAR, str(conf))
    assert main(["spectrum", "--points", "11", "--scan-from", "-1",
                 "--scan-to", "1", "--out", str(out_b)]) == 0
    _, rows_a = _read_csv(out_a)
    _, rows_b = _read_csv(out_b)
    # five times the optical depth: visibly darker everywhere
    assert float(rows_b[5][1]) < float(rows_a[5][1]) ** 2


def _synth(prefix, dcav, seed):
    assert main(["synth", "--delta-cavity-mhz", dcav, "--points", "41",
                 "--scan-from", "-3", "--scan-to", "3", "--flux", "1e6",
                 "--dwell-us", "20000", "--seed", seed, "--out", str(prefix)]) == 0
    return str(prefix) + ".csv"


def test_fit_vit_joins_every_input(tmp_path, capsys):
    a = _synth(tmp_path / "a", "0.5", "1")
    b = _synth(tmp_path / "b", "-2.2", "2")
    out = tmp_path / "fit.json"

    def fit(*inputs):
        assert main(["fit", "--model", "vit", "--input", *inputs, "--out", str(out)]) == 0
        return json.loads(out.read_text())["params"]["eta_eff"]

    alone, joint = fit(a), fit(a, b)
    # the second scan enters the fit: it moves the estimate and tightens it
    assert joint["value"] != alone["value"]
    assert joint["error"] < alone["error"]
    # one --sidecar cannot describe two scans; a line fit takes one spectrum
    assert main(["fit", "--model", "vit", "--input", a, b,
                 "--sidecar", str(tmp_path / "a.json")]) == 2
    assert "--sidecar" in capsys.readouterr().err
    assert main(["fit", "--model", "lorentzian", "--input", a, b]) == 2
    assert "--input" in capsys.readouterr().err


@pytest.mark.parametrize("model", ("vit", "lorentzian", "linear"))
def test_fit_sidecar_needs_a_scan(tmp_path, capsys, model):
    # a sidecar describes a scan; next to a spectrum or line CSV it is a mistake
    spec = tmp_path / "sp.csv"
    assert main(["spectrum", "--points", "41", "--out", str(spec)]) == 0
    assert main(["fit", "--model", model, "--input", str(spec),
                 "--sidecar", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "--sidecar" in err and "sp.csv" in err


def test_fit_lorentzian_rejects_several_detunings(tmp_path, capsys):
    prefix = tmp_path / "s3"
    assert main(["synth", "--delta-cavity-mhz", "0", "1", "-1", "--points", "11",
                 "--out", str(prefix)]) == 0
    assert main(["fit", "--model", "lorentzian", "--input", str(prefix) + ".csv"]) == 2
    err = capsys.readouterr().err
    assert "s3.csv" in err and "holds 3 spectra" in err


def test_fit_repeated_free_returns_2(tmp_path, capsys):
    scan = _synth(tmp_path / "scan", "0", "1")
    assert main(["fit", "--model", "vit", "--input", scan,
                 "--free", "eta_eff,eta_eff"]) == 2
    assert "'eta_eff'" in capsys.readouterr().err


def test_fit_has_no_eta_flag(tmp_path, capsys):
    scan = _synth(tmp_path / "scan", "0", "1")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--model", "vit", "--input", scan, "--eta", "999"])
    assert exc.value.code == 2
    assert "--eta" in capsys.readouterr().err


def test_fit_linear_pools_inputs(tmp_path):
    rows = [(n, 3.4 * (n + 1) + (0.5 if n > 11 else 0.0), 0.1) for n in range(3, 23, 2)]

    def write(name, part):
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n_c", "eta_eff", "eta_eff_err"])
            w.writerows(part)
        return str(path)

    def fit(*inputs):
        out = tmp_path / "lin.json"
        assert main(["fit", "--model", "linear", "--input", *inputs,
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    a, b, both = write("a.csv", rows[:5]), write("b.csv", rows[5:]), write("all.csv", rows)
    assert fit(a, b) == fit(both)
    assert (fit(a, b)["params"]["slope"]["value"]
            != pytest.approx(fit(a)["params"]["slope"]["value"], rel=1e-6))


def test_fit_linear_reads_three_columns_per_file(tmp_path, capsys):
    # each file gives its own x, y, sigma; extra columns are ignored
    files = {"a.csv": "x,y,sigma\n1,2,0.1\n2,4,0.1\n",
             "b.csv": "x,y,sigma,note\n3,6,0.1,7\n4,8.5,0.1,7\n",
             "both.csv": "x,y,sigma\n1,2,0.1\n2,4,0.1\n3,6,0.1\n4,8.5,0.1\n",
             "narrow.csv": "x,y\n1,2\n2,4\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    a, b, both, narrow = (str(tmp_path / name) for name in files)
    out = tmp_path / "lin.json"

    def fit(*inputs):
        code = main(["fit", "--model", "linear", "--input", *inputs, "--out", str(out)])
        return code, json.loads(out.read_text()) if code == 0 else None

    assert fit(a, b) == fit(both)
    assert fit(a, narrow)[0] == 2
    err = capsys.readouterr().err
    assert "narrow.csv" in err and "a.csv" not in err


@pytest.mark.parametrize("argv, message", (
    (["--tp-us", "1.73", "--span-factor", "4"], "grid too short"),
    (["--tp-us", "1000", "--samples", "2"], "grid too coarse"),
    (["--tp-us", "80"], "widen the band"),
    # the medium's ringing outlasts a 1.6 us window: wrapped centroid -3.50 ns, converged -3.12 ns
    (["--tp-us", "0.1"], "ends of the time window"),
    # the smallest float underflows to a zero duration; 1e-100 us spans a band past the carrier
    (["--tp-us", "4.94066e-324"], "duration must be positive"),
    (["--tp-us", "1e-100"], "band reaches the optical carrier"),
))
def test_pulse_grid_errors_name_the_flags(tmp_path, capsys, argv, message):
    out = tmp_path / "pulse.json"
    assert main(["pulse", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert " ".join(argv[:2]) in err
    assert "--span-factor" in err and "--samples" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ('{"od": NaN}', '{"od": Infinity}',
                                  pytest.param('{"od": 1' + "0" * 400 + "}", id="10**400"),
                                  # finite in MHz, infinite in rad/s
                                  '{"gamma_MHz": 1e303}', '{"side_shift_MHz": 1e303}'))
def test_non_finite_config_returns_2(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--side", "--config", str(conf), "--out", str(out)]) == 2
    key, = json.loads(text)
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "conf.json" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc, keys", (
    ({"finesse": 1e300, "waist_um": 1e-100}, ("finesse", "waist_um", "wavelength_um")),
    ({"waist_um": 1e-200}, ("finesse", "waist_um", "wavelength_um")),  # pi k^2 w^2 is 0
    ({"wavelength_um": 1e-300, "length_um": 1e300}, ("wavelength_um", "length_um")),
), ids=("cooperativity", "cooperativity-underflow", "kL"))
def test_config_whose_derived_value_overflows_returns_2(tmp_path, capsys, doc, keys):
    # every key is in range, but a value derived from several is not
    conf = tmp_path / "derived.json"
    conf.write_text(json.dumps(doc))
    assert main(["spectrum", "--config", str(conf), "--points", "3"]) == 2
    err = capsys.readouterr().err
    assert "derived.json" in err and all(f"'{key}'" in err for key in keys)
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("text, message", ((b"[1, 2]", "JSON object"),
                                           (b'{"od": ', "not valid JSON"),
                                           (b'{"od": 0.4}\xff', "not valid JSON"),
                                           pytest.param(b"[" * 10**5, "not valid JSON",
                                                        id="nested-10**5")))
def test_bad_config_names_the_file(tmp_path, capsys, text, message):
    conf = tmp_path / "c.json"
    conf.write_bytes(text)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "c.json" in err and message in err
    assert not out.exists()


def test_fit_lorentzian_short_scan_names_the_file(tmp_path, capsys):
    prefix = str(tmp_path / "s5")
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "5", "--out", prefix]) == 0
    assert main(["fit", "--model", "lorentzian", "--input", prefix + ".csv"]) == 2
    err = capsys.readouterr().err
    assert "s5.csv" in err and "at least 8 points" in err


@pytest.mark.parametrize("rows, message", (("3,13.6,0.1\n", "at least 2 points"),
                                           ("3,13.6,0.1\n5,20.4,0\n", "sigmas must be positive")))
def test_fit_linear_bad_rows_name_the_file(tmp_path, capsys, rows, message):
    data = tmp_path / "one.csv"
    data.write_text("n_c,eta_eff,eta_eff_err\n" + rows)
    assert main(["fit", "--model", "linear", "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert "one.csv" in err and message in err


@pytest.mark.parametrize("flag, detector", (("--flux", "D1"),))
def test_fit_zero_normalisation_names_the_sidecar(tmp_path, capsys, flag, detector):
    prefix = str(tmp_path / "z")
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "11", flag, "0",
                 "--out", prefix]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--input", prefix + ".csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "z.json" in err and f"detector {detector}" in err
    assert not out.exists()


def test_fit_d1_only_scan(tmp_path, capsys):
    # --eff2 0 records no emission: fits of the transmission alone work, and
    # scale_d2, which only the emission fixes, is not identifiable
    prefix = str(tmp_path / "d1")
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "41", "--eff2", "0",
                 "--out", prefix]) == 0
    fit = ["fit", "--input", prefix + ".csv", "--out", str(tmp_path / "fit.json")]
    assert main(fit + ["--model", "lorentzian"]) == 0
    assert main(fit + ["--model", "vit", "--free", "eta_eff,od"]) == 0
    assert main(fit + ["--model", "vit"]) == 3
    assert "parameter 'scale_d2' is not identifiable" in capsys.readouterr().err


def test_fit_d1_only_scan_reaches_the_bound(tmp_path):
    # truth eta 0: eta_eff ends on its bound and od still moves to the
    # optimum, which an od grid at eta 0 puts at 0.42519 with cost 198.36825
    prefix = str(tmp_path / "d1")
    assert main(["synth", "--eta", "0", "--delta-cavity-mhz", "0", "--points", "201",
                 "--flux", "1e5", "--dwell-us", "2000", "--eff2", "0", "--seed", "7",
                 "--out", prefix]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--free", "eta_eff,od", "--input", prefix + ".csv",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["eta_eff"]["value"] == 0.0
    assert abs(doc["params"]["od"]["value"] - 0.42519) < 1e-4
    assert doc["residual_norm"] <= 198.3683
    assert doc["converged"] and doc["iterations"] < 10


def test_fit_path_through_the_bound(tmp_path, monkeypatch):
    # the second step lands on eta_eff = 0, where the emission and with it
    # the scale_d2 column vanish: the fit holds scale_d2 there and goes on
    # to the interior optimum instead of calling scale_d2 unidentifiable
    prefix = str(tmp_path / "low")
    assert main(["synth", "--eta", "0.02", "--delta-cavity-mhz", "0", "--points", "201",
                 "--flux", "1e5", "--dwell-us", "2000", "--seed", "3", "--out", prefix]) == 0
    etas = []

    def spy(cfg, eta, *args):
        etas.append(eta)
        return corrected_spectrum(cfg, eta, *args)

    monkeypatch.setattr(fitting, "corrected_spectrum", spy)
    out = tmp_path / "fit.json"
    fit = ["fit", "--model", "vit", "--input", prefix + ".csv", "--out", str(out)]
    assert main(fit) == 0
    assert 0.0 in etas
    params = json.loads(out.read_text())["params"]
    assert abs(params["eta_eff"]["value"] - 0.058371) < 1e-5
    assert abs(params["scale_d2"]["value"] - 0.21931) < 1e-4
    assert main(fit + ["--free", "eta_eff,od"]) == 0
    eta = json.loads(out.read_text())["params"]["eta_eff"]
    assert abs(eta["value"] - 0.0128) < 1e-4 and abs(eta["error"] - 0.0141) < 1e-4


@pytest.mark.parametrize("model", ("vit", "lorentzian", "linear"))
@pytest.mark.parametrize("text", (
    "",
    "delta_probe_MHz,transmission,cavity_emission\n",
    "delta_probe_MHz,delta_cavity_MHz,counts_d1,counts_d2,expected_d1,expected_d2\n",
))
def test_empty_input_returns_2(tmp_path, capsys, model, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    assert main(["fit", "--model", model, "--input", str(data)]) == 2
    assert "data.csv" in capsys.readouterr().err


@pytest.mark.parametrize("model", ("vit", "lorentzian", "linear"))
@pytest.mark.parametrize("text", (
    "delta_probe_MHz,transmission,cavity_emission\n0.1,abc,0.2\n",
    "delta_probe_MHz,transmission,cavity_emission\n0.1,0.5\n",
    "delta_probe_MHz,delta_cavity_MHz,counts_d1,counts_d2,expected_d1,expected_d2\n"
    "0.1,0.0,5\n",
    # detunings past +-1e300 MHz: a fit of these exited 2 blaming the cooperativity
    pytest.param("delta_probe_MHz,transmission,cavity_emission\n"
                 + "".join(f"{k}e303,0.5,0.2\n" for k in range(1, 10)), id="spectrum-1e303-MHz"),
    pytest.param("delta_probe_MHz,delta_cavity_MHz,counts_d1,counts_d2,expected_d1,expected_d2\n"
                 "0.1,-1e301,5,5,5,5\n", id="scan-1e301-MHz"),
))
def test_bad_row_returns_2(tmp_path, capsys, model, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    assert main(["fit", "--model", model, "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert "data.csv, line 2" in err and "Warning" not in err


@pytest.mark.parametrize("model", ("vit", "lorentzian", "linear"))
@pytest.mark.parametrize("text", (
    b"delta_probe_MHz,transmission\xff,cavity_emission\n0.1,0.5,0.2\n",
    b"delta_probe_MHz,transmission,cavity_emission\n0.1,0.5\xff,0.2\n",
), ids=("header", "row"))
def test_input_not_utf8_names_the_file(tmp_path, capsys, model, text):
    # decoding runs ahead of the parser, so the message names no line
    data = tmp_path / "data.csv"
    data.write_bytes(text)
    assert main(["fit", "--model", model, "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert "data.csv is not UTF-8 text" in err and "line" not in err


@pytest.mark.parametrize("model", ("vit", "lorentzian", "linear"))
@pytest.mark.parametrize("line", (1, 2))
def test_cell_beyond_the_field_limit_names_the_file(tmp_path, capsys, model, line):
    # the csv module refuses a cell over 131072 characters
    lines = ["delta_probe_MHz,transmission,cavity_emission", "0.1,0.5,0.2"]
    lines[line - 1] += "," + "1" * 131073
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--model", model, "--input", str(data)]) == 2
    err = capsys.readouterr().err
    assert "data.csv" in err and "field larger than field limit" in err
    assert ("data.csv, line 2:" in err) == (line == 2)


def test_fit_holds_what_is_not_free_at_the_config(tmp_path, capsys):
    # od held at the config's 0.4, not at a guess from the data, leaves
    # scale_d2 at its truth of 1; eta_eff, which no config holds, is always free
    prefix = str(tmp_path / "run")
    assert main(["synth", "--delta-cavity-mhz", "0.5", "-2.2", "2.8", "--points", "201",
                 "--flux", "1e6", "--dwell-us", "50000", "--seed", "7", "--out", prefix]) == 0
    out = tmp_path / "fit.json"
    fit = ["fit", "--model", "vit", "--input", prefix + ".csv", "--out", str(out)]
    assert main(fit + ["--free", "eta_eff,scale_d2"]) == 0
    scale = json.loads(out.read_text())["params"]["scale_d2"]
    assert abs(scale["value"] - 1.0) < 3 * scale["error"]
    out.unlink()
    assert main(fit + ["--free", "od"]) == 2
    assert "eta_eff" in capsys.readouterr().err
    assert not out.exists()


def test_sidecar_missing_key_returns_2(tmp_path, capsys):
    prefix = tmp_path / "scan"
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "11",
                 "--seed", "5", "--out", str(prefix)]) == 0
    sidecar = tmp_path / "scan.json"
    doc = json.loads(sidecar.read_text())
    del doc["plan"]
    sidecar.write_text(json.dumps(doc))
    assert main(["fit", "--model", "vit", "--input", str(prefix) + ".csv"]) == 2
    err = capsys.readouterr().err
    assert "scan.json" in err and "'plan'" in err


@pytest.mark.parametrize("content", (b'{"plan": ', b'{"plan": "\xff"}'))
def test_sidecar_not_json_names_the_file(tmp_path, capsys, content):
    prefix = tmp_path / "run"
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "11",
                 "--seed", "5", "--out", str(prefix)]) == 0
    (tmp_path / "run.json").write_bytes(content)
    assert main(["fit", "--model", "vit", "--input", str(prefix) + ".csv"]) == 2
    err = capsys.readouterr().err
    assert "run.json" in err and "not valid JSON" in err


@pytest.mark.parametrize("part, key, value", (
    ("plan", "photon_flux_per_s", 10**400), ("plan", "dwell_us", 10**400),
    (None, "emission_scale", 10**400), ("corrections", "side_shift_MHz", 10**400),
    ("corrections", "averaging_nodes", 10**30), ("corrections", "jitter_nodes", 10**30),
    ("corrections", "averaging_nodes", 1025),
), ids=("flux", "dwell", "emission_scale", "side_shift", "averaging_nodes", "jitter_nodes",
        "averaging_nodes_1025"))
def test_sidecar_number_beyond_range_names_the_file(tmp_path, capsys, part, key, value):
    # only values refused before any allocation: a node count that passed
    # would build a count x count matrix
    prefix = tmp_path / "run"
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "11",
                 "--seed", "5", "--out", str(prefix)]) == 0
    sidecar = tmp_path / "run.json"
    doc = json.loads(sidecar.read_text())
    (doc[part] if part else doc)[key] = value
    sidecar.write_text(json.dumps(doc))
    assert main(["fit", "--model", "vit", "--input", str(prefix) + ".csv"]) == 2
    assert "run.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", (
    (["synth", "--delta-cavity-mhz", "0", "--dwell-us", "nan"], "--dwell-us"),
    (["synth", "--delta-cavity-mhz", "0", "--flux", "inf"], "--flux"),
    (["synth", "--delta-cavity-mhz", "0", "--eff1", "1.5"], "--eff1"),
    (["spectrum", "--emission-scale", "inf"], "--emission-scale"),
    (["spectrum", "--scan-from", "-inf"], "--scan-from"),
    (["pulse", "--tp-us", "0"], "--tp-us"),
    (["pulse", "--tp-us", "1.73", "--eta", "nan"], "--eta"),
    (["synth", "--delta-cavity-mhz", "0", "--seed", "-1"], "--seed"),
    (["pulse", "--tp-us", "1.73", "--samples", "1000"], "--samples"),
    # a grid needs two points, and the sizes are bounded: numpy died allocating these
    (["spectrum", "--points", "1"], "--points"),
    (["synth", "--delta-cavity-mhz", "0", "--points", "1"], "--points"),
    (["spectrum", "--points", "1000000000000"], "--points"),
    (["synth", "--delta-cavity-mhz", "0", "--points", str(MAX_POINTS + 1)], "--points"),
    (["pulse", "--tp-us", "1", "--samples", "1099511627776"], "--samples"),
    (["pulse", "--tp-us", "1", "--samples", str(2 * MAX_SAMPLES)], "--samples"),
    # detunings past +-1e300 MHz: their difference overflowed
    (["spectrum", "--scan-from", "-1e302", "--scan-to", "1e302"], "--scan-from"),
    (["spectrum", "--scan-to", "1.1e300"], "--scan-to"),
    (["spectrum", "--delta-cavity-mhz", "-1e301"], "--delta-cavity-mhz"),
    (["synth", "--delta-cavity-mhz", "0", "1e301"], "--delta-cavity-mhz"),
    (["fit", "--model", "vit", "--input", "s.csv", "--delta-cavity-mhz", "1e301"],
     "--delta-cavity-mhz"),
))
def test_non_finite_flag_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.iterdir())


def test_flag_bounds_are_inclusive():
    parser = build_parser()
    args = parser.parse_args(["spectrum", "--points", str(MAX_POINTS), "--scan-from",
                              f"-{MAX_DETUNING_MHZ}", "--delta-cavity-mhz", f"{MAX_DETUNING_MHZ}"])
    assert (args.points, args.scan_from, args.delta_cavity_mhz) == (
        MAX_POINTS, -MAX_DETUNING_MHZ, MAX_DETUNING_MHZ)
    args = parser.parse_args(["pulse", "--tp-us", "1", "--samples", str(MAX_SAMPLES)])
    assert args.samples == MAX_SAMPLES


def test_detunings_at_the_bound_are_transparent(tmp_path):
    # Delta - delta reaches 2e300 MHz with every correction on: T = 1 and no
    # emission, with no overflow on the way (pytest turns warnings into errors)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--scan-from", "-1e300", "--scan-to", "1e300",
                 "--delta-cavity-mhz", "-1e300", "--points", "3", "--average", "--side",
                 "--jitter", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    trans, emis = np.array(rows, dtype=float)[:, 1:].T
    assert abs(trans[[0, 2]] - 1.0).max() < 1e-15 and emis[0] == emis[2] == 0.0


def test_reproduce_failure_leaves_no_directory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fig"
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig4", "--seed", "-1", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()

    def fail(conf, cfg):
        raise ValueError("recipe failed")

    # the directory appears only once the recipe has returned
    monkeypatch.setattr(recipes, "fig2", fail)
    assert main(["reproduce", "fig2", "--out-dir", str(out)]) == 2
    assert "recipe failed" in capsys.readouterr().err
    assert not out.exists()


def test_synth_flux_beyond_counts_returns_2(tmp_path, capsys):
    prefix = tmp_path / "scan"
    assert main(["synth", "--delta-cavity-mhz", "0", "--flux", "1e30",
                 "--out", str(prefix)]) == 2
    assert "flux" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spectrum_huge_cooperativity_is_transparent(tmp_path):
    # eta -> infinity: the medium stops absorbing and emits nothing, with no
    # overflow on the way (pytest turns any warning into an error)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--eta", "1e308", "--points", "3", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert [row[1:] for row in rows] == [["1.0", "0.0"]] * 3


def test_pulse_huge_cooperativity_passes_the_pulse_unchanged(tmp_path):
    out = tmp_path / "pulse.json"
    assert main(["pulse", "--tp-us", "1.73", "--eta", "1e308", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["energy_transmission"] - 1.0) < 1e-15
    assert doc["delay_peak_ns"] == doc["tau_max_analytic_ns"] == 0.0
    assert abs(doc["delay_centroid_ns"]) < 1e-9
    assert doc["resonant_transmission_analytic"] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("carrier", ("1e9", "-1e9", "1e80", "1e3", "-1e3"))
def test_pulse_carrier_past_the_optical_frequency_names_the_medium(tmp_path, capsys, carrier):
    # 1e9 MHz is 1 PHz, past the 352 THz of the 852 nm line (1e80 overflowed
    # chi); 1 GHz is an ordinary detuning.  -1e9 is a value, not a flag
    out = tmp_path / "pulse.json"
    code = main(["pulse", "--tp-us", "1.73", "--carrier-mhz", carrier, "--out", str(out)])
    err = capsys.readouterr().err
    if abs(float(carrier)) == 1e3:
        assert code == 0
        assert all(np.isfinite(v) for v in json.loads(out.read_text()).values())
        return
    assert code == 2 and not out.exists()
    assert f"--carrier-mhz {float(carrier):g}" in err and "optical frequency" in err
    assert "--span-factor" not in err


def test_negative_exponent_values_parse_as_numbers(tmp_path):
    # argparse took -2e0 for a flag ("expected one argument"); the same
    # values written without an exponent give the same files
    def run(*argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--points", "5", "--out", str(out)]) == 0
        return out.read_bytes()

    assert run("spectrum", "--scan-from", "-4e0") == run("spectrum", "--scan-from", "-4")
    assert run("spectrum", "--delta-cavity-mhz", "-.5e1") == run(
        "spectrum", "--delta-cavity-mhz", "-5")
    prefix = str(tmp_path / "scan")
    assert main(["synth", "--delta-cavity-mhz", "0.5", "-2e0", "--scan-from", "-4e0",
                 "--points", "5", "--out", prefix]) == 0
    header, rows = _read_csv(prefix + ".csv")
    assert [row[1] for row in rows] == ["0.5"] * 5 + ["-2.0"] * 5
    assert rows[0][0] == "-4.0"


def test_sidecar_normalisation_beyond_the_counts_returns_2(tmp_path, capsys):
    # a dwell edited from 20000 to 1 us: the expected counts are 2e4 times
    # what the plan allows, which used to reach the fitter and exit 3
    prefix = tmp_path / "scan"
    assert main(["synth", "--jitter", "--delta-cavity-mhz", "0.5", "--points", "41",
                 "--scan-from", "-3", "--scan-to", "3", "--flux", "1e6",
                 "--dwell-us", "20000", "--seed", "1", "--out", str(prefix)]) == 0
    sidecar = tmp_path / "scan.json"
    doc = json.loads(sidecar.read_text())
    fit = ["fit", "--model", "vit", "--input", str(prefix) + ".csv",
           "--out", str(tmp_path / "fit.json")]
    # efficiency_d2 0 makes a scan without emission, which these counts contradict
    for part, key, value in (("plan", "dwell_us", 1.0), ("plan", "efficiency_d2", 1e-3),
                             ("plan", "efficiency_d2", 0.0), (None, "emission_scale", 1e-3)):
        edited = copy.deepcopy(doc)
        (edited[part] if part else edited)[key] = value
        sidecar.write_text(json.dumps(edited))
        assert main(fit) == 2
        err = capsys.readouterr().err
        assert "scan.json" in err and "expected_d" in err
    assert not (tmp_path / "fit.json").exists()
    # a larger normalisation is no contradiction: counts may fall short of it
    doc["emission_scale"] = 2.0
    sidecar.write_text(json.dumps(doc))
    assert main(fit) == 0


def test_fit_sidecar_of_another_scan_returns_2(tmp_path, capsys):
    # a sidecar is read with its own scan: another plan's detunings or
    # grid would fit the wrong spectrum and exit 0
    scan = _synth(tmp_path / "a", "0", "1")
    assert main(["synth", "--delta-cavity-mhz", "0.5", "--points", "81", "--flux", "2e6",
                 "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    # the same detuning and range, one point more
    assert main(["synth", "--delta-cavity-mhz", "0", "--points", "42", "--scan-from", "-3",
                 "--scan-to", "3", "--out", str(tmp_path / "c")]) == 0
    out = tmp_path / "fit.json"
    for other in ("b.json", "c.json"):
        assert main(["fit", "--model", "vit", "--input", scan,
                     "--sidecar", str(tmp_path / other), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert other in err and "probe grid" in err
    assert not out.exists()
    assert main(["fit", "--model", "vit", "--input", scan, "--out", str(out)]) == 0


def test_fit_scan_count_past_a_double_returns_2(tmp_path, capsys):
    scan = _synth(tmp_path / "a", "0", "1")
    with open(scan) as fh:
        lines = fh.readlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:2] + [str(2**53 + 1)] + cells[3:])
    with open(scan, "w") as fh:
        fh.writelines(lines)
    assert main(["fit", "--model", "vit", "--input", scan,
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert "a.csv, line 3" in capsys.readouterr().err


@pytest.mark.parametrize("excess, code", ((0, 0), (1, 2), (None, 2)))
def test_fit_count_beyond_the_plan_returns_2(tmp_path, capsys, excess, code):
    # an observed count above e + 50 sqrt(e) + 50, e its expected count, is
    # out of reach of a Poisson draw; excess None writes 2**53
    prefix = str(tmp_path / "a")
    assert main(["synth", "--delta-cavity-mhz", "0.5", "-2.2", "2.8", "--points", "201",
                 "--flux", "1e6", "--dwell-us", "50000", "--seed", "7", "--out", prefix]) == 0
    with open(prefix + ".csv") as fh:
        lines = fh.readlines()
    cells = lines[2].split(",")
    e = float(cells[4])
    count = 2**53 if excess is None else math.floor(e + 50.0 * math.sqrt(e) + 50.0) + excess
    lines[2] = ",".join(cells[:2] + [str(count)] + cells[3:])
    with open(prefix + ".csv", "w") as fh:
        fh.writelines(lines)
    assert main(["fit", "--model", "vit", "--input", prefix + ".csv",
                 "--out", str(tmp_path / "fit.json")]) == code
    if code:
        err = capsys.readouterr().err
        assert "a.json" in err and f"counts_d1 {count} " in err


def test_fit_scan_with_a_repeated_detuning(tmp_path):
    # the plan lists 0 twice: the scan holds its rows twice, in plan order
    prefix = str(tmp_path / "r")
    assert main(["synth", "--delta-cavity-mhz", "0", "0.5", "0", "--points", "41",
                 "--out", prefix]) == 0
    assert main(["fit", "--model", "vit", "--input", prefix + ".csv",
                 "--out", str(tmp_path / "fit.json")]) == 0


def test_fit_scan_with_reordered_rows_names_the_sidecar(tmp_path, capsys):
    # the plan fixes each row's place: the same rows with the resonator
    # detunings swapped are another scan, whose noise streams are not these
    prefix = str(tmp_path / "a")
    assert main(["synth", "--delta-cavity-mhz", "0.5", "-2.2", "--points", "41",
                 "--out", prefix]) == 0
    with open(prefix + ".csv") as fh:
        header, *rows = fh.readlines()
    with open(prefix + ".csv", "w") as fh:
        fh.writelines([header, *rows[41:], *rows[:41]])
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--input", prefix + ".csv",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "a.json" in err and "probe grid" in err
    assert not out.exists()


def test_fit_config_contradicting_the_sidecar_returns_2(tmp_path, capsys):
    # the scan is made with the packaged constants; a fit under other
    # linewidths would estimate eta_eff against the wrong model
    scan = _synth(tmp_path / "scan", "0.5", "1")
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"gamma_MHz": 3.0, "kappa_MHz": 0.5}))
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--input", scan, "--config", str(other),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scan.json" in err and "gamma_MHz 5.2" in err and "gives 3.0" in err
    assert not out.exists()
    other.write_text(json.dumps({"length_um": 21.0}))
    assert main(["fit", "--model", "vit", "--input", scan, "--config", str(other)]) == 2
    err = capsys.readouterr().err
    assert "scan.json" in err and "length_um 20.0" in err and "gives 21.0" in err
    # a sidecar without its physics block names the missing key
    sidecar = tmp_path / "scan.json"
    doc = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({k: v for k, v in doc.items() if k != "physics"}))
    assert main(["fit", "--model", "vit", "--input", scan]) == 2
    err = capsys.readouterr().err
    assert "scan.json" in err and "'physics'" in err


def test_fit_default_config_matches_the_sidecar(tmp_path):
    # the packaged constants, given as a file, match the sidecar bit for
    # bit and fit to the same bytes; od is estimated, so another od fits too
    scan = _synth(tmp_path / "scan", "0.5", "1")
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", "vit", "--input", scan, "--out", str(out)]) == 0
    bare = out.read_bytes()
    conf = tmp_path / "defaults.json"
    conf.write_text(json.dumps(packaged_defaults()))
    assert main(["fit", "--model", "vit", "--input", scan, "--config", str(conf),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == bare
    conf.write_text(json.dumps({"od": 0.9}))
    assert main(["fit", "--model", "vit", "--input", scan, "--config", str(conf),
                 "--out", str(out)]) == 0


def test_fit_uses_the_sidecar_corrections(tmp_path, capsys):
    # a scan with averaging and jitter fits the same with and without the
    # flags: its sidecar records both (the truth is eta_eff 3.39)
    prefix = str(tmp_path / "sc")
    assert main(["synth", "--average", "--jitter", "--delta-cavity-mhz", "0.5",
                 "--points", "161", "--flux", "1e6", "--dwell-us", "50000",
                 "--seed", "1", "--out", prefix]) == 0
    out = tmp_path / "fit.json"

    def fit(*argv):
        code = main(["fit", "--model", "vit", "--input", *argv, "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    code, bare = fit(prefix + ".csv")
    assert code == 0 and fit(prefix + ".csv", "--average", "--jitter") == (0, bare)
    eta = json.loads(bare)["params"]["eta_eff"]
    assert abs(eta["value"] - 3.39) < 3 * eta["error"]
    # a flag whose correction the sidecar lacks
    assert fit(prefix + ".csv", "--side")[0] == 2
    err = capsys.readouterr().err
    assert "--side" in err and "sc.json" in err
    # a joint fit needs one set of corrections
    plain = _synth(tmp_path / "plain", "0", "1")
    assert fit(prefix + ".csv", plain)[0] == 2
    err = capsys.readouterr().err
    assert "sc.json" in err and "plain.json" in err


def test_missing_input_returns_2(capsys):
    assert main(["fit", "--model", "vit", "--input", "/nonexistent.csv"]) == 2
    capsys.readouterr()


def test_reproduce_fig2(tmp_path):
    out = tmp_path / "fig2"
    assert main(["reproduce", "fig2", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["figure"] == "fig2"
    assert sorted(manifest["files"]) == [
        "fig2A.csv", "fig2B.csv", "fig2C.csv", "fig2D.csv"]
    # panel A is the bare line: no emission anywhere
    _, rows = _read_csv(out / "fig2A.csv")
    emis = np.array([float(r[2]) for r in rows])
    assert np.max(emis) < 1e-4
    # the transparency panels do emit
    _, rows = _read_csv(out / "fig2B.csv")
    emis = np.array([float(r[2]) for r in rows])
    assert np.max(emis) > 1e-3


def test_reproduce_fig3(tmp_path):
    out = tmp_path / "fig3"
    assert main(["reproduce", "fig3", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "fig3_delays.json").read_text())
    for key in ("no_jitter", "with_jitter"):
        assert 20.0 < doc[key]["delay_centroid_ns"] < 45.0
        assert 20.0 < doc[key]["delay_peak_ns"] < 45.0
    # jitter softens the window and shortens the delay
    assert doc["with_jitter"]["delay_centroid_ns"] < doc["no_jitter"]["delay_centroid_ns"]
    assert (out / "fig3_output_with_jitter.csv").exists()


def test_reproduce_fig4(tmp_path):
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert main(["reproduce", "fig4", "--out-dir", str(out), "--seed", "3"]) == 0
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["files"] == [
        "fig4_eta_eff.csv", "fig4_linear_fit.json", "fig4_transparency.csv"]
    assert manifest["parameters"]["seed"] == 3
    header, rows = _read_csv(outs[0] / "fig4_eta_eff.csv")
    assert header == ["n_c", "eta_eff", "eta_eff_err"]
    assert [int(r[0]) for r in rows] == list(range(2, 23, 2))
    # same plan -> identical files
    for name in ("manifest.json", *manifest["files"]):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
