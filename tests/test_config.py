import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vitlab.config import (
    ENV_VAR,
    MHZ,
    cavity_geometry,
    corrections,
    load_config,
    packaged_defaults,
    physical_config,
    validate_config,
)


def test_packaged_defaults_complete():
    conf = packaged_defaults()
    assert conf["gamma_MHz"] == 5.2
    assert conf["kappa_MHz"] == 0.173
    assert conf["od"] == 0.4
    assert conf["finesse"] == 63000.0


def test_readme_table_lists_the_defaults():
    # README's configuration table: one row per key, its default as written there
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    assert len(rows) == len(packaged_defaults())
    assert {key: float(default) for key, default in rows} == packaged_defaults()


def test_validate_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        validate_config({"gamma_mhz": 5.2})  # wrong case


def test_validate_rejects_bad_types():
    with pytest.raises(ValueError):
        validate_config({"od": "0.4"})
    with pytest.raises(ValueError):
        validate_config({"od": True})
    # an integer beyond the largest double is not finite either
    for value in (float("nan"), float("inf"), float("-inf"), 10**400, -10**400):
        with pytest.raises(ValueError, match="'od' must be finite"):
            validate_config({"od": value})


def test_validate_range_checks():
    with pytest.raises(ValueError):
        validate_config({"gamma_MHz": -1.0})
    with pytest.raises(ValueError):
        validate_config({"f_eg": 1.5})
    with pytest.raises(ValueError):
        validate_config({"jitter_fwhm_MHz": -0.1})


# the bound that each kind of bad value breaks: the detunings' in MHz, or positive in m
RANGES = {"finite": r"must lie in \[[^,]+, 1e\+300\] MHz",
          "positive": re.escape("must lie in [5e-324, 1.7976931348623157e+308] m")}


@pytest.mark.parametrize("key, bad, good, message", (
    ("gamma_MHz", 1e303, 1e300, "finite"),
    ("kappa_MHz", 3e302, 1e300, "finite"),
    ("side_shift_MHz", 1e303, 1e300, "finite"),
    ("jitter_fwhm_MHz", 1e303, 1e300, "finite"),
    ("wavelength_um", 1e-320, 1e-300, "positive"),
    ("length_um", 5e-324, 1e-300, "positive"),
))
def test_validate_checks_the_si_value(key, bad, good, message):
    # bad is finite and positive in laboratory units, but beyond the
    # detunings' bound in MHz (infinite in rad/s), or zero in m
    with pytest.raises(ValueError, match=f"'{key}' {RANGES[message]}"):
        validate_config({key: bad})
    assert validate_config({key: good})[key] == good


@pytest.mark.parametrize("doc, message", (
    ({"finesse": 1e300, "waist_um": 1e-100}, "'finesse', 'waist_um' and 'wavelength_um'"),
    ({"wavelength_um": 1e-300, "length_um": 1e300}, "'wavelength_um' and 'length_um'"),
))
def test_validate_refuses_a_non_finite_derived_value(doc, message):
    with pytest.raises(ValueError, match=f"{message} give a non-finite"):
        validate_config(doc)
    # each value alone is fine
    for key, value in doc.items():
        validate_config({key: value})


@pytest.mark.parametrize("fields", [
    *({name: bad} for name in ("gamma", "kappa", "wavelength", "od", "length")
      for bad in (np.inf, np.nan)),
    {"wavelength": 1e-306, "length": 1e294},  # k L is 2 pi 1e600
], ids=str)
def test_physical_config_refuses_non_finite_fields(fields):
    with pytest.raises(ValueError, match="finite"):
        replace(physical_config(packaged_defaults()), **fields)


def test_partial_override_merges_defaults():
    conf = validate_config({"od": 0.5})
    assert conf["od"] == 0.5
    assert conf["gamma_MHz"] == 5.2


def test_load_from_path(tmp_path):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"od": 0.9}))
    assert load_config(str(p))["od"] == 0.9


def test_env_var_fallback(tmp_path, monkeypatch):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"od": 0.7}))
    monkeypatch.setenv(ENV_VAR, str(p))
    assert load_config()["od"] == 0.7
    # explicit path beats the environment
    q = tmp_path / "other.json"
    q.write_text(json.dumps({"od": 0.2}))
    assert load_config(str(q))["od"] == 0.2


def test_physical_config_units():
    conf = packaged_defaults()
    cfg = physical_config(conf)
    assert np.isclose(cfg.gamma, 2 * np.pi * 5.2e6, rtol=1e-12)
    assert np.isclose(cfg.wavelength, 0.852e-6, rtol=1e-12)
    assert np.isclose(cfg.length, 20e-6, rtol=1e-12)
    geom = cavity_geometry(conf)
    assert np.isclose(geom.waist, 35e-6, rtol=1e-12)


def test_f_ef_accepted_but_unread(tmp_path):
    # f_ef still loads from a config file and is range-checked, but no
    # model quantity reads it
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"f_ef": 0.9}))
    conf = load_config(str(p))
    assert conf["f_ef"] == 0.9
    assert physical_config(conf) == physical_config(packaged_defaults())
    with pytest.raises(ValueError):
        validate_config({"f_ef": 1.5})


def test_corrections_factory_flags():
    conf = packaged_defaults()
    none = corrections(conf)
    assert none.averaging_nodes == 0
    assert none.side_weight == none.side_shift == none.jitter_fwhm == 0.0
    full = corrections(conf, average=True, side=True, jitter=True)
    assert full.averaging_nodes == 64
    assert full.side_weight == 0.25
    assert np.isclose(full.side_shift, 0.6 * MHZ, rtol=1e-12)
    assert np.isclose(full.jitter_fwhm, 0.2 * MHZ, rtol=1e-12)
