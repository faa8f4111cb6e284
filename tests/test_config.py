import json

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


def test_validate_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        validate_config({"gamma_mhz": 5.2})  # wrong case


def test_validate_rejects_bad_types():
    with pytest.raises(ValueError):
        validate_config({"od": "0.4"})
    with pytest.raises(ValueError):
        validate_config({"od": True})
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="'od' must be finite"):
            validate_config({"od": value})


def test_validate_range_checks():
    with pytest.raises(ValueError):
        validate_config({"gamma_MHz": -1.0})
    with pytest.raises(ValueError):
        validate_config({"f_eg": 1.5})
    with pytest.raises(ValueError):
        validate_config({"jitter_fwhm_MHz": -0.1})


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
