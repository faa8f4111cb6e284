from unittest import mock

import numpy as np
import pytest

from vitlab import spatial
from vitlab.config import cavity_geometry, load_config, physical_config

# stiff-atom knob: same resonator, atomic line 100x wider, so the small
# kappa/gamma dispersion correction to the delay formula is negligible
STIFF_GAMMA = 2.0 * np.pi * 520e6


def at_nodes(classes, jitter=spatial.JITTER_NODES):
    """Patch the rules to this many standing-wave classes whatever eta_max
    (the unsized rule), and jitter nodes: small ensembles for witnesses."""
    rule = spatial._unit_rule
    return mock.patch.object(spatial, "_unit_rule",
                             lambda kind, nodes: rule(kind, classes if kind == "cos2" else jitter))


@pytest.fixture(scope="session")
def conf():
    return load_config()


@pytest.fixture(scope="session")
def cfg(conf):
    return physical_config(conf)


@pytest.fixture(scope="session")
def geom(conf):
    return cavity_geometry(conf)
