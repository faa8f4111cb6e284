"""Reproduce the photon-number calibration: eta_eff versus n_c.

Runs a short synthetic scan at each intracavity photon number, fits
eta_eff from every spectrum, then fits the weighted line
eta_eff = slope * (n_c + intercept/slope). For the full-size version see
`vitlab reproduce fig4`.
"""

import argparse

from vitlab.config import corrections, load_config, physical_config
from vitlab.fitting import format_value_error, line_ratio
from vitlab.recipes import calibration_line, photon_number_scan
from vitlab.spatial import effective_cooperativity

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--seed", type=int, default=42)
args = parser.parse_args()

conf = load_config()
cfg = physical_config(conf)
rows = photon_number_scan(cfg, 3.4, range(4, 23, 3), corrections(conf, average=True),
                          args.seed)

print(" n_c   truth   fitted eta_eff")
for n_c, eta, err in rows:
    print(f"{n_c:4d}  {effective_cooperativity(3.4, n_c):6.1f}   "
          f"{format_value_error(eta, err)}")

line = calibration_line(rows)
ratio, ratio_err = line_ratio(line)
print()
for name in ("slope", "intercept"):
    print(f"{name:<15}{format_value_error(line.value(name), line.error(name))}  (truth 3.4)")
print(f"intercept/slope {format_value_error(ratio, ratio_err)}  (truth 1; "
      "the n_c -> n_c + 1 vacuum offset)")
