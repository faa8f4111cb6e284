"""Correctness gate for benchmark jobs: read a job's outputs, compare them.

`observe` reads the files a job wrote (and what it printed) into plain
Python values; `check` compares those against bench/reference.json and
against invariants that hold for every seed.  A job whose outputs miss
any check counts as failed.  bench/make_reference.py builds the
reference with the same `observe`.
"""

import csv
import hashlib
import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SPECTRUM_PANELS = ("fig2A.csv", "fig2B.csv", "fig2C.csv", "fig2D.csv")
TRACE_FILES = ("fig3_input.csv", "fig3_output_no_jitter.csv", "fig3_output_with_jitter.csv")
FIT_PARAMS = ("eta_eff", "od", "scale_d2")
SPECTRUM_STRIDE = 16     # every 16th of 321 points: 21 per panel
EXPECTED_STRIDE = 100    # every 100th of 6003 scan rows: 61
TRUTH_SIGMAS = 5.0       # a job seed without a reference entry: |eta_eff - truth| <= 5 sigma


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(_flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: doc}


def counts_digest(counts):
    """Short stable digest of the integer count columns of a scan."""
    text = "\n".join(f"{a},{b}" for a, b in counts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observe(workload, work_dir, stdouts):
    """Read one job's outputs; raises OSError/ValueError/KeyError if they are unusable."""
    if workload == "spectra":
        panels = {}
        for name in SPECTRUM_PANELS:
            _, rows = _rows(os.path.join(work_dir, "out", name))
            panels[name] = {"transmission": [float(r[1]) for r in rows],
                            "emission": [float(r[2]) for r in rows]}
        return panels
    if workload == "pulses":
        sizes = [os.path.getsize(os.path.join(work_dir, "out", n)) for n in TRACE_FILES]
        return {"delays": _json(os.path.join(work_dir, "out", "fig3_delays.json")),
                "trace_bytes": sizes}
    if workload == "fits":
        _, rows = _rows(os.path.join(work_dir, "out", "fig4_eta_eff.csv"))
        _, theta = _rows(os.path.join(work_dir, "out", "fig4_transparency.csv"))
        return {"n_c": [int(r[0]) for r in rows],
                "eta_eff": [float(r[1]) for r in rows],
                "eta_eff_err": [float(r[2]) for r in rows],
                "theta": [float(r[1]) for r in theta],
                "linear": _json(os.path.join(work_dir, "out", "fig4_linear_fit.json"))}
    if workload == "roundtrip":
        _, rows = _rows(os.path.join(work_dir, "run.csv"))
        fit = json.loads(stdouts[1])
        return {"counts": [(int(r[2]), int(r[3])) for r in rows],
                "expected_d1": [float(r[4]) for r in rows],
                "expected_d2": [float(r[5]) for r in rows],
                "fit": fit}
    raise ValueError(f"unknown workload {workload!r}")


def _digits(values):
    return [float(f"{v:.10g}") for v in values]


def reference_entry(workload, obs):
    """The compact part of an observation that goes into the reference.

    Returns (shared, per_seed): values every seed must reproduce, and
    values that depend on the job seed (None for unseeded workloads).
    Fit values are compared to 0.05 sigma, so ten digits are plenty.
    """
    if workload == "spectra":
        return {name: {k: v[::SPECTRUM_STRIDE] for k, v in panel.items()}
                for name, panel in obs.items()}, None
    if workload == "pulses":
        return {"delays": obs["delays"]}, None
    if workload == "fits":
        return ({"n_c": obs["n_c"], "theta": obs["theta"]},
                {"eta_eff": _digits(obs["eta_eff"]), "eta_eff_err": _digits(obs["eta_eff_err"])})
    if workload == "roundtrip":
        params = obs["fit"]["params"]
        return ({"rows": len(obs["counts"]),
                 "expected_d1": obs["expected_d1"][::EXPECTED_STRIDE],
                 "expected_d2": obs["expected_d2"][::EXPECTED_STRIDE]},
                {"counts": counts_digest(obs["counts"]),
                 "params": {p: _digits([params[p]["value"], params[p]["error"]])
                            for p in FIT_PARAMS}})
    raise ValueError(f"unknown workload {workload!r}")


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(values, expected, abs_tol=0.0, rel_tol=0.0):
    if len(values) != len(expected):
        return False
    return all(abs(a - b) <= abs_tol + rel_tol * abs(b) for a, b in zip(values, expected))


def truth_offsets(workload, obs, ref):
    """(fitted eta_eff - true eta_eff) / its sigma, for every fit of one job."""
    if workload == "fits":
        eta_model = ref["fits"]["shared"]["eta_model"]
        return [(e - eta_model * (n_c + 1)) / s
                for n_c, e, s in zip(obs["n_c"], obs["eta_eff"], obs["eta_eff_err"])]
    if workload == "roundtrip":
        eta = obs["fit"]["params"]["eta_eff"]
        return [(eta["value"] - ref["roundtrip"]["shared"]["eta_truth"]) / eta["error"]]
    return []


def _off_truth(workload, obs, ref):
    return [f"eta_eff {x:+.3g} sigma from the truth"
            for x in truth_offsets(workload, obs, ref) if abs(x) > TRUTH_SIGMAS]


def check(workload, obs, job_seed, ref):
    """Problems with one job's observation (an empty list means it passed).

    ref is the loaded reference document.  Every job gets the invariant
    checks (finite values, bounds, converged fits).  A job seed the
    reference lists must reproduce its stored fit to 0.05 sigma; a job
    seed it does not list must instead land within 5 sigma of the true
    eta_eff.
    """
    problems = []
    section = ref[workload]
    if workload == "spectra":
        for name, panel in obs.items():
            t, e = panel["transmission"], panel["emission"]
            if len(t) != 321 or not _finite(t + e):
                problems.append(f"{name}: expected 321 finite rows")
                continue
            if min(t) < 0 or max(t) > 1:
                problems.append(f"{name}: transmission outside [0, 1]")
            if min(e) < 0:
                problems.append(f"{name}: negative emission")
            want = section["shared"][name]
            if not _close(t[::SPECTRUM_STRIDE], want["transmission"], abs_tol=1e-9):
                problems.append(f"{name}: transmission differs from reference")
            if not _close(e[::SPECTRUM_STRIDE], want["emission"], abs_tol=1e-9):
                problems.append(f"{name}: emission differs from reference")
    elif workload == "pulses":
        got, want = _flatten(obs["delays"]), _flatten(section["shared"]["delays"])
        if set(got) != set(want):
            problems.append("fig3_delays.json: keys differ from reference")
        elif not _finite(list(got.values())):
            problems.append("fig3_delays.json: non-finite value")
        else:
            bad = [k for k in want if not _close([got[k]], [want[k]], rel_tol=1e-9)]
            if bad:
                problems.append(f"fig3_delays.json: {', '.join(sorted(bad))} differ from reference")
        if min(obs["trace_bytes"]) == 0:
            problems.append("fig3 trace file is empty")
    elif workload == "fits":
        shared = section["shared"]
        eta, err = obs["eta_eff"], obs["eta_eff_err"]
        if obs["n_c"] != shared["n_c"] or not _finite(eta + err + obs["theta"]):
            problems.append("fig4_eta_eff.csv: wrong rows or non-finite values")
            return problems
        if not _finite([v for k, v in _flatten(obs["linear"]).items()
                        if not k.endswith("formatted")]):
            problems.append("fig4_linear_fit.json: non-finite value")
        if min(err) <= 0:
            problems.append("fig4_eta_eff.csv: nonpositive error")
        if not _close(obs["theta"], shared["theta"], abs_tol=1e-9):
            problems.append("fig4_transparency.csv: theta differs from reference")
        seeded = section["seeds"].get(str(job_seed))
        if seeded is None:
            problems += [f"fig4: {p}" for p in _off_truth(workload, obs, ref)]
        else:
            for e, s, e_ref, s_ref in zip(eta, err, seeded["eta_eff"], seeded["eta_eff_err"]):
                if abs(e - e_ref) > 0.05 * s_ref or abs(s / s_ref - 1) > 0.01:
                    problems.append(f"fig4: eta_eff {e}+-{s} differs from reference "
                                    f"{e_ref}+-{s_ref}")
    elif workload == "roundtrip":
        shared = section["shared"]
        counts = obs["counts"]
        if len(counts) != shared["rows"] or any(a < 0 or b < 0 for a, b in counts):
            problems.append("run.csv: wrong row count or negative counts")
            return problems
        e1, e2 = obs["expected_d1"][::EXPECTED_STRIDE], obs["expected_d2"][::EXPECTED_STRIDE]
        if not _close(e1, shared["expected_d1"], rel_tol=1e-12) or \
                not _close(e2, shared["expected_d2"], rel_tol=1e-12):
            problems.append("run.csv: expected counts differ from reference")
        fit = obs["fit"]
        params = {p: (fit["params"][p]["value"], fit["params"][p]["error"]) for p in FIT_PARAMS}
        if not fit.get("converged") or not _finite([v for pair in params.values() for v in pair]):
            problems.append("fit: not converged or non-finite parameters")
            return problems
        seeded = section["seeds"].get(str(job_seed))
        if seeded is None:
            problems += [f"fit: {p}" for p in _off_truth(workload, obs, ref)]
        else:
            if counts_digest(counts) != seeded["counts"]:
                problems.append("run.csv: counts differ from reference")
            for p, (v_ref, s_ref) in seeded["params"].items():
                if abs(params[p][0] - v_ref) > 0.05 * s_ref:
                    problems.append(f"fit: {p} {params[p][0]} differs from reference {v_ref}")
    return problems
