"""Outside-in tracing of the vitlab package, and the arithmetic on its spans.

The job runner calls `install` after `vitlab.cli` is imported.  Every
public function defined in a loaded `vitlab.*` module is wrapped once,
and the wrapper replaces the original in every loaded `vitlab.*` module
that holds it by identity, so names imported with `from ... import`
are traced too.  Nothing under `src/` is changed.

A span is the list ``[name, start, end, parent, error, counts]``: an
index into the name table, two `time.perf_counter` readings, the index
of the enclosing span (-1 at the top), 1 if an exception left the call,
and a dict of counts taken from the call's arguments and return value
(or None), keyed by the metric they add to.  Spans stay in memory and are written out once, when the job
ends.

The metric side (`job_metrics`) works on plain span lists, so the
self-test can feed it a synthetic tree.  A family of functions that a
later refactor deletes or renames simply records zero.
"""

import functools
import inspect
import sys
import time
import types

PACKAGE = "vitlab"

# family -> qualified names ("<module>.<function>", module without the package)
FAMILIES = {
    "config.load": ("config.load_config",),
    "core.chi": ("core.susceptibility",),
    "oracle.solve": ("oracle.steady_state_amplitudes",),
    "spatial.spectrum": ("spatial.corrected_spectrum",),
    "spatial.quadrature": ("spatial.standing_wave_distribution", "spatial.jitter_quadrature"),
    "pulses.propagate": ("pulses.propagate",),
    "pulses.ensemble": ("pulses.run_pulse_ensemble",),
    "pulses.io": ("pulses.write_trace_csv", "pulses.read_trace_csv"),
    "synth.scan": ("synth.generate_scan",),
    "synth.io": ("synth.write_scan_csv", "synth.read_scan_csv", "synth.write_scan_sidecar"),
    "fitting.fit": ("fitting.fit_vit_spectra", "fitting.fit_lorentzian"),
    "cli.main": ("cli.main",),
}

MODULES = ("config", "core", "oracle", "spatial", "pulses", "synth", "fitting", "cli")


def _size(value):
    import numpy as np
    return int(np.size(value))


def _count_chi(bound, result):
    return {"core.chi.points": _size(getattr(result, "value", result))}


def _count_solve(bound, result):
    return {"oracle.solve.points": _size(result.c_e)}


def _count_spectrum(bound, result):
    corr = bound.get("corrections")
    members = 1
    if corr is not None:
        members = max(int(corr.averaging_nodes), 1)
        if corr.jitter_fwhm:
            members *= int(corr.jitter_nodes)
    return {"spatial.members": members,
            "spatial.member_points": members * _size(result[0])}


def _count_propagate(bound, result):
    return {"pulses.fft_points": _size(bound["pulse"].samples)}


def _count_ensemble(bound, result):
    return {"pulses.ensemble.members": len(bound["media"])}


def _count_scan(bound, result):
    plan = bound["plan"]
    return {"synth.rng_streams": len(plan.delta_cavity_list) * len(plan.probe_grid)}


def _count_scan_write(bound, result):
    return {"synth.io.rows": sum(len(records) for _, records in bound["scans"])}


def _count_scan_read(bound, result):
    return {"synth.io.rows": sum(len(records) for _, records in result)}


def _count_fit(bound, result):
    return {"fitting.iterations": int(result.iterations),
            "fitting.converged": int(bool(result.converged))}


COUNTERS = {
    "core.susceptibility": _count_chi,
    "oracle.steady_state_amplitudes": _count_solve,
    "spatial.corrected_spectrum": _count_spectrum,
    "pulses.propagate": _count_propagate,
    "pulses.run_pulse_ensemble": _count_ensemble,
    "synth.generate_scan": _count_scan,
    "synth.write_scan_csv": _count_scan_write,
    "synth.read_scan_csv": _count_scan_read,
    "fitting.fit_vit_spectra": _count_fit,
    "fitting.fit_lorentzian": _count_fit,
}


class Tracer:
    """In-memory span recorder for one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.names = []
        self.spans = []
        self.counter_errors = 0
        self._stack = [-1]

    def wrap(self, qualname, fn):
        """Return a wrapper of `fn` that records one span per call."""
        index = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, clock(), 0.0, stack[-1], 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record[5] = counter(bound.arguments, result)
                except Exception:
                    self.counter_errors += 1
            return result

        return traced

    def dump(self):
        return {"job_id": self.job_id, "names": self.names, "spans": self.spans,
                "counter_errors": self.counter_errors}


def _short(module_name):
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") else module_name


def install(tracer):
    """Wrap every public function of the loaded vitlab modules; return the count."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrappers = {}
    for module in modules:
        for attr, value in vars(module).items():
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if not value.__module__.startswith(PACKAGE) or value.__name__.startswith("_"):
                continue
            if id(value) not in wrappers:
                qualname = f"{_short(value.__module__)}.{value.__name__}"
                wrappers[id(value)] = tracer.wrap(qualname, value)
    # the wrappers hold the originals, so an id cannot be reused meanwhile
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return len(wrappers)


# ---------------------------------------------------------------- analysis

def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def module_of(qualname):
    return qualname.split(".", 1)[0]


def layer_self_time(spans, names, children, i):
    """Duration of span i minus what its calls into other modules cover.

    Calls within span i's own module are followed down; the first span
    of another module on each path is a child whose interval is
    subtracted.
    """
    own = module_of(names[spans[i][0]])
    covered = []
    todo = list(children[i])
    while todo:
        j = todo.pop()
        if module_of(names[spans[j][0]]) == own:
            todo.extend(children[j])
        else:
            covered.append((spans[j][1], spans[j][2]))
    start, end = spans[i][1], spans[i][2]
    return (end - start) - union_length(covered, start, end)


def _children(spans):
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    return children


def _has_ancestor(spans, i, members):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in members:
            return True
        parent = spans[parent][3]
    return False


def job_metrics(dumps):
    """Per-module metrics of one job, from the span dumps of its processes."""
    out = {}
    for family in FAMILIES:
        out[f"{family}.calls"] = 0
        out[f"{family}.s"] = 0.0
        out[f"{family}.self_s"] = 0.0
    for module in MODULES:
        out[f"{module}.errors"] = 0
    for key in ("core.chi.points", "oracle.solve.points", "spatial.members",
                "spatial.member_points", "pulses.fft_points", "pulses.ensemble.members",
                "synth.rng_streams", "synth.io.rows", "fitting.model_evals",
                "fitting.iterations", "fitting.converged", "counter_errors"):
        out[key] = 0

    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        out["counter_errors"] += dump.get("counter_errors", 0)
        children = _children(spans)
        family_of, members_of = {}, {}
        for family, members in FAMILIES.items():
            ids = {k for k, name in enumerate(names) if name in members}
            for k in ids:
                family_of[k] = family
                members_of[k] = ids
        modules = [module_of(name) for name in names]
        fit_ids = {k for k, name in enumerate(names) if name in FAMILIES["fitting.fit"]}
        spectrum_ids = {k for k, name in enumerate(names)
                        if name in FAMILIES["spatial.spectrum"]}
        for i, (k, start, end, parent, error, counts) in enumerate(spans):
            family = family_of.get(k)
            if family is not None:
                out[f"{family}.calls"] += 1
                if not _has_ancestor(spans, i, members_of[k]):
                    out[f"{family}.s"] += end - start
                    out[f"{family}.self_s"] += layer_self_time(spans, names, children, i)
            if error and modules[k] in MODULES and (
                    parent < 0 or modules[spans[parent][0]] != modules[k]):
                out[f"{modules[k]}.errors"] += 1
            for metric, value in (counts or {}).items():
                out[metric] += value
            if k in spectrum_ids and _has_ancestor(spans, i, fit_ids):
                out["fitting.model_evals"] += 1

    out["fitting.fits"] = out["fitting.fit.calls"]
    fits = out["fitting.fits"]
    out["fitting.converged_ratio"] = out.pop("fitting.converged") / fits if fits else 0.0
    out["config.load_s"] = out["config.load.s"]
    out["cli.self_s"] = out["cli.main.self_s"]
    return out
