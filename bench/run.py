"""The vitlab benchmark: cold-process CLI jobs, timed end to end and traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A *job* is what a user of the `vitlab` console script waits for: one
invocation (two for `roundtrip`: `synth`, then `fit` on its output),
each in a fresh Python process launched from this process, one at a
time, with BLAS/OpenMP held to one thread and a fresh output directory.
The job's argv is a function of (workload, seed, job index) only, and
the program sees nothing but argv.  Jobs run until the next one would
end after --seconds.  Every job's outputs go through bench/checks.py;
a job that raises, exits non-zero or misses a check counts as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-module
metrics: untraced and traced jobs then alternate, the traced ones
recording spans around every public vitlab function (bench/spans.py),
and `trace_overhead` compares the two.  `--workload all` runs every
workload both ways and prints every metric.  Human-readable lines start
with '#'; the last line of standard output is the result as JSON.  A
run record (git sha, source digest, versions, CPU, thread settings,
seed, sample counts, every job) goes to .bench_build/records/.

The program runs from the checkout's `src` directory, as the tests do;
nothing is installed.
"""

import argparse
import functools
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
JOB = os.path.join(HERE, "job.py")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("spectra", "pulses", "fits", "roundtrip")

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("peak_mem_mb", "MB"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("config.load_s", "s"),
    ("core.chi.calls", "count"),
    ("core.chi.points", "points"),
    ("core.chi.s", "s"),
    ("oracle.solve.calls", "count"),
    ("oracle.solve.points", "points"),
    ("oracle.solve.s", "s"),
    ("spatial.spectrum.calls", "count"),
    ("spatial.spectrum.s", "s"),
    ("spatial.spectrum.self_s", "s"),
    ("spatial.members", "count"),
    ("spatial.member_points", "points"),
    ("spatial.quadrature.calls", "count"),
    ("spatial.quadrature.s", "s"),
    ("pulses.propagate.calls", "count"),
    ("pulses.propagate.s", "s"),
    ("pulses.propagate.self_s", "s"),
    ("pulses.fft_points", "points"),
    ("pulses.ensemble.members", "count"),
    ("pulses.ensemble.s", "s"),
    ("pulses.io.s", "s"),
    ("synth.scan.calls", "count"),
    ("synth.scan.s", "s"),
    ("synth.scan.self_s", "s"),
    ("synth.rng_streams", "count"),
    ("synth.io.s", "s"),
    ("synth.io.rows", "rows"),
    ("fitting.fits", "count"),
    ("fitting.fit.s", "s"),
    ("fitting.fit.self_s", "s"),
    ("fitting.model_evals", "count"),
    ("fitting.iterations", "count"),
    ("fitting.converged_ratio", "ratio"),
    ("fitting.truth_offset_sigma", "sigma"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
) + tuple((f"{m}.errors", "count") for m in spans.MODULES) + (
    ("trace_overhead", "ratio"),
)

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

HARD_LIMIT_S = 165.0    # a run must end within 180 s, hung jobs included

ROUNDTRIP_SYNTH = ["synth", "--delta-cavity-mhz", "0.5", "-2.2", "2.8", "--points", "2001",
                   "--flux", "1e6", "--dwell-us", "50000"]


# The seeded workloads draw their job seeds from a fixed pool that
# bench/reference.json covers, so every job a run reaches is checked
# against stored values, however many jobs fit into --seconds: a faster
# program cannot change which checks apply.  --seed picks the order in
# which a run walks the pool.  fig4 uses seeds S..S+10, so job seeds
# step by 11.
POOL_SEEDS = 16
POOL_JOBS = {"fits": 8, "roundtrip": 40}


def job_pool(workload):
    return [1000 * s + 11 * i for s in range(POOL_SEEDS) for i in range(POOL_JOBS[workload])]


@functools.lru_cache(maxsize=None)
def _pool_order(workload, seed):
    pool = job_pool(workload)
    return random.Random(seed).sample(pool, len(pool))


def job_seed(workload, seed, index):
    """Seed of one job of a seeded workload, None for the others."""
    if workload not in POOL_JOBS:
        return None
    order = _pool_order(workload, seed)
    return order[index % len(order)]


def job_argvs(workload, job_seed):
    """The vitlab argv of each process of one job (run in the job's work dir)."""
    if workload == "spectra":
        return [["reproduce", "fig2", "--out-dir", "out"]]
    if workload == "pulses":
        return [["reproduce", "fig3", "--out-dir", "out"]]
    if workload == "fits":
        return [["reproduce", "fig4", "--out-dir", "out", "--seed", str(job_seed)]]
    if workload == "roundtrip":
        return [ROUNDTRIP_SYNTH + ["--seed", str(job_seed), "--out", "run"],
                ["fit", "--model", "vit", "--input", "run.csv"]]
    raise ValueError(f"unknown workload {workload!r}")


def job_env():
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL") if k in os.environ}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    return env


def tail(values):
    """The highest percentile of `values` that has at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  That is the order
    statistic of rank n - 10.  With ten samples or fewer no rank has ten
    beyond it; the rule then falls back to the slowest sample (p100, 0
    beyond), and the printed line says so.
    """
    xs = sorted(values)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def _tree_bytes(path):
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def run_job(workload, seed, index, traced, run_dir, reference, hard_deadline):
    """Run one job in fresh processes and check its outputs; returns its record."""
    job_dir = os.path.join(run_dir, f"job{index}")
    work = os.path.join(job_dir, "work")
    os.makedirs(work)
    record = {"index": index, "job_seed": job_seed(workload, seed, index),
              "traced": traced, "processes": [], "problems": [], "truth_sigma": []}
    env = job_env()
    stdouts, dumps = [], []
    for k, argv in enumerate(job_argvs(workload, record["job_seed"])):
        result_path = os.path.join(job_dir, f"proc{k}.json")
        out_path = os.path.join(job_dir, f"proc{k}.out")
        cmd = [sys.executable, JOB, result_path, "1" if traced else "0", str(index), "--"] + argv
        with open(out_path, "wb") as out, open(os.path.join(job_dir, f"proc{k}.err"), "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, hard_deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code is None:
            record["problems"].append(f"process {k} timed out")
            break
        if code != 0:
            with open(os.path.join(job_dir, f"proc{k}.err")) as fh:
                record["problems"].append(f"process {k} exited {code}: {fh.read()[-500:]}")
            break
        with open(result_path) as fh:
            res = json.load(fh)
        with open(out_path) as fh:
            stdouts.append(fh.read())
        record["processes"].append({
            "argv": argv, "setup_s": res["ready_monotonic"] - launched,
            "main_s": res["main_s"], "maxrss_kb": res["maxrss_kb"], "numpy": res["numpy"]})
        if "trace" in res:
            dumps.append(res["trace"])
        if res["error"] is not None or res["exit_code"] != 0:
            record["problems"].append(
                f"vitlab {' '.join(argv)}: exit {res['exit_code']}, error {res['error']}")
            break

    if not record["problems"]:
        try:
            obs = checks.observe(workload, work, stdouts)
            record["problems"] += checks.check(workload, obs, record["job_seed"], reference)
            if not record["problems"]:
                record["truth_sigma"] = checks.truth_offsets(workload, obs, reference)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            record["problems"].append(f"outputs unreadable: {exc!r}")
    if record["job_seed"] is not None and \
            str(record["job_seed"]) not in reference[workload]["seeds"]:
        record["problems"].append(f"reference.json has no entry for job seed {record['job_seed']}")
    procs = record["processes"]
    if procs:
        record["job_s"] = sum(p["main_s"] for p in procs)
        record["peak_mem_mb"] = max(p["maxrss_kb"] for p in procs) / 1024.0
    if dumps and not record["problems"]:
        layer = spans.job_metrics(dumps)
        layer["cli.out_bytes"] = _tree_bytes(work) + sum(len(s.encode()) for s in stdouts)
        record["layers"] = layer
    shutil.rmtree(job_dir)
    return record


def _median(values):
    return statistics.median(values) if values else 0.0


def truth_offsets(records):
    """|fitted eta_eff - truth| / sigma of every fit in the jobs that passed."""
    return [abs(x) for r in records if not r["problems"] for x in r.get("truth_sigma", [])]


def summarize(records, trace):
    """Metrics of one run, as {name: (value, unit, samples)}, plus the tail detail."""
    ok = [r for r in records if not r["problems"] and "job_s" in r]
    timed = ok or [r for r in records if "job_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not trace:
        setups = [p["setup_s"] for r in plain for p in r["processes"]]
        job_s = [r["job_s"] for r in plain]
        tail_value, pct, beyond = tail(job_s) if job_s else (0.0, 0.0, 0)
        metrics = {
            "setup_s": (_median(setups), "s", len(setups)),
            "job_s": (_median(job_s), "s", len(job_s)),
            "job_s_tail": (tail_value, "s", len(job_s)),
            "peak_mem_mb": (_median([r["peak_mem_mb"] for r in plain]), "MB", len(plain)),
            "ok_frac": (len(ok) / len(records), "ratio", len(records)),
        }
        return metrics, {"percentile": pct, "beyond": beyond}
    traced = [r for r in timed if r["traced"] and "layers" in r]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace_overhead":
            base = _median([r["job_s"] for r in plain])
            value = _median([r["job_s"] for r in traced]) / base - 1.0 if base else 0.0
            metrics[name] = (value, unit, min(len(plain), len(traced)))
        elif name == "fitting.truth_offset_sigma":
            offsets = truth_offsets(records)
            metrics[name] = (_median(offsets), unit, len(offsets))
        else:
            metrics[name] = (_median([r["layers"][name] for r in traced]), unit, len(traced))
    counter_errors = sum(r["layers"]["counter_errors"] for r in traced)
    return metrics, {"counter_errors": counter_errors}


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run(workload, seed, seconds, trace, reference):
    """One benchmark run; returns (result JSON object, human lines)."""
    start = time.monotonic()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S
    os.makedirs(BUILD, exist_ok=True)
    run_dir = os.path.join(BUILD, "jobs", f"{workload}-{seed}-{os.getpid()}-{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # fill the bytecode and file caches once; installed packages have both warm
    subprocess.run([sys.executable, "-c", "import vitlab.cli"], env=job_env(), check=True)

    records, walls = [], []
    index = 0
    while True:
        began = time.monotonic()
        records.append(run_job(workload, seed, index, trace and index % 2 == 1,
                               run_dir, reference, hard_deadline))
        walls.append(time.monotonic() - began)
        index += 1
        now = time.monotonic()
        if index >= (2 if trace else 1) and now + statistics.median(walls) > deadline:
            break
        if now + max(walls) > hard_deadline:
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics, detail = summarize(records, trace)
    failed = sum(1 for r in records if r["problems"])
    lines = [f"# {workload} seed {seed} trace {trace}: {len(records)} jobs, {failed} failed, "
             f"failed_frac {failed / len(records):.4g}"]
    for name, (value, unit, n) in metrics.items():
        extra = ""
        if name == "job_s_tail":
            extra = f" (p{detail['percentile']:.4g}, {detail['beyond']} beyond)"
            if detail["beyond"] < 10:
                extra += " -- 10 jobs or fewer, so the slowest job"
        lines.append(f"#   {name:26s} {value:.6g} {unit} n={n}{extra}")
    offsets = truth_offsets(records)
    if offsets:
        beyond = sum(1 for x in offsets if x > checks.TRUTH_SIGMAS)
        lines.append(f"# known fit bias: {beyond} of {len(offsets)} fitted eta_eff lie beyond "
                     f"{checks.TRUTH_SIGMAS:g} sigma of the truth (median offset "
                     f"{statistics.median(offsets):.3g} sigma); reference.json, not the "
                     f"truth, checks these job seeds")
    if detail.get("counter_errors"):
        lines.append(f"# warning: {detail['counter_errors']} span counters failed")
    for r in records:
        for problem in r["problems"]:
            lines.append(f"# job {r['index']} failed: {problem}")

    procs = [p for r in records for p in r["processes"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": procs[0]["numpy"] if procs else None,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "thread_env": THREAD_ENV,
        "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "detail": detail, "jobs": records,
    }
    records_dir = os.path.join(BUILD, "records")
    os.makedirs(records_dir, exist_ok=True)
    record_path = os.path.join(records_dir, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"# run record: {os.path.relpath(record_path, ROOT)}")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so running jobs are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "vitlab", "cli.py")):
        print(f"error: no vitlab sources under {SRC}", file=sys.stderr)
        return 2
    reference = checks.load_reference()

    if args.workload != "all":
        result, lines = run(args.workload, args.seed, args.seconds, args.trace, reference)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run(workload, args.seed, args.seconds, trace, reference)
            print("\n".join(lines), flush=True)
            results[f"{workload}.trace{trace}"] = result
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
