"""Regenerate bench/reference.json from the vitlab sources of this checkout.

    python3 bench/make_reference.py

Runs each workload's job argv (bench/run.py `job_argvs`) in-process
through `vitlab.cli.main` and stores the compact values bench/checks.py
compares against: downsampled spectra, the fig3 delays, the fig4 fits,
and for `roundtrip` a digest of the counts plus the fit.  Seeded
workloads get an entry for every job seed of their pool (bench/run.py
`job_pool`), which is where every benchmark run takes its job seeds
from; other job seeds are checked against invariants only.  Takes about
7 minutes on 2 cores.  Regenerate only when a change is meant to alter
the numbers, and say so in the change.
"""

import contextlib
import io
import json
import multiprocessing
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run as bench  # noqa: E402


def observe_job(task):
    """Run one job in this process; return (workload, job seed, shared, per-seed)."""
    workload, job_seed = task
    sys.path.insert(0, bench.SRC)
    import vitlab.cli
    os.makedirs(bench.BUILD, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=bench.BUILD)
    cwd = os.getcwd()
    stdouts = []
    try:
        os.chdir(work)
        for argv in bench.job_argvs(workload, job_seed):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = vitlab.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"vitlab {' '.join(argv)} exited {code}")
            stdouts.append(buf.getvalue())
        obs = checks.observe(workload, work, stdouts)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    shared, per_seed = checks.reference_entry(workload, obs)
    return workload, job_seed, shared, per_seed


def main():
    os.environ.update(bench.THREAD_ENV)

    tasks = [("spectra", None), ("pulses", None)]
    for workload in bench.POOL_JOBS:
        tasks += [(workload, job_seed) for job_seed in bench.job_pool(workload)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = pool.map(observe_job, tasks, chunksize=1)

    sys.path.insert(0, bench.SRC)
    from vitlab import config
    from vitlab.core import cooperativity_geometric
    conf = config.load_config()
    eta_model = conf["f_eg"] * cooperativity_geometric(config.cavity_geometry(conf))

    ref = {}
    for workload, job_seed, shared, per_seed in results:
        section = ref.setdefault(workload, {"shared": shared, "seeds": {}})
        if section["shared"] != shared:
            raise RuntimeError(f"{workload}: seed-independent outputs differ between jobs")
        if per_seed is not None:
            section["seeds"][str(job_seed)] = per_seed
    ref["fits"]["shared"]["eta_model"] = eta_model
    ref["roundtrip"]["shared"]["eta_truth"] = eta_model
    with open(checks.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE}: {len(tasks)} jobs")


if __name__ == "__main__":
    main()
