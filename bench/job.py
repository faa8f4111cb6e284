"""Run one vitlab invocation in this (fresh) process and record what it cost.

    python3 bench/job.py RESULT_JSON TRACE JOB_ID -- VITLAB_ARGV...

bench/run.py launches this with the checkout's `src` on
PYTHONPATH, single-threaded BLAS, and the job's output directory as the
working directory.  It writes RESULT_JSON with:

    ready_monotonic  time.monotonic() once vitlab.cli is imported and the
                     config is loaded (bench/run.py subtracts its launch time)
    main_s           wall time of vitlab.cli.main(argv)
    exit_code        main's return value, a SystemExit code, or null if it raised
    error            repr of the exception main raised, or null
    maxrss_kb        peak resident memory of this process (VmHWM; ru_maxrss
                     would also count the launching process, whose memory
                     the child shares until exec)
    numpy            the numpy version the job ran with
    trace            the span dump (TRACE=1 only)
"""

import json
import resource
import sys
import time


def peak_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    result_path, trace, job_id = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: job.py RESULT_JSON TRACE JOB_ID -- VITLAB_ARGV...")
    argv = sys.argv[5:]

    import vitlab.cli
    import vitlab.config
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer(job_id)
        spans.install(tracer)
    vitlab.config.load_config()
    ready = time.monotonic()

    exit_code, error = None, None
    start = time.perf_counter()
    try:
        exit_code = vitlab.cli.main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        error = repr(exc)
    main_s = time.perf_counter() - start
    sys.stdout.flush()

    doc = {
        "ready_monotonic": ready,
        "main_s": main_s,
        "exit_code": exit_code,
        "error": error,
        "maxrss_kb": peak_rss_kb(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        doc["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
