"""One pass: a fresh interpreter that imports the CLI and runs each call in
turn, as a single caller with no threads.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds ``src`` (the checkout's source directory), ``calls`` (argv
lists for ``orbitrank.cli.main``), ``outdir`` (where the JSON reports go),
``trace``, ``sample`` and ``result`` (where this process writes what it
saw).

With ``sample`` set, a wall-clock timer interrupts the pass every
``SAMPLE_EVERY_S`` seconds to time ``refspeed.reference()``, so that the
machine's speed is sampled evenly over the pass. The time the samples take
is taken out of every reported time. Traced passes do not sample.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
from time import perf_counter

import refspeed

SAMPLE_EVERY_S = 0.25


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import orbitrank.cli

    origin = os.path.realpath(orbitrank.cli.__file__)
    if not origin.startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"orbitrank was imported from {origin}, not from {job['src']}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer, ledger

        tracer = Tracer()
        tracer.install()

    outputs = [os.path.join(job["outdir"], f"report{i}.json") for i in range(len(job["calls"]))]
    samples: list[float] = []
    sampling = [0.0]  # seconds spent sampling so far

    def sample(signum, frame):
        start = perf_counter()
        samples.append(refspeed.reference())
        sampling[0] += perf_counter() - start

    if job["sample"]:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    captured = []
    first = perf_counter()
    for i, argv in enumerate(job["calls"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.input = i
        start, sampled = perf_counter(), sampling[0]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # looked up on the module each time, so the tracer's wrapper runs
                code = orbitrank.cli.main(argv + ["--json", outputs[i]])
            except Exception as exc:  # a traceback is a wrong answer, not a crash of the pass
                code = f"exception: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start - (sampling[0] - sampled)
        captured.append((code, seconds, out.getvalue(), err.getvalue()))
    signal.setitimer(signal.ITIMER_REAL, 0)
    end = perf_counter()
    wall = end - first - sampling[0]

    calls = []
    for (code, seconds, stdout, stderr), path in zip(captured, outputs):
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report = fh.read()
        calls.append({"exit": code, "seconds": seconds, "stdout": stdout, "stderr": stderr, "json": report})
    result = {"wall_s": wall, "calls": calls, "ref_samples": samples}
    if tracer is not None:
        result["ledger"] = ledger(tracer.names, tracer.spans)
        result["wrapped"] = tracer.wrapped
        with open(job["result"] + ".spans", "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
