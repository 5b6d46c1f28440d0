"""Benchmark of the ``orbit-rank`` CLI: time to report, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,dense_small,dense_large}
        [--seed N] [--seconds S] [--trace 0|1]

Each pass is a fresh interpreter (``perfbench/worker.py``) that imports
``orbitrank.cli`` from the checkout's ``src`` and calls ``main`` once per
input, one call after another: a closed loop with one caller. All inputs in
a pass are distinct. Dense passes draw new matrices every time; catalog
passes repeat the same requests, whose report bytes must then repeat too.

``--trace 0`` runs timed passes for ``--seconds`` (it starts no pass that
would end later) and reports the end-to-end metrics: ``wall_ref_s`` (first
call to last return in a pass, mean over passes), ``setup_s`` (a fresh
interpreter importing ``orbitrank.cli``, median of several) and
``peak_rss_mb`` (peak resident memory of a pass process, median over
passes).

Both times are given at a fixed reference speed (``refspeed.py``), because
the shared host's speed drifts by tens of percent within seconds and
minutes. A timed pass samples the machine's speed every quarter second with
a fixed reference computation; its time is scaled by ``REF_S`` times the
mean of 1 / reference time over its samples, an estimate of the pass's mean
speed. Each import is scaled the same way by reference runs made right
after it in the same interpreter. The unscaled times and every sample go to
the run's record.

``--trace 1`` runs one pass untraced and two traced (see ``tracer.py``) on
the same inputs and reports the per-layer metrics and the stage ledger. The
report bytes must be identical in all three passes and the work counts in
the two traced passes; anything else fails the run.

Every input is checked against closed forms (``inputs.py``). The last line of
standard output is the result as JSON; everything a run saw, including the
drawn matrices, goes to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("catalog", "dense_small", "dense_large")
DEADLINE_S = 170  # every run must end within 180 s
SETUP_REPEATS = 7
SETUP_SAMPLES = 2  # reference runs after each import
MIN_SAMPLES = 5  # a timed pass with fewer speed samples is an error
HASH_SEED = "0"

# Per-layer metrics of a traced run: name -> unit. Names ending in .calls,
# .total_s or .self_s read the span of the same name.
PER_LAYER = {
    "liealg.exponentiality_check.total_s": "s",
    "linalg.charpoly.calls": "count",
    "linalg.charpoly.total_s": "s",
    "sturm.count_real_roots.calls": "count",
    "sturm.count_real_roots.total_s": "s",
    "coadjoint.segment_tests": "count",
    "poly.restrict_to_segment.total_s": "s",
    "sturm.sturm_root_count.calls": "count",
    "sturm.sturm_root_count.total_s": "s",
    "sturm.segment_degree_max": "degree",
    "sturm.segment_coeff_bits_max": "bits",
    "coadjoint.samples_rejected": "count",
    "coadjoint.certified_edges": "count",
    "coadjoint.edge_yield": "frac",
    "poly.sym_pfaffian.calls": "count",
    "poly.sym_pfaffian.total_s": "s",
    "coadjoint.p_polynomial.calls": "count",
    "coadjoint.p_polynomial.self_s": "s",
    "poly.p_terms": "count",
    "poly.evaluate.calls": "count",
    "poly.evaluate.total_s": "s",
    "poly.render.total_s": "s",
    "report.json_bytes": "bytes",
    "liealg.structure_report.total_s": "s",
    "liealg.derived_series.calls": "count",
    "liealg.validate.total_s": "s",
    "lieio.parse_lie.total_s": "s",
    "catalog.catalog_from_spec.total_s": "s",
    "inference.derive_group_filtration.total_s": "s",
    "inference.infer.total_s": "s",
    "inference.load_filtration.total_s": "s",
    "inference.trace_length": "count",
    "invariants.projection_verdict.total_s": "s",
    "report.analyze_algebra.self_s": "s",
    "report.report_json.total_s": "s",
    "report.render_text.total_s": "s",
    "cli.main.self_s": "s",
    **{f"stage.{s}": "s" for s in ("parse", "structure", "screen", "p_polynomial", "estimate",
                                    "inference", "render", "unattributed")},
    **{f"stage.{s}.share": "frac" for s in ("parse", "structure", "screen", "p_polynomial",
                                            "estimate", "inference", "render", "unattributed")},
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "inputs": "count",
    "failed_frac": "frac",
}
# per-layer counters taken from span arguments and results
COUNTERS = {
    "sturm.segment_degree_max": "segment_degree_max",
    "sturm.segment_coeff_bits_max": "segment_coeff_bits_max",
    "coadjoint.samples_rejected": "samples_rejected",
    "coadjoint.certified_edges": "certified_edges",
    "poly.p_terms": "p_terms",
    "report.json_bytes": "json_bytes",
    "inference.trace_length": "trace_length",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "PYTHONHASHSEED": HASH_SEED,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv: list[str], deadline: float) -> tuple[int, int]:
    """Run a child to completion; return (exit status, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            if time.monotonic() > deadline:
                raise BenchError(f"{argv[1]} did not finish before the run's deadline")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def speed(samples: list[float]) -> float:
    """Mean machine speed over the samples, relative to the reference speed."""
    return refspeed.REF_S * statistics.fmean(1 / r for r in samples)


def measure_setup(deadline: float) -> list[dict]:
    """Seconds fresh interpreters take to import orbitrank.cli, each with the
    reference runs made right after its import. The first import, which may
    write bytecode caches, is not counted."""
    code = (
        "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
        "import orbitrank.cli; t = time.perf_counter() - t; "
        "sys.path.insert(0, {here!r}); import refspeed; "
        "print(repr([t] + [refspeed.reference() for _ in range({n})]))"
    ).format(src=SRC, here=HERE, n=SETUP_SAMPLES)
    out = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"importing orbitrank.cli failed: {proc.stderr.strip()}")
        if i:
            seconds, *samples = json.loads(proc.stdout)
            out.append({"import_s": seconds, "ref_samples": samples,
                        "setup_s": seconds * speed(samples)})
    return out


def run_pass(calls: list[inputs.Call], folder: str, trace: bool, deadline: float,
             sample: bool = False) -> dict:
    os.makedirs(folder, exist_ok=True)
    job = {
        "src": SRC,
        "calls": [c.argv for c in calls],
        "outdir": folder,
        "trace": trace,
        "sample": sample,
        "result": os.path.join(folder, "result.json"),
    }
    job_path = os.path.join(folder, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    code, rss_kib = run_child([sys.executable, os.path.join(HERE, "worker.py"), job_path], deadline)
    if code != 0:
        raise BenchError(f"pass in {folder} exited with {code}")
    with open(job["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_mb"] = rss_kib / 1024
    return result


def check_pass(calls: list[inputs.Call], result: dict, label: str, problems: list[str]) -> int:
    failed = 0
    for call, out in zip(calls, result["calls"]):
        found = inputs.check(call, out["exit"], out["stderr"], out["json"])
        if found:
            failed += 1
            problems.append(f"{label} {call.name}: {'; '.join(found)}")
    return failed


def check_repeats(calls: list[inputs.Call], result: dict, first_seen: dict, label: str,
                  problems: list[str]) -> int:
    """Count calls whose output bytes differ from an earlier run of the same
    command line; remember the ones seen for the first time."""
    failed = 0
    for call, out in zip(calls, result["calls"]):
        key = tuple(call.argv)
        seen = first_seen.setdefault(key, (label, out["stdout"], out["json"]))
        if seen[1:] != (out["stdout"], out["json"]):
            failed += 1
            problems.append(f"{label} {call.name}: report bytes differ from {seen[0]}")
    return failed


def timed_passes(args, lib, folder: str, start: float, deadline: float) -> tuple[dict, dict]:
    """Timed passes from ``start`` until the next one would end after
    ``--seconds``, judged by the longest pass so far; at least one."""
    rng = random.Random(args.seed)
    drawn: list = []
    passes = []
    problems: list[str] = []
    failed = attempted = 0
    first_seen: dict = {}
    longest = 0.0
    while not passes or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        index = len(passes)
        pass_dir = os.path.join(folder, f"pass{index}")
        calls = inputs.pass_calls(args.workload, lib, args.seed, rng, pass_dir, drawn)
        result = run_pass(calls, pass_dir, False, deadline, sample=True)
        failed += check_pass(calls, result, f"pass {index}", problems)
        failed += check_repeats(calls, result, first_seen, f"pass {index}", problems)
        attempted += len(calls)
        samples = result["ref_samples"]
        if len(samples) < MIN_SAMPLES:
            raise BenchError(f"pass {index} took {len(samples)} speed samples, fewer than {MIN_SAMPLES}")
        passes.append({
            "wall_s": result["wall_s"],
            "speed": speed(samples),
            "wall_ref_s": result["wall_s"] * speed(samples),
            "peak_rss_mb": result["peak_rss_mb"],
            "inputs": {c.name: r["seconds"] for c, r in zip(calls, result["calls"])},
            "ref_samples": samples,
        })
        longest = max(longest, time.monotonic() - began)
    metrics = {
        "wall_ref_s": (statistics.fmean(p["wall_ref_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    record = {"passes": passes, "matrices": drawn, "problems": problems}
    return metrics, {"failed": failed, "attempted": attempted, "record": record}


def _ledger_value(name: str, led: dict):
    stats = led["stats"]
    for suffix in (".calls", ".total_s", ".self_s"):
        if name.endswith(suffix):
            span = name[: -len(suffix)]
            return stats.get(span, {}).get(suffix[1:], 0)
    raise KeyError(name)


def work_counts(led: dict) -> dict:
    counts = {f"{span}.calls": st["calls"] for span, st in led["stats"].items()}
    counts.update(led["counters"])
    return counts


def traced_passes(args, lib, folder: str, deadline: float) -> tuple[dict, dict]:
    drawn: list = []
    calls = inputs.pass_calls(args.workload, lib, args.seed, random.Random(args.seed),
                              os.path.join(folder, "inputs"), drawn)
    labels = ("untraced", "traced_a", "traced_b")
    runs = [run_pass(calls, os.path.join(folder, label), label != "untraced", deadline)
            for label in labels]
    problems: list[str] = []
    failed = 0
    first_seen: dict = {}
    for label, result in zip(labels, runs):
        failed += check_pass(calls, result, label, problems)
        failed += check_repeats(calls, result, first_seen, label, problems)
    led_a, led_b = runs[1]["ledger"], runs[2]["ledger"]
    counts_a, counts_b = work_counts(led_a), work_counts(led_b)
    if counts_a != counts_b:
        diff = sorted(k for k in set(counts_a) | set(counts_b) if counts_a.get(k) != counts_b.get(k))
        problems.append(f"work counts differ between the traced passes: {diff}")

    # counts come from traced pass a (b has the same); times are medians of a and b
    values = {}
    for name in PER_LAYER:
        if name in COUNTERS:
            values[name] = led_a["counters"][COUNTERS[name]]
        elif name.endswith(".calls"):
            values[name] = _ledger_value(name, led_a)
        elif name.endswith((".total_s", ".self_s")):
            values[name] = statistics.median([_ledger_value(name, led_a), _ledger_value(name, led_b)])
    tests = _ledger_value("poly.restrict_to_segment.calls", led_a)
    values["coadjoint.segment_tests"] = tests
    values["coadjoint.edge_yield"] = values["coadjoint.certified_edges"] / tests if tests else 0.0
    untraced_wall = runs[0]["wall_s"]
    traced_wall = statistics.median([runs[1]["wall_s"], runs[2]["wall_s"]])
    stages = {s: statistics.median([led_a["stages"][s], led_b["stages"][s]]) for s in led_a["stages"]}
    stages["unattributed"] = traced_wall - sum(stages.values())
    for s, value in stages.items():
        values[f"stage.{s}"] = value
        values[f"stage.{s}.share"] = value / traced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    values["inputs"] = len(calls)
    attempted = len(labels) * len(calls)
    values["failed_frac"] = failed / attempted
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    spans = {n.rsplit(".", 1)[0] for n in PER_LAYER if n.endswith((".calls", ".total_s", ".self_s"))}
    record = {
        "matrices": drawn,
        "problems": problems,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": [runs[1]["wall_s"], runs[2]["wall_s"]],
        "work_counts": counts_a,
        "absent": sorted(spans - set(runs[1]["wrapped"])),
        "ledger": {"traced_a": led_a, "traced_b": led_b},
    }
    return metrics, {"failed": failed, "attempted": attempted, "record": record,
                     "counts_repeat": counts_a == counts_b}


def load_library():
    sys.path.insert(0, SRC)
    import orbitrank

    origin = os.path.realpath(orbitrank.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"orbitrank was imported from {origin}, not from {SRC}")
    return orbitrank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "orbitrank", "cli.py")):
        print(f"error: no orbitrank source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        lib = load_library()
        folder = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(folder, ignore_errors=True)
        os.makedirs(folder)
        env = environment()
        if args.trace:
            metrics, outcome = traced_passes(args, lib, folder, deadline)
        else:
            setup = measure_setup(deadline)
            metrics, outcome = timed_passes(args, lib, folder, start, deadline)
            metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
            outcome["record"]["setup_s"] = setup
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = outcome["failed"] == 0 and outcome.get("counts_repeat", True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "failed": outcome["failed"],
        "attempted": outcome["attempted"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **outcome["record"],
    }
    with open(os.path.join(folder, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for problem in outcome["record"]["problems"]:
        print(f"FAILED {problem}")
    for span in outcome["record"].get("absent", ()):
        print(f"absent layer {span}: its metrics read 0")
    print(f"inputs attempted {outcome['attempted']}, failed {outcome['failed']}")
    for i, p in enumerate(outcome["record"].get("passes", ())):
        print(f"pass {i}: unscaled wall_s {p['wall_s']:.4f}, speed {p['speed']:.4f}, "
              f"wall_ref_s {p['wall_ref_s']:.4f}, {len(p['ref_samples'])} speed samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": summary["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
