"""Cold-process benchmark of the wardtri CLI, and its traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One client runs a closed loop from this process: the seeded job list of the
workload (see workloads.py), job after job, each job one or two cold
`python -m wardtri.cli ...` subprocesses that receive only the generated
argv.  The list is replayed once per PASS_SECONDS[workload] of --seconds.
Every job's output goes through the gate in workloads.py; a failed job is
counted and the run goes on.

Times are reported in reference seconds: a job's wall time scaled by
CALIBRATION_REF_S over the time a fixed calibration program took in a cold
interpreter right before and right after the job, with this process and
its children held on one CPU.  On a shared host the speed of a core
changes by up to a third, from one second to the next and for minutes at
a time; the scaling takes most of that out.  The unscaled wall times are
printed beside the metrics.

With --trace 1 the same jobs are replayed once inside this process instead:
for each job `triangles.clear_caches()` and then `wardtri.cli.main(argv)`,
once plainly and once with spans around the public functions of every
module (see spans.py), and the per-layer metrics come from those spans.

The last line of stdout is the JSON result; the line before it, starting
with "record ", holds the same metrics with the provenance of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import spans
import workloads

# Nominal seconds of one pass over the job list, calibrations included, on
# the reference machine; --seconds buys one pass per this many seconds, at
# least one.
PASS_SECONDS = {"verify": 10, "transform": 10, "export": 6}
SETUP_REPEATS = 11
# A fixed program for a cold interpreter: Fraction arithmetic, tuple and
# dict traffic, big int to decimal and back.  A job's reference seconds are
# its wall seconds times CALIBRATION_REF_S (the calibration's time on the
# reference machine) over the calibration time measured next to it.
CALIBRATION = """
from fractions import Fraction
total, seen = Fraction(0), {}
for j in range(1, 2000):
    total += Fraction(j, j + 1) ** (j % 7)
    seen[(j, j % 13)] = total.denominator % 101
    if j % 40 == 0:
        total = Fraction(j % 5)
big = 7 ** 3000
for _ in range(25):
    assert int(str(big)) == big
"""
CALIBRATION_REF_S = 0.06
JOB_TIMEOUT_S = 150
TAIL_LADDER = (99, 95, 90, 75, 50)
OUT_DIR = Path("perfbench") / "out"
BFILE = str(OUT_DIR / "job.b")  # relative to the repository root, the cwd
MODULES = ("exact_arith", "partition_transform", "triangles", "series", "identities", "bfile", "cli")
EXACT_ARITH = ("factorial", "falling_factorial", "rising_factorial", "binomial", "exact_div", "as_integer")
# Row caches of the triangles module, read to tell a build from a lookup.
ROW_CACHES = ("_cache", "_stirling1_rows", "_stirling2_rows", "_lah_rows")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s",
    "cases_per_s": "1/s", "peak_rss_mb": "MB",
}


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolating between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percent(samples: int) -> int:
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it (50 when even the median has fewer)."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50


def calibrate(env: dict, stdout_path: Path) -> float:
    """Wall seconds of one cold interpreter running CALIBRATION: process
    start plus Python work like the jobs', and nothing of the program."""
    rc, took, _ = spawn([sys.executable, "-c", CALIBRATION], env, stdout_path)
    if rc != 0:
        raise RuntimeError(f"the calibration program exited {rc}")
    return took


def reference_seconds(timed: list[tuple[int, float]], calibrations: list[float]) -> list[float]:
    """Each timed sample in reference seconds.  Sample k ran between
    calibrations k and k+1 and is scaled by their mean: the core's speed
    changes from one second to the next, so the calibrations nearest in
    time predict it best."""
    return [took * CALIBRATION_REF_S / ((calibrations[k] + calibrations[k + 1]) / 2)
            for k, (_, took) in enumerate(timed)]


def passes_for(workload: str, seconds: int) -> int:
    return max(1, int(seconds / PASS_SECONDS[workload] + 0.5))


def pin_to_one_cpu() -> int:
    """Hold this process, and so the children it starts, on one CPU, so that
    the calibration runs on the core the jobs run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------- cold run


def spawn(args: list[str], env: dict, stdout_path: Path) -> tuple[int, float, int]:
    """Run one process to its end; (exit code, wall seconds, peak RSS in KiB).
    It is reaped with a blocking wait4, which returns the moment it exits."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL, env=env)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def wardtri(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "wardtri.cli", *argv]


def count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))


def run_cold(job: workloads.Job, env: dict, tamper=None) -> tuple[float, int, int, str]:
    """(wall seconds, peak RSS KiB, cases, failure reason) of one cold job.
    `tamper(path)`, if given, edits the b-file before it is read back."""
    stdout_path = OUT_DIR / "stdout.txt"
    rcs, texts, wall, rss, lines = [], [], 0.0, 0, 0
    for i, argv in enumerate(job.steps(BFILE)):
        writes_bfile = job.command == "export" and i == 0
        rc, seconds, kib = spawn(wardtri(argv), env, Path(BFILE) if writes_bfile else stdout_path)
        rcs.append(rc)
        wall += seconds
        rss = max(rss, kib)
        if writes_bfile:
            texts.append("")
            lines = count_lines(Path(BFILE))
            if tamper is not None:
                tamper(Path(BFILE))
        else:
            texts.append(stdout_path.read_text())
    Path(BFILE).unlink(missing_ok=True)
    cases, reason = job.verdict(rcs, texts, BFILE, lines)
    return wall, rss, cases, reason


def cold_run(workload: str, jobs: list[workloads.Job], seconds: int, root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    help_path = OUT_DIR / "help.txt"
    failures: list[str] = []

    def time_setup() -> float:
        rc, took, _ = spawn(wardtri(["--help"]), env, help_path)
        if rc != 0 or "usage: wardtri" not in help_path.read_text():
            failures.append(f"setup: `wardtri --help` exited {rc}")
        return took

    def calibration() -> float:
        return calibrate(env, OUT_DIR / "calibration.txt")

    time_setup()  # writes the bytecode caches; not counted
    calibration()
    # The job list is replayed passes_for(...) times; the count depends only
    # on the workload and --seconds, so that every run takes the median of
    # as many repeats.  A calibration follows every timed process, and the
    # set-up samples are spread over the run.
    passes = passes_for(workload, seconds)
    start = time.perf_counter()
    setup_every = max(1, passes * len(jobs) // SETUP_REPEATS)
    calibrations = [calibration()]
    timed: list[tuple[int, float]] = []  # (job index or -1 for set-up, wall seconds)
    cases = peak = attempted = failed = 0

    def record(index: int, took: float) -> None:
        timed.append((index, took))
        calibrations.append(calibration())

    for done in range(passes):
        for j, job in enumerate(jobs):
            if attempted % setup_every == 0:
                record(-1, time_setup())
            took, kib, job_cases, reason = run_cold(job, env)
            attempted += 1
            record(j, took)
            peak = max(peak, kib)
            if done == 0:
                cases += job_cases
            if reason:
                failed += 1
                failures.append(f"{' '.join(job.steps(BFILE)[0])}: {reason}")
    while sum(i < 0 for i, _ in timed) < SETUP_REPEATS:
        record(-1, time_setup())

    setup, raw_setup = [], []
    times: list[list[float]] = [[] for _ in jobs]
    raw: list[list[float]] = [[] for _ in jobs]
    for (index, took), ref in zip(timed, reference_seconds(timed, calibrations)):
        (setup if index < 0 else times[index]).append(ref)
        (raw_setup if index < 0 else raw[index]).append(took)

    # A job's time is the median of its repeats.
    per_job = [statistics.median(t) for t in times]
    samples = [t for ts in times for t in ts]  # every job the same number of times
    wall = sum(per_job)
    tail_p = tail_percent(len(samples))
    tail = percentile(samples, tail_p)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "job_p50_s": statistics.median(samples),
        "cases_per_s": cases / wall,
        "peak_rss_mb": peak / 1024,
    }
    notes = {
        "passes": passes,
        "run_s": time.perf_counter() - start,
        "jobs_timed": len(samples),
        "calibration_s_median": statistics.median(calibrations),
        "calibration_s_min_max": [min(calibrations), max(calibrations)],
        # Unscaled wall seconds of the same samples, for comparison.
        "raw_setup_s": statistics.median(raw_setup),
        "raw_wall_s": sum(statistics.median(t) for t in raw),
        "raw_job_p50_s": statistics.median(t for ts in raw for t in ts),
        # Printed, not a metric: it did not repeat within a tenth between runs.
        "job_tail_s": tail,
        "tail_percentile": tail_p,
        "jobs_beyond_tail": sum(t > tail for t in samples),
        "setup_samples": len(setup),
        "cases_per_pass": cases,
        "fail_ratio": failed / attempted,
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "notes": notes,
            "attempted": attempted, "failed": failed, "failures": failures, "correct": not failures}


# -------------------------------------------------------------- traced run


def load_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    # Imported by module path: the package rebinds some submodule names
    # (wardtri.partition_transform is the function).  A module that is gone
    # is skipped, and its metrics read 0.
    modules = {
        name: importlib.import_module(f"wardtri.{name}")
        for name in MODULES
        if importlib.util.find_spec(f"wardtri.{name}") is not None
    }
    return importlib.import_module("wardtri"), modules


def row_caches(triangles) -> list:
    """The lists of cached rows: one per (kind, strategy), and the
    Stirling and Lah tables."""
    found = [getattr(triangles, name, []) for name in ROW_CACHES]
    return [rows for c in found for rows in (c.values() if isinstance(c, dict) else [c])]


def make_tracer(modules: dict) -> spans.Tracer:
    """Spans around every public function of every module.  Triangles spans
    are tagged 1 when they grew a row cache (a build) and 0 otherwise (a
    lookup); a few spans add to counters."""
    triangles = modules["triangles"]

    def cached_rows() -> int:
        return sum(map(len, row_caches(triangles)))

    def partitions(counts, args, result):
        counts["partitions"] += len(result)

    def report(counts, args, result):
        counts["cases"] += result.cases
        counts["skipped"] += result.skipped

    def rendered(counts, args, result):
        counts["render_bytes"] += len(result)

    def parsed(counts, args, result):
        counts["parse_bytes"] += len(args[0])

    counters = {
        "partition_transform.enumerate_partitions": partitions,
        "identities.compare_strategies": report,
        "bfile.render_bfile": rendered,
        "bfile.parse_bfile": parsed,
    }
    tracer = spans.Tracer()
    for layer in modules:
        for owner, attr, fn in spans.public_functions(modules[layer]):
            name = f"{layer}.{attr}" if owner is modules[layer] else f"{layer}.{owner.__name__}.{attr}"
            count = counters.get(name)
            if layer == "identities" and attr.startswith("check_"):
                count = report
            tracer.wrap(fn, name, probe=cached_rows if layer == "triangles" else None, count=count)
    return tracer


def run_inprocess(job: workloads.Job, cli, triangles, after_step=None) -> tuple[float, int, str]:
    """(seconds inside wardtri.cli.main, cases, failure reason) of one job
    replayed in this process, each step from cleared caches."""
    rcs, texts, wall, lines = [], [], 0.0, 0
    for i, argv in enumerate(job.steps(BFILE)):
        writes_bfile = job.command == "export" and i == 0
        triangles.clear_caches()
        sink = open(BFILE, "w") if writes_bfile else io.StringIO()
        with sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            wall += time.perf_counter() - start
            texts.append("" if writes_bfile else sink.getvalue())
        rcs.append(rc)
        if writes_bfile:
            lines = count_lines(Path(BFILE))
        if after_step is not None:
            after_step()
    Path(BFILE).unlink(missing_ok=True)
    cases, reason = job.verdict(rcs, texts, BFILE, lines)
    return wall, cases, reason


def layer_metrics(total: spans.Summary, counts: dict, rows: int, bits: int, overhead: float) -> dict:
    layer = defaultdict(float, total.layer_self())

    def tagged(prefix: str, tag: int) -> float:
        return sum(s for (n, t), s in total.self_s.items() if n.startswith(prefix) and t == tag)

    def calls(prefix: str) -> int:
        return sum(c for (n, _), c in total.calls.items() if n.startswith(prefix))

    def inclusive(prefix: str) -> float:
        return sum(s for n, s in total.inclusive_s.items() if n.startswith(prefix))

    value_calls = total.calls_of("triangles.value")
    render_s = inclusive("bfile.render_bfile")
    parse_s = inclusive("bfile.parse_bfile")
    m = {
        "triangles.build_s": tagged("triangles.", 1),
        "triangles.lookup_s": tagged("triangles.", 0),
        "triangles.rows_built": rows,
        "triangles.max_bits": bits,
        "triangles.value_calls": value_calls,
        "triangles.cache_hit_ratio": total.calls_of("triangles.value", 0) / value_calls if value_calls else 0.0,
        "exact_arith.calls": calls("exact_arith."),
    }
    for name in EXACT_ARITH:
        m[f"exact_arith.calls.{name}"] = total.calls_of(f"exact_arith.{name}")
    m.update({
        "exact_arith.s": layer["exact_arith"],
        "partition_transform.calls": total.calls_of("partition_transform.partition_transform"),
        "partition_transform.partitions": counts["partitions"],
        "partition_transform.s": layer["partition_transform"],
        "identities.s": layer["identities"],
        "identities.horizontal_s": inclusive("identities.check_horizontal_"),
        "identities.compare_s": inclusive("identities.compare_strategies"),
        "identities.cases": counts["cases"],
        "identities.skipped": counts["skipped"],
        "identities.cases_per_s": counts["cases"] / total.entry_s["identities"] if total.entry_s["identities"] else 0.0,
        "series.s": layer["series"],
        "series.calls": calls("series."),
        "bfile.s": layer["bfile"],
        "bfile.linearize_s": inclusive("bfile.linearize"),
        "bfile.render_s": render_s,
        "bfile.parse_s": parse_s,
        "bfile.bytes": counts["render_bytes"] + counts["parse_bytes"],
        "bfile.render_mb_per_s": counts["render_bytes"] / 1e6 / render_s if render_s else 0.0,
        "bfile.parse_mb_per_s": counts["parse_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "cli.self_s": layer["cli"],
        "trace.overhead": overhead,
    })
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return {"triangles.max_bits": "bits", "bfile.bytes": "bytes",
            "triangles.cache_hit_ratio": "ratio", "trace.overhead": "ratio"}.get(name, "count")


def traced_run(jobs: list[workloads.Job], root: Path, spans_path: Path) -> dict:
    package, modules = load_package(root)
    cli, triangles = modules["cli"], modules["triangles"]
    tracer = make_tracer(modules)
    targets = [package, *modules.values()]
    total = spans.Summary()
    failures: list[str] = []
    plain_s = traced_s = 0.0
    built = {"rows": 0, "bits": 0}

    def measure_caches() -> None:
        rows = row_caches(triangles)
        built["rows"] += sum(map(len, rows))
        bits = max((v.bit_length() for r in rows for row in r for v in row), default=0)
        built["bits"] = max(built["bits"], bits)

    failed = 0
    for job_id, job in enumerate(jobs):
        label = " ".join(job.steps(BFILE)[0])
        failures_before = len(failures)
        for traced in ((False, True) if job_id % 2 == 0 else (True, False)):
            if not traced:
                took, _, reason = run_inprocess(job, cli, triangles)
                plain_s += took
            else:
                tracer.job = job_id
                first_span, first_leaf = len(tracer.spans), len(tracer.leaves)
                tracer.install(targets)
                try:
                    _, _, reason = run_inprocess(job, cli, triangles, after_step=measure_caches)
                finally:
                    tracer.uninstall()
                summary = spans.summarize(tracer.spans[first_span:], tracer.leaves[first_leaf:])
                traced_s += summary.root_s
                total.add(summary)
                layered = sum(summary.layer_self().values())
                if abs(layered - summary.root_s) > 1e-6 + 1e-9 * summary.root_s:
                    failures.append(f"{label}: layer self times sum to {layered}, job took {summary.root_s}")
            if reason:
                failures.append(f"{label}: {reason}")
        failed += len(failures) > failures_before
    tracer.dump(spans_path)

    metrics = layer_metrics(total, tracer.counts, built["rows"], built["bits"], traced_s / plain_s)
    return {"metrics": metrics, "units": {n: layer_unit(n) for n in metrics},
            "notes": {"jobs_traced": len(jobs), "spans": len(tracer.spans), "leaf_groups": len(tracer.leaves),
                      "traced_s": traced_s, "untraced_s": plain_s, "spans_file": str(spans_path)},
            "attempted": len(jobs), "failed": failed, "failures": failures,
            "correct": not failures}


# ----------------------------------------------------------- entry point


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "wardtri" / "cli.py").is_file():
        print(f"error: {root} has no src/wardtri/cli.py; run from the repository root", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    jobs = workloads.make_jobs(args.workload, args.seed)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "jobs": len(jobs), "job_list": workloads.jobs_hash(jobs),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "commit": git_commit(root),
    }
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        result = traced_run(jobs, root, spans_path)
    else:
        provenance["cpu_pinned"] = pin_to_one_cpu()
        result = cold_run(args.workload, jobs, args.seconds, root)

    for line in result["failures"]:
        print(f"FAILED {line}")
    for name, value in result["metrics"].items():
        print(f"{name:34} {value:>16.6g} {result['units'][name]}")
    for name, value in result["notes"].items():
        print(f"{name:34} {value}")
    print("record " + json.dumps({**provenance, **result["notes"], "metrics": result["metrics"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": result["units"][n]} for n, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
