#!/usr/bin/env python3
"""qotsim benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload honest --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): ``honest``,
``adversarial`` and ``exact``.  The package is imported from ``src/`` next to
this directory, never from an installed copy.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the job at half scale twice, untraced and then traced,
and reports per-layer metrics from the spans plus the tracing overhead.

Both modes check every output (see ``workloads.gate``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the correctness checks, ``metrics`` holds the values.
Full results with provenance go to ``perfbench/out/``.  The exit code is 0
when every check passed, 1 when a check failed, and 2 when the benchmark
cannot run (for instance when ``src/qotsim`` is missing).
"""

from __future__ import annotations

import os

# One workload process per run on a 2-core box: pin native thread pools
# before numpy is imported, here and in every interpreter started for setup_s.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import workloads as W  # noqa: E402
from tracer import COUNTERS, PHASES, SPANS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A later performance claim is confirmed on this seed as well as on the
# seeds used while the change was written.
HELD_OUT_SEED = 7_919_000_013
# Fresh set-up interpreters per end-to-end run, spread evenly over the job.
SETUP_REPEATS = 7
# About the speed probe's mean time on the reference machine when nothing
# else runs on it; see speed_probe and end_to_end.
PROBE_REF_S = 0.6e-3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import qotsim, qotsim.harness; qotsim.harness.validate_params(3, 1, 6); "
    "print('ready', flush=True)"
)

# name -> (unit, better); end-to-end metrics are reported on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
ADVERSARY_RATES = (
    "greedy",
    "dishonest-removal",
    "dishonest-removal-strict",
    "postpone",
    "curious-alice",
    "commit-cheat",
    "leaky",
)


def per_layer_schema() -> dict[str, tuple[str, str]]:
    """Every per-layer metric, in report order: name -> (unit, better)."""
    schema: dict[str, tuple[str, str]] = {}
    for span in SPANS:
        schema[f"{span}.calls"] = ("count", "lower")
        schema[f"{span}.self_s"] = ("s", "lower")
        if span in COUNTERS:
            c = COUNTERS[span]
            schema[f"{span}.{c}"] = ("bytes" if c == "bytes" else "count", "higher")
    schema["protocol.completed_ratio"] = ("ratio", "higher")
    schema["protocol.phases_per_session"] = ("calls/session", "lower")
    for s in ADVERSARY_RATES:
        schema[f"adversary.{s}.trials_per_s"] = ("1/s", "higher")
    for n, m, N in W.ACCEPTANCE_SETS:
        schema[f"harness.trials_per_s.{n}-{m}-{N}"] = ("1/s", "higher")
    schema["trace.overhead_ratio"] = ("ratio", "lower")
    schema["trace.glue_ratio"] = ("ratio", "lower")
    return schema


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------

def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until qotsim (with numpy and
    scipy) is imported and its first call has returned."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up interpreter failed to import qotsim")
    return elapsed


_PROBE_ARRAY = numpy.linspace(0.0, 1.0, 64)


def speed_probe() -> float:
    """A fixed mix of interpreter and small-array numpy work, independent
    of qotsim, run before every timed experiment to follow the host's speed."""
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    a = _PROBE_ARRAY
    for _ in range(120):
        a = a * 1.0001 + 1.0
    return total + float(a[0])


def import_qotsim():
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("qotsim")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"qotsim imported from {package.__file__}, not {SRC}")
    importlib.import_module("qotsim.harness")
    return package


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(package, args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qotsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "qotsim_version": getattr(package, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it (>= 50)."""
    return max(50, math.floor(100 * (samples - 10) / samples))


def work_done(results) -> tuple[int, str]:
    sessions = sum(r.experiment.sessions for r in results)
    if sessions:
        return sessions, "trials_per_s"
    return sum(r.experiment.queries for r in results), "param_sets_per_s"


def _round_s(results) -> float:
    return sum(r.seconds for r in results)


def _mean_probe(results) -> float:
    return statistics.fmean(r.probe_s for r in results)


def job_seconds(rounds) -> float:
    """The job's time at reference speed: the round count times the median
    round, each round scaled by the speed probes run within it."""
    return len(rounds) * statistics.median(
        _round_s(rnd) * PROBE_REF_S / _mean_probe(rnd) for rnd in rounds)


def end_to_end(rounds, wall: float, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, plus notes with sample counts and raw figures.

    The reference machine is a shared 2-core VM.  Its other tenants slow it
    by 1.2-1.7x, changing from one second to the next and from one minute
    to the next, so raw times follow them: the raw wall time of ten runs of
    one workload spread 23-27% (quartiles over median).  So every gated time
    is scaled to the reference machine's quiet speed by `speed_probe`, a
    fixed loop timed just before every experiment: a time is multiplied by
    PROBE_REF_S over the mean probe time around it.

    - `job_s` is the round count times the median round, each round scaled
      by the probes run within it.  A round runs the workload's whole mix
      once, so a slowdown the program causes in most rounds shows in full.
    - `setup_s` is the median set-up time, scaled by the run's mean probe.

    A spell that slows qotsim and the probe differently is not removed.
    The raw wall time, the probe and the per-experiment percentiles (which
    follow the host's load) are kept in the notes and printed, not gated.
    """
    results = [r for rnd in rounds for r in rnd]
    speed = PROBE_REF_S / _mean_probe(results)
    job_s = job_seconds(rounds)
    times = [r.seconds for r in results]
    pct = tail_percentile(len(times))
    work, alias = work_done(results)
    values = {
        "setup_s": statistics.median(setup) * speed,
        "job_s": job_s,
        "throughput_per_s": work / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": {"samples": len(setup), "statistic": "median",
                    "raw": statistics.median(setup), "values": setup},
        "job_s": {"rounds": len(rounds), "statistic": "median", "raw_wall_s": wall},
        "throughput_per_s": {"alias": alias, "work": work, "raw": work / wall},
        "speed_probe": {"samples": len(results), "mean_s": _mean_probe(results),
                        "reference_s": PROBE_REF_S, "scale": speed},
        "verdict_s": {
            "experiments": len(times),
            "p50_s": statistics.median(times),
            f"p{pct}_s": statistics.quantiles(times, n=100, method="inclusive")[pct - 1],
        },
    }
    return values, notes


def _rate(rounds, keep) -> float:
    """Sessions (commit-cheat: draws) per busy second of the kept experiments."""
    chosen = [r for rnd in rounds for r in rnd if keep(r.experiment)]
    busy = sum(r.seconds for r in chosen)
    if not chosen or busy == 0:
        return 0.0
    work = sum(e.trials if e.strategy == "commit-cheat" else e.sessions
               for e in (r.experiment for r in chosen))
    return work / busy


def per_layer(tracer: Tracer, untraced, traced, traced_wall: float):
    """Per-layer metrics from the spans, plus rates from the untraced pass.

    `untraced` and `traced` are the two passes' results, round by round;
    the tracing overhead compares their job times as end_to_end does."""
    summary = tracer.summary()
    values = {}
    for name in per_layer_schema():
        span, _, metric = name.rpartition(".")
        if metric in ("calls", "self_s"):
            values[name] = summary["rows"].get(span, {}).get(metric, 0)
        elif COUNTERS.get(span) == metric:
            values[name] = tracer.counters.get(name, 0)

    sessions = sum(tracer.sessions.values())
    phase_calls = sum(summary["rows"].get(f"protocol.{p}", {}).get("calls", 0)
                      for p in PHASES)
    values["protocol.completed_ratio"] = (
        tracer.sessions.get("completed", 0) / sessions if sessions else 0.0)
    values["protocol.phases_per_session"] = phase_calls / sessions if sessions else 0.0
    for s in ADVERSARY_RATES:
        values[f"adversary.{s}.trials_per_s"] = _rate(
            untraced, lambda e, s=s: e.strategy == s)
    for n, m, N in W.ACCEPTANCE_SETS:
        values[f"harness.trials_per_s.{n}-{m}-{N}"] = _rate(
            untraced, lambda e, k=(n, m, N): e.sessions and (e.n, e.m, e.N) == k)
    glue = traced_wall - summary["root_s"]
    values["trace.overhead_ratio"] = job_seconds(traced) / job_seconds(untraced) - 1
    values["trace.glue_ratio"] = glue / traced_wall
    notes = {
        "spans": summary["spans"],
        "traced_wall_s": traced_wall,
        "sum_self_s": summary["self_s"],
        "glue_s": glue,
        "glue_is": "benchmark code outside every span: the experiment loop, "
                   "building configs and checks, and reading the clock",
        "absent": tracer.absent,
        "sessions_by_status": tracer.sessions,
        "rows": summary["rows"],
    }
    return values, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed; confirm claims on {HELD_OUT_SEED} too")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length; sets the size of the fixed job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_with_setup(qs, job) -> tuple[list, float, list[float]]:
    """Run the job's rounds in SETUP_REPEATS - 1 parts, timing a set-up
    interpreter before each part and after the last, so a slow spell of the
    machine touches few set-up samples.  The wall time excludes them."""
    parts = SETUP_REPEATS - 1
    rounds, wall, setup = [], 0.0, [measure_setup()]
    for k in range(parts):
        done, seconds = W.run_job(qs, job[k * len(job) // parts:(k + 1) * len(job) // parts],
                                  probe=speed_probe)
        rounds += done
        wall += seconds
        setup.append(measure_setup())
    return rounds, wall, setup


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full document)."""
    if not args.trace:
        measure_setup()  # untimed: fills the page and bytecode caches
    package = import_qotsim()
    qs = W.modules(package)
    size = args.seconds / 2 if args.trace else args.seconds
    job = W.build_job(args.workload, args.seed, size, qs)
    W.run_job(qs, W.warmup_job(args.workload, qs))
    speed_probe()  # untimed first call

    if args.trace:
        rounds, wall = W.run_job(qs, job, probe=speed_probe)
    else:
        rounds, wall, setup = run_with_setup(qs, job)
    results = [r for rnd in rounds for r in rnd]
    checks = W.gate(qs, args.workload, args.seed, results)
    doc: dict = {"provenance": provenance(package, args)}

    if args.trace:
        tracer = Tracer(package.__name__)
        tracer.install()
        try:
            traced, traced_wall = W.run_job(qs, job, probe=speed_probe)
        finally:
            tracer.uninstall()
        for a, b in zip(results, (r for rnd in traced for r in rnd)):
            checks.append({"check": "traced_report_identical",
                           "target": W.target(a.experiment),
                           "passed": a.report == b.report})
        metrics, notes = per_layer(tracer, rounds, traced, traced_wall)
        schema = per_layer_schema()
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        notes["trace_file"] = str(trace_path.relative_to(ROOT))
        doc["trace"] = notes
    else:
        metrics, notes = end_to_end(rounds, wall, setup)
        schema = END_TO_END
        doc["notes"] = notes

    failed = [c for c in checks if not c["passed"]]
    line = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": schema[k][0]} for k in schema},
    }
    doc["result"] = line
    doc["checks_failed"] = f"{len(failed)}/{len(checks)}"
    doc["failed_checks"] = failed
    doc["experiments"] = [
        {"round": k, "target": W.target(r.experiment), "trials": r.experiment.trials,
         "sessions": r.experiment.sessions, "seed": r.experiment.seed,
         "seconds": r.seconds, "probe_s": r.probe_s}
        for k, rnd in enumerate(rounds) for r in rnd
    ]
    return line, doc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qotsim" / "__init__.py").is_file():
        print(f"error: no qotsim source at {SRC / 'qotsim'}", file=sys.stderr)
        return 2
    line, doc = run(args)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"qotsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    notes = doc.get("notes", {})
    for name, m in line["metrics"].items():
        note = notes.get(name, {})
        extra = "".join(f" {k}={v:.6g}" if isinstance(v, float) else f" {k}={v}"
                        for k, v in note.items() if k != "values")
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{extra}")
    for name in ("speed_probe", "verdict_s"):
        if name in notes:
            extra = " ".join(f"{k}={v:.6g}" for k, v in notes[name].items())
            print(f"  {name + ' (not gated)':48s} {extra}")
    print(f"  checks_failed {doc['checks_failed']}")
    for c in doc["failed_checks"]:
        print(f"  FAILED {c}", file=sys.stderr)
    print(f"  full result: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
