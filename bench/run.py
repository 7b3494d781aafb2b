#!/usr/bin/env python3
"""Benchmark of the atomspa SPA lab, end to end and per layer.

Run from the root of a source checkout (no install needed):

    python3 bench/run.py --workload ref-noisy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: a job starts when the
previous one has finished.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates traced and untraced jobs and reports
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A record
with the environment, every job and (traced) every span goes to .bench_out/.
See bench/README.md for the metrics and why each workload exists.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("ref-noisy", "null-noisy", "kp-oracle")

SETUP_REPEATS = 7      # fresh interpreters timed per run for setup_s
BUILD_REPEATS = 5      # build_schedules spans in a traced run
MIN_JOBS = 11          # so job_s_tail has 10 jobs beyond it
TAIL_BEYOND = 10

clock = time.perf_counter

# set-up as a user pays it: import the lab, pick the curve, build schedules
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from atomspa import atoms, leakage, sched, spa
from atomspa.field import get_curve
get_curve("P-256")
sched.build_schedules()
print(time.perf_counter() - t0)
"""

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
             "job_s_tail": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "field.mul_us": "us", "field.inv_us": "us", "field.ops": "count",
    "atoms.k_mul_s": "s", "atoms.reference_k_mul_s": "s",
    "atoms.patterns": "count",
    "sched.build_s": "s", "sched.cycles": "count", "sched.diff_cycles": "count",
    "leakage.simulate_s": "s", "leakage.msamples_per_s": "Msamples/s",
    "leakage.write_s": "s", "leakage.read_s": "s", "leakage.trace_mb": "MB",
    "spa.run_attack_s": "s", "spa.segment_s": "s", "spa.mean_s": "s",
    "spa.classify_s": "s", "spa.correctness_s": "s", "spa.recover_s": "s",
    "spa.write_report_s": "s",
    "spa.perfect_candidates": "count", "spa.recovered_support": "count",
    "spa.max_folded_pct": "%",
    "trace.overhead_pct": "%", "trace.uncovered_pct": "%",
}

# per-layer metric -> the span whose median duration it reports
SPAN_METRICS = {
    "atoms.k_mul_s": "atoms.k_mul",
    "atoms.reference_k_mul_s": "atoms.reference_k_mul",
    "leakage.simulate_s": "leakage.simulate_trace",
    "leakage.write_s": "leakage.write_trace",
    "leakage.read_s": "leakage.read_trace",
    "spa.run_attack_s": "spa.run_attack",
    "spa.segment_s": "spa.segment",
    "spa.mean_s": "spa.mean_pattern",
    "spa.classify_s": "spa.classify_matrix",
    "spa.correctness_s": "spa.correctness_curve",
    "spa.write_report_s": "spa.write_report",
}
# run_attack's stage spans; what run_attack spends outside them is recovery
ATTACK_STAGES = ("spa.segment", "spa.mean_pattern", "spa.classify_matrix",
                 "spa.correctness_curve")
# the job kind whose single traced run covers layers a workload never calls
PROBE_FOR = {"ref-noisy": "kp-oracle", "null-noisy": "kp-oracle",
             "kp-oracle": "ref-noisy"}


class MissingLab(Exception):
    pass


def import_lab():
    """Put this checkout's src/ first on the path; refuse any other atomspa."""
    if not (SRC / "atomspa" / "__init__.py").is_file():
        raise MissingLab(f"no atomspa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import atomspa
    if Path(atomspa.__file__).resolve().parent != SRC / "atomspa":
        raise MissingLab(f"atomspa imported from {atomspa.__file__}, "
                         f"not from {SRC}")


# --- measurement ---


def setup_times():
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


class Job:
    __slots__ = ("index", "seconds", "ok", "detail", "stats", "traced",
                 "field", "kind")

    def __init__(self, index, kind):
        self.index = index
        self.kind = kind
        self.traced = False
        self.field = None

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def run_job(kind, lab, seed, index, tracer, traced=False):
    """One job; an exception is a failed job, never a lost one."""
    import jobs

    job = Job(index, kind)
    make_inputs, run = jobs.WORKLOADS[kind]
    inputs = make_inputs(jobs.job_rng(kind, seed, index), lab)
    if traced:
        tracer.start()
        tracer.job = index
        before = tracer.field_snapshot()
    t0 = clock()
    try:
        with tracer.span("job"):
            job.ok, job.detail, job.stats = run(lab, inputs, tracer)
    except Exception as e:
        job.ok, job.stats = False, {}
        job.detail = "".join(traceback.format_exception_only(e)).strip()
    job.seconds = clock() - t0
    if traced:
        tracer.stop()
        after = tracer.field_snapshot()
        job.traced = True
        job.field = {op: (after[op][0] - before[op][0],
                          after[op][1] - before[op][1]) for op in after}
    return job


def run_loop(kind, lab, seed, seconds, tracer, alternate=False,
             min_jobs=MIN_JOBS):
    """Warm-up job, then jobs until `seconds` have passed (and min_jobs ran).

    Returns (warm-up job, timed jobs, loop wall time).  With alternate, odd
    job indices run traced and even ones untraced.
    """
    warm = run_job(kind, lab, seed, 0, tracer)
    timed = []
    t_start = clock()
    deadline = t_start + seconds
    index = 1
    while len(timed) < min_jobs or clock() < deadline:
        timed.append(run_job(kind, lab, seed, index, tracer,
                             traced=alternate and index % 2 == 1))
        index += 1
    return warm, timed, clock() - t_start


def tail(values):
    """Highest order statistic with TAIL_BEYOND values beyond it.

    Returns (value, percentile, count); with too few values, the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND      # 1-based rank with TAIL_BEYOND values after it
    return xs[rank - 1], 100.0 * rank / n, n


def e2e_metrics(setup, timed, wall):
    durations = [j.seconds for j in timed]
    tail_s, tail_pct, n = tail(durations)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(timed) / wall,
        "job_s_p50": statistics.median(durations),
        "job_s_tail": tail_s,
        "peak_rss_mb":   # ru_maxrss is in KiB on Linux
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes = {"job_s_tail": f"p{tail_pct:.1f} of {n} jobs",
             "setup_s": f"median of {len(setup)} fresh set-ups"}
    return values, notes


def _median_or_none(xs):
    return statistics.median(xs) if xs else None


def layer_metrics(tracer, lab, traced_jobs, untraced_jobs, probe):
    """Per-layer numbers from the traced jobs of this workload.

    A layer this workload never calls is read from the probe job instead,
    so every metric has a value; such values describe the probe, not the
    workload.
    """
    spans = tracer.spans
    own = {j.index for j in traced_jobs}

    def durations(name, job_ids):
        return [s[2] - s[1] for s in spans if s[0] == name and s[4] in job_ids]

    def span_median(name):
        return _median_or_none(durations(name, own)
                               or durations(name, {probe.index}))

    def stat(key, reduce=statistics.median_low):
        xs = [j.stats[key] for j in traced_jobs if key in (j.stats or {})]
        if not xs and key in (probe.stats or {}):
            xs = [probe.stats[key]]
        return reduce(xs) if xs else None

    def field_us(op):
        calls = sum(j.field[op][0] for j in traced_jobs)
        secs = sum(j.field[op][1] for j in traced_jobs)
        if not calls and probe.field:
            calls, secs = probe.field[op]
        return 1e6 * secs / calls if calls else None

    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)

    def self_time(i):
        s = spans[i]
        return (s[2] - s[1]) - sum(spans[c][2] - spans[c][1]
                                   for c in children.get(i, ()))

    attack = [i for i, s in enumerate(spans)
              if s[0] == "spa.run_attack" and s[4] in own]
    if not attack:
        attack = [i for i, s in enumerate(spans)
                  if s[0] == "spa.run_attack" and s[4] == probe.index]
    for i in attack:
        if any(spans[c][0] not in ATTACK_STAGES for c in children.get(i, ())):
            raise RuntimeError("unexpected span inside run_attack")
    job_spans = [i for i, s in enumerate(spans)
                 if s[0] == "job" and s[4] in own]
    job_total = sum(spans[i][2] - spans[i][1] for i in job_spans)

    def jobs_per_s(js):
        return len(js) / sum(j.seconds for j in js)

    m = {name: span_median(span) for name, span in SPAN_METRICS.items()}
    builds = durations("sched.build_schedules", {"setup"})
    simulate = m["leakage.simulate_s"]
    samples = stat("samples")
    trace_bytes = stat("trace_bytes")
    m.update({
        "field.mul_us": field_us("mul"),
        "field.inv_us": field_us("inv"),
        "field.ops": statistics.median_low(
            sum(c for c, _ in j.field.values()) for j in traced_jobs),
        "atoms.patterns": stat("patterns"),
        "sched.build_s": statistics.median(builds),
        "sched.cycles": lab.d.cycle_count,
        "sched.diff_cycles": len(lab.diff),
        "leakage.msamples_per_s":
            samples / 1e6 / simulate if samples and simulate else None,
        "leakage.trace_mb": trace_bytes / 1e6 if trace_bytes else None,
        "spa.recover_s": _median_or_none([self_time(i) for i in attack]),
        "spa.perfect_candidates": stat("perfect_candidates"),
        "spa.recovered_support": stat("recovered_support"),
        "spa.max_folded_pct": stat("max_folded_pct", max),
        "trace.overhead_pct":
            100.0 * (1.0 - jobs_per_s(traced_jobs) / jobs_per_s(untraced_jobs)),
        "trace.uncovered_pct":
            100.0 * sum(self_time(i) for i in job_spans) / job_total,
    })
    missing = [k for k, v in m.items() if v is None]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    return m


def host_environment():
    """Commit (when the checkout is a git repository), cores and versions."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
    }


def measure(kind, seed, seconds, trace):
    import jobs
    import spans

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = WORK_DIR / str(os.getpid())
    work_dir.mkdir()
    try:
        setup = [] if trace else setup_times()
        tracer = spans.Tracer()
        if trace:
            tracer.start()
            tracer.job = "setup"
            for _ in range(BUILD_REPEATS):
                lab = jobs.Lab(str(work_dir))
            tracer.stop()
        else:
            lab = jobs.Lab(str(work_dir))
        shape_errors = lab.shape_errors()
        warm, timed, wall = run_loop(kind, lab, seed, seconds, tracer,
                                     alternate=bool(trace))
        all_jobs = [warm] + timed
        if trace:
            probe = run_job(PROBE_FOR[kind], lab, seed, "probe", tracer,
                            traced=True)
            all_jobs.append(probe)
            metrics = layer_metrics(
                tracer, lab, [j for j in timed if j.traced],
                [j for j in timed if not j.traced], probe)
            units, notes = LAYER_UNITS, {
                "spa.recover_s": "derived: run_attack minus its stage spans"}
        else:
            metrics, notes = e2e_metrics(setup, timed, wall)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not j.ok for j in all_jobs)
    result = {
        "correct": not shape_errors and failed == 0,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    record = {
        "environment": dict(host_environment(), workload=kind, seed=seed,
                            seconds=seconds, trace=trace, jobs=len(all_jobs)),
        "result": result,
        "notes": notes,
        "shape_errors": shape_errors,
        "fail_frac": failed / len(all_jobs),
        "setup_samples_s": setup,
        "loop_wall_s": wall,
        "jobs": [j.as_dict() for j in all_jobs],
    }
    if trace:
        record["spans"] = {
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "rows": tracer.spans}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{kind}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {kind}  seed {seed}  {len(timed)} timed jobs "
          f"+ 1 warm-up{' + 1 probe' if trace else ''}")
    for k, u in units.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<24} {metrics[k]:>12.6g} {u}{note}")
    print(f"  {'fail_frac':<24} {record['fail_frac']:>12.6g} "
          f"({failed} of {len(all_jobs)} attempted)")
    for err in shape_errors:
        print(f"  shape check failed: {err}")
    for j in all_jobs:
        if not j.ok:
            print(f"  job {j.index} failed: {j.detail}")
    env = record["environment"]
    print(f"  env: commit {env['commit']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return result


def run_all(seed, seconds, trace):
    """Each workload in turn, each in a fresh interpreter so that
    peak_rss_mb belongs to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for kind in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", kind, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            raise RuntimeError(f"{kind} exited with {res.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            combined["metrics"][f"{kind}.{k}"] = v
        table.append((kind, part))
    names = list(table[0][1]["metrics"]) + ["fail_frac"]
    print(f"\n{'metric':<24}" + "".join(f"{k:>14}" for k, _ in table))
    for name in names:
        cells = [(p["failed"] / p["attempted"] if name == "fail_frac"
                  else p["metrics"][name]["value"]) for _, p in table]
        print(f"{name:<24}" + "".join(f"{c:>14.6g}" for c in cells))
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_lab()
    except MissingLab as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
