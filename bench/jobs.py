"""The three benchmark workloads: inputs, one job, and its verdict.

A job's inputs come from (workload, workload seed, job index) only, so the
same seed replays the same jobs.  Every job returns (ok, detail, stats):
ok is the verdict, detail says what went wrong, stats carries the counts
the traced run reports.  Calls into the lab go through module attributes
(``atoms.k_mul``, not a bound name) so the tracer can wrap them.
"""

import os
import random
from functools import partial

import numpy as np

from atomspa import atoms, leakage, sched, spa
from atomspa.field import get_curve

# fixed shapes of the reference scenario; a job or a set-up that sees other
# numbers is a failure, whatever its verdict
BITS = 256
ONES = 145
PATTERNS = 400
CYCLES = 109
DIFF_CYCLES = 46
SAMPLES_PER_CYCLE = 300
SAMPLES = PATTERNS * CYCLES * SAMPLES_PER_CYCLE    # 13 080 000
SIGMA = 0.1
NULL_MARGIN_PP = 5.0

# kp-oracle: scalars with a fixed number of ones keep every job the same
# size (383 patterns), so jobs_per_s does not swing with the scalar weight
KP_ONES = 128
FIELD_BATCH = 256      # add/sub/mul operand pairs per kp-oracle job
INV_BATCH = 16


class Lab:
    """What a job needs from set-up: the curve, base point and schedules."""

    def __init__(self, work_dir):
        self.curve = get_curve("P-256")
        self.g = atoms.AffinePoint(self.curve.gx, self.curve.gy)
        self.d, self.a = sched.build_schedules()
        self.diff = sched.addressing_diff(self.d, self.a)
        self.work_dir = work_dir

    def shape_errors(self):
        errors = []
        if (self.d.cycle_count, self.a.cycle_count) != (CYCLES, CYCLES):
            errors.append(f"pattern length {self.d.cycle_count}/"
                          f"{self.a.cycle_count} cycles, want {CYCLES}")
        if len(self.diff) != DIFF_CYCLES:
            errors.append(f"{len(self.diff)} differing cycles, "
                          f"want {DIFF_CYCLES}")
        return errors


def job_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


# --- campaigns: simulate -> attack in the CLI's call order ---


def campaign_inputs(rng, lab):
    return {"pick_seed": rng.randrange(2**32), "noise_seed": rng.randrange(2**32)}


def campaign_job(lab, alpha, pick_seed, noise_seed):
    """One simulate -> attack round trip through files, as the CLI does it."""
    k = atoms.scalar_for_pattern_counts(BITS, ONES, lab.curve, seed=pick_seed)
    _, seq = atoms.k_mul(k, lab.g, lab.curve)
    params = leakage.LeakageParams(alpha=alpha, sigma=SIGMA,
                                   samples_per_cycle=SAMPLES_PER_CYCLE,
                                   seed=noise_seed)
    trace = leakage.simulate_trace(seq, lab.d, lab.a, params)
    trace_path = os.path.join(lab.work_dir, "trace.bin")
    meta_path = os.path.join(lab.work_dir, "trace.json")
    leakage.write_trace(trace, trace_path, meta_path)
    loaded = leakage.read_trace(trace_path, meta_path)
    report = spa.run_attack(loaded)
    paths = spa.write_report(report, os.path.join(lab.work_dir, "report"))

    problems = []
    if len(seq) != PATTERNS:
        problems.append(f"{len(seq)} patterns, want {PATTERNS}")
    if trace.samples.size != SAMPLES:
        problems.append(f"{trace.samples.size} samples, want {SAMPLES}")
    if not np.array_equal(loaded.samples, trace.samples):
        problems.append("trace read back differs from the trace written")
    if not all(os.path.isfile(p) for p in paths):
        problems.append("report files missing")
    stats = {
        "patterns": len(seq),
        "samples": int(trace.samples.size),
        "trace_bytes": int(trace.samples.nbytes),
        "perfect_candidates": int(report.perfect_count),
        "recovered_support": int(report.recovered_support),
        "max_folded_pct": float(report.folded_curve.max()),
    }
    return report, k, seq, problems, stats


def verdict_recovered(report, k, seq):
    """ref-noisy: exact scalar recovery, judged as ``atomspa attack`` does."""
    want = spa.recover_scalar("".join(seq))
    if report.recovered_bits is None:
        return "scalar not recovered"
    if report.recovered_bits != want or report.recovered_scalar.value != k.value:
        return "recovered a wrong scalar"
    return None


def verdict_null(report, k, seq):
    """null-noisy: no recovery, and no candidate beyond baseline + 5 pp."""
    nd = seq.count("D")
    baseline = 100.0 * max(nd, len(seq) - nd) / len(seq)
    if report.recovered_bits is not None:
        return "false recovery on the idealized machine"
    worst = float(report.folded_curve.max())
    if worst > baseline + NULL_MARGIN_PP:
        return f"max folded correctness {worst:.2f}% > {baseline:.2f}% + 5 pp"
    return None


def run_campaign(lab, inputs, tracer, alpha, verdict):
    report, k, seq, problems, stats = campaign_job(lab, alpha, **inputs)
    wrong = verdict(report, k, seq)
    if wrong:
        problems.append(wrong)
    return not problems, "; ".join(problems), stats


# --- kp-oracle: checked scalar multiplications on P-256 ---


def _weighted_scalar(rng, n):
    """Uniform 256-bit scalar in [1, n) with KP_ONES ones below the MSB."""
    while True:
        k = 1 << (BITS - 1)
        for pos in rng.sample(range(BITS - 1), KP_ONES):
            k |= 1 << pos
        if k < n:
            return k


def kp_inputs(rng, lab):
    curve = lab.curve
    p = curve.p
    return {
        "base_mult": _weighted_scalar(rng, curve.n),
        "k": _weighted_scalar(rng, curve.n),
        "pairs": [(rng.randrange(p), rng.randrange(p))
                  for _ in range(FIELD_BATCH)],
        "inv_operands": [rng.randrange(1, p) for _ in range(INV_BATCH)],
    }


def field_batch(f, pairs, inv_operands):
    """Field results of the batch; checked by the caller, not here."""
    out = [(f.add(a, b), f.sub(a, b), f.mul(a, b)) for a, b in pairs]
    return out, [f.inv(a) for a in inv_operands]


def kp_job(lab, tracer, base_mult, k, pairs, inv_operands):
    curve = lab.curve
    point = atoms.reference_k_mul(base_mult, lab.g, curve)
    got, seq = atoms.k_mul(k, point, curve)
    want = atoms.reference_k_mul(k, point, curve)
    with tracer.span("field.batch"):
        results, inverses = field_batch(curve.field, pairs, inv_operands)
    return got, want, seq, results, inverses


def run_kp(lab, inputs, tracer):
    got, want, seq, results, inverses = kp_job(lab, tracer, **inputs)
    p = lab.curve.p
    problems = []
    if (got.x, got.y, got.infinity) != (want.x, want.y, want.infinity):
        problems.append("k_mul disagrees with reference_k_mul")
    bad = sum((s, d, m) != ((a + b) % p, (a - b) % p, (a * b) % p)
              for (a, b), (s, d, m) in zip(inputs["pairs"], results))
    bad += sum((a * x) % p != 1
               for a, x in zip(inputs["inv_operands"], inverses))
    if bad:
        problems.append(f"{bad} field results disagree with big integers")
    want_patterns = (BITS - 1) + KP_ONES
    if len(seq) != want_patterns:
        problems.append(f"{len(seq)} patterns, want {want_patterns}")
    return not problems, "; ".join(problems), {"patterns": len(seq)}


# --- registry: name -> (make_inputs(rng, lab), run(lab, inputs, tracer)) ---

WORKLOADS = {
    "ref-noisy": (campaign_inputs, partial(run_campaign, alpha=1.0,
                                           verdict=verdict_recovered)),
    "null-noisy": (campaign_inputs, partial(run_campaign, alpha=0.0,
                                            verdict=verdict_null)),
    "kp-oracle": (kp_inputs, run_kp),
}
