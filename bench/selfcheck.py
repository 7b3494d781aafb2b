"""Checks of the benchmark itself: a wrong output must count as a failure.

    python3 -m pytest bench/selfcheck.py -q

The file name keeps it out of the lab's own test collection; it runs the
real jobs with one public function replaced at a time.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_lab()
import jobs  # noqa: E402
import spans  # noqa: E402
from atomspa import atoms, spa  # noqa: E402


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    return jobs.Lab(str(tmp_path_factory.mktemp("work")))


def one_job(kind, lab):
    return run.run_job(kind, lab, seed=1, index=1, tracer=spans.Tracer())


@pytest.mark.parametrize("kind", run.WORKLOAD_NAMES)
def test_untampered_job_passes(kind, lab):
    job = one_job(kind, lab)
    assert job.ok, job.detail


def test_wrong_recovered_scalar_is_a_failure(lab, monkeypatch):
    real = spa.run_attack

    def tampered(trace, *args, **kwargs):
        rep = real(trace, *args, **kwargs)
        bits = list(rep.recovered_bits)
        bits[-1] ^= 1
        rep.recovered_bits = tuple(bits)
        return rep

    monkeypatch.setattr(spa, "run_attack", tampered)
    job = one_job("ref-noisy", lab)
    assert not job.ok and "wrong scalar" in job.detail


def test_false_recovery_on_null_model_is_a_failure(lab, monkeypatch):
    real = spa.run_attack

    def tampered(trace, *args, **kwargs):
        rep = real(trace, *args, **kwargs)
        rep.recovered_bits, rep.recovered_support = (1, 0, 1), 1
        return rep

    monkeypatch.setattr(spa, "run_attack", tampered)
    job = one_job("null-noisy", lab)
    assert not job.ok and "false recovery" in job.detail


def test_wrong_k_mul_point_is_a_failure(lab, monkeypatch):
    real = atoms.k_mul

    def tampered(k, point, curve):
        got, seq = real(k, point, curve)
        return replace(got, y=curve.p - got.y), seq

    monkeypatch.setattr(atoms, "k_mul", tampered)
    job = one_job("kp-oracle", lab)
    assert not job.ok and "reference_k_mul" in job.detail


def test_wrong_field_result_is_a_failure(lab, monkeypatch):
    real = jobs.field_batch

    def tampered(f, pairs, inv_operands):
        results, inverses = real(f, pairs, inv_operands)
        s, d, m = results[0]
        results[0] = (s, d, (m + 1) % f.p)
        return results, inverses

    monkeypatch.setattr(jobs, "field_batch", tampered)
    job = one_job("kp-oracle", lab)
    assert not job.ok and "1 field results" in job.detail


def test_raising_jobs_are_counted_not_dropped(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(atoms, "k_mul", broken)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.measure("kp-oracle", seed=3, seconds=0, trace=0)
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_JOBS + 1     # with the warm-up
    assert result["failed"] == result["attempted"]


def test_traced_run_gives_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    result = run.measure("kp-oracle", seed=3, seconds=0, trace=1)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.LAYER_UNITS)
    assert (m["sched.cycles"], m["sched.diff_cycles"]) == (109, 46)
    assert m["atoms.patterns"] == 255 + jobs.KP_ONES
    assert m["spa.recovered_support"] > 0     # from the ref-noisy probe


def test_tail_keeps_ten_values_beyond_it():
    assert run.tail(list(range(1, 41))) == (30, 75.0, 40)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
