"""Trace synthesis: base profiles, transition leakage, determinism, I/O."""

import functools
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from atomspa.field import get_curve
from atomspa.atoms import (AffinePoint, REGISTER_NAMES, k_mul,
                           scalar_for_pattern_counts)
from atomspa.sched import (ADDSUB, MULT, ScheduleError, Timing,
                           addressing_diff, build_schedules, mult_block_state)
from atomspa.leakage import (DEFAULT_ADDRESS_CODES, DEFAULT_BASE_LEVELS,
                             LeakageParams, Trace, read_trace, simulate_trace,
                             window_levels, write_trace)
from atomspa.spa import recover_scalar, run_attack

D, A = build_schedules()
DIFF_CYCLES = {c for c, _ in addressing_diff(D, A)}
SPC = 20  # small sample rate keeps these tests quick


def params(**kw):
    base = dict(alpha=1.0, sigma=0.0, samples_per_cycle=SPC, seed=0)
    base.update(kw)
    return LeakageParams(**base)


def windows(p):
    """Pattern windows of D, D, A, D: window 1 is D after D, window 2 is A
    after D and window 3 is D after A."""
    t = simulate_trace(("D", "D", "A", "D"), D, A, p)
    return t.samples.reshape(4, -1)


@functools.cache
def timing_grid():
    """(timing, d, a) for every schedulable config of mul_plan x overlap x
    mult_wb_lag 0..19."""
    out = []
    for plan in ("karatsuba4", "classical"):
        for overlap in (True, False):
            for lag in range(20):
                t = Timing(mul_plan=plan, overlap=overlap, mult_wb_lag=lag)
                try:
                    out.append((t, *build_schedules(t)))
                except ScheduleError:
                    pass
    assert len(out) == 56
    return out


@functools.cache
def reference_sequence():
    """The 400 patterns of the reference scalar."""
    curve = get_curve("P-256")
    k = scalar_for_pattern_counts(256, 145, curve, seed=1)
    return tuple(k_mul(k, AffinePoint(curve.gx, curve.gy), curve)[1])


def test_zero_leak_zero_noise_is_pure_base_profile():
    lv = DEFAULT_BASE_LEVELS
    want = np.concatenate([
        np.full(SPC, lv[f"mult:{mult_block_state(e.mult_state)}"]
                + lv[f"addsub:{e.addsub_state}"])
        for e in D.events]).astype(np.float32)
    for w in windows(params(alpha=0.0)):
        assert np.array_equal(w, want)


def test_null_model_patterns_identical():
    # with alpha = 0 the two kinds produce the same samples by construction
    w = windows(params(alpha=0.0))
    assert np.array_equal(w[1], w[2])
    assert np.array_equal(w[2], w[3])


def _diff_closure():
    """Cycles whose samples may differ between the kinds.

    The leak at a cycle compares the address lines against their previous
    state, and the lines hold across silent cycles, so a difference can
    surface at a differing cycle itself or at the first transition out of a
    held differing state; the window boundary cycle is always exposed.
    """
    def held(sched):
        state, out = None, []
        for ev in sched.events:
            if ev.src_name is not None:
                state = (ev.src_name, ev.dst_names)
            out.append(state)
        return out

    hd, ha = held(D), held(A)
    out = {1}
    for c in range(1, D.cycle_count + 1):
        if hd[c - 1] != ha[c - 1]:
            out.add(c)
        if c > 1 and hd[c - 2] != ha[c - 2]:
            out.add(c)
    return out


def test_zero_noise_differences_localized():
    # D after D against A after D: both start from a doubling's line state
    _, d, a, _ = windows(params())
    differing = {int(i) // SPC + 1 for i in np.nonzero(d != a)[0]}
    allowed = _diff_closure()
    assert differing <= allowed
    # and every differing-address cycle does separate
    assert DIFF_CYCLES <= differing


def test_samples_constant_within_cycles():
    per_cycle = windows(params()).reshape(-1, SPC)
    assert np.all(per_cycle.max(axis=1) == per_cycle.min(axis=1))


def test_same_seed_bit_identical():
    p = params(sigma=0.3, seed=7)
    seq = ("D", "D", "A", "D")
    t1 = simulate_trace(seq, D, A, p)
    t2 = simulate_trace(seq, D, A, p)
    assert np.array_equal(t1.samples, t2.samples)


def test_different_seeds_differ():
    seq = ("D", "D", "A")
    t1 = simulate_trace(seq, D, A, params(sigma=0.3, seed=1))
    t2 = simulate_trace(seq, D, A, params(sigma=0.3, seed=2))
    assert not np.array_equal(t1.samples, t2.samples)


def test_worker_count_does_not_change_samples():
    seq = tuple("DADDDA"[i] for i in [0, 1, 2, 3, 4, 5]) * 3
    # samples_per_cycle 1 makes a window 109 samples long: an odd count
    # leaves one Box-Muller sine sample unused
    for spc in (SPC, 1):
        p = params(sigma=0.2, seed=5, samples_per_cycle=spc)
        t1 = simulate_trace(seq, D, A, p, workers=1)
        t3 = simulate_trace(seq, D, A, p, workers=3)
        assert t1.samples.tobytes() == t3.samples.tobytes()


def test_trace_length_formula():
    p = params()
    for seq in (("D",), ("D", "A"), ("D", "A", "D", "D", "A")):
        t = simulate_trace(seq, D, A, p)
        assert t.samples.size == len(seq) * D.cycle_count * SPC
        assert t.meta["pattern_count"] == len(seq)
        assert t.meta["ground_truth"] == "".join(seq)


def test_reference_scenario_sample_count():
    p = params(samples_per_cycle=300)
    seq = ("D",) * 255
    # 255 doublings and 145 additions interleave to 400 patterns; here only
    # the arithmetic matters
    t = simulate_trace(seq, D, A, p)
    assert D.cycle_count * 300 == 32700
    assert t.samples.size == 255 * 32700


def test_sequence_grammar_enforced():
    p = params()
    with pytest.raises(ValueError):
        simulate_trace((), D, A, p)
    with pytest.raises(ValueError):
        simulate_trace(("A",), D, A, p)
    with pytest.raises(ValueError):
        simulate_trace(("D", "A", "A"), D, A, p)
    with pytest.raises(ValueError):
        simulate_trace(("D", "X"), D, A, p)


def test_boundary_leak_crosses_patterns():
    # the first cycle of a window depends on what ran before it
    w = windows(params())
    after_d, after_a = w[1], w[3]
    first = slice(0, SPC)
    assert not np.array_equal(after_d[first], after_a[first])
    assert np.array_equal(after_d[SPC:], after_a[SPC:])


def test_first_window_starts_from_its_own_kinds_line_state():
    # no window precedes the first one, so its first cycle is measured
    # against the line state a doubling (seq[0]) leaves: it equals a
    # doubling that follows a doubling
    w = windows(params())
    assert np.array_equal(w[0], w[1])


def test_noiseless_trace_repeats_the_window_levels():
    p = params()
    lv = window_levels(D, A, p)
    assert set(lv) == {("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")}
    seq = ("D", "D", "A", "D", "A", "D")
    want = np.concatenate([np.repeat(lv[pk, k], SPC)
                           for pk, k in zip(seq[:1] + seq[:-1], seq)])
    assert np.array_equal(simulate_trace(seq, D, A, p).samples, want)


def test_schedules_of_different_lengths_rejected():
    _, classical_a = build_schedules(Timing(mul_plan="classical"))
    with pytest.raises(ValueError, match="pattern length"):
        window_levels(D, classical_a, params())
    with pytest.raises(ValueError, match="pattern length"):
        simulate_trace(("D", "A"), D, classical_a, params())


def test_address_lines_hold_across_the_window_boundary():
    # Hamming distance is unchanged by a common XOR mask, so masking every
    # code of the table changes no level, provided no window starts its
    # lines from a fixed code; and a silent cycle, at the window boundary
    # too, flips no line, so it shows its base level alone
    mask = 0b101101
    masked = {name: c ^ mask for name, c in DEFAULT_ADDRESS_CODES.items()}
    for timing, d, a in timing_grid():
        lv = window_levels(d, a, params())
        lv_masked = window_levels(d, a, params(addresses=masked))
        base = window_levels(d, a, params(alpha=0.0))
        for pk, k in lv:
            assert np.array_equal(lv[pk, k], lv_masked[pk, k]), timing
            silent = [ev.src_name is None for ev in (d, a)[k == "A"].events]
            assert np.array_equal(lv[pk, k][silent], base[pk, k][silent]), \
                timing


def test_level_model_predicts_the_attacks_leaking_cycles():
    # a cycle leaks when both D windows (after a D and after an A) differ
    # in level from the A window (always after a D); at zero noise those
    # are exactly the cycles where some sample classifies every pattern
    seq = reference_sequence()
    p = params(samples_per_cycle=1)
    for timing, d, a in timing_grid():
        lv = window_levels(d, a, p)
        leaks = (lv["D", "D"] != lv["D", "A"]) & (lv["A", "D"] != lv["D", "A"])
        report = run_attack(simulate_trace(seq, d, a, p))
        assert np.array_equal(leaks, report.per_cycle_max >= 100.0), timing
        if timing == Timing():
            cycles = set(np.flatnonzero(leaks) + 1)
            assert len(cycles) == 53
            assert DIFF_CYCLES < cycles


def test_noise_is_float32_normal_scaled_by_sigma():
    seq = ("D", "A", "D", "D", "A", "D", "A", "D")
    sigma = 0.3
    clean = simulate_trace(seq, D, A, params())
    noisy = simulate_trace(seq, D, A, params(sigma=sigma, seed=11))
    assert noisy.samples.dtype == np.float32
    noise = noisy.samples.astype(np.float64) - clean.samples
    n = noise.size
    # 6 standard errors of each estimate: a false failure is ~1e-9
    assert abs(noise.mean()) < 6 * sigma / math.sqrt(n)
    assert abs(noise.std() / sigma - 1) < 6 / math.sqrt(2 * n)


def test_noise_is_standard_normal_up_to_its_cap():
    # 31 windows of 32 700 samples: over a million noise samples at sigma 1
    seq = ("D", "A") * 15 + ("D",)
    clean = simulate_trace(seq, D, A, params(samples_per_cycle=300))
    noisy = simulate_trace(seq, D, A,
                           params(samples_per_cycle=300, sigma=1.0, seed=4))
    noise = noisy.samples.astype(np.float64) - clean.samples
    assert noise.size > 10**6
    assert stats.kstest(noise, "norm").pvalue > 1e-4
    # the two halves of a window (cosine and sine of one draw) are
    # independent: their correlation is within 6 standard errors of 0
    halves = noise.reshape(len(seq), 2, -1)
    r = np.corrcoef(halves[:, 0].ravel(), halves[:, 1].ravel())[0, 1]
    assert abs(r) < 6 / math.sqrt(halves[:, 0].size)
    # float32 uniforms are multiples of 2**-24, so the Box-Muller radius
    # is at most sqrt(-2 ln 2**-24) = 5.76811
    assert np.abs(noise).max() <= 5.7682


def test_reference_trace_at_zero_noise_is_pinned():
    # the deterministic part (base levels, leak, window order) of the
    # reference scenario: 400 patterns, 300 samples per cycle
    t = simulate_trace(reference_sequence(), D, A,
                       params(samples_per_cycle=300))
    assert t.samples.size == 400 * 109 * 300
    assert hashlib.sha256(t.samples.tobytes()).hexdigest() == (
        "a48bfdafc5944b759621926c4ba876b42c87879e13b14aff77e533b07e795db4")


def test_trace_with_an_address_override_is_pinned():
    # the address table reaches the samples: X1 moved to code 5
    t = simulate_trace(("D", "D", "A", "D", "A", "D", "D"), D, A,
                       params(samples_per_cycle=1, addresses={"X1": 5}))
    assert hashlib.sha256(t.samples.tobytes()).hexdigest() == (
        "d8439ab2794d31db3ccaf2fbee98079eb0b010c7fe24ea2b4c89b1a48b6fd76e")


def test_small_noisy_trace_is_pinned():
    # the noise bits: a change of generator, seeding or uniform mapping
    # shows up here
    seq = ("D", "A", "D", "D", "A", "D", "A")
    t = simulate_trace(seq, D, A, params(sigma=0.3, seed=3,
                                         samples_per_cycle=1))
    assert t.samples.size == 7 * 109
    assert hashlib.sha256(t.samples.tobytes()).hexdigest() == (
        "1b167e6eb52c744ff74a283547358fa9b07c68613dc1aa914e39adc2a48852e8")


def test_samples_not_finite_in_float32_rejected():
    seq = ("D", "A")
    for bad in ({"alpha": 1e308}, {"alpha": 1e38}, {"sigma": 1e38},
                {"base_levels": {"addsub:idle": -3.5e38}}):
        with pytest.raises(ValueError, match="beyond the float32 range"):
            simulate_trace(seq, D, A, params(**bad))
    # the largest safe values still simulate
    assert np.isfinite(simulate_trace(seq, D, A,
                                      params(sigma=1e37)).samples).all()


def test_params_validation():
    with pytest.raises(ValueError):
        LeakageParams(samples_per_cycle=0)
    with pytest.raises(ValueError):
        LeakageParams(sigma=-1)
    with pytest.raises(ValueError):
        LeakageParams(base_levels={"mult:pp3": 1.0})
    for bad in ({"samples_per_cycle": 1.5}, {"samples_per_cycle": True},
                {"seed": -1}, {"seed": 2**64}, {"seed": 1.0},
                {"alpha": "x"}, {"alpha": True}, {"alpha": math.inf},
                {"sigma": math.nan}, {"base_levels": ["mult:pp"]},
                {"base_levels": {"mult:pp": "hi"}},
                {"base_levels": {"mult:pp": math.nan}},
                {"base_levels": {"mult:idle": 1.0}},
                {"addresses": {"X1": "a"}}, {"addresses": {"FOO": 3}},
                {"addresses": {"X1": 3, "X2": 3}}, {"addresses": {"X1": 64}},
                {"addresses": {"X1": True}}, {"addresses": [1, 2]}):
        with pytest.raises(ValueError):
            LeakageParams(**bad)
    assert LeakageParams(seed=2**64 - 1, alpha=0, sigma=1).seed == 2**64 - 1
    assert LeakageParams(base_levels={"mult:pp": 2.0}).levels()["mult:pp"] == 2.0


def test_addresses_unique():
    table = LeakageParams().address_table()
    assert len(set(table.values())) == len(table)
    assert set(REGISTER_NAMES) <= set(table)
    assert {MULT, ADDSUB, "QX", "QY"} <= set(table)


def test_partial_address_override_keeps_defaults():
    table = LeakageParams(addresses={"X1": 5}).address_table()
    assert table == {**DEFAULT_ADDRESS_CODES, "X1": 5}


def test_params_hash_covers_the_address_table():
    t1 = simulate_trace(("D",), D, A, params())
    t2 = simulate_trace(("D",), D, A, params(addresses={"X1": 5}))
    assert t1.meta["params_hash"] != t2.meta["params_hash"]


def test_trace_file_roundtrip(tmp_path):
    p = params(sigma=0.1, seed=3)
    t = simulate_trace(("D", "A", "D"), D, A, p)
    tp, mp = tmp_path / "t.bin", tmp_path / "t.json"
    write_trace(t, tp, mp)
    back = read_trace(tp, mp)
    assert np.array_equal(back.samples, t.samples)
    assert back.meta == t.meta
    # a read-only view of the mapped file
    with pytest.raises(ValueError):
        back.samples[0] = 1.0


def test_mapped_trace_survives_a_rewrite(tmp_path):
    seq = ("D", "A", "D", "D", "A", "D")
    old = simulate_trace(seq, D, A, params(sigma=0.1, seed=3))
    tp, mp = tmp_path / "t.bin", tmp_path / "t.json"
    write_trace(old, tp, mp)
    back = read_trace(tp, mp)
    # a shorter trace: had the file been truncated in place, reading the old
    # view past its new end would raise SIGBUS
    new = simulate_trace(("D",), D, A, params(sigma=0.1, seed=4))
    write_trace(new, tp, mp)
    assert np.array_equal(back.samples, old.samples)
    assert run_attack(back).recovered_bits == recover_scalar("".join(seq))
    assert np.array_equal(read_trace(tp, mp).samples, new.samples)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin", "t.json"]


def _bad_samples(monkeypatch, t):
    return Trace(np.array(["not a number"]), t.meta)


def _failing_replace(monkeypatch, t):
    def replace(src, dst):
        raise OSError("replace failed")
    monkeypatch.setattr("atomspa.leakage.os.replace", replace)
    return t


@pytest.mark.parametrize("fail", [_bad_samples, _failing_replace],
                         ids=["samples", "replace"])
def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, fail):
    t = simulate_trace(("D", "A"), D, A, params())
    tp, mp = tmp_path / "t.bin", tmp_path / "t.json"
    write_trace(t, tp, mp)
    before = tp.read_bytes()
    with pytest.raises((OSError, ValueError)):
        write_trace(fail(monkeypatch, t), tp, mp)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin", "t.json"]
    assert tp.read_bytes() == before


def test_truncated_trace_rejected(tmp_path):
    p = params()
    t = simulate_trace(("D", "A"), D, A, p)
    tp, mp = tmp_path / "t.bin", tmp_path / "t.json"
    write_trace(t, tp, mp)
    with open(tp, "r+b") as f:
        f.truncate(100)
    with pytest.raises(IOError):
        read_trace(tp, mp)


def test_missing_metadata_rejected(tmp_path):
    with pytest.raises(IOError):
        read_trace(tmp_path / "none.bin", tmp_path / "none.json")
