"""Trace synthesis: base profiles, transition leakage, determinism, I/O."""

import errno
import functools
import hashlib
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from atomspa.field import get_curve
from atomspa.atoms import (AffinePoint, PATTERNS, REGISTER_NAMES, k_mul,
                           recover_scalar, scalar_for_pattern_counts)
from atomspa.sched import (ADDSUB, MULT, Timing, _Scheduler, addressing_diff,
                           build_schedules, mult_block_state)
from atomspa import leakage
from atomspa.leakage import (ADDRESS_BITS, DEFAULT_ADDRESS_CODES,
                             BASE_LEVELS, WINDOWS, LeakageParams,
                             Trace, line_walk, read_trace, simulate_trace,
                             window_levels, write_trace)
from atomspa.spa import run_attack

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
def reference_sequence():
    """The 400 patterns of the reference scalar."""
    curve = get_curve("P-256")
    k = scalar_for_pattern_counts(256, 145, curve, seed=1)
    return tuple(k_mul(k, AffinePoint(curve.gx, curve.gy), curve)[1])


def test_zero_leak_zero_noise_is_pure_base_profile():
    lv = BASE_LEVELS
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
    """Cycles whose samples may differ between the kinds after a doubling.

    The leak at a cycle compares the address lines against their previous
    state, and the lines hold across silent cycles (see line_walk), so a
    difference can surface at a cycle whose line names differ or at the
    transition out of one.
    """
    walk = line_walk(D, A)
    d, a = walk["D", "D"], walk["D", "A"]
    return {c for c in range(1, D.cycle_count + 1)
            if d[c] != a[c] or d[c - 1] != a[c - 1]}


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


def per_pattern_trace(seq, p):
    """The noise render one pattern at a time, each drawing the next h words
    of one stream, as the reference for the block render of simulate_trace
    (which advances to each block's first word)."""
    levels = window_levels(D, A, p)
    spp = D.cycle_count * p.samples_per_cycle
    h = (spp + 1) // 2
    bits = np.random.PCG64DXSM(p.seed)
    out = []
    for i, k in enumerate(seq):
        w = np.repeat(levels[(seq[max(i - 1, 0)], k)], p.samples_per_cycle)
        if p.sigma == 0:
            out.append(w)
            continue
        words = bits.random_raw(h).view(np.uint32)
        words >>= 8
        u = words.astype(np.float32)
        u *= np.float32(2.0**-24)
        r, theta = u[:h], u[h:]
        np.subtract(1, r, out=r)
        np.log(r, out=r)
        r *= np.float32(-2)
        np.sqrt(r, out=r)
        r *= np.float32(p.sigma)
        theta *= np.float32(2.0 * math.pi)
        noise = np.concatenate([np.cos(theta) * r,
                                np.sin(theta[: spp - h]) * r[: spp - h]])
        out.append(noise + w)
    return np.concatenate(out)


def test_worker_count_does_not_change_samples():
    # pattern counts below, at and past the edges of the BLOCK = 8 blocks
    for n, spc, sigma in itertools.product((1, 7, 8, 9, 19), (300, 1),
                                           (0.2, 0.0)):
        # samples_per_cycle 1 makes a window 109 samples long: an odd count
        # leaves one Box-Muller sine sample unused
        seq = tuple(("DADDDA" * 4)[:n])
        p = params(sigma=sigma, seed=5, samples_per_cycle=spc)
        want = per_pattern_trace(seq, p).tobytes()
        for workers in (None, 1, 2, 3):
            t = simulate_trace(seq, D, A, p, workers=workers)
            assert t.samples.tobytes() == want, (n, spc, sigma, workers)


def test_zero_scale_noise_leaves_the_levels():
    # sigma 0 takes the noise render too: its noise is +-0, including at
    # the signed zero that LeakageParams accepts and at negative levels
    for sigma, alpha, n, workers in itertools.product(
            (0.0, -0.0), (0.0, 1.0, -3.5), (1, 8, 9), (1, 3)):
        p = params(sigma=sigma, alpha=alpha, seed=5)
        levels = window_levels(D, A, p)
        seq = tuple(("DADDDA" * 2)[:n])
        want = np.concatenate([
            np.repeat(levels[(seq[max(i - 1, 0)], k)], SPC)
            for i, k in enumerate(seq)])
        t = simulate_trace(seq, D, A, p, workers=workers)
        assert t.samples.tobytes() == want.tobytes(), (sigma, alpha, n,
                                                       workers)


def test_a_render_leaves_no_thread_behind(monkeypatch):
    seq = tuple(("DADDDA" * 4)[:19])
    p = params(sigma=0.2)
    before = threading.active_count()
    simulate_trace(seq, D, A, p, workers=3)
    assert threading.active_count() == before

    # the calling thread renders too, so 3 workers need 2 helpers
    sizes = []

    def counted_pool(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(leakage, "ThreadPoolExecutor", counted_pool)
    simulate_trace(seq, D, A, p, workers=3)
    assert sizes == [2]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a trace of one block")

    # one block of patterns renders inline, whatever the CPU count
    monkeypatch.setattr(leakage, "ThreadPoolExecutor", no_pool)
    simulate_trace(seq[:8], D, A, p)


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
    # the simulator rejects exactly what the grammar's owner rejects
    p = params(samples_per_cycle=1)
    for n in range(1, 7):
        for seq in itertools.product("DAX", repeat=n):
            try:
                recover_scalar(seq)
            except ValueError:
                with pytest.raises(ValueError):
                    simulate_trace(seq, D, A, p)
            else:
                simulate_trace(seq, D, A, p)


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
    assert set(lv) == set(WINDOWS)
    seq = ("D", "D", "A", "D", "A", "D")
    want = np.concatenate([np.repeat(lv[pk, k], SPC)
                           for pk, k in zip(seq[:1] + seq[:-1], seq)])
    assert np.array_equal(simulate_trace(seq, D, A, p).samples, want)


def test_schedules_of_different_lengths_rejected():
    _, classical_a = build_schedules(Timing(mul_plan="classical"))
    with pytest.raises(ValueError, match="pattern length"):
        line_walk(D, classical_a)
    with pytest.raises(ValueError, match="pattern length"):
        window_levels(D, classical_a, params())
    with pytest.raises(ValueError, match="pattern length"):
        simulate_trace(("D", "A"), D, classical_a, params())


def test_address_lines_hold_across_the_window_boundary(schedulable_grid):
    # Hamming distance is unchanged by a common XOR mask, so masking every
    # code of the table changes no level, provided no window starts its
    # lines from a fixed code; and a silent cycle, at the window boundary
    # too, flips no line, so it shows its base level alone
    mask = 0b101101
    masked = {name: c ^ mask for name, c in DEFAULT_ADDRESS_CODES.items()}
    for timing, d, a in schedulable_grid:
        lv = window_levels(d, a, params())
        lv_masked = window_levels(d, a, params(addresses=masked))
        base = window_levels(d, a, params(alpha=0.0))
        for pk, k in lv:
            assert np.array_equal(lv[pk, k], lv_masked[pk, k]), timing
            silent = [ev.src_name is None for ev in (d, a)[k == "A"].events]
            assert np.array_equal(lv[pk, k][silent], base[pk, k][silent]), \
                timing


def _leaks(lv):
    """The level model's leaking cycles: both D windows (after a D and
    after an A) differ in level from the A window (always after a D)."""
    return (lv["D", "D"] != lv["D", "A"]) & (lv["A", "D"] != lv["D", "A"])


def test_level_model_predicts_the_attacks_leaking_cycles(schedulable_grid):
    # at zero noise the leaking cycles are exactly the cycles where some
    # sample classifies every pattern
    seq = reference_sequence()
    p = params(samples_per_cycle=1)
    for timing, d, a in schedulable_grid:
        leaks = _leaks(window_levels(d, a, p))
        folded = run_attack(simulate_trace(seq, d, a, p)).folded_curve
        per_cycle_max = folded.reshape(d.cycle_count, -1).max(axis=1)
        assert np.array_equal(leaks, per_cycle_max >= 100.0), timing
        if timing == Timing():
            cycles = set(np.flatnonzero(leaks) + 1)
            assert len(cycles) == 53
            assert DIFF_CYCLES < cycles


def test_window_edges_carry_the_neighbouring_patterns_ops():
    # at the default timing, cycles 1-4 of a window carry the previous
    # pattern's op 19 write-back and op 21, and cycles 108-109 the next
    # pattern's op 1 fetches; simulate_trace renders all six with the
    # window's own kind, and all six leak
    sch = _Scheduler(Timing(), PATTERNS).run(8)
    start = sch.placed["D", 5, 1] + 2  # the window windows() takes
    for kind in PATTERNS:
        bus = sch.ps[kind].bus
        owners = {c - start + 1: (bus[c].instance - 5, bus[c].op_index)
                  for c in range(start, start + 109)
                  if c in bus and bus[c].instance != 5}
        assert owners == {1: (-1, 19), 2: (-1, 21), 3: (-1, 21),
                          4: (-1, 21), 108: (1, 1), 109: (1, 1)}, kind
    leaking = set(np.flatnonzero(_leaks(window_levels(D, A, params()))) + 1)
    assert {1, 2, 3, 108, 109} <= DIFF_CYCLES
    assert 4 not in DIFF_CYCLES
    assert {1, 2, 3, 4, 108, 109} <= leaking


def _name_changes(states):
    """Per cycle of a line_walk window: do the line names change?"""
    return np.array([s != t for s, t in zip(states[:-1], states[1:])])


def _forced_leaks(walk):
    """Cycles whose names change in both D windows but not in the A window,
    or the other way round: with distinct codes they leak under any table."""
    dd, da, ad = (_name_changes(walk[pk, k]) for pk, k in ("DD", "DA", "AD"))
    return (dd & ad & ~da) | (~dd & ~ad & da)


def test_forced_leak_cycles_are_pinned():
    for timing, cycles in (
            (Timing(), [15, 25, 62, 63, 75, 92, 109]),
            (Timing(overlap=False), [15, 136]),
            (Timing(mul_plan="classical"),
             [22, 39, 104, 105, 124, 148, 179])):
        walk = line_walk(*build_schedules(timing))
        assert list(np.flatnonzero(_forced_leaks(walk)) + 1) == cycles


def test_the_lines_flip_exactly_where_the_names_change(schedulable_grid):
    # under the default table and random injective ones: a level leaves its
    # base level exactly where line_walk's names change, and every forced
    # leak is a leaking cycle of the level model
    rng = np.random.default_rng(21)
    names = sorted(DEFAULT_ADDRESS_CODES)
    tables = [None] + [
        dict(zip(names, rng.choice(1 << ADDRESS_BITS, len(names),
                                   replace=False).tolist()))
        for _ in range(4)]
    for timing, d, a in schedulable_grid:
        walk = line_walk(d, a)
        assert set(walk) == set(WINDOWS)
        assert {len(s) for s in walk.values()} == {d.cycle_count + 1}
        base = window_levels(d, a, params(alpha=0.0))
        forced = _forced_leaks(walk)
        for table in tables:
            lv = window_levels(d, a, params(addresses=table))
            for w in WINDOWS:
                assert np.array_equal(lv[w] != base[w],
                                      _name_changes(walk[w])), (timing, w)
            assert not (forced & ~_leaks(lv)).any(), (timing, table)


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
    # the noise bits: a change of generator, seeding, stream offsets or
    # uniform mapping shows up here, for a seed below 2**32 and one above
    seq = ("D", "A", "D", "D", "A", "D", "A")
    for seed, digest in (
            (3, "950116fcd44e035616ed20edd6b6d012"
                "8f3aee1845478fdc4a9018ae258077a2"),
            (2**32 + 5, "383cc8081e82e3ba32ac8a5559f75e96"
                        "7c158898f615a5faf5c27ba2a687a94c")):
        t = simulate_trace(seq, D, A, params(sigma=0.3, seed=seed,
                                             samples_per_cycle=1))
        assert t.samples.size == 7 * 109
        assert hashlib.sha256(t.samples.tobytes()).hexdigest() == digest


def test_bad_worker_counts_rejected():
    for bad in (0, -1, True, 2.0, np.int64(2)):
        with pytest.raises(ValueError, match="workers"):
            simulate_trace(("D", "A"), D, A, params(sigma=0.2), workers=bad)


def test_samples_not_finite_in_float32_rejected():
    seq = ("D", "A")
    for bad in ({"alpha": 1e308}, {"alpha": 1e38}, {"sigma": 1e38},
                {"alpha": -1e38}):
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
    for bad in ({"samples_per_cycle": 1.5}, {"samples_per_cycle": True},
                {"seed": -1}, {"seed": 2**64}, {"seed": 1.0},
                {"alpha": "x"}, {"alpha": True}, {"alpha": math.inf},
                {"sigma": math.nan},
                {"addresses": {"X1": "a"}}, {"addresses": {"FOO": 3}},
                {"addresses": {"X1": 3, "X2": 3}}, {"addresses": {"X1": 64}},
                {"addresses": {"X1": True}}, {"addresses": [1, 2]},
                # json, which writes the hash and the sidecar, takes none
                # of these numpy numbers
                {"samples_per_cycle": np.int64(3)}, {"seed": np.uint64(5)},
                {"alpha": np.float32(1)}, {"alpha": np.int64(1)},
                {"sigma": np.float32(0.1)}):
        with pytest.raises(ValueError):
            LeakageParams(**bad)
    assert LeakageParams(seed=2**64 - 1, alpha=0, sigma=1).seed == 2**64 - 1
    # np.float64 is a float
    p64 = params(sigma=np.float64(0.1))
    assert p64.digest() == params(sigma=0.1).digest()
    want = simulate_trace(("D",), D, A, params(sigma=0.1)).samples
    assert np.array_equal(simulate_trace(("D",), D, A, p64).samples, want)


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
    # the sidecar's params_hash of the reference parameters and of one
    # address override; a change of the hashed fields shows up here
    assert LeakageParams().digest() == (
        "eb92beb81529f0b42368c2b1ccee98df522ff1a11502dc94985b9d29ae7cb2d6")
    assert LeakageParams(addresses={"X1": 5}).digest() == (
        "d158dabc0d12f4251f94c4949093197db9690f51cf907f62d68af06d907ecaa1")
    # two spellings of one number give the same samples, so the same hash
    for one, other in (({"alpha": 1}, {"alpha": 1.0}),
                       ({"sigma": 0}, {"sigma": 0.0}),
                       ({"alpha": -0.0}, {"alpha": 0.0})):
        t1 = simulate_trace(("D", "A"), D, A, params(**one))
        t2 = simulate_trace(("D", "A"), D, A, params(**other))
        assert t1.samples.tobytes() == t2.samples.tobytes()
        assert t1.meta["params_hash"] == t2.meta["params_hash"]


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


def _unwritable_meta(monkeypatch, t):
    # new samples, so a replaced trace.bin shows
    return Trace(t.samples + 1, {**t.meta, "seed": np.uint64(5)})


def _full_disk_sidecar(monkeypatch, t):
    def fake_open(path, mode="r", **kwargs):
        if mode == "w":
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(path, mode, **kwargs)
    monkeypatch.setattr(leakage, "open", fake_open, raising=False)
    # new samples, so a replaced trace.bin shows
    return Trace(t.samples + 1, t.meta)


@pytest.mark.parametrize("fail, error", [(_bad_samples, ValueError),
                                         (_failing_replace, OSError),
                                         (_unwritable_meta, TypeError),
                                         (_full_disk_sidecar, OSError)],
                         ids=["samples", "replace", "meta", "sidecar"])
def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, fail,
                                               error):
    t = simulate_trace(("D", "A"), D, A, params())
    tp, mp = tmp_path / "t.bin", tmp_path / "t.json"
    write_trace(t, tp, mp)
    before, meta_before = tp.read_bytes(), mp.read_bytes()
    with pytest.raises(error):
        write_trace(fail(monkeypatch, t), tp, mp)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin", "t.json"]
    assert tp.read_bytes() == before
    assert mp.read_bytes() == meta_before


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
