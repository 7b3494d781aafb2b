"""Attack pipeline: segmentation, threshold, classification, recovery."""

import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from atomspa.field import get_curve
from atomspa.atoms import (AffinePoint, ScalarK, k_mul,
                           scalar_for_pattern_counts)
from atomspa.sched import Timing, addressing_diff, build_schedules
from atomspa.leakage import (DEFAULT_ADDRESS_CODES, LeakageParams, Trace,
                             simulate_trace)
from atomspa.spa import (_blind_recovery, classify_matrix, correctness_curve,
                         mean_pattern, recover_scalar, run_attack, segment)

D, A = build_schedules()
SPC = 12


def pack(labels):
    """Pack a bool (patterns, candidates) matrix as classify_matrix does."""
    return np.packbits(labels, axis=0)


def small_trace(k=0b1101101, sigma=0.0, alpha=1.0, seed=0):
    curve = get_curve("P-256")
    g = AffinePoint(curve.gx, curve.gy)
    _, seq = k_mul(k, g, curve)
    p = LeakageParams(alpha=alpha, sigma=sigma, samples_per_cycle=SPC,
                      seed=seed)
    return simulate_trace(seq, D, A, p), seq


def test_segment_shapes():
    trace, seq = small_trace()
    m = segment(trace)
    assert m.shape == (len(seq), D.cycle_count * SPC)
    one = Trace(trace.samples[: trace.samples_per_pattern],
                dict(trace.meta, pattern_count=1))
    assert segment(one).shape[0] == 1


def test_segment_rejects_truncated():
    trace, _ = small_trace()
    bad = Trace(trace.samples[:-7], trace.meta)
    with pytest.raises(ValueError):
        segment(bad)


def test_mean_pattern_small_cases():
    assert np.array_equal(mean_pattern(np.array([[1.0, 3.0], [3.0, 5.0]])),
                          np.array([2.0, 4.0]))
    row = np.array([[7.5, 1.25, -2.0]])
    assert np.array_equal(mean_pattern(row), row[0])


def test_mean_pattern_against_exact_sums():
    rng = random.Random(3)
    rows, cols = 37, 19
    m = [[rng.randrange(-1000, 1000) for _ in range(cols)] for _ in range(rows)]
    got = mean_pattern(np.array(m, dtype=np.float64))
    for j in range(cols):
        exact = sum(m[i][j] for i in range(rows)) / rows  # integer-exact sum
        assert got[j] == pytest.approx(exact, abs=1e-12)


def test_classify_tie_rule_and_count():
    m = np.array([[2.0, 5.0], [2.0, 1.0], [2.0, 3.0]], dtype=np.float32)
    thr = mean_pattern(m)
    packed = classify_matrix(m, thr)
    # one candidate (column) per sample offset, one bit per window
    assert packed.shape == (1, 2) and packed.dtype == np.uint8
    labels = np.unpackbits(packed, axis=0, count=3)
    assert not labels[:, 0].any()  # constant column: ties are False
    assert labels[:, 1].tolist() == [True, False, False]
    assert packed[0].tolist() == [0, 0b10000000]  # zero padding


def test_classify_float32_samples_against_float64_thresholds():
    # thresholds on, just above and just below float32 samples, where a
    # comparison in float32 could round the wrong way
    rng = np.random.default_rng(8)
    m = rng.standard_normal((13, 600)).astype(np.float32)
    near = m[rng.integers(0, 13, 600), np.arange(600)].astype(np.float64)
    tiny = np.abs(near) * 2.0**-40
    thr = near + np.repeat([0.0, 1.0, -1.0], 200) * tiny
    want = m.astype(np.float64) > thr
    assert 0 < want.sum() < want.size
    assert np.array_equal(classify_matrix(m, thr), pack(want))


def _exact_pct(column, truth):
    """Correctness of one candidate by counting matches one window at a time."""
    hits = sum(1 for lab, k in zip(column, truth) if bool(lab) == (k == "A"))
    return 100.0 * hits / len(truth)


def test_correctness_trivial_cases():
    truth = ("D", "A", "D", "A")
    labels = np.array([[False], [True], [False], [True]])  # True means addition
    assert correctness_curve(pack(labels), truth)[0] == 100.0
    assert correctness_curve(pack(~labels), truth)[0] == 0.0
    assert _exact_pct(labels[:, 0], truth) == 100.0
    assert _exact_pct(~labels[:, 0], truth) == 0.0


def test_correctness_complementarity():
    rng = np.random.default_rng(4)
    truth = tuple(rng.choice(list("DA")) for _ in range(57))
    labels = rng.random((57, 9)) < 0.5
    total = (correctness_curve(pack(labels), truth)
             + correctness_curve(pack(~labels), truth))
    assert np.allclose(total, 100.0)


def test_correctness_curve_matches_scalar_version():
    # the scalar version is the per-candidate exact count above
    rng = np.random.default_rng(5)
    truth = tuple(rng.choice(list("DA")) for _ in range(40))
    labels = rng.random((40, 23)) < 0.5
    curve = correctness_curve(pack(labels), truth)
    for j in range(23):
        assert curve[j] == pytest.approx(_exact_pct(labels[:, j], truth))


def test_blind_recovery_prefers_grammar():
    # DAD decodes with zero violations one way, two the other, so both
    # polarities of the column recover the same sequence
    for column in ([False, True, False], [True, False, True]):
        bits, support, j = _blind_recovery(pack(np.array(column)[:, None]), 3)
        assert (bits, support, j) == (recover_scalar("DAD"), 1, 0)
    # constant columns carry no information and are skipped
    const = np.zeros((6, 2), dtype=bool)
    const[:, 1] = True
    assert _blind_recovery(pack(const), 6) == (None, 0, -1)


# two grammar-consistent groups of equal support, DAD at columns 0 and 2
# and DDA at columns 1 and 3; packed, DAD (0b010 -> 0x40) sorts after DDA
# (0b001 -> 0x20), and the group at the lower column must still win
TIED_GROUPS = np.array([[False, False, False, False],
                        [True, False, True, False],
                        [False, True, False, True]])


def test_blind_recovery_tie_goes_to_lowest_column():
    assert np.packbits(TIED_GROUPS, axis=0)[0].tolist() == [64, 32, 64, 32]
    assert _blind_recovery(pack(TIED_GROUPS), 3) == (
        recover_scalar("DAD"), 2, 0)
    # flipped columns join the same groups
    flipped = TIED_GROUPS ^ [True, False, False, True]
    assert _blind_recovery(pack(flipped), 3) == (recover_scalar("DAD"), 2, 0)


def _reference_blind_recovery(labels):
    """One column at a time: both polarities against the grammar, grouped
    by sequence; highest support wins, then the lowest column."""
    groups = {}
    for j in range(labels.shape[1]):
        column = labels[:, j]
        if column.all() or not column.any():
            continue
        for cand in (column, ~column):
            seq = "".join("A" if x else "D" for x in cand)
            if seq[0] == "D" and "AA" not in seq:
                support, first = groups.get(seq, (0, j))
                groups[seq] = (support + 1, first)
    if not groups:
        return None, 0, -1
    seq, (support, first) = max(groups.items(),
                                key=lambda g: (g[1][0], -g[1][1]))
    return recover_scalar(seq), support, first


@st.composite
def label_matrices(draw):
    # a few distinct columns, repeated and flipped at random, plus
    # constant ones, so that groups, ties and both polarities all occur;
    # most row counts leave padding bits in the last packed byte
    rows = draw(st.integers(1, 40))
    column = st.lists(st.booleans(), min_size=rows, max_size=rows)
    pool = draw(st.lists(st.one_of(column, st.sampled_from(
        [[False] * rows, [True] * rows])), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.booleans()), min_size=1, max_size=12))
    return np.array([[x ^ flip for x in pool[i]] for i, flip in picks],
                    dtype=bool).T


@settings(max_examples=300, deadline=None)
@given(label_matrices())
@example(TIED_GROUPS)
def test_blind_recovery_matches_per_column_reference(labels):
    assert (_blind_recovery(pack(labels), labels.shape[0])
            == _reference_blind_recovery(labels))


@settings(max_examples=200, deadline=None)
@given(label_matrices(), st.data())
def test_packed_labels_match_bool_references(labels, data):
    n, cols = labels.shape
    packed = classify_matrix(labels.astype(np.float32), np.full(cols, 0.5))
    assert packed.tobytes() == pack(labels).tobytes()
    truth = data.draw(st.text("DA", min_size=n, max_size=n))
    assert correctness_curve(packed, truth).tolist() == [
        _exact_pct(labels[:, j], truth) for j in range(cols)]


@pytest.mark.parametrize("alpha", [1.0, 0.0])
@pytest.mark.parametrize("k", [0b1101101, 0b10110011101],
                         ids=["10-patterns", "16-patterns"])
def test_blind_recovery_on_real_labels_matches_per_column_reference(k,
                                                                    alpha):
    trace, seq = small_trace(k=k, sigma=0.02, alpha=alpha, seed=9)
    m = segment(trace)
    packed = classify_matrix(m, mean_pattern(m))
    labels = np.unpackbits(packed, axis=0, count=len(seq)).astype(bool)
    got = _blind_recovery(packed, len(seq))
    assert got == _reference_blind_recovery(labels)
    if alpha:
        assert got[0] == ScalarK.from_int(k).bits


def test_recover_scalar_cases():
    assert recover_scalar("DADDA") == (1, 1, 0, 1)
    assert recover_scalar("DD") == (1, 0, 0)
    assert recover_scalar("") == (1,)
    with pytest.raises(ValueError):
        recover_scalar("AD")
    with pytest.raises(ValueError):
        recover_scalar("DAA")


def test_recover_scalar_round_trips_k_mul_sequence():
    curve = get_curve("P-256")
    g = AffinePoint(curve.gx, curve.gy)
    rng = random.Random(6)
    for _ in range(10):
        k = rng.randrange(2, 1 << 64)
        _, seq = k_mul(k, g, curve)
        assert recover_scalar("".join(seq)) == ScalarK.from_int(k).bits


def _violations(is_add):
    """Additions with no doubling right before them."""
    return int(is_add[0]) + int((is_add[1:] & is_add[:-1]).sum())


def test_perfect_candidate_soundness():
    trace, seq = small_trace()
    m = segment(trace)
    packed = classify_matrix(m, mean_pattern(m))
    curve = correctness_curve(packed, seq)
    labels = np.unpackbits(packed, axis=0, count=len(seq)).astype(bool)
    folded = np.maximum(curve, 100 - curve)
    perfect = np.nonzero(folded >= 100.0)[0]
    assert perfect.size > 0
    want = ScalarK.from_int(0b1101101).bits  # small_trace's default scalar
    for j in perfect[:50]:
        # exactly one polarity of a perfect column is grammar-consistent,
        # and it reads back the true scalar
        consistent = [c for c in (labels[:, j], ~labels[:, j])
                      if _violations(c) == 0]
        assert len(consistent) == 1
        got = "".join("A" if x else "D" for x in consistent[0])
        assert recover_scalar(got) == want


def test_run_attack_end_to_end():
    k = 0b110100111011
    trace, seq = small_trace(k=k, sigma=0.02, seed=9)
    rep = run_attack(trace)
    assert rep.pattern_count == len(seq)
    assert rep.samples_per_pattern == D.cycle_count * SPC
    assert rep.correctness_curve.size == rep.samples_per_pattern
    assert rep.recovered
    assert rep.recovered_scalar.value == k
    assert rep.perfect_count >= 1
    assert rep.cycles_per_pattern == D.cycle_count


def test_run_attack_null_model_fails_closed():
    # long enough that random labels cannot be grammar-consistent by luck
    trace, _ = small_trace(k=(1 << 47) | 0x5A5A5A5A5A5, alpha=0.0,
                           sigma=0.2, seed=10)
    rep = run_attack(trace)
    assert not rep.recovered
    assert rep.recovered_scalar is None


@pytest.mark.parametrize("plan", ["karatsuba4", "classical"])
@pytest.mark.parametrize("overlap", [True, False])
def test_every_toy61_scalar_with_an_addition_recovers(plan, overlap):
    # the attack's domain, at sigma 0 and one sample per cycle: a power of
    # two runs doublings only, so its trace has no D/A contrast and it is
    # reported not recovered; every other scalar is read back exactly
    curve = get_curve("toy61")
    g = AffinePoint(curve.gx, curve.gy)
    d, a = build_schedules(Timing(mul_plan=plan, overlap=overlap))
    p = LeakageParams(sigma=0.0, samples_per_cycle=1)
    got = {k: run_attack(simulate_trace(k_mul(k, g, curve)[1], d, a, p,
                                        workers=1)).recovered_scalar
           for k in range(2, curve.n)}
    assert sorted(k for k, s in got.items() if s is None) == \
        [2, 4, 8, 16, 32, 64]
    assert all(s.value == k for k, s in got.items() if s is not None)


def _toy61_unrecovered(d, a, params, scalars=None):
    """The toy61 scalars in [2, n), or those of `scalars`, that the attack
    reads nothing from, after checking that it reads every other one back
    exactly."""
    curve = get_curve("toy61")
    g = AffinePoint(curve.gx, curve.gy)
    got = {k: run_attack(simulate_trace(k_mul(k, g, curve)[1], d, a, params,
                                        workers=1)).recovered_scalar
           for k in scalars or range(2, curve.n)}
    assert all(s.value == k for k, s in got.items() if s is not None)
    return sorted(k for k, s in got.items() if s is None)


def test_every_toy61_scalar_with_an_addition_recovers_at_the_largest_lags(
        schedulable_grid):
    # the domain above at each plan and overlap's largest schedulable
    # write-back lag, where results wait longest; no two of the grid's 56
    # schedule pairs have the same events, and the other 48 with a lag are
    # sampled by the test below
    largest = {(t.mul_plan, t.overlap): (t.mult_wb_lag, d, a)
               for t, d, a in schedulable_grid}
    assert [lag for lag, _d, _a in largest.values()] == [8, 11, 15, 18]
    p = LeakageParams(sigma=0.0, samples_per_cycle=1)
    for _lag, d, a in largest.values():
        assert _toy61_unrecovered(d, a, p) == [2, 4, 8, 16, 32, 64]


def test_toy61_scalars_recover_on_every_lagged_config(schedulable_grid):
    # the domain on the other 48 lagged configs of the grid, 12 scalars each:
    # 11 with an addition and one power of two, drawn per config
    largest = {(t.mul_plan, t.overlap): t.mult_wb_lag
               for t, _d, _a in schedulable_grid}
    lagged = [(t, d, a) for t, d, a in schedulable_grid
              if 0 < t.mult_wb_lag < largest[t.mul_plan, t.overlap]]
    assert len(lagged) == 48
    powers = [2, 4, 8, 16, 32, 64]
    others = [k for k in range(2, 73) if k not in powers]
    p = LeakageParams(sigma=0.0, samples_per_cycle=1)
    for t, d, a in lagged:
        rng = random.Random(f"{t.mul_plan} {t.overlap} {t.mult_wb_lag}")
        power = rng.choice(powers)
        scalars = rng.sample(others, 11) + [power]
        assert _toy61_unrecovered(d, a, p, scalars) == [power], t


@pytest.mark.parametrize("seed", range(10))
def test_every_toy61_scalar_with_an_addition_recovers_under_any_table(seed):
    # the domain holds under a seeded random injective address table too
    codes = random.Random(seed).sample(range(64), len(DEFAULT_ADDRESS_CODES))
    p = LeakageParams(sigma=0.0, samples_per_cycle=1,
                      addresses=dict(zip(DEFAULT_ADDRESS_CODES, codes)))
    assert _toy61_unrecovered(D, A, p) == [2, 4, 8, 16, 32, 64]


def _outcome(trace):
    rep = run_attack(trace)
    return (rep.recovered_bits, rep.recovered_support, rep.best_sample,
            rep.perfect_count)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 1 << 12), alpha=st.sampled_from([0.0, 1.0]),
       sigma=st.sampled_from([0.0, 0.05, 1.0, 4.0]),
       seed=st.integers(0, 1 << 16), scale=st.sampled_from([2.0, 0.25]))
def test_scaling_by_a_power_of_two_keeps_the_attack(k, alpha, sigma, seed,
                                                    scale):
    # scaling a float32 sample by a power of two is exact, and so is every
    # sum, mean, threshold and comparison the attack makes of the result
    trace, _ = small_trace(k=k, sigma=sigma, alpha=alpha, seed=seed)
    scaled = Trace(trace.samples * np.float32(scale), trace.meta)
    assert _outcome(scaled) == _outcome(trace)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 1 << 12), alpha=st.sampled_from([0.0, 1.0]),
       sigma=st.sampled_from([0.0, 0.05, 1.0]),
       seed=st.integers(0, 1 << 16), m=st.integers(-8, 8).filter(bool),
       e=st.integers(0, 40))
def test_an_exact_offset_keeps_the_attack(k, alpha, sigma, seed, m, e):
    # adding c can round; where every shifted sample gives its sample back,
    # x -> x + c moves every column and its mean threshold alike
    trace, _ = small_trace(k=k, sigma=sigma, alpha=alpha, seed=seed)
    c = np.float32(m * 2.0 ** -e)
    shifted = trace.samples + c
    assume(np.array_equal(shifted - c, trace.samples))
    assert _outcome(Trace(shifted, trace.meta))[:3] == _outcome(trace)[:3]


@pytest.mark.parametrize("sigma, support, best", [
    (0.0, 15900, 0), (0.05, 15900, 0), (1.0, 1100, 300), (2.0, 2, 7254),
])
def test_negation_keeps_the_attack(sigma, support, best):
    # negation flips every label but those of samples on their column's
    # threshold, and the polarity fix by the first window undoes the flip;
    # a trace can have such ties, so the reference traces are pinned here
    curve = get_curve("P-256")
    g = AffinePoint(curve.gx, curve.gy)
    k = scalar_for_pattern_counts(256, 145, curve, seed=1)
    trace = simulate_trace(k_mul(k, g, curve)[1], D, A,
                           LeakageParams(sigma=sigma, seed=1))
    outcome = _outcome(trace)
    assert outcome == _outcome(Trace(-trace.samples, trace.meta))
    assert ScalarK(outcome[0]) == k
    assert outcome[1:3] == (support, best)


def test_monotone_degradation_with_noise(tmp_path):
    # averaged over seeds, the best correctness cannot improve as noise grows
    k = 0b10110011101
    sigmas = (0.5, 4.0, 40.0)
    means = []
    for sigma in sigmas:
        tops = []
        for seed in range(8):
            trace, _ = small_trace(k=k, sigma=sigma, seed=seed)
            rep = run_attack(trace)
            tops.append(rep.folded_curve.max())
        means.append(sum(tops) / len(tops))
    assert means[0] >= means[1] >= means[2]


def _csv_rendering(rep):
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["sample", "clock_cycle", "correctness_pct", "folded_pct"])
    for j in range(rep.samples_per_pattern):
        w.writerow([j, j // SPC + 1, f"{rep.correctness_curve[j]:.4f}",
                    f"{rep.folded_curve[j]:.4f}"])
    return want.getvalue().encode()


def test_report_files(tmp_path):
    from atomspa.spa import write_report

    trace, _ = small_trace(sigma=0.05, seed=1)
    rep = run_attack(trace)
    paths = write_report(rep, tmp_path)
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    svg = (tmp_path / "attack_correctness.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # the CSV is byte-identical to a csv.writer rendering of the report:
    # here (10 patterns, steps of 10%) and for 7 patterns, whose
    # percentages are not multiples of 0.25
    seven, seq = small_trace(k=0b11011, sigma=0.3, seed=2)
    assert len(seq) == 7
    for i, r in enumerate((rep, run_attack(seven))):
        write_report(r, tmp_path / str(i))
        got = (tmp_path / str(i) / "attack_correctness.csv").read_bytes()
        assert got == _csv_rendering(r)


def test_blind_report_is_only_the_summary(tmp_path):
    from atomspa.spa import write_report

    # without ground truth there is no correctness to tabulate or plot
    trace, _ = small_trace(sigma=0.05, seed=1)
    blind = run_attack(Trace(trace.samples, {
        k: v for k, v in trace.meta.items() if k != "ground_truth"}))
    assert blind.recovered
    assert blind.folded_curve is None
    assert blind.cycles_per_pattern == D.cycle_count
    lines = blind.summary_lines()
    assert "perfect candidates  : n/a (no ground truth)" in lines
    assert "max correctness     : n/a (no ground truth)" in lines
    paths = write_report(blind, tmp_path)
    assert paths == [str(tmp_path / "attack_summary.txt")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["attack_summary.txt"]
    text = (tmp_path / "attack_summary.txt").read_text()
    assert text == "\n".join(lines) + "\n" and "nan" not in text


def _svg_points(curve, width=1000):
    # the polyline as correctness_svg once built it, one point at a time
    margin = 45
    w, h = width - 2 * margin, 320 - 2 * margin
    n = curve.size
    pts = []
    for j in range(0, n, max(1, n // (2 * w))):
        x = margin + w * j / max(1, n - 1)
        y = margin + h * (1.0 - curve[j] / 100.0)
        pts.append(f"{x:.1f},{y:.1f}")
    return " ".join(pts)


def test_correctness_svg_matches_a_per_point_rendering():
    from types import SimpleNamespace

    from atomspa.spa import correctness_svg

    trace, _ = small_trace(sigma=0.05, seed=1)
    # a reference-sized curve, where the polyline keeps every 17th sample
    wide = np.random.default_rng(0).uniform(0, 100, 32700)
    for rep in (run_attack(trace), SimpleNamespace(folded_curve=wide)):
        svg = correctness_svg(rep)
        assert f'<polyline points="{_svg_points(rep.folded_curve)}" ' in svg
        assert "nan" not in svg
