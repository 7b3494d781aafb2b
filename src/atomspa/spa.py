"""Automated simple power analysis of a scalar-multiplication trace.

The trace is cut into equal windows, one per atomic pattern.  The mean
window serves as a threshold: at every sample offset, each window is
classified by whether it lies above the threshold there, giving one key
candidate per sample offset.  A candidate's correctness is the fraction of
windows labelled with the right pattern kind; candidates at offsets whose
addressing differs between the two kinds reach 100% while offsets with
identical addressing hover at the majority-class baseline.  Scalar recovery
fixes each candidate's polarity by its first window, since every run starts
with a doubling, keeps the candidates with no two adjacent additions, and
reads bits off the pattern sequence with atoms.recover_scalar.  Without
ground truth in the trace metadata there is no correctness to measure: the
attack still recovers, and its report holds only the summary.

Every step takes a float32 Trace as leakage.read_trace or
leakage.simulate_trace made it: those two check its length, its dtype and
its ground truth, and the steps here do not check them again.
"""

import os
from dataclasses import dataclass

import numpy as np

from atomspa.atoms import ScalarK, recover_scalar


@dataclass
class AttackReport:
    pattern_count: int
    samples_per_pattern: int
    # the three curves are None without ground truth
    correctness_curve: np.ndarray      # as-is percentages, one per sample
    folded_curve: np.ndarray           # max of as-is and flipped
    perfect_count: int
    cycles_per_pattern: int
    recovered_bits: tuple              # None when not recovered
    recovered_support: int             # candidates agreeing on the recovery
    best_sample: int
    ground_truth: str = None

    @property
    def recovered_scalar(self):
        if self.recovered_bits is None:
            return None
        return ScalarK(self.recovered_bits)

    @property
    def recovered(self):
        return self.recovered_bits is not None

    def summary_lines(self):
        blind = self.ground_truth is None
        na = "n/a (no ground truth)"
        lines = [
            f"patterns            : {self.pattern_count}",
            f"samples per pattern : {self.samples_per_pattern}",
            f"key candidates      : {self.samples_per_pattern}",
            f"perfect candidates  : {na if blind else self.perfect_count}",
            "max correctness     : "
            + (na if blind else f"{self.folded_curve.max():.2f}%"),
            f"recovered           : {'yes' if self.recovered else 'no'}"
            + (f" (support {self.recovered_support}, sample {self.best_sample})"
               if self.recovered else ""),
        ]
        if self.recovered:
            lines.append(f"recovered scalar    : 0x{self.recovered_scalar.value:x}")
        return lines


def segment(trace):
    """Cut the trace into a (pattern_count, samples_per_pattern) matrix."""
    return trace.samples.reshape(-1, trace.samples_per_pattern)


def mean_pattern(matrix):
    """Column-wise arithmetic mean: the threshold pattern."""
    return matrix.mean(axis=0, dtype=np.float64)


def classify_matrix(matrix, threshold):
    """Labels of float32 samples packed along the pattern axis: strictly
    above the threshold; ties are False.

    Returns a (ceil(pattern_count / 8), samples_per_pattern) uint8 array in
    np.packbits bit order (row r is bit 7 - r % 8 of byte r // 8) with zero
    padding, built 8 rows at a time so the boolean matrix never exists.
    """
    # a float32 x lies above t exactly when it lies above the largest
    # float32 at or below t, and comparing in float32 casts nothing
    down = threshold.astype(np.float32)
    thr = np.where(down > threshold, np.nextafter(down, np.float32(-np.inf)),
                   down)
    # each byte ORs its rows' labels at bit weights 128, 64, ..., 1; a
    # partial last block takes only the top weights, so its padding is 0
    weight = (128 >> np.arange(8)).astype(np.uint8)[:, None]
    packed = np.empty(((matrix.shape[0] + 7) // 8, matrix.shape[1]),
                      dtype=np.uint8)
    for i, byte in enumerate(packed):
        rows = matrix[8 * i:8 * i + 8]
        np.bitwise_or.reduce((rows > thr).view(np.uint8) * weight[:len(rows)],
                             axis=0, out=byte)
    return packed


def correctness_curve(labels, truth):
    """As-is correctness for every candidate, from packed labels (see
    classify_matrix; label True = 'A')."""
    t = np.asarray([k == "A" for k in truth], dtype=bool)
    wrong = np.bitwise_count(labels ^ np.packbits(t)[:, None]).sum(
        axis=0, dtype=np.int64)
    return 100.0 * (t.size - wrong) / t.size


def _blind_recovery(labels, n):
    """Pick the most supported grammar-consistent candidate sequence.

    labels holds n packed rows (see classify_matrix).  Every run starts
    with a doubling, so a column whose row 0 is True is flipped first;
    then True = addition, and a column is a candidate when it is not
    constant and no two adjacent rows are both True.
    Returns (bits, support, sample_index) or (None, 0, -1).
    """
    valid = np.packbits(np.arange(8 * labels.shape[0]) < n)[:, None]
    # the padding after row n - 1 stays False through the flip
    norm = labels ^ valid * (labels[0] >> 7)
    # row r + 1 moved into row r's bit: shift left by one and carry the
    # top bit of the next byte
    nxt = norm << 1
    nxt[:-1] |= norm[1:] >> 7
    cols = np.flatnonzero(norm.any(axis=0) & ~(norm & nxt).any(axis=0))
    if cols.size == 0:
        return None, 0, -1
    # one candidate sequence per row
    packed = np.ascontiguousarray(norm.T[cols])
    # one opaque bytes key per row, so np.unique groups equal sequences
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    # highest support wins, and a tie goes to the lowest sample index (not
    # to the group whose bytes sort first)
    best = np.lexsort((first, -counts))[0]
    pos = first[best]
    seq = "".join("A" if x else "D"
                  for x in np.unpackbits(packed[pos], count=n))
    return recover_scalar(seq), int(counts[best]), int(cols[pos])


def run_attack(trace):
    """Full pipeline: segment, mean threshold, classify, evaluate, recover."""
    matrix = segment(trace)
    threshold = mean_pattern(matrix)
    # finite float32 samples cannot overflow a float64 column sum, so the
    # mean is finite exactly when every sample is
    bad = ~np.isfinite(threshold)
    if bad.any():
        raise IOError(f"trace has non-finite samples at {int(bad.sum())} "
                      f"sample offsets")
    labels = classify_matrix(matrix, threshold)

    truth = trace.meta.get("ground_truth")
    curve = folded = None
    perfect = 0
    if truth is not None:
        curve = correctness_curve(labels, truth)
        folded = np.maximum(curve, 100.0 - curve)
        perfect = int((folded >= 100.0).sum())

    bits, support, best_j = _blind_recovery(labels, matrix.shape[0])

    return AttackReport(
        pattern_count=matrix.shape[0],
        samples_per_pattern=matrix.shape[1],
        correctness_curve=curve,
        folded_curve=folded,
        perfect_count=perfect,
        cycles_per_pattern=trace.meta["cycles_per_pattern"],
        recovered_bits=bits,
        recovered_support=support,
        best_sample=best_j,
        ground_truth=truth,
    )


def write_report(report, out_dir):
    """attack_summary.txt, the per-sample attack_correctness.csv and the
    curve's attack_correctness.svg; only the summary without ground truth.
    Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    txt = os.path.join(out_dir, "attack_summary.txt")
    with open(txt, "w") as f:
        f.write("\n".join(report.summary_lines()) + "\n")
    if report.ground_truth is None:
        return [txt]
    csv_path = os.path.join(out_dir, "attack_correctness.csv")
    spc = report.samples_per_pattern // report.cycles_per_pattern
    # a curve takes at most pattern_count + 1 distinct values, and the
    # folded value is a function of the as-is one, so each distinct pair is
    # formatted once
    n = report.correctness_curve.size
    values, first, idx = np.unique(report.correctness_curve,
                                   return_index=True, return_inverse=True)
    text = [f"{v:.4f},{w:.4f}" for v, w in
            zip(values.tolist(), report.folded_curve[first].tolist())]
    # one flat field list rendered by a single format call
    fields = [None] * (3 * n)
    fields[0::3] = range(n)
    fields[1::3] = (np.arange(n) // spc + 1).tolist()
    fields[2::3] = [text[i] for i in idx.tolist()]
    with open(csv_path, "w", newline="") as f:
        f.write("sample,clock_cycle,correctness_pct,folded_pct\r\n")
        f.write(("%d,%d,%s\r\n" * n) % tuple(fields))
    svg_path = os.path.join(out_dir, "attack_correctness.svg")
    with open(svg_path, "w") as f:
        f.write(correctness_svg(report))
    return [txt, csv_path, svg_path]


def correctness_svg(report):
    """Correctness of every key candidate over the sample offset axis."""
    width, height, margin = 1000, 320, 45
    w = width - 2 * margin
    h = height - 2 * margin
    curve = report.folded_curve
    n = curve.size
    j = np.arange(0, n, max(1, n // (2 * w)))
    xy = np.empty(2 * j.size)
    xy[0::2] = margin + w * j / max(1, n - 1)
    xy[1::2] = margin + h * (1.0 - curve[j] / 100.0)
    points = ("%.1f,%.1f " * j.size % tuple(xy.tolist()))[:-1]
    grid = []
    for pct in (0, 25, 50, 75, 100):
        y = margin + h * (1.0 - pct / 100.0)
        grid.append(
            f'<line x1="{margin}" y1="{y:.1f}" x2="{width-margin}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
            f'<text x="4" y="{y+4:.1f}" font-size="11">{pct}%</text>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        + "\n".join(grid) + "\n"
        f'<polyline points="{points}" fill="none" stroke="#c22" '
        f'stroke-width="1"/>\n'
        f'<text x="{width/2-80}" y="{height-8}" font-size="12">'
        f'key candidate / sample offset within pattern</text>\n'
        "</svg>\n")
