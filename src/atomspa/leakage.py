"""Synthetic power traces for full scalar-multiplication runs.

Every clock cycle contributes samples_per_cycle samples built from three
terms: a base level selected by the block activity states (identical for
both pattern kinds by construction), an address-transition term proportional
to the Hamming distance between the bus address lines of this cycle and the
previous one, and Gaussian noise.  The address lines hold their value across
silent cycles, across the window boundary too, so the final write-back of
one pattern leaks into the next window.  The noiseless trace is therefore
four per-cycle level vectors, one per (previous kind, kind) window (see
window_levels), each cycle's level repeated samples_per_cycle times.  Only
Hamming distances reach the samples, so XOR-ing every code of the address
table with one common mask changes no sample.

Noise is N(0, sigma^2), drawn for each pattern by the Box-Muller transform
and written in place into that pattern's slice of the trace.  Its uniforms
are (w >> 8) * 2**-24 in float32, for the 32-bit halves w of the raw words
of an SFC64 generator seeded by SeedSequence([seed, pattern index]).  This
makes the trace a pure function of its inputs no matter how many workers
simulate patterns concurrently.  The uniforms are multiples of 2**-24, so
|noise| is capped at sqrt(-2 ln 2**-24) = 5.768 sigma, a tail mass of
about 8e-9.
"""

import hashlib
import json
import math
import mmap
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from atomspa.sched import ADDSUB, KINDS, MULT, mult_block_state

TRACE_DTYPE = "<f4"
NOISE_CAP = 5.7682      # bound on |noise| / sigma, see the module docstring
META_COUNTS = ("samples_per_cycle", "cycles_per_pattern", "pattern_count")
ADDRESS_BITS = 6

# Default address codes, ADDRESS_BITS wide.  The attack separates the two
# patterns by the Hamming distance between consecutive bus addresses, so the
# code assignment decides which schedule differences are visible at all; this
# table makes every differing cycle of the default schedule distinguishable
# at zero noise and keeps the window boundary separable regardless of the
# preceding pattern.  Override any entry through LeakageParams.addresses.
DEFAULT_ADDRESS_CODES = {
    "X1": 0b100111,
    "X2": 0b110000,
    "X3": 0b010011,
    "Z1": 0b000011,
    "Z2": 0b001110,
    "R0": 0b000111,
    "R1": 0b101110,
    "R2": 0b101010,
    "R3": 0b001011,
    "QX": 0b010001,
    "QY": 0b001111,
    MULT: 0b111100,
    ADDSUB: 0b111000,
}

# flat per-sample levels for each activity state; the red/light-red/white
# distinction of the multiplier shows up as high/medium/low plateaus, and
# every partial-product cycle draws the same "mult:pp" level
DEFAULT_BASE_LEVELS = {
    "mult:load1": 0.55, "mult:load2": 0.60, "mult:pp": 1.00,
    "mult:out": 0.80, "mult:wait_first": 0.45, "mult:wait": 0.25,
    "addsub:load1": 0.30, "addsub:load2": 0.32, "addsub:store": 0.38,
    "addsub:idle": 0.05,
}


@dataclass(frozen=True)
class LeakageParams:
    """The power model; the defaults are the reference scenario's."""

    alpha: float = 1.0          # power units per flipped address-line bit
    sigma: float = 0.05         # Gaussian noise standard deviation
    samples_per_cycle: int = 300
    seed: int = 1
    base_levels: dict = None    # overrides for DEFAULT_BASE_LEVELS entries
    addresses: dict = None      # overrides for DEFAULT_ADDRESS_CODES entries

    def __post_init__(self):
        if not _is_int(self.samples_per_cycle) or self.samples_per_cycle < 1:
            raise ValueError(f"samples_per_cycle must be an int >= 1, "
                             f"not {self.samples_per_cycle!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), "
                             f"not {self.seed!r}")
        _check_real("alpha", self.alpha)
        _check_real("sigma", self.sigma)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.base_levels is not None:
            if not isinstance(self.base_levels, dict):
                raise ValueError(f"base_levels must be a dict, "
                                 f"not {self.base_levels!r}")
            unknown = set(self.base_levels) - set(DEFAULT_BASE_LEVELS)
            if unknown:
                raise ValueError(f"unknown base levels: {sorted(unknown)}")
            for name, level in self.base_levels.items():
                _check_real(f"base level {name}", level)
        if not isinstance(self.addresses, (dict, type(None))) or \
                set(self.addresses or ()) - set(DEFAULT_ADDRESS_CODES):
            raise ValueError(f"addresses must map names of the default "
                             f"address table to codes, not {self.addresses!r}")
        table = self.address_table()
        if len(set(table.values())) != len(table) or any(
                type(c) is not int or not 0 <= c < 1 << ADDRESS_BITS
                for c in table.values()):
            raise ValueError(f"address codes must be distinct ints in "
                             f"[0, {1 << ADDRESS_BITS}): {table}")

    def levels(self):
        lv = dict(DEFAULT_BASE_LEVELS)
        if self.base_levels:
            lv.update(self.base_levels)
        return lv

    def address_table(self):
        return {**DEFAULT_ADDRESS_CODES, **(self.addresses or {})}

    def digest(self):
        blob = json.dumps({
            "alpha": self.alpha, "sigma": self.sigma,
            "samples_per_cycle": self.samples_per_cycle, "seed": self.seed,
            "base_levels": sorted((self.levels()).items()),
            "addresses": sorted(self.address_table().items()),
        }, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _is_int(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_real(name, v):
    # compared exactly: math.isfinite overflows on huge ints
    if isinstance(v, bool) or not isinstance(v, Real) or \
            not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, not {v!r}")


@dataclass
class Trace:
    samples: np.ndarray
    meta: dict

    @property
    def samples_per_pattern(self):
        return self.meta["samples_per_cycle"] * self.meta["cycles_per_pattern"]


def window_levels(d_sched, a_sched, params):
    """Noiseless per-cycle levels of the four pattern windows.

    Returns {(previous kind, kind): levels}, each a TRACE_DTYPE array of
    cycle_count levels: the base level of the cycle's block states plus
    alpha times the Hamming distance of the (src, dst) address lines from
    the previous cycle.  The lines are walked once over the previous kind's
    events and then this kind's, so they hold across silent cycles and
    across the window boundary.  Raises ValueError when the schedules
    disagree on the pattern length.
    """
    if d_sched.cycle_count != a_sched.cycle_count:
        raise ValueError("schedules disagree on the pattern length")
    n = d_sched.cycle_count
    sched = {"D": d_sched, "A": a_sched}
    lv = params.levels()
    table = params.address_table()
    out = {}
    # an overflow to inf is reported by simulate_trace, not as a warning
    with np.errstate(over="ignore"):
        for k in KINDS:
            base = np.array([lv[f"mult:{mult_block_state(ev.mult_state)}"]
                             + lv[f"addsub:{ev.addsub_state}"]
                             for ev in sched[k].events])
            for pk in KINDS:
                lines, src, dst = [], 0, 0
                for ev in sched[pk].events + sched[k].events:
                    if ev.src_name is not None:
                        src = table[ev.src_name]
                        dst = table[ev.dst_names[0]] if ev.dst_names else dst
                    lines.append(src << ADDRESS_BITS | dst)
                lines = np.array(lines)
                # the counts are uint8, a dtype an int alpha would keep
                flips = np.bitwise_count(lines[1:] ^ lines[:-1])[-n:]
                leak = params.alpha * flips.astype(np.float64)
                out[(pk, k)] = (base + leak).astype(TRACE_DTYPE)
    return out


def check_grammar(seq):
    """Raise ValueError unless seq is a non-empty run of 'D'/'A' patterns
    that follows the double-and-add grammar: it starts with a doubling and
    additions only ever follow a doubling."""
    if not seq:
        raise ValueError("empty pattern sequence")
    prev = None
    for k in seq:
        if k not in ("D", "A"):
            raise ValueError(f"bad pattern kind {k!r}")
        if k == "A" and prev != "D":
            raise ValueError("addition without a preceding doubling")
        prev = k


def _check_memory(samples):
    """Refuse a trace that cannot fit in this machine's physical memory."""
    need = samples * np.dtype(TRACE_DTYPE).itemsize
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"a trace of {samples:,} samples needs {need:,} "
                         f"bytes, more than the {have:,} bytes of memory")


def simulate_trace(seq, d_sched, a_sched, params, workers=1):
    """Concatenate per-pattern simulations with address carry-over.

    seq is the executed pattern sequence ('D'/'A' strings); see check_grammar.
    Raises ValueError for a trace larger than physical memory or for
    samples beyond the float32 range.
    """
    seq = tuple(seq)
    check_grammar(seq)
    levels = window_levels(d_sched, a_sched, params)
    spc = params.samples_per_cycle
    spp = d_sched.cycle_count * spc
    _check_memory(spp * len(seq))
    # every sample lies within NOISE_CAP * sigma of its window's levels
    peak = (max(float(np.abs(lv).max()) for lv in levels.values())
            + NOISE_CAP * params.sigma)
    if not peak <= float(np.finfo(TRACE_DTYPE).max):
        raise ValueError(f"samples would reach {peak:.4g}, beyond the "
                         f"float32 range; lower alpha, sigma or the base "
                         f"levels")
    window = {kinds: np.repeat(lv, spc) for kinds, lv in levels.items()}

    total = np.empty(spp * len(seq), dtype=TRACE_DTYPE)
    # Box-Muller: each (radius, angle) pair gives one cosine and one sine
    # sample, so h pairs cover a window of spp (possibly odd) samples
    h = (spp + 1) // 2
    sigma = np.float32(params.sigma)
    two_pi = np.float32(2.0 * math.pi)

    def render(i):
        k = seq[i]
        # the first window starts from the line state its own kind leaves
        pk = seq[i - 1] if i > 0 else seq[0]
        w = window[(pk, k)]
        out = total[i * spp : (i + 1) * spp]
        if params.sigma > 0:
            # a fresh generator and buffer per call keep concurrent renders
            # independent
            bits = np.random.SFC64(np.random.SeedSequence([params.seed, i]))
            words = bits.random_raw(h).view(np.uint32)
            words >>= 8
            u = words.astype(np.float32)
            u *= np.float32(2.0**-24)  # uniforms in [0, 1), 24 bits each
            r, theta = u[:h], u[h:]
            np.subtract(1, r, out=r)  # in (0, 1], so log never sees 0
            np.log(r, out=r)
            r *= np.float32(-2)
            np.sqrt(r, out=r)
            r *= sigma  # after the root, so sigma**2 cannot overflow
            theta *= two_pi
            lo, hi = out[:h], out[h:]
            np.cos(theta, out=lo)
            lo *= r
            lo += w[:h]
            np.sin(theta[: spp - h], out=hi)
            hi *= r[: spp - h]
            hi += w[h:]
        else:
            out[:] = w

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(render, range(len(seq))))
    else:
        for i in range(len(seq)):
            render(i)

    meta = {
        "samples_per_cycle": params.samples_per_cycle,
        "cycles_per_pattern": d_sched.cycle_count,
        "pattern_count": len(seq),
        "ground_truth": "".join(seq),
        "seed": params.seed,
        "alpha": params.alpha,
        "sigma": params.sigma,
        "params_hash": params.digest(),
        "dtype": TRACE_DTYPE,
    }
    return Trace(total, meta)


def write_trace(trace, trace_path, meta_path):
    """Raw little-endian float32 samples plus a JSON sidecar.

    The samples go to a new file that then replaces trace_path, so a trace
    still mapped from the old file (see read_trace) keeps its samples.
    """
    tmp = f"{trace_path}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            np.ascontiguousarray(trace.samples, dtype=TRACE_DTYPE).tofile(f)
        os.replace(tmp, trace_path)
    except BaseException:
        os.remove(tmp)
        raise
    with open(meta_path, "w") as f:
        json.dump(trace.meta, f, indent=1, sort_keys=True)
        f.write("\n")


def read_trace(trace_path, meta_path):
    """Check the sidecar and the file size, then return the samples as a
    read-only view of the mapped file: nothing is copied.  Raises IOError
    for a bad sidecar or a file whose size is not the samples' byte count.
    """
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise IOError(f"cannot read trace metadata: {e}") from e
    if not isinstance(meta, dict):
        raise IOError("trace metadata is not a JSON object")
    for key in META_COUNTS:
        v = meta.get(key)
        if type(v) is not int or v < 1:
            raise IOError(f"trace metadata {key} must be a positive int, "
                          f"not {v!r}")
    if meta.get("dtype", TRACE_DTYPE) != TRACE_DTYPE:
        raise IOError(f"trace metadata dtype must be {TRACE_DTYPE!r}, "
                      f"not {meta['dtype']!r}")
    truth = meta.get("ground_truth")
    if truth is not None:
        try:
            if not isinstance(truth, str) or len(truth) != meta["pattern_count"]:
                raise ValueError(f"need a D/A string of length pattern_count "
                                 f"({meta['pattern_count']}), not {truth!r:.40}")
            check_grammar(truth)
        except ValueError as e:
            raise IOError(f"trace metadata ground_truth: {e}") from e
    expect = (meta["samples_per_cycle"] * meta["cycles_per_pattern"]
              * meta["pattern_count"])
    nbytes = expect * np.dtype(TRACE_DTYPE).itemsize
    with open(trace_path, "rb") as f:
        # checked before mapping, which refuses an empty file
        size = os.fstat(f.fileno()).st_size
        if size != nbytes:
            raise IOError(f"trace file has {size} bytes, metadata needs "
                          f"{nbytes} ({expect} samples)")
        buf = mmap.mmap(f.fileno(), nbytes, access=mmap.ACCESS_READ)
    return Trace(np.frombuffer(buf, dtype=TRACE_DTYPE), meta)
