"""Synthetic power traces for full scalar-multiplication runs.

Every clock cycle contributes samples_per_cycle samples built from three
terms: a base level selected by the block activity states (identical for
both pattern kinds by construction), an address-transition term proportional
to the Hamming distance between the bus address lines of this cycle and the
previous one, and Gaussian noise.  The address lines hold their value across
silent cycles, across the window boundary too, so the final write-back of
one pattern leaks into the next window.  The noiseless trace is therefore
three per-cycle level vectors, one per window of WINDOWS (see line_walk and
window_levels; ("A", "A") cannot occur, as a doubling precedes every
addition), each cycle's level repeated samples_per_cycle times.  Only
Hamming distances reach the samples, so XOR-ing every code of the address
table with one common mask changes no sample.

Every cycle of a window is rendered with the events of the window's own
kind, though some belong to a neighbouring pattern: at the default timing,
cycles 1-4 carry the previous pattern's op 19 write-back and its op 21, and
cycles 108-109 the next pattern's op 1 fetches.  Cycles 1, 2, 3, 108 and
109 are differing cycles, and all six leak; in an addition after a
doubling, cycle 1 shows the addition's write-back to R0 where the machine
writes the doubling's product to X2.

Noise is N(0, sigma^2), drawn by the Box-Muller transform and written in
place into the trace.  Its uniforms are (w >> 8) * 2**-24 in float32, for
the 32-bit halves w, low half first, of the raw words of one
PCG64DXSM(seed) stream: with h = (samples_per_pattern + 1) // 2, pattern i
takes words [i*h, (i+1)*h), whose first h halves give its radii and the
next h its angles.  The transform runs on blocks of BLOCK consecutive
patterns, which the calling thread and, by default, one helper thread per
further CPU take in turn, in increasing order, from one pool that starts no
thread for a trace of one block.  Each thread makes its own scratch block
and PCG64DXSM(seed) and only advances it forward, to each block's first
word.  Every sample sees the same float32 operations in the same order
whatever the block or thread, so the trace is a pure function of its
inputs and of the numpy build and SIMD level, byte for byte, for any
worker count.  The uniforms are multiples of 2**-24, so |noise| is capped
at sqrt(-2 ln 2**-24) = 5.768 sigma, a tail mass of about 8e-9.
Sigma 0, the idealized noiseless machine, takes the same render: every
noise sample is then a signed zero, and a signed zero added to a level
leaves the level, so each sample is its window's level exactly.
"""

import hashlib
import json
import math
import mmap
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from atomspa.atoms import recover_scalar
from atomspa.sched import ADDSUB, MULT, mult_block_state

TRACE_DTYPE = "<f4"
NOISE_CAP = 5.7682      # bound on |noise| / sigma, see the module docstring
META_COUNTS = ("samples_per_cycle", "cycles_per_pattern", "pattern_count")
BLOCK = 8               # patterns per task of the noise render
ADDRESS_BITS = 6
# (previous kind, kind) of every window a double-and-add sequence holds
WINDOWS = (("D", "D"), ("D", "A"), ("A", "D"))

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
# every partial-product cycle draws the same "mult:pp" level.  The table is
# fixed: both pattern kinds walk the same block states, so no level of it
# can move a D/A difference
BASE_LEVELS = {
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
    addresses: dict = None      # overrides for DEFAULT_ADDRESS_CODES entries

    def __post_init__(self):
        # exactly int, and alpha and sigma int or float: json, which writes
        # the hash and the sidecar, takes no numpy int or float32
        if type(self.samples_per_cycle) is not int or \
                self.samples_per_cycle < 1:
            raise ValueError(f"samples_per_cycle must be an int >= 1, "
                             f"not {self.samples_per_cycle!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), "
                             f"not {self.seed!r}")
        _check_real("alpha", self.alpha)
        _check_real("sigma", self.sigma)
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
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

    def address_table(self):
        return {**DEFAULT_ADDRESS_CODES, **(self.addresses or {})}

    def digest(self):
        # the numbers, not their spellings: 1 and 1.0, or -0.0 and 0.0, give
        # the same samples and so the same hash
        blob = json.dumps({
            "alpha": float(self.alpha) + 0.0, "sigma": float(self.sigma) + 0.0,
            "samples_per_cycle": self.samples_per_cycle, "seed": self.seed,
            "base_levels": sorted(BASE_LEVELS.items()),
            "addresses": sorted(self.address_table().items()),
        }, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _check_real(name, v):
    # compared exactly: math.isfinite overflows on huge ints
    if isinstance(v, bool) or not isinstance(v, (int, float)) or \
            not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, not {v!r}")


@dataclass
class Trace:
    samples: np.ndarray
    meta: dict

    @property
    def samples_per_pattern(self):
        return self.meta["samples_per_cycle"] * self.meta["cycles_per_pattern"]


def line_walk(d_sched, a_sched):
    """{window: states} for each of WINDOWS: the (src, dst) register names
    on the bus address lines, the state the previous window leaves and then
    one per cycle.  A silent cycle issues no addressing, so the lines hold
    their names through it, across the window boundary too.  Raises
    ValueError when the schedules disagree on the pattern length."""
    if d_sched.cycle_count != a_sched.cycle_count:
        raise ValueError("schedules disagree on the pattern length")
    sched = {"D": d_sched, "A": a_sched}
    out = {}
    for pk, k in WINDOWS:
        state, states = None, []
        for ev in sched[pk].events + sched[k].events:
            if ev.src_name is not None:
                state = (ev.src_name, ev.dst_names[0])
            states.append(state)
        out[(pk, k)] = states[-d_sched.cycle_count - 1:]
    return out


def window_levels(d_sched, a_sched, params):
    """{window: levels} for each of WINDOWS: a TRACE_DTYPE array of
    cycle_count levels, each the base level of the cycle's block states plus
    alpha times the Hamming distance of its line_walk names, encoded with
    the address table, from the previous cycle's.  Raises ValueError as
    line_walk does."""
    lv = BASE_LEVELS
    table = params.address_table()
    # both kinds read the scheduler's shared state dicts: same block states
    base = np.array([lv[f"mult:{mult_block_state(ev.mult_state)}"]
                     + lv[f"addsub:{ev.addsub_state}"]
                     for ev in d_sched.events])
    out = {}
    # an overflow to inf is reported by simulate_trace, not as a warning
    with np.errstate(over="ignore"):
        for window, states in line_walk(d_sched, a_sched).items():
            lines = np.array([table[src] << ADDRESS_BITS | table[dst]
                              for src, dst in states])
            # the counts are uint8, a dtype an int alpha would keep
            flips = np.bitwise_count(lines[1:] ^ lines[:-1])
            leak = params.alpha * flips.astype(np.float64)
            out[window] = (base + leak).astype(TRACE_DTYPE)
    return out


def _check_memory(samples):
    """Refuse a trace that cannot fit in this machine's physical memory."""
    need = samples * np.dtype(TRACE_DTYPE).itemsize
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"a trace of {samples:,} samples needs {need:,} "
                         f"bytes, more than the {have:,} bytes of memory")


def simulate_trace(seq, d_sched, a_sched, params, workers=None):
    """Concatenate per-pattern simulations with address carry-over.

    seq is the executed pattern sequence ('D'/'A' strings) of k_mul.  The
    noise is rendered BLOCK patterns at a time by up to `workers` threads,
    the calling one included, by default one per CPU this process may run
    on; the samples do not depend on either.
    Raises ValueError for a workers value other than None or an int >= 1,
    an empty sequence, one that breaks the double-and-add grammar (see
    recover_scalar), a trace larger than physical memory or samples beyond
    the float32 range.
    """
    if workers is not None and not (type(workers) is int and workers >= 1):
        raise ValueError(f"workers must be None or an int >= 1, "
                         f"not {workers!r}")
    seq = tuple(seq)
    if not seq:
        raise ValueError("empty pattern sequence")
    recover_scalar(seq)
    levels = window_levels(d_sched, a_sched, params)
    spc = params.samples_per_cycle
    spp = d_sched.cycle_count * spc
    _check_memory(spp * len(seq))
    # every sample lies within NOISE_CAP * sigma of its window's levels
    peak = (max(float(np.abs(lv).max()) for lv in levels.values())
            + NOISE_CAP * params.sigma)
    if not peak <= float(np.finfo(TRACE_DTYPE).max):
        raise ValueError(f"samples would reach {peak:.4g}, beyond the "
                         f"float32 range; lower alpha or sigma")
    window = {kinds: np.repeat(lv, spc) for kinds, lv in levels.items()}

    n = len(seq)
    total = np.empty(spp * n, dtype=TRACE_DTYPE)
    # Box-Muller: each (radius, angle) pair gives one cosine and one sine
    # sample, so h pairs cover a window of spp (possibly odd) samples
    h = (spp + 1) // 2
    sigma = np.float32(params.sigma)
    two_pi = np.float32(2.0 * math.pi)
    starts = range(0, n, BLOCK)
    # every thread takes the next block start as it comes free, so a stalled
    # core holds back no more than the block it has; next() on the shared
    # iterator is atomic under the GIL and hands the starts out in order
    blocks = iter(starts)

    def drain():
        # the starts a thread takes only increase, so gen only moves forward
        scratch = np.empty((min(BLOCK, n), 2 * h), dtype=np.float32)
        gen = np.random.PCG64DXSM(params.seed)
        at = 0  # the pattern whose first word gen draws next
        for start in blocks:
            stop = min(start + BLOCK, n)
            gen.advance((start - at) * h)
            at = stop
            u = scratch[: stop - start]
            for row in u:
                words = gen.random_raw(h).view(np.uint32)
                words >>= 8
                row[:] = words  # below 2**24, so float32 holds each exactly
            u *= np.float32(2.0**-24)  # uniforms in [0, 1), 24 bits each
            r, theta = u[:, :h], u[:, h:]
            np.subtract(1, r, out=r)  # in (0, 1], so log never sees 0
            np.log(r, out=r)
            r *= np.float32(-2)
            np.sqrt(r, out=r)
            r *= sigma  # after the root, so sigma**2 cannot overflow
            theta *= two_pi
            out = total[start * spp : stop * spp].reshape(stop - start, spp)
            lo, hi = out[:, :h], out[:, h:]
            np.cos(theta, out=lo)
            lo *= r
            np.sin(theta[:, : spp - h], out=hi)
            hi *= r[:, : spp - h]
            for i, row in enumerate(out, start):
                # the first window starts from the line state its kind leaves
                row += window[(seq[max(i - 1, 0)], seq[i])]

    if workers is None:
        workers = len(os.sched_getaffinity(0))
    # the calling thread drains beside the helpers; a pool starts a thread
    # only for a submitted task, so a one-block trace starts none
    helpers = min(workers, len(starts)) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
    for f in futures:
        f.result()

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

    Both go to new files first: the samples' file then replaces trace_path,
    so a trace still mapped from the old file (see read_trace) keeps its
    samples, and the sidecar's file replaces meta_path.  A failure up to the
    samples' replace leaves both paths as they were; only a meta_path that
    cannot be replaced (a directory, say) fails after it.
    """
    # rendered first, so a sidecar json cannot write touches no file
    sidecar = json.dumps(trace.meta, indent=1, sort_keys=True) + "\n"
    meta_tmp, tmp = f"{meta_path}.tmp", f"{trace_path}.tmp"
    made = []   # the temporaries on disk
    try:
        with open(meta_tmp, "w") as f:
            made.append(meta_tmp)
            f.write(sidecar)
        with open(tmp, "wb") as f:
            made.append(tmp)
            np.ascontiguousarray(trace.samples, dtype=TRACE_DTYPE).tofile(f)
        os.replace(tmp, trace_path)
        made.remove(tmp)
        os.replace(meta_tmp, meta_path)
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def _count(n):
    """n in decimal, or a bound on it once str() could hit the digit limit
    that Python puts on int-to-text conversion."""
    return str(n) if n < 2**64 else f"at least 2**{n.bit_length() - 1}"


def read_trace(trace_path, meta_path):
    """Check the sidecar and the file size, then return the samples as a
    read-only view of the mapped file: nothing is copied.  Raises IOError
    for a bad sidecar or a file whose size is not the samples' byte count.
    """
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    # ValueError covers bad JSON, bad UTF-8 and ints past the digit limit
    except (OSError, ValueError, RecursionError) as e:
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
            recover_scalar(truth)
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
                          f"{_count(nbytes)} ({_count(expect)} samples)")
        buf = mmap.mmap(f.fileno(), nbytes, access=mmap.ACCESS_READ)
    return Trace(np.frombuffer(buf, dtype=TRACE_DTYPE), meta)
