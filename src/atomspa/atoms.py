"""Atomic operation patterns and the double-and-add scalar multiplication.

Point state lives in nine named machine registers.  A point P is held as
(X1;X2;X3;Z1;Z2) = (X; Y; Z; Z^2; Z^3) in Jacobian coordinates with the two
Z powers cached, so a following mixed addition can consume qx*Z^2 and qy*Z^3
without recomputing them.  Doubling and addition are fixed 21-operation
sequences with identical operation kinds position by position; only the
register operands differ, which is exactly the property the address-level
side channel exploits.

The addition sequence contains three filler operations (2, 5, 8) whose
results are overwritten before any use; they exist to keep the kind sequence
aligned with the doubling.  The curve constant a = -3 is baked into the
doubling algebra (3(X^2 - Z^4) = 3X^2 + aZ^4).

k_mul executes a scalar as a D/A pattern sequence, and recover_scalar reads
the scalar back; the latter is the one owner of the double-and-add grammar
that the trace simulator, the trace reader and the attack all apply.
"""

from dataclasses import dataclass

REGISTER_NAMES = ("X1", "X2", "X3", "Z1", "Z2", "R0", "R1", "R2", "R3")

# external operand ports feeding the affine addend Q = (qx, qy)
EXT_QX = "QX"
EXT_QY = "QY"


@dataclass(frozen=True)
class AtomOp:
    index: int
    kind: str  # mul | add | sub | copy
    dst: str
    src1: str
    src2: str = None


# Point doubling, inputs (X1;X2;X3) = (X; Y; Z), outputs the full
# five-register state (X; Y; Z; Z^2; Z^3) of 2P.
DOUBLE_PATTERN = (
    AtomOp(1, "mul", "R0", "X3", "X3"),    # Z^2
    AtomOp(2, "add", "R2", "X2", "X2"),    # 2Y
    AtomOp(3, "sub", "R1", "X1", "R0"),    # X - Z^2
    AtomOp(4, "mul", "Z1", "X2", "R2"),    # 2Y^2
    AtomOp(5, "add", "X2", "Z1", "Z1"),    # 4Y^2
    AtomOp(6, "mul", "R3", "R2", "X3"),    # Znew = 2YZ
    AtomOp(7, "mul", "R2", "X2", "X1"),    # S = 4XY^2
    AtomOp(8, "add", "X1", "X1", "R0"),    # X + Z^2
    AtomOp(9, "mul", "R0", "R1", "X1"),    # X^2 - Z^4
    AtomOp(10, "mul", "R1", "Z1", "X2"),   # 8Y^4
    AtomOp(11, "add", "X1", "R0", "R0"),   # 2(X^2 - Z^4)
    AtomOp(12, "add", "R0", "R0", "X1"),   # M = 3(X^2 - Z^4)
    AtomOp(13, "mul", "X1", "R0", "R0"),   # M^2
    AtomOp(14, "sub", "X1", "X1", "R2"),   # M^2 - S
    # squares the new Z kept in R3; squaring anything else breaks the
    # cached-Z chain consumed by the next addition (oracle-pinned)
    AtomOp(15, "mul", "Z1", "R3", "R3"),   # Znew^2
    AtomOp(16, "sub", "X1", "X1", "R2"),   # Xnew = M^2 - 2S
    AtomOp(17, "sub", "R2", "R2", "X1"),   # S - Xnew
    # Znew^3 = Znew^2 * Znew; the next addition reads it as qy's cofactor
    AtomOp(18, "mul", "Z2", "Z1", "R3"),   # Znew^3
    AtomOp(19, "mul", "X2", "R0", "R2"),   # M(S - Xnew)
    AtomOp(20, "copy", "X3", "R3"),        # Znew
    AtomOp(21, "sub", "X2", "X2", "R1"),   # Ynew = M(S - Xnew) - 8Y^4
)

# Mixed addition P + Q, P in registers, Q = (qx; qy; 1) from the external
# ports.  Operations 2 and 3 and operations 20 and 21 are swapped relative
# to the pattern this sequence descends from, which parallelizes better and
# keeps the kind sequence equal to the doubling's.
ADD_PATTERN = (
    AtomOp(1, "mul", "R1", EXT_QX, "Z1"),  # U2 = qx Z^2
    AtomOp(2, "add", "R2", "X2", "X2"),    # filler: same registers as doubling op 2
    AtomOp(3, "sub", "R1", "R1", "X1"),    # H = U2 - X
    AtomOp(4, "mul", "R2", "R1", "R1"),    # H^2
    AtomOp(5, "add", "R0", "R2", "R2"),    # filler: overwritten at op 7
    AtomOp(6, "mul", "R3", "X1", "R2"),    # X H^2
    AtomOp(7, "mul", "R0", EXT_QY, "Z2"),  # S2 = qy Z^3
    AtomOp(8, "add", "Z2", "Z2", "R0"),    # filler: overwritten at op 9
    AtomOp(9, "mul", "Z2", "R1", "R2"),    # H^3
    AtomOp(10, "mul", "R2", "X3", "R1"),   # Znew = Z H
    AtomOp(11, "add", "X1", "R3", "R3"),   # 2 X H^2
    AtomOp(12, "add", "X1", "Z2", "X1"),   # H^3 + 2 X H^2
    # squares the new Z kept in R2 (the Z^2 cache for the next pattern)
    AtomOp(13, "mul", "Z1", "R2", "R2"),   # Znew^2
    AtomOp(14, "sub", "R0", "R0", "X2"),   # r = S2 - Y
    AtomOp(15, "mul", "R1", "R0", "R0"),   # r^2
    AtomOp(16, "sub", "X1", "R1", "X1"),   # Xnew = r^2 - H^3 - 2 X H^2
    AtomOp(17, "sub", "R1", "R3", "X1"),   # X H^2 - Xnew
    AtomOp(18, "mul", "R3", "R1", "R0"),   # r (X H^2 - Xnew)
    AtomOp(19, "mul", "R0", "X2", "Z2"),   # Y H^3
    AtomOp(20, "copy", "X3", "R2"),        # Znew
    AtomOp(21, "sub", "X2", "R3", "R0"),   # Ynew = r(X H^2 - Xnew) - Y H^3
)

PATTERNS = {"D": DOUBLE_PATTERN, "A": ADD_PATTERN}


@dataclass(frozen=True)
class AffinePoint:
    x: int = 0
    y: int = 0
    infinity: bool = False

    def validate(self, curve):
        if self.infinity:
            return self
        curve.field.check(self.x)
        curve.field.check(self.y)
        if not curve.contains(self.x, self.y):
            raise ValueError(f"({self.x:#x}, {self.y:#x}) not on {curve.name}")
        return self


INFINITY = AffinePoint(infinity=True)


@dataclass(frozen=True)
class ScalarK:
    """Scalar as an MSB-first bit sequence with a leading 1."""

    bits: tuple

    def __post_init__(self):
        if not self.bits or self.bits[0] != 1:
            raise ValueError("scalar bits must start with 1")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("scalar bits must be 0/1")

    @property
    def bit_length(self):
        return len(self.bits)

    @property
    def value(self):
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    @classmethod
    def from_int(cls, k):
        if k < 1:
            raise ValueError("scalar must be >= 1")
        return cls(tuple(int(c) for c in bin(k)[2:]))

    @classmethod
    def from_string(cls, s):
        """Parse scalar text: binary with a '0b' prefix, hexadecimal
        otherwise ('0x' optional)."""
        t = s.strip().lower()
        try:
            k = int(t, 2) if t.startswith("0b") else int(t, 16)
        except ValueError:
            raise ValueError(f"scalar must be hexadecimal text ('0x' "
                             f"optional) or binary text with a '0b' prefix, "
                             f"not {s!r:.40}") from None
        return cls.from_int(k)


def fresh_registers(point):
    """Register file encoding a finite affine point with Z = 1."""
    regs = {name: 0 for name in REGISTER_NAMES}
    regs["X1"] = point.x
    regs["X2"] = point.y
    regs["X3"] = 1
    regs["Z1"] = 1
    regs["Z2"] = 1
    return regs


def run_pattern(kind, regs, curve, q=None):
    """Execute one atomic pattern in table order; returns the new
    register file."""
    f = curve.field
    regs = dict(regs)
    if kind == "A":
        if q is None:
            raise ValueError("addition pattern needs the affine addend")
        # the addend's ports sit in the register file while the pattern runs
        regs[EXT_QX], regs[EXT_QY] = q.x, q.y
    arith = {"mul": f.mul, "add": f.add, "sub": f.sub}
    for op in PATTERNS[kind]:
        a = regs[op.src1]
        regs[op.dst] = (a if op.kind == "copy"
                        else arith[op.kind](a, regs[op.src2]))
    if kind == "A":
        del regs[EXT_QX], regs[EXT_QY]
    return regs


def to_affine(regs, curve):
    """Convert the register state back to an affine point (one inversion)."""
    f = curve.field
    z = regs["X3"]
    if z == 0:
        return INFINITY
    zi = f.inv(z)
    zi2 = f.sqr(zi)
    return AffinePoint(f.mul(regs["X1"], zi2), f.mul(regs["X2"], f.mul(zi2, zi)))


def k_mul(k, point, curve):
    """Left-to-right double-and-add over the atomic patterns.

    Returns the affine result and the executed pattern sequence ('D'/'A'
    strings), which is the ground truth the side-channel pipeline evaluates
    against; recover_scalar reads k back from it.  Degenerate intermediate
    states (infinity, P = +-Q) abort with a diagnostic; pick a different
    scalar or base point.
    """
    if isinstance(k, int):
        k = ScalarK.from_int(k)
    point.validate(curve)
    if point.infinity:
        raise ValueError("base point must not be infinity")
    if k.value >= curve.n:
        raise ValueError("scalar must be in [1, n)")

    f = curve.field
    regs = fresh_registers(point)
    seq = []
    for i, bit in enumerate(k.bits[1:], start=1):
        if regs["X3"] == 0 or regs["X2"] == 0:
            raise ValueError(f"degenerate state before doubling at bit {i}")
        regs = run_pattern("D", regs, curve)
        seq.append("D")
        if bit:
            if f.mul(point.x, regs["Z1"]) == regs["X1"]:
                raise ValueError(f"degenerate P = +-Q before addition at bit {i}")
            regs = run_pattern("A", regs, curve, point)
            seq.append("A")
    return to_affine(regs, curve), tuple(seq)


def recover_scalar(da_sequence):
    """Read the scalar bits off a D/A pattern sequence, inverting k_mul.

    This is the one check of the double-and-add grammar: every pattern is
    a doubling 'D' (a 0 bit), or an addition 'A' right after a doubling,
    which turns that doubling's bit into a 1.  The leading 1 is implicit.
    Raises ValueError for any other symbol.
    """
    bits = [1]
    for i, k in enumerate(da_sequence):
        if k == "D":
            bits.append(0)
        elif k == "A" and i and da_sequence[i - 1] == "D":
            bits[-1] = 1
        elif k == "A":
            raise ValueError(f"addition without a preceding doubling at {i}")
        else:
            raise ValueError(f"bad pattern kind {k!r} at {i}")
    return tuple(bits)


# --- independent affine reference (used only for verification) ---


def affine_add(curve, p1, p2):
    if p1.infinity:
        return p2
    if p2.infinity:
        return p1
    f = curve.field
    if p1.x == p2.x:
        if f.add(p1.y, p2.y) == 0:
            return INFINITY
        lam = f.mul(f.add(f.mul(3, f.sqr(p1.x)), curve.a), f.inv(f.mul(2, p1.y)))
    else:
        lam = f.mul(f.sub(p2.y, p1.y), f.inv(f.sub(p2.x, p1.x)))
    x3 = f.sub(f.sqr(lam), f.add(p1.x, p2.x))
    y3 = f.sub(f.mul(lam, f.sub(p1.x, x3)), p1.y)
    return AffinePoint(x3, y3)


def affine_double(curve, p):
    return affine_add(curve, p, p)


def reference_k_mul(k, point, curve):
    """Textbook affine left-to-right double-and-add; test oracle only."""
    if isinstance(k, int):
        k = ScalarK.from_int(k)
    point.validate(curve)
    acc = point
    for bit in k.bits[1:]:
        acc = affine_double(curve, acc)
        if bit:
            acc = affine_add(curve, acc, point)
    return acc


def scalar_for_pattern_counts(bit_length, ones_below_msb, curve, seed=1):
    """Deterministically pick a scalar whose executed trace has
    (bit_length - 1) doublings and ones_below_msb additions."""
    import random

    if not 0 <= ones_below_msb <= bit_length - 1 or bit_length < 2:
        raise ValueError(f"unsatisfiable scalar constraints: {ones_below_msb} "
                         f"ones in {bit_length - 1} free positions")
    # the smallest scalar with these counts puts its ones at the bottom; the
    # width test first keeps a huge bit_length from building that number
    if bit_length > curve.n.bit_length() or \
            (1 << (bit_length - 1)) | ((1 << ones_below_msb) - 1) >= curve.n:
        raise ValueError(f"no {bit_length}-bit scalar with {ones_below_msb} "
                         f"ones below its leading one is below the "
                         f"{curve.n.bit_length()}-bit group order")
    rng = random.Random(seed)
    draws = 10000
    for _ in range(draws):
        positions = rng.sample(range(bit_length - 1), ones_below_msb)
        bits = [1] + [0] * (bit_length - 1)
        for pos in positions:
            bits[1 + pos] = 1
        k = ScalarK(tuple(bits))
        if k.value < curve.n:
            return k
    raise ValueError(f"no {bit_length}-bit scalar with {ones_below_msb} ones "
                     f"below its leading one and below n found in {draws} "
                     f"draws; try another pick_seed")
