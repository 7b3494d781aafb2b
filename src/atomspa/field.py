"""Prime-field arithmetic and the segmented multiplier model.

Field elements are canonical ints in [0, p) and PrimeField.mul is a plain
big-integer product followed by %.  The segment-product plans model the
hardware multiplier: operands are split into four 64-bit segments and the
512-bit product is assembled from either 9 partial products (two-level
Karatsuba) or 16 (classical schoolbook).  A plan's step count is what the
cycle scheduler charges time for; its arithmetic output is checked against
big-integer multiplication in the tests.
"""

from dataclasses import dataclass

SEGMENT_BITS = 64
SEGMENT_COUNT = 4
SEGMENT_MASK = (1 << SEGMENT_BITS) - 1

# NIST P-256 domain parameters (FIPS 186-4 / SEC2).
P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P256_A = P256_P - 3
P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
P256_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
P256_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
P256_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _segments(x):
    return tuple((x >> (SEGMENT_BITS * i)) & SEGMENT_MASK
                 for i in range(SEGMENT_COUNT))


@dataclass(frozen=True)
class PartialStep:
    """One segment-level multiplication: (sum of a-segments) * (sum of b-segments)."""

    a_segments: tuple
    b_segments: tuple


@dataclass(frozen=True)
class MulSchedule:
    """Ordered plan of segment multiplications for one 256x256 product."""

    kind: str
    steps: tuple

    @property
    def step_count(self):
        return len(self.steps)

    def partial_products(self, a, b):
        sa = _segments(a)
        sb = _segments(b)
        out = []
        for step in self.steps:
            pa = sum(sa[i] for i in step.a_segments)
            pb = sum(sb[i] for i in step.b_segments)
            out.append(pa * pb)
        return out

    def evaluate(self, a, b):
        """Assemble the full (unreduced) product from this plan's partials."""
        pp = self.partial_products(a, b)
        w = 1 << SEGMENT_BITS
        if self.kind == "karatsuba4":
            lo = pp[0] + (pp[2] - pp[0] - pp[1]) * w + pp[1] * w * w
            hi = pp[3] + (pp[5] - pp[3] - pp[4]) * w + pp[4] * w * w
            mid = pp[6] + (pp[8] - pp[6] - pp[7]) * w + pp[7] * w * w
            return lo + (mid - lo - hi) * w * w + hi * w ** 4
        # classical: steps are ordered (i, j) pairs
        acc = 0
        for step, p in zip(self.steps, pp):
            acc += p << (SEGMENT_BITS * (step.a_segments[0] + step.b_segments[0]))
        return acc


_KARATSUBA4 = MulSchedule(
    "karatsuba4",
    (
        # low half a1a0 * b1b0
        PartialStep((0,), (0,)),
        PartialStep((1,), (1,)),
        PartialStep((0, 1), (0, 1)),
        # high half a3a2 * b3b2
        PartialStep((2,), (2,)),
        PartialStep((3,), (3,)),
        PartialStep((2, 3), (2, 3)),
        # cross term (low+high) * (low+high)
        PartialStep((0, 2), (0, 2)),
        PartialStep((1, 3), (1, 3)),
        PartialStep((0, 1, 2, 3), (0, 1, 2, 3)),
    ),
)

_CLASSICAL = MulSchedule(
    "classical",
    tuple(
        PartialStep((i,), (j,))
        for i in range(SEGMENT_COUNT)
        for j in range(SEGMENT_COUNT)
    ),
)


def mul_schedule(kind):
    """Return the segment-multiplication plan: 9 steps for karatsuba4, 16 classical."""
    if kind == "karatsuba4":
        return _KARATSUBA4
    if kind == "classical":
        return _CLASSICAL
    raise ValueError(f"unknown multiplication plan {kind!r}")


class PrimeField:
    """GF(p) on canonical residues.

    mul is a big-integer product reduced with %; the segment plans above
    model the hardware multiplier's timing and are checked against it in
    the tests, but the arithmetic does not run through them.
    """

    def __init__(self, p):
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime")
        self.p = p

    def check(self, x):
        if not (0 <= x < self.p):
            raise ValueError(f"non-canonical field element {x:#x}")
        return x

    def add(self, a, b):
        s = a + b
        if s >= self.p:
            s -= self.p
        return s

    def sub(self, a, b):
        d = a - b
        if d < 0:
            d += self.p
        return d

    def mul(self, a, b):
        return a * b % self.p

    def sqr(self, a):
        return self.mul(a, a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)


class Curve:
    """Short Weierstrass curve y^2 = x^3 + ax + b over GF(p)."""

    def __init__(self, name, p, a, b, gx, gy, n):
        self.name = name
        self.field = PrimeField(p)
        self.p = p
        self.a = a % p
        self.b = b % p
        self.gx = gx % p
        self.gy = gy % p
        self.n = n
        if (4 * self.a ** 3 + 27 * self.b ** 2) % p == 0:
            raise ValueError("singular curve")
        if self.a != (p - 3) % p:
            raise ValueError("pattern formulas require a = -3 mod p")
        if not self.contains(self.gx, self.gy):
            raise ValueError("generator not on curve")

    def contains(self, x, y):
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0


CURVES = {
    "P-256": Curve("P-256", P256_P, P256_A, P256_B, P256_GX, P256_GY, P256_N),
    # tiny curve with a = -3 and prime group order, used by exhaustive tests
    "toy23": Curve("toy23", 23, 20, 1, 0, 1, 23),
    "toy61": Curve("toy61", 61, 58, 3, 0, 8, 73),
}


def get_curve(name):
    try:
        return CURVES[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}") from None
