"""Atomic patterns and scalar multiplication against affine oracles."""

import random

import pytest

from atomspa.field import get_curve, Curve
from atomspa.atoms import (ADD_PATTERN, DOUBLE_PATTERN, AffinePoint, INFINITY,
                           REGISTER_NAMES, ScalarK, affine_add, affine_double,
                           fresh_registers, k_mul, reference_k_mul,
                           run_pattern, scalar_for_pattern_counts, to_affine)

P256 = get_curve("P-256")
G = AffinePoint(P256.gx, P256.gy)
TOY = get_curve("toy23")
GT = AffinePoint(TOY.gx, TOY.gy)


def toy_group():
    """Brute-force table of all affine points of the toy curve."""
    pts = []
    for x in range(TOY.p):
        for y in range(TOY.p):
            if TOY.contains(x, y):
                pts.append(AffinePoint(x, y))
    return pts


def test_patterns_have_21_ops_each():
    assert len(DOUBLE_PATTERN) == len(ADD_PATTERN) == 21
    assert [op.index for op in DOUBLE_PATTERN] == list(range(1, 22))


def test_kind_sequences_identical():
    kinds_d = [op.kind for op in DOUBLE_PATTERN]
    kinds_a = [op.kind for op in ADD_PATTERN]
    assert kinds_d == kinds_a
    assert kinds_d.count("mul") == 10
    assert kinds_d.count("add") == 5
    assert kinds_d.count("sub") == 5
    assert kinds_d.count("copy") == 1


def test_double_matches_reference_on_p256():
    regs = fresh_registers(G)
    regs = run_pattern("D", regs, P256)
    got = to_affine(regs, P256)
    want = affine_double(P256, G)
    assert (got.x, got.y) == (want.x, want.y)


def test_add_matches_reference_on_p256():
    regs = fresh_registers(G)
    regs = run_pattern("D", regs, P256)
    regs = run_pattern("A", regs, P256, G)
    got = to_affine(regs, P256)
    want = affine_add(P256, affine_double(P256, G), G)
    assert (got.x, got.y) == (want.x, want.y)


def test_double_exhaustive_on_toy_curve():
    for pt in toy_group():
        if pt.y == 0:
            continue
        regs = fresh_registers(pt)
        regs = run_pattern("D", regs, TOY)
        got = to_affine(regs, TOY)
        want = affine_double(TOY, pt)
        assert (got.x, got.y, got.infinity) == (want.x, want.y, want.infinity)


def test_add_all_valid_pairs_on_toy_curve():
    pts = toy_group()
    checked = 0
    for p1 in pts:
        regs0 = fresh_registers(p1)
        regs0 = run_pattern("D", regs0, TOY)  # gives a generic Z != 1 state
        base = to_affine(regs0, TOY)
        for q in pts:
            if q.x == base.x:  # P = +-Q is outside the formulas
                continue
            regs = run_pattern("A", regs0, TOY, q)
            got = to_affine(regs, TOY)
            want = affine_add(TOY, base, q)
            assert (got.x, got.y) == (want.x, want.y)
            checked += 1
    assert checked > 100


def test_k_mul_aborts_before_doubling_a_two_torsion_point():
    # y = 0 point: doubling lands on infinity, outside the pattern algebra
    curve = Curve("toy23-tors", 23, 20, 5, 3, 0, 24)
    with pytest.raises(ValueError,
                       match="degenerate state before doubling at bit 1"):
        k_mul(2, AffinePoint(3, 0), curve)


def test_k_mul_aborts_before_adding_plus_minus_q():
    # Q has order 3, so 2Q = -Q and the addition of k = 3 meets P = -Q
    curve = Curve("toy23-o3", 23, 20, 4, 6, 8, 30)
    q = AffinePoint(6, 8)
    assert affine_double(curve, q) == AffinePoint(6, curve.p - 8)
    with pytest.raises(ValueError,
                       match=r"degenerate P = \+-Q before addition at bit 1"):
        k_mul(3, q, curve)


def test_k_mul_k1_returns_point():
    res, seq = k_mul(1, G, P256)
    assert (res.x, res.y) == (G.x, G.y)
    assert seq == ()


def test_k_mul_k2_is_single_doubling():
    res, seq = k_mul(2, G, P256)
    want = affine_double(P256, G)
    assert seq == ("D",)
    assert (res.x, res.y) == (want.x, want.y)


def test_k_mul_random_against_reference():
    rng = random.Random(11)
    for _ in range(10):
        k = rng.randrange(2, P256.n)
        got, seq = k_mul(k, G, P256)
        want = reference_k_mul(k, G, P256)
        assert (got.x, got.y) == (want.x, want.y)
        # grammar: additions only ever follow a doubling
        assert "AA" not in "".join(seq)
        assert not seq or seq[0] == "D"
        kk = ScalarK.from_int(k)
        assert seq.count("A") == sum(kk.bits[1:])
        assert seq.count("D") == kk.bit_length - 1


def test_k_mul_exhaustive_on_toy_curve():
    for k in range(1, TOY.n):
        got, _ = k_mul(k, GT, TOY)
        want = reference_k_mul(k, GT, TOY)
        assert (got.x, got.y, got.infinity) == (want.x, want.y, want.infinity)


def test_reference_k_mul_against_repeated_addition():
    acc = INFINITY
    for k in range(1, TOY.n + 1):
        acc = affine_add(TOY, acc, GT)
        want = reference_k_mul(k, GT, TOY)
        assert (acc.x, acc.y, acc.infinity) == (want.x, want.y, want.infinity)
    # group order annihilates
    assert reference_k_mul(TOY.n, GT, TOY).infinity
    assert affine_add(TOY, GT, INFINITY) == GT


def test_k_mul_rejects_bad_scalars():
    with pytest.raises(ValueError):
        k_mul(0, G, P256)
    with pytest.raises(ValueError):
        k_mul(P256.n, G, P256)


def test_k_mul_rejects_the_point_at_infinity():
    with pytest.raises(ValueError, match="base point must not be infinity"):
        k_mul(2, INFINITY, P256)


def test_to_affine_identity_scaling():
    regs = fresh_registers(G)
    pt = to_affine(regs, P256)
    assert (pt.x, pt.y) == (G.x, G.y)


def test_to_affine_zero_z_is_infinity():
    regs = fresh_registers(G)
    regs["X3"] = 0
    assert to_affine(regs, P256).infinity


def test_addition_consumes_cached_z_powers():
    # the doubling leaves Z^2 and Z^3 for the following addition
    f = P256.field
    regs = fresh_registers(G)
    regs = run_pattern("D", regs, P256)
    assert regs["Z1"] == f.sqr(regs["X3"])
    assert regs["Z2"] == f.mul(regs["Z1"], regs["X3"])


def test_scalar_type():
    k = ScalarK.from_int(0b1101)
    assert k.bits == (1, 1, 0, 1)
    assert k.bit_length == 4 and k.value == 13
    assert ScalarK.from_string("0xd").value == 13
    assert ScalarK.from_string("0b1101").value == 13
    with pytest.raises(ValueError):
        ScalarK((0, 1))
    with pytest.raises(ValueError, match="0/1"):
        ScalarK((1, 2))
    with pytest.raises(ValueError):
        ScalarK.from_int(0)


def test_scalar_for_pattern_counts():
    k = scalar_for_pattern_counts(256, 145, P256)
    assert k.bit_length == 256
    assert k.bits[0] == 1
    assert sum(k.bits[1:]) == 145
    assert 1 <= k.value < P256.n
    # too many ones, negative ones, and no bit below the leading one
    for bits, ones in ((8, 9), (8, -1), (1, 0)):
        with pytest.raises(ValueError,
                           match="unsatisfiable scalar constraints"):
            scalar_for_pattern_counts(bits, ones, P256)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scalar_search_that_finds_nothing_names_its_cause(seed):
    # only the smallest 20-bit scalar with 10 ones below its leading one,
    # 0x803ff, lies below this group order, and random draws miss it
    n = ((1 << 19) | 1023) + 1
    tight = Curve("tight", 23, 20, 1, 0, 1, n)
    with pytest.raises(ValueError) as exc:
        scalar_for_pattern_counts(20, 10, tight, seed=seed)
    assert str(exc.value) == (
        "no 20-bit scalar with 10 ones below its leading one and below n "
        "found in 10000 draws; try another pick_seed")


def test_run_pattern_returns_only_the_register_file():
    # the addend's QX/QY ports are read during an addition, never kept
    regs = run_pattern("D", fresh_registers(G), P256)
    assert tuple(regs) == REGISTER_NAMES
    assert tuple(run_pattern("A", regs, P256, G)) == REGISTER_NAMES


def test_run_pattern_requires_addend():
    regs = fresh_registers(G)
    with pytest.raises(ValueError):
        run_pattern("A", regs, P256)
