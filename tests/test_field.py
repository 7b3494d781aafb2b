"""Field arithmetic against big-integer oracles."""

import random

import pytest

from atomspa.field import (CURVES, Curve, PrimeField, SEGMENT_BITS,
                           mul_schedule, P256_P, get_curve)

F = PrimeField(P256_P)
P = P256_P


def test_add_wraparound_identity():
    assert F.add(P - 1, 1) == 0


def test_add_additive_identity():
    rng = random.Random(1)
    for _ in range(50):
        x = rng.randrange(P)
        assert F.add(0, x) == x


def test_add_random_oracle():
    rng = random.Random(2)
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert F.add(a, b) == (a + b) % P


def test_sub_self_is_zero():
    rng = random.Random(3)
    for _ in range(50):
        x = rng.randrange(P)
        assert F.sub(x, x) == 0


def test_sub_zero_minus_one():
    assert F.sub(0, 1) == P - 1


def test_sub_random_oracle():
    rng = random.Random(4)
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert F.sub(a, b) == (a - b) % P


def test_mul_by_zero():
    rng = random.Random(5)
    for _ in range(20):
        assert F.mul(0, rng.randrange(P)) == 0


def test_mul_minus_one_squared():
    assert F.mul(P - 1, P - 1) == 1


def test_mul_random_oracle():
    rng = random.Random(6)
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert F.mul(a, b) == (a * b) % P


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(P) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_mul_schedule_step_counts():
    assert mul_schedule("karatsuba4").step_count == 9
    assert mul_schedule("classical").step_count == 16
    # the 9-step plan saves 7 of 16 partial products
    assert 1 - 9 / 16 == pytest.approx(0.4375)


def test_mul_schedule_unknown_kind():
    with pytest.raises(ValueError):
        mul_schedule("toom")


def test_plans_agree_with_product():
    rng = random.Random(8)
    k4 = mul_schedule("karatsuba4")
    cl = mul_schedule("classical")
    for _ in range(500):
        a, b = rng.getrandbits(256), rng.getrandbits(256)
        want = a * b
        assert k4.evaluate(a, b) == want
        assert cl.evaluate(a, b) == want


def test_partial_products_are_segment_level():
    # every plan step multiplies sums of 64-bit operand segments
    rng = random.Random(9)
    a, b = rng.getrandbits(256), rng.getrandbits(256)
    plan = mul_schedule("karatsuba4")
    pps = plan.partial_products(a, b)
    assert len(pps) == 9
    seg_max = (1 << SEGMENT_BITS) - 1
    for step, pp in zip(plan.steps, pps):
        assert pp <= (len(step.a_segments) * seg_max) * (len(step.b_segments) * seg_max)


def test_toy_field_generic_reduction():
    f = PrimeField(23)
    for a in range(23):
        for b in range(23):
            assert f.mul(a, b) == (a * b) % 23


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_noncanonical_rejected():
    with pytest.raises(ValueError):
        F.check(P)
    with pytest.raises(ValueError):
        F.check(-1)


def test_curve_registry_and_overrides():
    p256 = get_curve("P-256")
    assert p256.contains(p256.gx, p256.gy)
    toy = get_curve("toy23")
    assert toy.a == (toy.p - 3) % toy.p
    with pytest.raises(ValueError):
        get_curve("nope")


def test_curve_requires_a_minus_three():
    with pytest.raises(ValueError):
        Curve("bad", 23, 1, 1, 0, 1, 28)


@pytest.mark.parametrize("p, b, gy, message", [
    (4, 1, 1, "odd prime"),
    (23, 2, 1, "singular curve"),  # 4a^3 + 27b^2 = 0 mod 23 for a = -3
    (23, 1, 2, "generator not on curve"),  # (0, 2) is off toy23
], ids=["even-p", "singular", "generator-off-curve"])
def test_curve_rejects_bad_parameters(p, b, gy, message):
    with pytest.raises(ValueError, match=message):
        Curve("bad", p, -3, b, 0, gy, 23)
