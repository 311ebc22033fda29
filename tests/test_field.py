import math
import random

import gfref
import pytest

from gfref import check_field_laws, mul_oracle
from wideblock import field
from wideblock.field import (
    GROUP_ORDER,
    GROUP_ORDER_FACTORS,
    FieldElement,
    NotADivisor,
    ZeroElement,
    ZeroInverse,
)

X = FieldElement(2)  # the polynomial x
rng = random.Random(0xF1E1D)


def rand_element() -> FieldElement:
    return FieldElement(rng.getrandbits(128))


def test_group_order_factors_multiply_out():
    assert math.prod(GROUP_ORDER_FACTORS) == GROUP_ORDER == 2**128 - 1
    assert len(GROUP_ORDER_FACTORS) == 9


def test_add_identities():
    a = rand_element()
    assert field.add(a, FieldElement(0)) == a
    assert field.add(a, a) == FieldElement(0)
    assert field.add(FieldElement(1), FieldElement(2)) == FieldElement(3)


def test_mul_identity_and_reduction():
    a = rand_element()
    assert field.mul(a, field.ONE) == a
    # x^127 * x = x^128 = x^7 + x^2 + x + 1 (mod f)
    assert field.mul(FieldElement(1 << 127), X) == FieldElement(0x87)


def test_mul_against_reduction_oracle():
    for _ in range(1000):
        a, b = rand_element(), rand_element()
        assert field.mul(a, b) == mul_oracle(a, b)


def test_mul_keeps_the_multipliers_table(monkeypatch):
    """mul(a, b) is one step over b's 4-bit table, built once and kept on b."""
    a, b, c = rand_element(), rand_element(), rand_element()
    expect = mul_oracle(a, b), mul_oracle(c, b)
    built = []
    table = field._table
    monkeypatch.setattr(field, "_table", lambda images: built.append(1) or table(images))
    assert field.mul(a, b) == expect[0]
    assert len(built) == 1 and b._mul_table is field._key_table(b)
    assert field.mul(c, b) == expect[1]
    assert len(built) == 1


def test_algebraic_laws():
    check_field_laws(random.Random(1), 10_000)


def test_pow_basics():
    a = rand_element()
    assert field.pow(a, 1) == a
    assert field.pow(FieldElement(0), 0) == field.ONE
    assert field.pow(a, 3) == field.mul(a, field.mul(a, a))


def test_pow_group_order():
    for _ in range(5):
        a = rand_element()
        if a.value == 0:
            continue
        assert field.pow(a, GROUP_ORDER) == field.ONE


def test_inv():
    assert field.inv(field.ONE) == field.ONE
    with pytest.raises(ZeroInverse):
        field.inv(FieldElement(0))
    for _ in range(1000):
        a = rand_element()
        if a.value == 0:
            continue
        assert mul_oracle(a, field.inv(a)) == field.ONE
    a = rand_element()
    assert field.inv(field.inv(a)) == a


def test_sqrt():
    assert field.sqrt(FieldElement(0)) == FieldElement(0)
    assert field.sqrt(field.ONE) == field.ONE
    assert field.sqrt(field.pow(X, 2)) == X
    for _ in range(1000):
        a = rand_element()
        assert field.sqrt(field.pow(a, 2)) == a
        assert field.pow(field.sqrt(a), 2) == a


@pytest.mark.parametrize("order", [3, 5, 17, 15, 257])
def test_element_of_order(order):
    t = field.element_of_order(order)
    assert field.pow(t, order) == field.ONE
    assert t != field.ONE
    for d in range(1, order):
        if order % d == 0:
            assert field.pow(t, d) != field.ONE


def test_element_of_order_rejects_non_divisors():
    with pytest.raises(NotADivisor):
        field.element_of_order(7)
    with pytest.raises(NotADivisor):
        field.element_of_order(1)


def test_element_of_order_deterministic():
    assert field.element_of_order(3) == field.element_of_order(3)


def test_x_generates_the_group():
    """x^(N/p) != 1 for each prime p of N = 2^128 - 1, so x has order N: the
    fact ``element_of_order`` rests on, checked with the bit-serial pow."""
    for p in GROUP_ORDER_FACTORS:
        assert gfref.pow(X, GROUP_ORDER // p) != field.ONE


def test_element_of_order_equals_the_base_search():
    """x^(N/r) is the element the base search finds, for all 511 divisors
    r > 1 of N = 2^128 - 1."""
    divisors = [1]
    for p in GROUP_ORDER_FACTORS:
        divisors += [d * p for d in divisors]
    assert len(divisors) == 512
    for r in divisors[1:]:
        assert field.element_of_order(r) == gfref.element_of_order(r), r


def test_order_divisor():
    assert field.order_divisor(field.ONE, 10) == 1
    assert field.order_divisor(field.element_of_order(3), 10) == 3
    assert field.order_divisor(field.element_of_order(17), 100) == 17
    with pytest.raises(ZeroElement):
        field.order_divisor(FieldElement(0), 10)
    # a uniformly random key lies in a small subgroup only with
    # negligible probability, so absence is the expected outcome
    for _ in range(5):
        h = rand_element()
        if h.value == 0:
            continue
        assert field.order_divisor(h, 1 << 20) is None


def test_hex_serialization():
    a = FieldElement(0x00112233445566778899AABBCCDDEEFF)
    assert a.to_hex() == "00112233445566778899aabbccddeeff"
    assert FieldElement.from_hex(a.to_hex()) == a
    assert len(field.ONE.to_hex()) == 32
    assert field.ONE.to_hex() == "00000000000000000000000000000001"


def test_element_is_immutable():
    a = rand_element()
    with pytest.raises(AttributeError):
        a.value = 0


def test_sqrt_of_x_constant():
    assert field.pow(field._SQRT_X, 2) == X
    assert field._SQRT_X == gfref.sqrt(X)


def test_sqrt_on_every_basis_vector():
    """sqrt is GF(2)-linear, so agreeing with the reference on each x^k
    makes the two maps equal on the whole field."""
    for k in range(128):
        basis = FieldElement(1 << k)
        assert field.sqrt(basis) == gfref.sqrt(basis), k


def test_square_and_pow_on_every_basis_vector():
    """Squaring is GF(2)-linear too, so agreeing with the bit-serial
    reference on each x^k makes its table right on the whole field.  pow
    runs its squarings through the same table, with a multiply after some."""
    for k in range(128):
        basis = FieldElement(1 << k)
        assert field.pow(basis, 2) == gfref.mul(basis, basis), k
        assert field.pow(basis, 0b1011) == gfref.pow(basis, 0b1011), k


# Prime factors of 2^128 - 1 up to 2^20.
SMALL_PRIMES = [p for p in GROUP_ORDER_FACTORS if p <= 1 << 20]
EDGE_MAX_ORDERS = sorted({0, 1} | {m for p in SMALL_PRIMES for m in (p - 1, p, p + 1)})


def _weak_elements() -> list[FieldElement]:
    weak = [field.element_of_order(r) for r in (3, 5, 17, 15, 257 * 641)]
    return weak + [field.pow(weak[3], 3), field.pow(weak[4], 641), field.pow(weak[4], 257)]


@pytest.mark.parametrize("max_order", EDGE_MAX_ORDERS)
def test_order_divisor_edges_against_reference(max_order):
    for h in [field.ONE, rand_element()] + _weak_elements():
        assert field.order_divisor(h, max_order) == gfref.order_divisor(h, max_order), h


def test_order_divisor_across_a_large_factor():
    """An element of order 3 * 65537 has h^L = 1 for no L built from the
    primes up to 65536, and is found once the bound reaches its order."""
    h = field.element_of_order(3 * 65537)
    assert field.order_divisor(h, 65536) is None
    assert field.order_divisor(h, 3 * 65537) == 3 * 65537
    assert field.order_divisor(h, 3 * 65537 - 1) is None
    assert field.order_divisor(field.pow(h, 65537), 3) == 3


def test_field_element_rejects_non_integers():
    with pytest.raises(TypeError):
        FieldElement(1.5)
    with pytest.raises(TypeError):
        FieldElement("1")
    assert type(FieldElement(True).value) is int
