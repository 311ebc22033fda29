import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfref import hctr_hash_oracle, xcb_hash_oracle
from wideblock import field
from wideblock.field import FieldElement
from wideblock.polyhash import (
    BadLength,
    BitString,
    EmptyString,
    block_to_field,
    field_to_block,
    hctr_hash,
    hctr_hash_fixed,
    parse_n,
    xcb_hash,
    xcb_length_block,
)

rng = random.Random(0x9A5)


def rand_bits(nbits: int) -> BitString:
    if nbits == 0:
        return BitString.empty()
    return BitString.from_int(rng.getrandbits(nbits), nbits)


# ---------------------------------------------------------------------------
# BitString


def test_bitstring_construction():
    assert BitString(b"\xff").bitlen == 8
    assert BitString(b"\x80", 1).bitlen == 1
    with pytest.raises(ValueError):
        BitString(b"\x01", 1)  # nonzero tail bits
    with pytest.raises(ValueError):
        BitString(b"\x00", 9)  # byte count mismatch


def test_bitstring_int_round_trip():
    for nbits in (1, 7, 8, 9, 127, 128, 129, 300):
        v = rng.getrandbits(nbits)
        s = BitString.from_int(v, nbits)
        assert s.to_int() == v
        assert len(s) == nbits


def test_bitstring_concat_and_slices():
    a = BitString.from_int(0b101, 3)
    b = BitString.from_int(0b01, 2)
    joined = a + b
    assert joined.bitlen == 5
    assert joined.to_int() == 0b10101
    assert joined.msb(3) == a
    assert joined.lsb(2) == b
    assert (BitString(b"\xab\xcd") + BitString(b"\xef")).data == b"\xab\xcd\xef"


def test_bitstring_xor():
    a = BitString.from_int(0b1100, 4)
    b = BitString.from_int(0b1010, 4)
    assert (a ^ b).to_int() == 0b0110
    with pytest.raises(BadLength):
        a ^ BitString.from_int(0, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=600), st.randoms(use_true_random=False))
def test_bitstring_split_rejoin(nbits, hrng):
    s = BitString.from_int(hrng.getrandbits(nbits), nbits)
    cut = hrng.randrange(nbits + 1)
    assert s.msb(cut) + s.lsb(nbits - cut) == s


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=600), st.randoms(use_true_random=False))
def test_parse_concat_identity(nbits, hrng):
    s = BitString.from_int(hrng.getrandbits(nbits), nbits)
    blocks = parse_n(s)
    rebuilt = blocks[0]
    for b in blocks[1:]:
        rebuilt = rebuilt + b
    assert rebuilt == s
    assert all(b.bitlen == 128 for b in blocks[:-1])
    assert 1 <= blocks[-1].bitlen <= 128


def test_bitstring_rejects_data_that_is_not_bytes_like():
    with pytest.raises(TypeError):
        BitString(5)  # bytes(5) would be five zero bytes
    with pytest.raises(TypeError):
        BitString([1, 2])
    with pytest.raises(TypeError):
        BitString("ab")
    assert BitString(bytearray(b"\xab")) == BitString(memoryview(b"\xab")) == BitString(b"\xab")
    assert type(BitString(bytearray(b"\xab")).data) is bytes


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.randoms(use_true_random=False),
)
def test_unchecked_constructions_meet_the_invariants(abits, bbits, hrng):
    """Results the package builds without the constructor's checks."""
    a = BitString.from_int(hrng.getrandbits(abits), abits)
    b = BitString.from_int(hrng.getrandbits(bbits), bbits)
    same = BitString.from_int(hrng.getrandbits(abits), abits)
    cut = hrng.randrange(abits + 1)
    results = [a, b, a + b, b + a, a ^ same, a.msb(cut), a.lsb(cut), a.lsb(abits - cut)]
    if abits:
        results += parse_n(a)
    for v in results:
        assert type(v.data) is bytes
        assert BitString(v.data, v.bitlen) == v


def test_parse_n_examples():
    assert [b.bitlen for b in parse_n(rand_bits(256))] == [128, 128]
    assert [b.bitlen for b in parse_n(rand_bits(129))] == [128, 1]
    assert [b.bitlen for b in parse_n(rand_bits(128))] == [128]
    with pytest.raises(EmptyString):
        parse_n(BitString.empty())


def test_block_field_round_trip():
    b = rand_bits(128)
    assert field_to_block(block_to_field(b)) == b
    with pytest.raises(BadLength):
        block_to_field(rand_bits(64))


# ---------------------------------------------------------------------------
# XCB hash


def test_xcb_hash_zero_key():
    assert xcb_hash(field.ZERO, rand_bits(200), rand_bits(64)) == field.ZERO


def test_xcb_hash_empty_everything():
    h = FieldElement(rng.getrandbits(128))
    # only the all-zero length block remains, so the hash vanishes
    assert xcb_hash(h, BitString.empty(), BitString.empty()) == field.ZERO


def test_xcb_hash_worked_example():
    h = FieldElement(rng.getrandbits(128))
    x = rand_bits(256)
    t = rand_bits(128)
    x1, x2 = (block_to_field(b) for b in parse_n(x))
    t1 = block_to_field(t)
    lb = block_to_field(xcb_length_block(256, 128))
    expect = field.ZERO
    for term, power in ((x1, 4), (x2, 3), (t1, 2), (lb, 1)):
        expect = field.add(expect, field.mul(term, field.pow(h, power)))
    assert xcb_hash(h, x, t) == expect


@pytest.mark.parametrize("xbits,tbits", [
    (0, 0), (0, 128), (128, 0), (1, 1), (127, 129), (128, 128),
    (256, 131), (64 * 128, 256), (500, 0), (3 * 128 + 5, 2 * 128 + 77),
])
def test_xcb_hash_matches_explicit_powers(xbits, tbits):
    for include_length in (True, False):
        h = FieldElement(rng.getrandbits(128))
        x, t = rand_bits(xbits), rand_bits(tbits)
        assert xcb_hash(h, x, t, include_length) == xcb_hash_oracle(
            h, x, t, include_length
        )


def test_xcb_hash_linearity_in_one_block():
    h = FieldElement(rng.getrandbits(128))
    x = rand_bits(5 * 128)
    t = rand_bits(128)
    base = xcb_hash(h, x, t)
    flip_block, flip_bit = 2, 17
    delta_int = 1 << (127 - flip_bit)
    flipped = BitString.from_int(
        x.to_int() ^ (delta_int << (128 * (4 - flip_block))), 5 * 128
    )
    # block index 2 (0-based) of 5 message blocks sits at power m+p+1-2 = 5
    expected_delta = field.mul(FieldElement(delta_int), field.pow(h, 5))
    assert field.add(base, xcb_hash(h, flipped, t)) == expected_delta


# ---------------------------------------------------------------------------
# HCTR hash


def test_hctr_hash_empty_returns_key():
    h = FieldElement(rng.getrandbits(128))
    assert hctr_hash(h, BitString.empty()) == h


def test_hctr_hash_single_zero_bit_collides_with_empty():
    for _ in range(100):
        h = FieldElement(rng.getrandbits(128))
        assert hctr_hash(h, BitString.from_int(0, 1)) == h


def test_hctr_hash_one_block():
    h = FieldElement(rng.getrandbits(128))
    p = rand_bits(128)
    expect = field.add(
        field.mul(block_to_field(p), field.pow(h, 2)),
        field.mul(FieldElement(128), h),
    )
    assert hctr_hash(h, p) == expect


@pytest.mark.parametrize("nbits", [1, 64, 128, 129, 255, 256, 1024, 2000])
def test_hctr_hash_matches_explicit_powers(nbits):
    h = FieldElement(rng.getrandbits(128))
    p = rand_bits(nbits)
    assert hctr_hash(h, p) == hctr_hash_oracle(h, p)


def test_fixed_hash_separates_the_collision_pair():
    for _ in range(100):
        h = FieldElement(rng.getrandbits(128))
        if h.value == 0:
            continue
        empty_img = hctr_hash_fixed(h, BitString.empty())
        zero_img = hctr_hash_fixed(h, BitString.from_int(0, 1))
        assert empty_img != zero_img
        assert empty_img != h
        assert empty_img == hctr_hash(h, BitString.from_int(1, 1))


def test_fixed_hash_zero_key():
    assert hctr_hash_fixed(field.ZERO, rand_bits(200)) == field.ZERO
