import random

import pytest

from gfref import inc
from wideblock.blockcipher import BadBlockLength, FeistelCipher
from wideblock.ctr import xcb_ctr, xor_ctr
from wideblock.polyhash import BitString

rng = random.Random(0xC7)
cipher = FeistelCipher((99).to_bytes(16, "big"))


def rand_bits(nbits: int) -> BitString:
    return BitString.from_int(rng.getrandbits(nbits), nbits)


def block_of_int(v: int) -> BitString:
    return BitString.from_int(v, 128)


def test_inc_basic():
    assert inc(BitString.zeros(128)) == block_of_int(1)
    assert inc(block_of_int(0xFFFFFFFF)) == BitString.zeros(128)  # modular wrap
    with pytest.raises(BadBlockLength):
        inc(rand_bits(64))


def test_inc_leaves_top_bits_alone():
    for _ in range(1000):
        x = rand_bits(128)
        assert inc(x).msb(96) == x.msb(96)


@pytest.mark.parametrize("r", [0, 1, 2, 31, 255, 4096, 65535, 65536])
def test_inc_iteration_matches_modular_addition(r):
    x = rand_bits(128)
    stepped = x
    for _ in range(r):
        stepped = inc(stepped)
    direct = x.msb(96) + BitString.from_int((x.lsb(32).to_int() + r) & 0xFFFFFFFF, 32)
    assert stepped == direct


@pytest.mark.parametrize("transform", [xcb_ctr, xor_ctr])
def test_counter_is_involution(transform):
    s = rand_bits(128)
    for nbits in (1, 17, 128, 129, 255, 256, 1000, 4096):
        data = rand_bits(nbits)
        once = transform(cipher, s, data)
        assert once.bitlen == nbits
        assert transform(cipher, s, once) == data


def test_xcb_ctr_keystream_trace():
    s = rand_bits(128)
    ks = xcb_ctr(cipher, s, BitString.zeros(256))
    assert ks.msb(128).data == cipher.encrypt_block(s.data)
    assert ks.lsb(128).data == cipher.encrypt_block(inc(s).data)


def test_xcb_ctr_partial_final_block():
    s = rand_bits(128)
    data = rand_bits(129)
    out = xcb_ctr(cipher, s, data)
    e0 = BitString(cipher.encrypt_block(s.data))
    e1 = BitString(cipher.encrypt_block(inc(s).data))
    assert out.msb(128) == data.msb(128) ^ e0
    # the final 1-bit block takes the leading bit of its keystream block
    assert out.lsb(1) == data.lsb(1) ^ e1.msb(1)


def test_xor_ctr_keystream_trace():
    s = rand_bits(128)
    one_block = xor_ctr(cipher, s, BitString.zeros(128))
    assert one_block.data == cipher.encrypt_block((s ^ block_of_int(1)).data)
    two_blocks = xor_ctr(cipher, s, BitString.zeros(256))
    assert two_blocks.msb(128).data == cipher.encrypt_block((s ^ block_of_int(1)).data)
    assert two_blocks.lsb(128).data == cipher.encrypt_block((s ^ block_of_int(2)).data)


@pytest.mark.parametrize("transform", [xcb_ctr, xor_ctr])
def test_length_preserved_at_bit_granularity(transform):
    s = rand_bits(128)
    for nbits in range(1, 4097, 131):
        assert transform(cipher, s, rand_bits(nbits)).bitlen == nbits


def test_seed_must_be_full_block():
    with pytest.raises(BadBlockLength):
        xcb_ctr(cipher, rand_bits(127), rand_bits(128))
    with pytest.raises(BadBlockLength):
        xor_ctr(cipher, rand_bits(127), rand_bits(128))
