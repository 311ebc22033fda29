import random
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from gfref import FeistelCipher, ctr_blockwise, inc
from wideblock import ctr
from wideblock.blockcipher import AesCipher, BadBlockLength
from wideblock.ctr import xcb_ctr, xor_ctr
from wideblock.field import _CHUNK_BLOCKS
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


# ---------------------------------------------------------------------------
# The chunked counter against the block-at-a-time reference

_FAMILIES = [(xcb_ctr, True), (xor_ctr, False)]
_BLOCK_COUNTS = [1, 2, 16, 255, 256, 257, 511, 512, 513, 1000]
aes = AesCipher(bytes(range(16)))


@pytest.mark.parametrize("transform,inc32", _FAMILIES, ids=["inc32", "xor_index"])
@pytest.mark.parametrize("nblocks", _BLOCK_COUNTS)
def test_counter_matches_the_blockwise_reference(transform, inc32, nblocks):
    """Whole final blocks and final blocks of 1-127 bits, in the first
    chunk and across chunk boundaries."""
    r = random.Random(nblocks)
    s = BitString.from_int(r.getrandbits(128), 128)
    for tail in (128, 1, 64, 127, r.randrange(2, 127)):
        nbits = 128 * (nblocks - 1) + tail
        data = BitString.from_int(r.getrandbits(nbits), nbits)
        assert transform(aes, s, data) == ctr_blockwise(aes, s, data, inc32)


@pytest.mark.parametrize("nblocks", _BLOCK_COUNTS)
def test_inc32_wraps_its_low_lanes(nblocks):
    """Seeds whose low 32 bits lie within nblocks of 2^32, so the counter
    wraps inside the message (except at one block), in the first chunk or
    a later one, and the top 96 bits of every counter block stay those of
    the seed."""
    r = random.Random(nblocks)
    high = r.getrandbits(96) << 32
    distances = {1, max(1, nblocks // 2), nblocks - 1 or 1, nblocks}
    if nblocks > _CHUNK_BLOCKS:
        distances.add(r.randrange(_CHUNK_BLOCKS, nblocks))
    for distance in sorted(distances):
        s = BitString.from_int(high | ((1 << 32) - distance), 128)
        data = BitString.from_int(r.getrandbits(128 * nblocks - 5), 128 * nblocks - 5)
        assert xcb_ctr(aes, s, data) == ctr_blockwise(aes, s, data, True)
        blocks = b"".join(
            ctr._counter_blocks(s.to_int(), start, min(_CHUNK_BLOCKS, nblocks - start), True)
            for start in range(0, nblocks, _CHUNK_BLOCKS)
        )
        lows = [int.from_bytes(blocks[16 * i + 12 : 16 * i + 16], "big") for i in range(nblocks)]
        assert lows == [((1 << 32) - distance + i) % (1 << 32) for i in range(nblocks)]
        assert {blocks[16 * i : 16 * i + 12] for i in range(nblocks)} == {s.data[:12]}


@pytest.mark.parametrize("inc32", [True, False], ids=["inc32", "xor_index"])
def test_counter_blocks_give_the_keystream_at_any_block(inc32):
    """Blocks start..start+n-1 of the whole message's keystream (the counter
    over zero data) are the encipherment of ``_counter_blocks(seed, start,
    n, inc32)``, for any start and any n up to a chunk, wraps included."""
    r = random.Random(0xC0 + inc32)
    total = 1000
    for low in (r.getrandbits(32), (1 << 32) - r.randrange(1, total)):
        seed = r.getrandbits(96) << 32 | low
        keystream = ctr._ctr(aes, seed, bytes(16 * total), 128 * total, inc32)
        for n in (1, 2, r.randrange(3, _CHUNK_BLOCKS), _CHUNK_BLOCKS):
            start = r.randrange(total - n + 1)
            blocks = aes.encrypt_blocks(ctr._counter_blocks(seed, start, n, inc32))
            assert blocks == keystream[16 * start : 16 * (start + n)]


@pytest.mark.parametrize("inc32", [True, False], ids=["inc32", "xor_index"])
def test_counter_memory_is_bounded_by_a_chunk(inc32):
    """A 4 MiB counter call holds one chunk of counter and keystream ints
    besides its output: its traced peak is under 10 MiB, where building
    every counter block at once peaked at 17-21 MiB."""
    data = bytes(4 << 20)
    tracemalloc.start()
    try:
        ctr._ctr(aes, 2**128 - 1, data, 8 * len(data), inc32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20


# ---------------------------------------------------------------------------
# The counter against OpenSSL's AES-CTR

_OPENSSL_BLOCK_COUNTS = [1, 2, 3, 16, 255, 256, 257, 511, 512, 513, 767, 1024, 1199, 1200]


def openssl_ctr(key: bytes, nonce: int, data: bytes, bitlen: int) -> bytes:
    """data XOR OpenSSL's AES-CTR keystream from the 128-bit nonce, whose
    counter is the whole block read as a big-endian int, with the last
    byte's bits past bitlen cleared."""
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce.to_bytes(16, "big"))).encryptor()
    out = bytearray(enc.update(data) + enc.finalize())
    if bitlen % 8:
        out[-1] &= 0xFF << (8 - bitlen % 8) & 0xFF
    return bytes(out)


@pytest.mark.parametrize("inc32", [True, False], ids=["inc32", "xor_index"])
@pytest.mark.parametrize("nblocks", _OPENSSL_BLOCK_COUNTS)
def test_counter_matches_openssl_ctr(inc32, nblocks):
    """``_ctr`` equals OpenSSL's AES-CTR where the two counters agree.

    inc32: a seed whose low 32 bits do not wrap within the message (one
    seed ends the message at 2^32 - 1) counts as S + i, so the keystream is
    AES-CTR from S.  XOR-index: a seed whose low 16 bits are zero, with
    fewer than 2^16 blocks, gives S xor i = S + i for the 1-based index i,
    so the keystream is AES-CTR from S + 1.  Seeds whose low 32 bits wrap
    inside the message, and XOR-index seeds with low bits set, are not
    reachable this way; the wrap is left to a check against AES-GCM, whose
    keystream has the same 32-bit increment.
    """
    r = random.Random(nblocks << 1 | inc32)
    key = r.randbytes(16)
    if inc32:
        lows = [r.randrange((1 << 32) - nblocks + 1), (1 << 32) - nblocks]
        seeds = [r.getrandbits(96) << 32 | low for low in lows]
    else:
        seeds = [r.getrandbits(112) << 16]
    for seed in seeds:
        for tail in (128, 5, r.randrange(1, 128)):
            bitlen = 128 * (nblocks - 1) + tail
            data = (r.getrandbits(bitlen) << (-bitlen % 8)).to_bytes(-(-bitlen // 8), "big")
            nonce = seed if inc32 else seed + 1
            expect = openssl_ctr(key, nonce, data, bitlen)
            assert ctr._ctr(AesCipher(key), seed, data, bitlen, inc32) == expect
