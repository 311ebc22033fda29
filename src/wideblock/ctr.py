"""Counter-mode keystream layers shared by the enciphering modes.

Two counter families: a 32-bit modular increment on the low lanes of the
counter block, and an XOR of the block index into the full counter block.
Both are length preserving at bit granularity; a partial final block is
XORed with the leading bits of its keystream block.

``_ctr`` does the work on a seed int and on the data's bytes and bit
length; the modes call it directly, and ``xcb_ctr`` and ``xor_ctr`` wrap
it for ``BitString`` arguments.

The data is enciphered a chunk of ``field._CHUNK_BLOCKS`` blocks at a
time, the chunk the hash's block iterator uses, so a call holds one
chunk's counter and keystream ints however long the data.  A chunk's
counter blocks are one int of n 128-bit slots, built in C from two
constant strings of slots (every slot 1, and the ramp 0, 1, 2, ...) cut
to the chunk's n slots.  ``_counter_blocks`` builds them from any block
index, so the keystream can be had at random access.
"""

from __future__ import annotations

from .blockcipher import BadBlockLength, BlockCipher
from .field import _CHUNK_BLOCKS
from .polyhash import BitString

_LOW32 = 0xFFFFFFFF

#: ``_CHUNK_BLOCKS`` 128-bit slots, slot 0 the most significant: every
#: slot of ``_ONES`` holds 1 and slot i of ``_RAMP`` holds i.
_ONES = int.from_bytes((1).to_bytes(16, "big") * _CHUNK_BLOCKS, "big")
_RAMP = int.from_bytes(b"".join(i.to_bytes(16, "big") for i in range(_CHUNK_BLOCKS)), "big")


def _counter_blocks(seed: int, start: int, n: int, inc32: bool) -> bytes:
    """Counter blocks start, ..., start + n - 1 (0-based, n at most
    ``_CHUNK_BLOCKS``) from the 128-bit seed, as one int of n slots: for
    inc32, seed + start + i with the sum taken modulo 2^32 in the low 32
    bits, so less 2^32 in the slots after those bits wrap (once at most in
    a chunk); for the XOR-index family, seed xor (start + i + 1)."""
    cut = 128 * (_CHUNK_BLOCKS - n)
    ones, ramp = _ONES >> cut, _RAMP >> cut
    if not inc32:
        return (seed * ones ^ ramp + (start + 1) * ones).to_bytes(16 * n, "big")
    low = (seed + start) & _LOW32
    counters = (seed >> 32 << 32 | low) * ones + ramp
    wrapped = low + n - (1 << 32)
    if wrapped > 0:
        counters -= ones >> 128 * (n - wrapped) << 32
    return counters.to_bytes(16 * n, "big")


def _ctr(cipher: BlockCipher, seed: int, data: bytes, bitlen: int, inc32: bool) -> bytes:
    """data XOR the keystream from the 128-bit seed: the 32-bit-increment
    family if inc32, else the XOR-index family.  data holds bitlen bits
    left-aligned with a zero tail, and so does the result: the tail is
    cleared in the last chunk, which holds the partial block."""
    n, tail = len(data), -bitlen % 8
    size = 16 * _CHUNK_BLOCKS
    out = []
    start = 0
    while start < n:
        chunk = data[start : start + size]
        m = len(chunk)
        ks = cipher.encrypt_blocks(_counter_blocks(seed, start >> 4, (m + 15) >> 4, inc32))
        x = int.from_bytes(chunk, "big") ^ int.from_bytes(ks[:m], "big")
        start += m
        out.append((x >> tail << tail if start == n else x).to_bytes(m, "big"))
    return b"".join(out)


def _seed(s: BitString) -> int:
    if s.bitlen != 128:
        raise BadBlockLength("counter seed must be 128 bits")
    return int.from_bytes(s.data, "big")


def xcb_ctr(cipher: BlockCipher, s: BitString, data: BitString) -> BitString:
    """Keystream block i (0-based) is E(inc^i(S)), where inc adds 1 modulo
    2^32 to the low 32 bits; an involution for fixed cipher and seed."""
    return BitString._of(_ctr(cipher, _seed(s), data.data, data.bitlen, True), data.bitlen)


def xor_ctr(cipher: BlockCipher, s: BitString, data: BitString) -> BitString:
    """Keystream block i (1-based) is E(S xor bin128(i))."""
    return BitString._of(_ctr(cipher, _seed(s), data.data, data.bitlen, False), data.bitlen)
