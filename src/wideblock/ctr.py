"""Counter-mode keystream layers shared by the enciphering modes.

Two counter families: a 32-bit modular increment on the low lanes of the
counter block, and an XOR of the block index into the full counter block.
Both are length preserving at bit granularity; a partial final block is
XORed with the leading bits of its keystream block.

``_ctr`` does the work on a seed int and on the data's bytes and bit
length; the modes call it directly, and ``xcb_ctr`` and ``xor_ctr`` wrap
it for ``BitString`` arguments.

All n counter blocks are built at once as one int of n 128-bit slots, n
copies of the seed plus the ramp 0, 1, ..., n - 1, so big-int arithmetic
in C does per-block work that would otherwise be a Python step a block.
The payloads the modes accept (at most 2^39 bits) have n < 2^32 blocks.
"""

from __future__ import annotations

from .blockcipher import BadBlockLength, BlockCipher
from .polyhash import BitString

_LOW32 = 0xFFFFFFFF


def _ones_and_ramp(n: int) -> tuple[int, int]:
    """Two ints of n 128-bit slots, slot 0 the most significant: every slot
    of ``ones`` holds 1 and slot i of ``ramp`` holds i.

    Both are doubled from one slot, k slots to 2k (the second half of the
    ramp holds k more than the first), to the first power of two k >= n,
    and cut to their first n slots.  That is a few big-int passes over
    the result, not one Python step per block.
    """
    ones, ramp, k = 1, 0, 1
    while k < n:
        ramp = (ramp << 128 * k) + ramp + k * ones
        ones |= ones << 128 * k
        k *= 2
    return ones >> 128 * (k - n), ramp >> 128 * (k - n)


def _counter_blocks(seed: int, n: int, inc32: bool) -> bytes:
    """The n counter blocks from the 128-bit seed, built as one int of n
    slots: seed + i in slot i for inc32, less 2^32 in the slots after the
    low 32 bits wrap (once at most, since n < 2^32), and seed xor (i + 1)
    for the XOR-index family."""
    ones, ramp = _ones_and_ramp(n)
    if not inc32:
        return (seed * ones ^ (ramp + ones)).to_bytes(16 * n, "big")
    counters = seed * ones + ramp
    wrapped = (seed & _LOW32) + n - (1 << 32)
    if wrapped > 0:
        counters -= ones >> 128 * (n - wrapped) << 32
    return counters.to_bytes(16 * n, "big")


def _ctr(cipher: BlockCipher, seed: int, data: bytes, bitlen: int, inc32: bool) -> bytes:
    """data XOR the keystream from the 128-bit seed: the 32-bit-increment
    family if inc32, else the XOR-index family.  data holds bitlen bits
    left-aligned with a zero tail, and so does the result."""
    n = len(data)
    tail = 8 * n - bitlen
    ks = cipher.encrypt_blocks(_counter_blocks(seed, (bitlen + 127) // 128, inc32))
    ks = int.from_bytes(ks[:n], "big")
    if tail:
        ks = ks >> tail << tail
    return (int.from_bytes(data, "big") ^ ks).to_bytes(n, "big")


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
