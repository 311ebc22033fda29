"""Counter-mode keystream layers shared by the enciphering modes.

Two counter families: a 32-bit modular increment on the low lanes of the
counter block, and an XOR of the block index into the full counter block.
Both are length preserving at bit granularity; a partial final block is
XORed with the leading bits of its keystream block.

``_ctr`` does the work on a seed int and on the data's bytes and bit
length; the modes call it directly, and ``xcb_ctr`` and ``xor_ctr`` wrap
it for ``BitString`` arguments.
"""

from __future__ import annotations

from .blockcipher import BadBlockLength, BlockCipher
from .polyhash import BitString

_LOW32 = 0xFFFFFFFF


def _ctr(cipher: BlockCipher, seed: int, data: bytes, bitlen: int, inc32: bool) -> bytes:
    """data XOR the keystream from the 128-bit seed: the 32-bit-increment
    family if inc32, else the XOR-index family.  data holds bitlen bits
    left-aligned with a zero tail, and so does the result."""
    nblocks = (bitlen + 127) // 128
    if inc32:
        high, low = seed & ~_LOW32, seed & _LOW32
        counters = b"".join(
            (high | ((low + i) & _LOW32)).to_bytes(16, "big") for i in range(nblocks)
        )
    else:
        counters = b"".join((seed ^ i).to_bytes(16, "big") for i in range(1, nblocks + 1))
    n = len(data)
    tail = 8 * n - bitlen
    ks = int.from_bytes(cipher.encrypt_blocks(counters)[:n], "big")
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
