"""Counter-mode keystream layers shared by the enciphering modes.

Two counter families: a 32-bit modular increment on the low lanes of the
counter block, and an XOR of the block index into the full counter block.
Both are length preserving at bit granularity; a partial final block is
XORed with the leading bits of its keystream block.
"""

from __future__ import annotations

from .blockcipher import BadBlockLength, BlockCipher
from .polyhash import BitString, _mask_tail

_LOW32 = 0xFFFFFFFF


def _apply_keystream(data: BitString, counters: bytes, cipher: BlockCipher) -> BitString:
    ks = cipher.encrypt_blocks(counters)
    nbytes = (data.bitlen + 7) // 8
    ks_bits = BitString._of(_mask_tail(ks[:nbytes], data.bitlen), data.bitlen)
    return data ^ ks_bits


def xcb_ctr(cipher: BlockCipher, s: BitString, data: BitString) -> BitString:
    """Keystream block i (0-based) is E(inc^i(S)), where inc adds 1 modulo
    2^32 to the low 32 bits; an involution for fixed cipher and seed."""
    if s.bitlen != 128:
        raise BadBlockLength("counter seed must be 128 bits")
    seed = int.from_bytes(s.data, "big")
    high, low = seed & ~_LOW32, seed & _LOW32
    nblocks = (data.bitlen + 127) // 128
    counters = b"".join(
        (high | ((low + i) & _LOW32)).to_bytes(16, "big") for i in range(nblocks)
    )
    return _apply_keystream(data, counters, cipher)


def xor_ctr(cipher: BlockCipher, s: BitString, data: BitString) -> BitString:
    """Keystream block i (1-based) is E(S xor bin128(i))."""
    if s.bitlen != 128:
        raise BadBlockLength("counter seed must be 128 bits")
    seed = int.from_bytes(s.data, "big")
    nblocks = (data.bitlen + 127) // 128
    counters = b"".join((seed ^ i).to_bytes(16, "big") for i in range(1, nblocks + 1))
    return _apply_keystream(data, counters, cipher)
