"""The field and the XCB hash kernel against OpenSSL's GHASH, and the
32-bit-increment counter against GCM's keystream, both reached through
``cryptography``'s AES-GCM (NIST SP 800-38D, sections 6.4 and 7.1).

With H = E_K(0^128) and a 96-bit IV, GCM's tag is E_K(IV || 0^31 || 1) xor
GHASH_H(A || C || len(A) || len(C)), so tag xor E_K(J0) is the GHASH value.
GCM's field is this package's field under a 128-bit bit reversal of every
element: GCM holds x^k in bit 127 - k of a block read big-endian, this
package in bit k.
"""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from wideblock import ctr, field
from wideblock.blockcipher import AesCipher
from wideblock.field import FieldElement

rng = random.Random(0x6C4)


def rev(v: int) -> int:
    """The 128-bit bit reversal."""
    return int(f"{v:0128b}"[::-1], 2)


def rev_blocks(data: bytes) -> bytes:
    return b"".join(
        rev(int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "big")
        for i in range(0, len(data), 16)
    )


def openssl_ghash(key: bytes, aad: bytes, plaintext: bytes):
    """(H, the ciphertext, GHASH_H(aad, ciphertext)) from one AES-GCM call."""
    ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    iv = rng.randbytes(12)
    h = ecb.update(bytes(16))
    sealed = AESGCM(key).encrypt(iv, plaintext, aad)
    ciphertext, tag = sealed[:-16], sealed[-16:]
    ghash = int.from_bytes(tag, "big") ^ int.from_bytes(ecb.update(iv + b"\0\0\0\1"), "big")
    return h, ciphertext, ghash


def length_block(aad: bytes, ciphertext: bytes) -> bytes:
    return (8 * len(aad)).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")


@pytest.mark.parametrize("case", range(50))
def test_mul_horner_chain_matches_ghash(case):
    key = rng.randbytes(rng.choice((16, 24, 32)))
    aad = rng.randbytes(16 * rng.randrange(4))
    plaintext = rng.randbytes(16 * rng.randrange(4))
    h, ciphertext, ghash = openssl_ghash(key, aad, plaintext)
    h_field = FieldElement(rev(int.from_bytes(h, "big")))
    data = aad + ciphertext + length_block(aad, ciphertext)
    acc = field.ZERO
    for i in range(0, len(data), 16):
        block = FieldElement(rev(int.from_bytes(data[i : i + 16], "big")))
        acc = field.mul(acc + block, h_field)
    assert rev(acc.value) == ghash


def check_xcb_hash(aad_blocks: int, plaintext_blocks: int) -> None:
    """GHASH is the kernel of xcb_hash, ``field._hash``, over A and
    C || length block without xcb_hash's own length block, every block
    bit-reversed."""
    key = rng.randbytes(16)
    aad = rng.randbytes(16 * aad_blocks)
    plaintext = rng.randbytes(16 * plaintext_blocks)
    h, ciphertext, ghash = openssl_ghash(key, aad, plaintext)
    h_field = FieldElement(rev(int.from_bytes(h, "big")))
    x = rev_blocks(aad)
    t = rev_blocks(ciphertext + length_block(aad, ciphertext))
    assert rev(field._hash(h_field, x, t)) == ghash


@pytest.mark.parametrize("case", range(50))
def test_xcb_hash_on_full_blocks_matches_ghash(case):
    check_xcb_hash(rng.randrange(6), rng.randrange(6))


@pytest.mark.parametrize("aad_blocks,plaintext_blocks", [
    (126, 0), (0, 127), (64, 64), (127, 1), (200, 312),
])
def test_xcb_hash_on_2k_and_more_matches_ghash(aad_blocks, plaintext_blocks):
    """127 to 513 hashed blocks with GCM's length block: either side of
    the 8-bit table threshold."""
    check_xcb_hash(aad_blocks, plaintext_blocks)


# ---------------------------------------------------------------------------
# The counter's 32-bit wrap against GCM's keystream


def iv_for_j0(key: bytes, j0: int) -> bytes:
    """A 32-byte IV whose GCM pre-counter block is j0.

    For an IV that is not 96 bits, J0 = GHASH_H(IV || 0^64 || [256]_64) =
    IV1*H^3 + IV2*H^2 + L*H, with L the length block.  IV1 is drawn at
    random and IV2 solved for, in this package's field under ``rev``.
    """
    ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    h = FieldElement(rev(int.from_bytes(ecb.update(bytes(16)), "big")))
    iv1 = rng.randbytes(16)
    iv1_h3 = FieldElement(rev(int.from_bytes(iv1, "big"))) * field.pow(h, 3)
    iv2 = (FieldElement(rev(j0)) + iv1_h3 + FieldElement(rev(256)) * h) * field.inv(field.pow(h, 2))
    return iv1 + rev(iv2.value).to_bytes(16, "big")


@pytest.mark.parametrize("nblocks", [1, 2, 255, 256, 257, 300, 511, 512, 513, 1200])
def test_counter_wrap_matches_gcm(nblocks):
    """``_ctr``'s 32-bit increment, wrap included, equals GCM's keystream.

    GCM enciphers block i >= 1 with E_K(inc32^i(J0)), so its ciphertext
    without the tag is ``_ctr`` from the seed inc32(J0).  The seeds' low 32
    bits wrap to 0 at counter block w (0-based): at the first block, inside
    and at the last block of the first 256-block chunk, at the first block
    of, inside and at the last block of the second, at the first block of
    the third, and inside the fifth, wherever the message has more than w
    blocks.  The last block holds 1-16 bytes.
    """
    r = random.Random(nblocks)
    key = r.randbytes(16)
    wraps = {0, 1, r.randrange(2, 255), 255, 256, r.randrange(257, 511), 511, 512, 1100}
    for wrap in sorted(w for w in wraps if w < nblocks):
        seed = r.getrandbits(96) << 32 | -wrap % (1 << 32)
        j0 = seed >> 32 << 32 | (seed - 1) % (1 << 32)
        data = r.randbytes(16 * (nblocks - 1) + r.randrange(1, 17))
        sealed = AESGCM(key).encrypt(iv_for_j0(key, j0), data, b"")
        assert ctr._ctr(AesCipher(key), seed, data, 8 * len(data), True) == sealed[:-16], wrap
