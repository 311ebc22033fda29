"""The field and the XCB hash kernel against OpenSSL's GHASH, reached through
``cryptography``'s AES-GCM (NIST SP 800-38D, section 6.4).

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

from wideblock import field
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
