"""The field and the XCB hash kernel against OpenSSL's GHASH, the
32-bit-increment counter against GCM's keystream, and xcbv2 and mxcbv2
against a reference built from AES-ECB and AES-GCM alone, all reached
through ``cryptography`` (NIST SP 800-38D, sections 6.4 and 7.1).

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

from wideblock import ctr, field, polyhash
from wideblock.blockcipher import AesCipher
from wideblock.field import FieldElement
from wideblock.modes import MODES
from wideblock.polyhash import BitString

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
    acc = FieldElement(0)
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


# ---------------------------------------------------------------------------
# xcbv2 and mxcbv2 against a reference from AES-ECB and AES-GCM


def xor_bytes(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def gcm_ghash(key: bytes, aad: bytes, c: bytes) -> bytes:
    """GHASH_H(aad, c) under H = E_key(0^128): tag xor E_key(J0) of one
    AES-GCM call whose plaintext is chosen so that its ciphertext is c."""
    ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    iv = rng.randbytes(12)
    ks = ecb.update(b"".join(iv + (i + 2).to_bytes(4, "big") for i in range(-(-len(c) // 16))))
    plaintext = xor_bytes(c, ks[: len(c)])
    sealed = AESGCM(key).encrypt(iv, plaintext, aad)
    assert sealed[:-16] == c
    return xor_bytes(sealed[-16:], ecb.update(iv + b"\0\0\0\1"))


def reference_xcb_v2(master: bytes, tweak: bytes, payload: bytes, inc32: bool,
                     encrypt: bool) -> bytes:
    """XCB v2 on whole bytes from ``cryptography`` alone: the subkeys, E, D
    and the counter from AES-ECB, and both hashes as GHASH under the master
    key's H = E_K(0^128), the v2 hash key.

    Ke, Kd and Kc are the leading |K| bytes of E_K(2i - 1) || E_K(2i).  The
    first hash is GHASH(0^128 || T, pad(A) || 0^128), the second
    GHASH(T || 0^128, A).  Encryption is S = E_Ke(x) xor first(rest), the
    counter from S over the rest, then y = D_Kd(S xor second(out)), with x
    the payload's last 16 bytes; decryption swaps Ke with Kd and the two
    hashes.  The counter's block i (0-based) is E_Kc of S with i added to
    its low 32 bits modulo 2^32, or of S xor (i + 1) for mxcbv2.
    """
    def ecb(key):
        return Cipher(algorithms.AES(key), modes.ECB())

    sub = ecb(master).encryptor().update(b"".join(i.to_bytes(16, "big") for i in range(7)))
    ke, kd, kc = (sub[i : i + len(master)] for i in (16, 48, 80))

    def first(a):
        return gcm_ghash(master, bytes(16) + tweak, a + bytes(-len(a) % 16 + 16))

    def second(a):
        return gcm_ghash(master, tweak + bytes(16), a)

    if not encrypt:
        ke, kd, first, second = kd, ke, second, first
    rest, x = payload[:-16], payload[-16:]
    s = xor_bytes(ecb(ke).encryptor().update(x), first(rest))
    seed = int.from_bytes(s, "big")
    counters = b"".join(
        (seed >> 32 << 32 | (seed + i) % (1 << 32) if inc32 else seed ^ (i + 1)).to_bytes(16, "big")
        for i in range(-(-len(rest) // 16))
    )
    out = xor_bytes(rest, ecb(kc).encryptor().update(counters)[: len(rest)])
    s = xor_bytes(s, second(out))
    return out + ecb(kd).decryptor().update(s)


def gcm_order_xcb_hash(h: FieldElement, x_bits: int, t_bits: int, *parts: bytes) -> int:
    """``polyhash._xcb_hash`` in GCM's bit order: every block, the key and
    the value under ``rev``."""
    data = b"".join(bytes(p) + bytes(-len(p) % 16) for p in parts)
    data += ((x_bits << 64) | t_bits).to_bytes(16, "big")
    return rev(field._hash(FieldElement(rev(h.value)), rev_blocks(data)))


@pytest.mark.parametrize("case", range(40))
def test_xcb_v2_matches_a_reference_from_ecb_and_gcm(case, monkeypatch):
    """Both v2 modes, both directions: 16-, 24- and 32-byte keys, tweaks of
    0-39 bytes, payloads of 1-600 blocks, every fourth case with 1-15 more
    bytes under ``allow_partial``.  The reference equals ``Mode.crypt`` with
    only its hash in GCM's bit order, and differs from the mode as it is:
    derivation, layout, lengths and counter are a GHASH-based XCB's, and
    the field's bit order is the one gap."""
    r = random.Random(case)
    mode = MODES[("xcbv2", "mxcbv2")[case % 2]]
    encrypt = case % 4 < 2
    partial = case % 16 >= 12
    master = r.randbytes(r.choice((16, 24, 32)))
    tweak = r.randbytes(r.randrange(40))
    blocks = r.choice((1, 2, 3, r.randrange(1, 601))) if case else 600
    payload = r.randbytes(16 * blocks + (r.randrange(1, 16) if partial else 0))
    expect = reference_xcb_v2(master, tweak, payload, mode.inc32, encrypt)
    keys = mode.derive(master)
    args = (keys, BitString(tweak), BitString(payload), encrypt, partial)
    assert mode.crypt(*args).data != expect
    monkeypatch.setattr(polyhash, "_xcb_hash", gcm_order_xcb_hash)
    assert mode.crypt(*args).data == expect
