"""Pluggable 128-bit block ciphers.

Every enciphering mode in this package only needs a keyed permutation on
16-byte blocks.  AES is the deployed choice; a small keyed Feistel network
is provided as a deterministic test permutation so algebraic tests do not
depend on an AES implementation.

``AesCipher`` keeps one ECB encryptor for its key, and one decryptor from
its first decryption on, and feeds every call through them.  ECB carries no
state from one whole block to the next, so a kept context gives the same
output as a fresh one, and a single block costs about 1.5 us instead of
about 12 us for building a new context (CPython 3.11, cryptography 48,
2-vCPU Xeon).  A lock serialises the calls: a context is not safe to use
from two threads at once.
"""

from __future__ import annotations

import threading

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

BLOCK_BYTES = 16


class BadBlockLength(ValueError):
    """Raised when a block is not exactly 16 bytes."""


class BadKeyLength(ValueError):
    """Raised when a key has an unsupported length."""


class BlockCipher:
    """A keyed permutation on 128-bit blocks.

    An instance's key is fixed at construction; concurrent calls are safe.
    """

    block_size = BLOCK_BYTES

    def encrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    def decrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt a concatenation of full blocks (ECB of each block)."""
        if len(data) % BLOCK_BYTES:
            raise BadBlockLength("data must be a multiple of 16 bytes")
        out = bytearray()
        for i in range(0, len(data), BLOCK_BYTES):
            out += self.encrypt_block(data[i : i + BLOCK_BYTES])
        return bytes(out)


def _check_block(block: bytes) -> None:
    if len(block) != BLOCK_BYTES:
        raise BadBlockLength(f"block must be 16 bytes, got {len(block)}")


class AesCipher(BlockCipher):
    """AES-128/192/256 behind the block interface (ECB on whole blocks).

    The key's ECB encryptor is built with the instance and kept; its
    decryptor is built on the first ``decrypt_block`` and kept, since most
    keys (the master ciphers of the key derivations, every counter key)
    never decrypt.  One lock guards both contexts and the decryptor's
    build, so concurrent calls stay safe.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise BadKeyLength(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self._cipher = Cipher(algorithms.AES(self.key), modes.ECB())
        self._encryptor = self._cipher.encryptor()
        self._decryptor = None
        self._lock = threading.Lock()

    def encrypt_block(self, block: bytes) -> bytes:
        _check_block(block)
        with self._lock:
            return self._encryptor.update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        _check_block(block)
        with self._lock:
            if self._decryptor is None:
                self._decryptor = self._cipher.decryptor()
            return self._decryptor.update(block)

    def encrypt_blocks(self, data: bytes) -> bytes:
        if len(data) % BLOCK_BYTES:
            raise BadBlockLength("data must be a multiple of 16 bytes")
        with self._lock:
            return self._encryptor.update(data)


def _mix64(x: int) -> int:
    # splitmix64 finalizer; full 64-bit avalanche
    x &= 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


class FeistelCipher(BlockCipher):
    """Deterministic keyed test permutation on 128-bit blocks.

    A 12-round balanced Feistel network whose round function is the
    splitmix64 finalizer keyed by round constants derived from the key
    bytes.  It is a correct bijection for any key, accepts the same key
    lengths the modes derive (or any other non-empty key), and is fast and
    reproducible.  It offers no security and exists only for testing.
    """

    ROUNDS = 12

    def __init__(self, key: bytes):
        import hashlib  # here, so the AES path never loads it

        if not key:
            raise BadKeyLength("key must be non-empty")
        self.key = bytes(key)
        seed = int.from_bytes(hashlib.sha256(self.key).digest()[:8], "big")
        ks = []
        x = seed
        for _ in range(self.ROUNDS):
            x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            ks.append(_mix64(x))
        self._round_keys = tuple(ks)

    @classmethod
    def from_seed(cls, seed: int) -> "FeistelCipher":
        return cls(seed.to_bytes(16, "big"))

    def encrypt_block(self, block: bytes) -> bytes:
        _check_block(block)
        left = int.from_bytes(block[:8], "big")
        right = int.from_bytes(block[8:], "big")
        for rk in self._round_keys:
            left, right = right, left ^ _mix64(right ^ rk)
        return left.to_bytes(8, "big") + right.to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        _check_block(block)
        left = int.from_bytes(block[:8], "big")
        right = int.from_bytes(block[8:], "big")
        for rk in reversed(self._round_keys):
            left, right = right ^ _mix64(left ^ rk), left
        return left.to_bytes(8, "big") + right.to_bytes(8, "big")
