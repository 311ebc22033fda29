"""Pluggable 128-bit block ciphers.

Every enciphering mode in this package only needs a keyed permutation on
16-byte blocks: ``BlockCipher`` is that interface, and ``AesCipher`` the one
implementation shipped.  The key derivations take the cipher as a
``factory`` argument, so tests can substitute another permutation.

``AesCipher`` keeps one ECB encryptor for its key, and one decryptor from
its first decryption on, and feeds every call through them.  ECB carries no
state from one whole block to the next, so a kept context gives the same
output as a fresh one, and a single block costs about 1.5 us instead of
about 12 us for building a new context (CPython 3.11, cryptography 48,
2-vCPU Xeon).  A lock serialises the calls: a context is not safe to use
from two threads at once.

``cryptography`` is imported by the first ``AesCipher`` built, not by this
module: the bound analysis and the weak-key scan key no cipher, so
``import wideblock`` and the ``bounds``, ``incsets`` and ``weakkey``
commands never load it (its cipher modules take about 6 ms to import).
Every key derivation builds an ``AesCipher``, so ``encrypt``, ``decrypt``
and ``attack`` load it at their first derivation.
"""

from __future__ import annotations

import functools
import threading

BLOCK_BYTES = 16


class BadBlockLength(ValueError):
    """Raised when a block is not exactly 16 bytes."""


class BadKeyLength(ValueError):
    """Raised when a key has an unsupported length."""


class BlockCipher:
    """A keyed permutation on 128-bit blocks.

    An instance's key is fixed at construction; concurrent calls are safe.
    """

    def encrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    def decrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt a concatenation of full blocks (ECB of each block)."""
        raise NotImplementedError


@functools.cache
def _aes_ecb():
    """``cryptography``'s (Cipher, AES, ECB), imported on the first call.

    Cached, so that building a cipher after the first pays no import
    statement (about 1.2 us of a 15 us build).
    """
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    return Cipher, algorithms.AES, modes.ECB


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
        cipher, aes, ecb = _aes_ecb()
        self._cipher = cipher(aes(self.key), ecb())
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

