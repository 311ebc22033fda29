import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from wideblock.blockcipher import AesCipher, BadBlockLength, BadKeyLength, FeistelCipher

rng = random.Random(0xB10C)

# Standard known-answer vectors (FIPS-197 appendix C and SP 800-38A ECB).
AES_KATS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "6bc1bee22e409f96e93d7e117393172a",
        "3ad77bb40d7a3660a89ecaf32466ef97",
    ),
]


@pytest.mark.parametrize("key,pt,ct", AES_KATS)
def test_aes_known_answers(key, pt, ct):
    cipher = AesCipher(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(pt)).hex() == ct
    assert cipher.decrypt_block(bytes.fromhex(ct)).hex() == pt


@pytest.mark.parametrize("make", [AesCipher, FeistelCipher])
def test_round_trip(make):
    cipher = make(rng.randbytes(16))
    for _ in range(1000):
        block = rng.randbytes(16)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
    assert cipher.decrypt_block(cipher.encrypt_block(bytes(16))) == bytes(16)


@pytest.mark.parametrize("make", [AesCipher, FeistelCipher])
def test_injective_on_distinct_inputs(make):
    cipher = make(rng.randbytes(16))
    seen = set()
    for _ in range(200):
        out = cipher.encrypt_block(rng.randbytes(16))
        seen.add(out)
    # collisions would imply the permutation property is broken
    assert len(seen) >= 199  # random inputs may repeat, outputs must follow


@pytest.mark.parametrize("make", [AesCipher, FeistelCipher])
def test_distinct_keys_disagree(make):
    c1 = make(rng.randbytes(16))
    c2 = make(rng.randbytes(16))
    disagreements = sum(
        c1.encrypt_block(b) != c2.encrypt_block(b)
        for b in (rng.randbytes(16) for _ in range(100))
    )
    assert disagreements >= 1


def test_bad_block_length():
    cipher = FeistelCipher(b"k" * 16)
    with pytest.raises(BadBlockLength):
        cipher.encrypt_block(b"short")
    with pytest.raises(BadBlockLength):
        cipher.decrypt_block(b"x" * 17)


def test_bad_key_length():
    with pytest.raises(BadKeyLength):
        AesCipher(b"x" * 15)
    with pytest.raises(BadKeyLength):
        FeistelCipher(b"")


@pytest.mark.parametrize("make", [AesCipher, FeistelCipher])
def test_encrypt_blocks_matches_per_block(make):
    cipher = make(rng.randbytes(16))
    data = rng.randbytes(16 * 9)
    batched = cipher.encrypt_blocks(data)
    looped = b"".join(
        cipher.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
    )
    assert batched == looped
    with pytest.raises(BadBlockLength):
        cipher.encrypt_blocks(b"x" * 17)


def test_feistel_seed_constructor_is_deterministic():
    a = FeistelCipher((0).to_bytes(16, "big"))
    b = FeistelCipher((0).to_bytes(16, "big"))
    block = rng.randbytes(16)
    assert a.encrypt_block(block) == b.encrypt_block(block)
    assert a.encrypt_block(block) != FeistelCipher((1).to_bytes(16, "big")).encrypt_block(block)


def test_aes_is_safe_under_concurrent_calls():
    """Four threads share one instance and its kept contexts; a thread
    switch may fall inside any call.  Every result must match a context
    built fresh for that call."""
    key = rng.randbytes(16)
    shared = AesCipher(key)
    reference = Cipher(algorithms.AES(key), modes.ECB())

    def fresh(make_context, data: bytes) -> bytes:
        ctx = make_context()
        return ctx.update(data) + ctx.finalize()

    def worker(seed: int) -> None:
        wrng = random.Random(seed)
        for i in range(300):
            block = wrng.randbytes(16)
            assert shared.encrypt_block(block) == fresh(reference.encryptor, block)
            assert shared.decrypt_block(block) == fresh(reference.decryptor, block)
            if i % 10 == 0:
                data = wrng.randbytes(1 << 16)
                assert shared.encrypt_blocks(data) == fresh(reference.encryptor, data)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(worker, seed) for seed in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)


def test_aes_first_decrypt_races_from_four_threads():
    """An instance builds its decryptor on the first ``decrypt_block``.  On
    each of 40 fresh instances, four threads make that first call at once;
    every result must match a context built fresh for the call."""
    keys = [rng.randbytes(16) for _ in range(40)]
    shared = [AesCipher(key) for key in keys]
    assert all(cipher._decryptor is None for cipher in shared)
    start = threading.Barrier(4)

    def worker(seed: int) -> None:
        wrng = random.Random(seed)
        for key, cipher in zip(keys, shared):
            block = wrng.randbytes(16)
            ctx = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
            expect = ctx.update(block) + ctx.finalize()
            start.wait(timeout=60)
            assert cipher.decrypt_block(block) == expect

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(worker, seed) for seed in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert all(cipher._decryptor is not None for cipher in shared)
