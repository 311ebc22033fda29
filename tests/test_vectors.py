"""Replay the frozen known-answer vectors in ``tests/vectors/``.

The vectors were generated once from the reference implementation by
``vectorgen.py``; from then on they are the specification, and any change
to an output fails here.  Every mode vector is replayed in both directions.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from vectorgen import VECTORS, bits, shake, subkeys

from wideblock import analysis, ctr, modes
from wideblock.blockcipher import AesCipher
from wideblock.polyhash import BitString


def _load(name: str) -> list[dict]:
    return json.loads((VECTORS / f"{name}.json").read_text())


def _ids(vectors: list[dict], fmt: str) -> list[str]:
    return [fmt.format(**v) for v in vectors]


MODE_VECTORS = _load("modes")
KEY_VECTORS = _load("keys")
CTR_VECTORS = _load("ctr")
W32_VECTORS = _load("w32")


@pytest.mark.parametrize(
    "vector", MODE_VECTORS, ids=_ids(MODE_VECTORS, "{mode}-m{master_bytes}-t{tweak_bytes}-b{bits}")
)
def test_mode_vector(vector):
    mode = modes.MODES[vector["mode"]]
    nbits, partial = vector["bits"], vector["allow_partial"]
    keys = mode.derive(bytes.fromhex(vector["master"]))
    tweak = BitString(bytes.fromhex(vector["tweak"]))
    if "plaintext" in vector:
        plain = bits(bytes.fromhex(vector["plaintext"]), nbits)
    else:
        plain = bits(shake(vector["plaintext_shake"], (nbits + 7) // 8), nbits)

    ct = mode.crypt(keys, tweak, plain, True, partial)
    assert ct.bitlen == nbits
    if "ciphertext" in vector:
        assert ct.data.hex() == vector["ciphertext"]
    else:
        assert hashlib.sha256(ct.data).hexdigest() == vector["ciphertext_sha256"]
    assert mode.crypt(keys, tweak, ct, False, partial) == plain


@pytest.mark.parametrize("vector", KEY_VECTORS, ids=_ids(KEY_VECTORS, "{derive}-m{master_bytes}"))
def test_key_derivation_vector(vector):
    keys = getattr(modes, vector["derive"])(bytes.fromhex(vector["master"]))
    assert subkeys(keys) == vector["subkeys"]


@pytest.mark.parametrize("vector", CTR_VECTORS, ids=_ids(CTR_VECTORS, "{counter}-b{bits}"))
def test_counter_vector(vector):
    counter = getattr(ctr, vector["counter"])
    cipher = AesCipher(bytes.fromhex(vector["key"]))
    seed = BitString(bytes.fromhex(vector["seed"]))
    nbits = vector["bits"]
    if "data" in vector:
        data = bits(bytes.fromhex(vector["data"]), nbits)
    else:
        data = bits(shake(vector["data_shake"], (nbits + 7) // 8), nbits)
    out = counter(cipher, seed, data)
    if "out" in vector:
        assert out.data.hex() == vector["out"]
    else:
        assert hashlib.sha256(out.data).hexdigest() == vector["out_sha256"]
    # The counter layer is an involution for a fixed cipher and seed.
    assert counter(cipher, seed, out) == data


@pytest.mark.parametrize("vector", W32_VECTORS, ids=_ids(W32_VECTORS, "rmax{rmax}"))
def test_w32_vector(vector):
    """Every |W_r| at width 32, not only their maximum, equals the table."""
    sample = analysis.sample_w32(vector["rmax"])
    assert sample.w_max_observed == vector["w_max_observed"]
    assert [sample.w_cardinalities[r] for r in range(vector["rmax"] + 1)] == vector["w"]
