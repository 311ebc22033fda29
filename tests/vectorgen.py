"""Write the known-answer vectors in ``tests/vectors/`` that
``test_vectors.py`` replays.

Every input comes from a SHAKE-256 label (the width-32 |W_r| table needs
none), so a run reproduces the same files from the same code.  Run it only for an intended change of output:

    PYTHONPATH=src python tests/vectorgen.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from wideblock import analysis, ctr, modes
from wideblock.blockcipher import AesCipher
from wideblock.polyhash import BitString

VECTORS = Path(__file__).resolve().parent / "vectors"

TWEAK_BYTES = (0, 8, 16, 40)
PAYLOAD_BITS = (128, 129, 255, 512, 800, 4096 * 8)
MASTER_BYTES = {"xcbv1": 16, "xcbv2": 16, "mxcbv1": 16, "mxcbv2": 16, "hctr": 32, "hctr-fix": 32}

#: Payloads up to this many bits are stored in full; longer ones are stored
#: as their SHAKE-256 label and pinned by the SHA-256 of the ciphertext.
INLINE_BITS = 1024

#: Largest r of the frozen width-32 |W_r| table.
W32_RMAX = 1024


def shake(label: str, nbytes: int) -> bytes:
    return hashlib.shake_256(f"wideblock-vectors/{label}".encode()).digest(nbytes)


def bits(data: bytes, nbits: int) -> BitString:
    """The leading nbits of data."""
    return BitString(data[: (nbits + 7) // 8]).msb(nbits)


def subkeys(keys) -> dict[str, str]:
    """Hash keys as field-element hex, cipher subkeys as key hex."""
    out = {}
    for name in ("h1", "h2", "h", "ke", "kd", "kc", "k"):
        value = getattr(keys, name)
        if value is not None:
            out[name] = value.to_hex() if name.startswith("h") else value.key.hex()
    return out


def mode_vector(mode: str, master: bytes, tweak_bytes: int, nbits: int) -> dict:
    tweak = shake(f"tweak/{tweak_bytes}", tweak_bytes)
    label = f"payload/{nbits}"
    vector = {
        "mode": mode,
        "master_bytes": len(master),
        "master": master.hex(),
        "tweak_bytes": tweak_bytes,
        "tweak": tweak.hex(),
        "bits": nbits,
        "allow_partial": mode in ("xcbv2", "mxcbv2") and nbits % 128 != 0,
    }
    plain = bits(shake(label, (nbits + 7) // 8), nbits)
    entry = modes.MODES[mode]
    ct = entry.crypt(entry.derive(master), BitString(tweak), plain, True, vector["allow_partial"])
    if nbits <= INLINE_BITS:
        vector["plaintext"] = plain.data.hex()
        vector["ciphertext"] = ct.data.hex()
    else:
        vector["plaintext_shake"] = label
        vector["ciphertext_sha256"] = hashlib.sha256(ct.data).hexdigest()
    return vector


def generate() -> dict[str, list[dict]]:
    mode_vectors = []
    for mode, nbytes in MASTER_BYTES.items():
        master = shake(f"master/{mode}/{nbytes}", nbytes)
        for tweak_bytes in TWEAK_BYTES:
            mode_vectors += [mode_vector(mode, master, tweak_bytes, b) for b in PAYLOAD_BITS]
    for mode in ("xcbv2", "mxcbv2"):
        for nbytes in (24, 32):
            master = shake(f"master/{mode}/{nbytes}", nbytes)
            mode_vectors.append(mode_vector(mode, master, 16, 512))

    key_vectors = []
    for name, nbytes in (
        ("derive_keys_v1", 16),
        ("derive_keys_v2", 16),
        ("derive_keys_v2", 24),
        ("derive_keys_v2", 32),
        ("hctr_keys", 32),
    ):
        master = shake(f"derive/{name}/{nbytes}", nbytes)
        keys = getattr(modes, name)(master)
        vector = {"derive": name, "master_bytes": nbytes, "master": master.hex()}
        key_vectors.append(vector | {"subkeys": subkeys(keys)})

    # The low 32 bits of the seed are 0xFFFFFFFE, so over four blocks the
    # 32-bit increment wraps while the XOR-index counter does not: the split
    # between the two counter families that the paper analyses.  The long
    # vectors (513 blocks, and 1,000 blocks less 5 bits) cross the counter's
    # 256-block chunks from a seed 300 below the wrap, so the increment
    # wraps inside the second chunk; they are stored as their SHAKE-256
    # label and pinned by the SHA-256 of the output.
    key = shake("ctr/key", 16)
    ctr_vectors = []
    for low, sizes in ((0xFFFFFFFE, (512, 449)), ((1 << 32) - 300, (513 * 128, 1000 * 128 - 5))):
        seed = shake("ctr/seed", 12) + low.to_bytes(4, "big")
        for counter in ("xcb_ctr", "xor_ctr"):
            for nbits in sizes:
                label = f"ctr/data/{nbits}"
                data = bits(shake(label, (nbits + 7) // 8), nbits)
                out = getattr(ctr, counter)(AesCipher(key), BitString(seed), data)
                vector = {"counter": counter, "key": key.hex(), "seed": seed.hex(), "bits": nbits}
                if nbits <= INLINE_BITS:
                    vector |= {"data": data.data.hex(), "out": out.data.hex()}
                else:
                    digest = hashlib.sha256(out.data).hexdigest()
                    vector |= {"data_shake": label, "out_sha256": digest}
                ctr_vectors.append(vector)
    # |W_r| at the deployed 32-bit counter width for every r <= 1024.
    wide = analysis.sample_w32(W32_RMAX)
    w32_vectors = [
        {
            "rmax": W32_RMAX,
            "w_max_observed": wide.w_max_observed,
            "w": [wide.w_cardinalities[r] for r in range(W32_RMAX + 1)],
        }
    ]
    return {"modes": mode_vectors, "keys": key_vectors, "ctr": ctr_vectors, "w32": w32_vectors}


if __name__ == "__main__":
    VECTORS.mkdir(exist_ok=True)
    for name, vectors in generate().items():
        text = "[\n" + ",\n".join(json.dumps(v) for v in vectors) + "\n]\n"
        (VECTORS / f"{name}.json").write_text(text)
        print(f"{name}: {len(vectors)} vectors")
