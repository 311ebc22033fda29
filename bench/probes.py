"""Layer probes: each layer timed on its own, from outside, untraced.

Every probe reports the median of several repeats, on operands drawn from
the run's seed.
"""

from __future__ import annotations

import time

from common import MIB, median


def _time(fn, repeats: int) -> float:
    """Median seconds of one call to fn over repeats calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def run(wb, rng) -> dict[str, tuple[float, str]]:
    F = wb.field.FieldElement
    BitString = wb.polyhash.BitString
    field, polyhash, ctr, modes = wb.field, wb.polyhash, wb.ctr, wb.modes
    out = {}

    pairs = [(F(rng.getrandbits(128)), F(rng.getrandbits(128) | 1)) for _ in range(200)]

    def mul_batch():
        for a, b in pairs:
            field.mul(a, b)

    out["field.mul.us"] = (_time(mul_batch, 5) / len(pairs) * 1e6, "us")
    a = pairs[0][1]
    out["field.inv.ms"] = (_time(lambda: field.inv(a), 5) * 1e3, "ms")
    out["field.sqrt.ms"] = (_time(lambda: field.sqrt(a), 5) * 1e3, "ms")

    h = F(rng.getrandbits(128) | (1 << 127))
    sector = BitString(rng.randbytes(4096))
    tweak = BitString(rng.randbytes(16))
    blocks = 4096 // 16 + 1 + 1  # payload, tweak and length blocks
    out["polyhash.xcb_hash.us_per_block"] = (
        _time(lambda: polyhash.xcb_hash(h, sector, tweak), 3) / blocks * 1e6,
        "us",
    )

    cipher = wb.blockcipher.AesCipher(rng.randbytes(16))
    seed = BitString(rng.randbytes(16))
    out["ctr.xor_ctr_4k.us"] = (_time(lambda: ctr.xor_ctr(cipher, seed, sector), 20) * 1e6, "us")
    out["blockcipher.ecb_floor_mib_s"] = (
        4096 / _time(lambda: cipher.encrypt_blocks(sector.data), 200) / MIB,
        "MiB/s",
    )

    wide_a = BitString(rng.randbytes(256 * 1024))
    wide_b = BitString(rng.randbytes(256 * 1024))
    out["polyhash.bitstring.xor_256k.ms"] = (_time(lambda: wide_a ^ wide_b, 3) * 1e3, "ms")

    for name, nbytes in (("derive_keys_v1", 16), ("derive_keys_v2", 16), ("hctr_keys", 32)):
        master = rng.randbytes(nbytes)
        derive = getattr(modes, name)
        out[f"modes.{name}.us"] = (_time(lambda: derive(master), 50) * 1e6, "us")

    one_bit = BitString.from_int(1, 1)
    small = BitString(rng.randbytes(64 * 1024)) + one_bit
    large = BitString(rng.randbytes(256 * 1024)) + one_bit
    t_small = _time(lambda: polyhash.parse_n(small), 3)
    t_large = _time(lambda: polyhash.parse_n(large), 3)
    out["polyhash.parse_unaligned.scaling"] = (t_large / t_small, "ratio")
    return out
