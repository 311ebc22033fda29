"""Known-answer gate: a fixed corpus whose ciphertext digests are frozen.

The corpus does not depend on the workload seed.  It covers all six modes
under tweaks of 0, 8, 16 and 40 bytes, payloads of 128, 129 and 255 bits
and of 100 bytes (a partial last block), 4 KiB sectors, and the v2 modes
both forced with ``allow_partial`` and refusing a partial payload without
it.  Every case is also deciphered and must give its plaintext back.

Any change to a mode's output changes its digest, so a speed-up that is not
byte-for-byte identical fails the benchmark at set-up.
"""

from __future__ import annotations

import hashlib
import json

from common import BENCH, MASTER_BYTES, MODES, crypt, derive

DIGESTS = BENCH / "kat_digests.json"

TWEAK_BYTES = (0, 8, 16, 40)
PAYLOAD_BITS = (128, 129, 255, 800)
SECTOR_BITS = 4096 * 8
SECTOR_TWEAK_BYTES = (0, 16)


def _bytes(label: str, n: int) -> bytes:
    return hashlib.shake_256(f"wideblock-kat/{label}".encode()).digest(n)


def _bits(wb, label: str, nbits: int):
    value = int.from_bytes(_bytes(label, (nbits + 7) // 8), "big") >> (-nbits % 8)
    return wb.polyhash.BitString.from_int(value, nbits)


def corpus_digests(wb) -> tuple[dict[str, str], list[str]]:
    """The SHA-256 digest of each mode's corpus, and a list of round-trip
    or refusal failures."""
    BitString = wb.polyhash.BitString
    digests = {}
    failures = []
    cases = [(t, b) for t in TWEAK_BYTES for b in PAYLOAD_BITS]
    cases += [(t, SECTOR_BITS) for t in SECTOR_TWEAK_BYTES]
    for mode in MODES:
        keys = derive(wb, mode, _bytes(f"master/{mode}", MASTER_BYTES[mode]))
        partial_ok = mode in ("xcbv2", "mxcbv2")
        h = hashlib.sha256()
        for tweak_bytes, nbits in cases:
            tweak = BitString(_bytes(f"tweak/{tweak_bytes}", tweak_bytes))
            plain = _bits(wb, f"payload/{nbits}", nbits)
            ct = crypt(wb, mode, keys, tweak, plain, True, allow_partial=partial_ok)
            back = crypt(wb, mode, keys, tweak, ct, False, allow_partial=partial_ok)
            if back != plain or ct.bitlen != nbits:
                failures.append(f"{mode} tweak={tweak_bytes}B bits={nbits}: round trip failed")
            h.update(f"{tweak_bytes}:{nbits}:".encode() + ct.data)
        if partial_ok:
            try:
                crypt(wb, mode, keys, BitString(b""), _bits(wb, "payload/129", 129), True)
                failures.append(f"{mode}: 129-bit payload accepted without allow_partial")
            except wb.modes.PartialBlockRejected:
                pass
        digests[mode] = h.hexdigest()
    return digests, failures


def check(wb) -> list[str]:
    """Problems found against the frozen digests; empty when the gate passes."""
    digests, failures = corpus_digests(wb)
    frozen = json.loads(DIGESTS.read_text())
    for mode in MODES:
        if digests[mode] != frozen.get(mode):
            failures.append(f"{mode}: corpus digest {digests[mode]} != frozen {frozen.get(mode)}")
    return failures


if __name__ == "__main__":
    # Regenerate the frozen digests: python3 bench/kat.py > bench/kat_digests.json
    from common import import_wideblock

    digests, failures = corpus_digests(import_wideblock())
    if failures:
        raise SystemExit("\n".join(failures))
    print(json.dumps(digests, indent=2))
