"""Shared helpers of the benchmark: locating the checkout's package and
driving the six modes through the library API.

Nothing here imports ``wideblock`` at import time, so the set-up probe can
time the package's first import itself.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MODES = ("xcbv1", "xcbv2", "mxcbv1", "mxcbv2", "hctr", "hctr-fix")
MASTER_BYTES = {"xcbv1": 16, "mxcbv1": 16, "xcbv2": 16, "mxcbv2": 16, "hctr": 32, "hctr-fix": 32}

#: A hash key whose multiplicative order is at most this is weak (the
#: cycling-forgery key class); run keys of that kind are redrawn.
WEAK_ORDER = 1 << 20

MIB = 1 << 20


def import_wideblock():
    """Import ``wideblock`` from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wb = importlib.import_module("wideblock")
    origin = Path(wb.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"wideblock resolved to {origin}, outside {SRC}")
    for layer in ("field", "polyhash", "ctr", "blockcipher", "modes", "attacks", "analysis", "cli"):
        importlib.import_module(f"wideblock.{layer}")
    return wb


def derive(wb, mode: str, master: bytes):
    """The key set of a mode from its master key."""
    if mode in ("xcbv1", "mxcbv1"):
        return wb.modes.derive_keys_v1(master)
    if mode in ("xcbv2", "mxcbv2"):
        return wb.modes.derive_keys_v2(master)
    return wb.modes.hctr_keys(master)


def hash_keys(keys) -> list:
    return [h for h in (keys.h1, keys.h2, keys.h) if h is not None]


def crypt(wb, mode: str, keys, tweak, data, encrypt: bool, allow_partial: bool = False):
    """Encipher or decipher a BitString under one of the six modes.

    Functions are looked up on the module at call time, so a tracer
    installed later sees every call.
    """
    if mode in wb.modes.VARIANTS:
        fn = wb.modes.xcb_encrypt if encrypt else wb.modes.xcb_decrypt
        return fn(wb.modes.VARIANTS[mode], keys, tweak, data, allow_partial=allow_partial)
    fn = wb.modes.hctr_encrypt if encrypt else wb.modes.hctr_decrypt
    return fn(keys, tweak, data, fixed_hash=mode == "hctr-fix")


def draw_masters(wb, rng, log) -> dict[str, bytes]:
    """One master key per mode from ``rng``, redrawn while any derived hash
    key is zero or has order at most WEAK_ORDER (such keys make hashing
    faster or weaker than a real key would)."""
    masters = {}
    for mode in MODES:
        while True:
            master = rng.randbytes(MASTER_BYTES[mode])
            keys = hash_keys(derive(wb, mode, master))
            weak = [h for h in keys if h.value == 0 or wb.field.order_divisor(h, WEAK_ORDER) is not None]
            if not weak:
                break
            log(f"key {mode}: redrawn, weak hash key {weak[0].to_hex()}")
        masters[mode] = master
        # mul loops over the key's bits, so a seed's speed can be traced to its keys.
        log(f"key {mode}: hash key bit length " + ",".join(str(h.value.bit_length()) for h in keys))
    return masters


def median(values) -> float:
    return statistics.median(values)
