"""Wide-block tweakable enciphering schemes.

Six length-preserving modes, each a hash-counter-hash sandwich around one
special block x, written as two bodies: ``_xcb`` for the four XCB variants
and ``_hctr`` for HCTR with or without the repaired hash.

* ``xcbv1``  -- two hash keys, special first block, 32-bit-increment counter
* ``xcbv2``  -- one hash key, special last block, 32-bit-increment counter
* ``mxcbv1`` / ``mxcbv2`` -- the same constructions with the XOR-index counter
* ``hctr`` (and its repaired-hash variant) -- two independent master keys,
  special first block, XOR-index counter

XCB enciphers then adds: S = E(x) xor H, the counter from S, output
D(S xor H').  HCTR adds then enciphers: U = x xor H, V = pi(U), the counter
from U xor V, output V xor H'.  Each body serves both directions: XCB
decrypts with Ke and Kd swapped and the two hashes in the other order, HCTR
with pi = D in place of E.  ``MODES`` maps each mode name to its ``Mode``,
which gives its key derivation and its cipher call.

``BitString`` appears only at the edge.  A body reads the payload's and the
tweak's bytes and bit lengths, holds the special block, the hash values and
the counter seed as 128-bit ints, hashes through ``polyhash``'s private
bytes-level entry points, runs the counter through ``ctr._ctr``, and builds
its result with one ``BitString._of``.  A v2 special block is the int of the
payload's last 17 bytes, shifted by its tail bits.  Both bodies pass the
rest as a ``memoryview`` of the payload: the hashes read it through
``polyhash._split`` and the counter clears its own output's tail, so a v2
special block's bits reach neither.  Each key derivation is one
``encrypt_blocks`` call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import ctr, polyhash
from .blockcipher import AesCipher, BadKeyLength, BlockCipher
from .field import _MASK128, FieldElement
from .polyhash import BLOCK_BITS, BitString, _cat

CipherFactory = Callable[[bytes], BlockCipher]

#: Both payload and tweak are capped at 2^39 bits.
MAX_BITS = 1 << 39

_ZERO_BLOCK = bytes(16)

#: The blocks 0..6, whose images under the master cipher are the XCB subkeys.
_CONSTANTS = b"".join(i.to_bytes(16, "big") for i in range(7))

#: The name of each scheme's derivation, looked up when called (see ``Mode``).
_DERIVE = {"xcbv1": "derive_keys_v1", "xcbv2": "derive_keys_v2", "hctr": "hctr_keys"}


class LengthBounds(ValueError):
    """Raised when a payload or tweak violates the mode's length bounds."""


class PartialBlockRejected(ValueError):
    """Raised when a single-hash-key variant gets a payload that is not a
    multiple of the block length (a regime with a known distinguishing
    attack) without the explicit insecure-mode flag."""


class Mode(NamedTuple):
    """A mode: the scheme of its key set, its counter family (the 32-bit
    increment if ``inc32``, else the XOR index) and, for HCTR, its hash.
    The methods look this module's functions up when called, so a tracer
    that rebinds the module's names also sees calls made through ``MODES``.
    """

    name: str
    scheme: str  # "xcbv1" | "xcbv2" | "hctr"
    inc32: bool = False
    fixed_hash: bool = False

    @property
    def special_last(self) -> bool:
        """Where the special block sits: last in XCB v2, first otherwise."""
        return self.scheme == "xcbv2"

    def counter_span(self, m: int) -> range:
        """1-based indices of the blocks the counter layer covers in an
        m-block payload: all but the special block."""
        start = 1 if self.special_last else 2
        return range(start, start + m - 1)

    def derive(self, master: bytes) -> TesKeySet:
        """The mode's key set from its master key."""
        return globals()[_DERIVE[self.scheme]](master)

    def crypt(self, keys: TesKeySet, tweak: BitString, payload: BitString, encrypt: bool,
              allow_partial: bool) -> BitString:
        """Encipher or decipher; ``allow_partial`` matters only to XCB v2."""
        if self.scheme == "hctr":
            fn = hctr_encrypt if encrypt else hctr_decrypt
            return fn(keys, tweak, payload, self.fixed_hash)
        fn = xcb_encrypt if encrypt else xcb_decrypt
        return fn(self, keys, tweak, payload, allow_partial)


XCBV1 = Mode("xcbv1", "xcbv1", inc32=True)
XCBV2 = Mode("xcbv2", "xcbv2", inc32=True)
MXCBV1 = Mode("mxcbv1", "xcbv1")
MXCBV2 = Mode("mxcbv2", "xcbv2")

#: Every mode by name, in the order the CLI lists them.
MODES = {m.name: m for m in (XCBV1, XCBV2, MXCBV1, MXCBV2, Mode("hctr", "hctr"),
                             Mode("hctr-fix", "hctr", fixed_hash=True))}

#: The four XCB-family modes, the ones ``xcb_encrypt`` takes.
VARIANTS = {n: m for n, m in MODES.items() if m.scheme != "hctr"}


class TesKeySet(NamedTuple):
    """The per-scheme subkeys derived from a master key.

    ``derived`` is False when any subkey was injected rather than derived
    from the master (used by attack experiments to install weak hash keys).
    """

    scheme: str  # "xcbv1" | "xcbv2" | "hctr"
    derived: bool = True
    h1: Optional[FieldElement] = None
    h2: Optional[FieldElement] = None
    h: Optional[FieldElement] = None
    ke: Optional[BlockCipher] = None
    kd: Optional[BlockCipher] = None
    kc: Optional[BlockCipher] = None
    k: Optional[BlockCipher] = None


def derive_keys_v1(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Subkeys for the two-hash-key construction (fixed 128-bit master):
    (Ke, h1, Kc, h2, Kd) are the master cipher's images of the blocks 0..4."""
    if len(master) != 16:
        raise BadKeyLength(f"this construction uses a fixed 16-byte master key, got {len(master)}")
    e = factory(master).encrypt_blocks(_CONSTANTS[:80])
    ke, h1, kc, h2, kd = (e[i : i + 16] for i in range(0, 80, 16))
    return TesKeySet(
        scheme="xcbv1",
        h1=FieldElement.from_bytes(h1),
        h2=FieldElement.from_bytes(h2),
        ke=factory(ke),
        kd=factory(kd),
        kc=factory(kc),
    )


def derive_keys_v2(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Subkeys for the single-hash-key construction (128/192/256-bit master).

    h = E(0), and the i-th of Ke, Kd, Kc is the leading |K| bytes of
    E(2i - 1) || E(2i), so a 128-bit master uses only E(2i - 1).
    """
    if len(master) not in (16, 24, 32):
        raise BadKeyLength(f"master key must be 16, 24 or 32 bytes, got {len(master)}")
    e = factory(master).encrypt_blocks(_CONSTANTS)
    ke, kd, kc = (e[i : i + len(master)] for i in (16, 48, 80))
    return TesKeySet(
        scheme="xcbv2",
        h=FieldElement.from_bytes(e[:16]),
        ke=factory(ke),
        kd=factory(kd),
        kc=factory(kc),
    )


def hctr_keys(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Key set for HCTR, whose two master keys are independent: the first
    16 bytes key the block cipher, the last 16 are the hash key."""
    if len(master) != 32:
        raise BadKeyLength(f"HCTR takes 32 bytes (cipher key then hash key), got {len(master)}")
    return TesKeySet(
        scheme="hctr",
        k=factory(master[:16]),
        h=FieldElement.from_bytes(master[16:]),
    )


def inject_subkeys(keys: TesKeySet, **overrides) -> TesKeySet:
    """Replace individual subkeys (h1/h2/h as field elements, ke/kd/kc/k as
    cipher instances) for attack experiments; the result is flagged as
    non-derived.  With no overrides the key set is returned unchanged."""
    if not overrides:
        return keys
    # Every field after scheme and derived is a subkey.
    unknown = overrides.keys() - TesKeySet._fields[2:]
    if unknown:
        raise TypeError(f"unknown subkeys: {sorted(unknown)}")
    return keys._replace(derived=False, **overrides)


def _check_bounds(tweak: BitString, payload: BitString) -> None:
    if not BLOCK_BITS <= payload.bitlen <= MAX_BITS:
        raise LengthBounds(
            f"payload must be 128..2^39 bits, got {payload.bitlen}"
        )
    if tweak.bitlen > MAX_BITS:
        raise LengthBounds(f"tweak must be at most 2^39 bits, got {tweak.bitlen}")


def _require_scheme(keys: TesKeySet, scheme: str) -> None:
    if keys.scheme != scheme:
        raise ValueError(f"key set is for {keys.scheme!r}, expected {scheme!r}")


def _xcb_hash(variant: Mode, keys: TesKeySet, t: bytes, t_bits: int, data: bytes,
              data_bits: int, first: bool) -> int:
    """The first or the second hash value of an XCB variant over data.

    v1 hashes (data, tweak) under h1 first and under h2 second.  v2 uses its
    one key twice.  The first hash takes (0^128 || tweak) against the
    padded data followed by 0^128.  The second takes (tweak || 0^128)
    against the padded data and an explicit block of the two unpadded
    lengths: that is the plain hash of (tweak || 0^128, data), whose own
    length block is that block.  Padding is zero bits, so a 0^128 after a
    tweak is one more zero part.  ``polyhash._split`` reads data in place,
    up to ``data_bits``.
    """
    parts = polyhash._split(data, data_bits)
    if variant.scheme == "xcbv1":
        return polyhash._xcb_hash(keys.h1 if first else keys.h2, data_bits, t_bits, *parts, t)
    if first:
        padded_bits = data_bits + -data_bits % BLOCK_BITS + BLOCK_BITS
        return polyhash._xcb_hash(keys.h, BLOCK_BITS + t_bits, padded_bits,
                                  _ZERO_BLOCK, t, *parts, _ZERO_BLOCK)
    return polyhash._xcb_hash(keys.h, t_bits + BLOCK_BITS, data_bits, t, _ZERO_BLOCK, *parts)


def _xcb(variant: Mode, keys: TesKeySet, tweak: BitString, payload: BitString,
         allow_partial: bool, forward: bool) -> BitString:
    """Both directions of an XCB variant, behind the scheme, bounds and
    v2-alignment checks: S = E(x) xor H(rest), the counter from S over the
    rest, then y = D(S xor H'(out)).  Decryption swaps Ke with Kd and the
    first hash with the second."""
    if variant.scheme == "hctr":
        raise ValueError(f"{variant.name} is not an XCB mode")
    _require_scheme(keys, variant.scheme)
    _check_bounds(tweak, payload)
    n = payload.bitlen
    if variant.special_last and n % BLOCK_BITS and not allow_partial:
        raise PartialBlockRejected(
            "this variant is insecure for payloads that are not a multiple of "
            "128 bits; pass the explicit insecure-mode flag to force it"
        )
    e, d = (keys.ke, keys.kd) if forward else (keys.kd, keys.ke)
    t, t_bits = tweak.data, tweak.bitlen
    data, rest_bits = payload.data, n - BLOCK_BITS
    if not variant.special_last:
        x, rest = data[:16], memoryview(data)[16:]
    else:
        x = ((int.from_bytes(data[-17:], "big") >> (-n % 8)) & _MASK128).to_bytes(16, "big")
        rest = memoryview(data)[: (rest_bits + 7) // 8]
    s = int.from_bytes(e.encrypt_block(x), "big")
    s ^= _xcb_hash(variant, keys, t, t_bits, rest, rest_bits, forward)
    out = ctr._ctr(keys.kc, s, rest, rest_bits, variant.inc32)
    s ^= _xcb_hash(variant, keys, t, t_bits, out, rest_bits, not forward)
    y = d.decrypt_block(s.to_bytes(16, "big"))
    if variant.special_last:
        return BitString._of(_cat(out, rest_bits, y, BLOCK_BITS), n)
    return BitString._of(y + out, n)


def xcb_encrypt(
    variant: Mode,
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    allow_partial: bool = False,
) -> BitString:
    return _xcb(variant, keys, tweak, payload, allow_partial, forward=True)


def xcb_decrypt(
    variant: Mode,
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    allow_partial: bool = False,
) -> BitString:
    return _xcb(variant, keys, tweak, payload, allow_partial, forward=False)


def _hctr(keys: TesKeySet, tweak: BitString, payload: BitString, fixed_hash: bool,
          forward: bool) -> BitString:
    """Both directions of HCTR, special block first: U = x xor H(rest || T),
    V = pi(U), the counter from U xor V over the rest, then
    y = V xor H(out || T), with pi = E to encrypt and D to decrypt."""
    _require_scheme(keys, "hctr")
    _check_bounds(tweak, payload)
    pi = keys.k.encrypt_block if forward else keys.k.decrypt_block
    t, t_bits = tweak.data, tweak.bitlen
    data, n = payload.data, payload.bitlen
    rest, rest_bits = memoryview(data)[16:], n - BLOCK_BITS
    u = int.from_bytes(data[:16], "big")
    u ^= polyhash._hctr_hash(keys.h, fixed_hash, rest, rest_bits, t, t_bits)
    v = int.from_bytes(pi(u.to_bytes(16, "big")), "big")
    out = ctr._ctr(keys.k, u ^ v, rest, rest_bits, False)
    v ^= polyhash._hctr_hash(keys.h, fixed_hash, out, rest_bits, t, t_bits)
    return BitString._of(v.to_bytes(16, "big") + out, n)


def hctr_encrypt(
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    fixed_hash: bool = False,
) -> BitString:
    return _hctr(keys, tweak, payload, fixed_hash, forward=True)


def hctr_decrypt(
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    fixed_hash: bool = False,
) -> BitString:
    return _hctr(keys, tweak, payload, fixed_hash, forward=False)
