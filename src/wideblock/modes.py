"""Wide-block tweakable enciphering schemes.

Six length-preserving modes, each one pass of the same hash-counter-hash
pipeline (``_hash_counter_hash``):

* ``xcbv1``  -- two hash keys, special first block, 32-bit-increment counter
* ``xcbv2``  -- one hash key, special last block, 32-bit-increment counter
* ``mxcbv1`` / ``mxcbv2`` -- the same constructions with the XOR-index counter
* ``hctr`` (and its repaired-hash variant) -- two independent master keys,
  special first block, XOR-index counter

The special block x meets the block cipher under one of two rules.  XCB
enciphers then adds: S = E(x) xor H, output D(S xor H').  HCTR adds then
enciphers: U = x xor H, V = pi(U), S = U xor V, output V xor H'.  Decryption
runs the same pipeline with the two hashes swapped, and with Ke and Kd
swapped in XCB or pi = D in place of E in HCTR.  ``MODES`` maps each mode
name to its key derivation and its cipher call.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import ctr
from .blockcipher import AesCipher, BadKeyLength, BlockCipher
from .field import FieldElement
from .polyhash import (
    BitString,
    field_to_block,
    hctr_hash,
    hctr_hash_fixed,
    xcb_hash,
    xcb_length_block,
)

CipherFactory = Callable[[bytes], BlockCipher]
_Hash = Callable[[BitString], BitString]
#: (special block, first hash) -> (counter seed, finish(second hash) -> output block)
_SpecialRule = Callable[[BitString, BitString], tuple[BitString, _Hash]]

#: Both payload and tweak are capped at 2^39 bits.
MAX_BITS = 1 << 39

BLOCK_BITS = 128
BLOCK = BitString.zeros(BLOCK_BITS)


class LengthBounds(ValueError):
    """Raised when a payload or tweak violates the mode's length bounds."""


class PartialBlockRejected(ValueError):
    """Raised when a single-hash-key variant gets a payload that is not a
    multiple of the block length (a regime with a known distinguishing
    attack) without the explicit insecure-mode flag."""


@dataclass(frozen=True)
class XcbVariant:
    """An XCB family member: construction version plus counter family."""

    version: str  # "v1" | "v2"
    counter_family: str  # "inc32" | "xor_index"

    @property
    def name(self) -> str:
        prefix = "xcb" if self.counter_family == "inc32" else "mxcb"
        return prefix + self.version

    @property
    def special_last(self) -> bool:
        """Where the special block sits: last in v2, first in v1."""
        return self.version == "v2"

    def counter_span(self, m: int) -> range:
        """1-based indices of the blocks the counter layer covers in an
        m-block payload: all but the special block."""
        start = 1 if self.special_last else 2
        return range(start, start + m - 1)

    def counter(self, cipher: BlockCipher, s: BitString, data: BitString) -> BitString:
        if self.counter_family == "inc32":
            return ctr.xcb_ctr(cipher, s, data)
        return ctr.xor_ctr(cipher, s, data)


XCBV1 = XcbVariant("v1", "inc32")
XCBV2 = XcbVariant("v2", "inc32")
MXCBV1 = XcbVariant("v1", "xor_index")
MXCBV2 = XcbVariant("v2", "xor_index")

VARIANTS = {v.name: v for v in (XCBV1, XCBV2, MXCBV1, MXCBV2)}


@dataclass(frozen=True)
class TesKeySet:
    """Master key plus the per-scheme derived subkeys.

    ``derived`` is False when any subkey was injected rather than derived
    from the master (used by attack experiments to install weak hash keys).
    """

    scheme: str  # "xcbv1" | "xcbv2" | "hctr"
    master: bytes
    derived: bool = True
    h1: Optional[FieldElement] = None
    h2: Optional[FieldElement] = None
    h: Optional[FieldElement] = None
    ke: Optional[BlockCipher] = None
    kd: Optional[BlockCipher] = None
    kc: Optional[BlockCipher] = None
    k: Optional[BlockCipher] = None


def _constant_block(last_byte: int) -> bytes:
    return bytes(15) + bytes([last_byte])


def derive_keys_v1(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Subkeys for the two-hash-key construction (fixed 128-bit master).

    The five subkeys are the master cipher's images of the constants
    0, 1, 2, 3 and 4 in the low byte: h1 = E(..001), h2 = E(..011),
    Ke = E(0), Kd = E(..100), Kc = E(..010).
    """
    if len(master) != 16:
        raise BadKeyLength(f"this construction uses a fixed 16-byte master key, got {len(master)}")
    em = factory(master)
    h1 = FieldElement.from_bytes(em.encrypt_block(_constant_block(0x01)))
    h2 = FieldElement.from_bytes(em.encrypt_block(_constant_block(0x03)))
    ke = em.encrypt_block(_constant_block(0x00))
    kd = em.encrypt_block(_constant_block(0x04))
    kc = em.encrypt_block(_constant_block(0x02))
    return TesKeySet(
        scheme="xcbv1",
        master=bytes(master),
        h1=h1,
        h2=h2,
        ke=factory(ke),
        kd=factory(kd),
        kc=factory(kc),
    )


def derive_keys_v2(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Subkeys for the single-hash-key construction (128/192/256-bit master).

    h = E(0); each cipher subkey takes the leading |K| bits of the
    concatenation of two constant encryptions, so a 128-bit master uses
    only the first constant of each pair.
    """
    if len(master) not in (16, 24, 32):
        raise BadKeyLength(f"master key must be 16, 24 or 32 bytes, got {len(master)}")
    em = factory(master)
    klen = len(master)

    def subkey(c1: int, c2: int) -> bytes:
        joined = em.encrypt_block(_constant_block(c1)) + em.encrypt_block(_constant_block(c2))
        return joined[:klen]

    return TesKeySet(
        scheme="xcbv2",
        master=bytes(master),
        h=FieldElement.from_bytes(em.encrypt_block(bytes(16))),
        ke=factory(subkey(0x01, 0x02)),
        kd=factory(subkey(0x03, 0x04)),
        kc=factory(subkey(0x05, 0x06)),
    )


def hctr_keys(master: bytes, factory: CipherFactory = AesCipher) -> TesKeySet:
    """Key set for HCTR, whose two master keys are independent: the first
    16 bytes key the block cipher, the last 16 are the hash key."""
    if len(master) != 32:
        raise BadKeyLength(f"HCTR takes 32 bytes (cipher key then hash key), got {len(master)}")
    return TesKeySet(
        scheme="hctr",
        master=bytes(master),
        k=factory(master[:16]),
        h=FieldElement.from_bytes(master[16:]),
    )


def inject_subkeys(keys: TesKeySet, **overrides) -> TesKeySet:
    """Replace individual subkeys (h1/h2/h as field elements, ke/kd/kc/k as
    cipher instances) for attack experiments; the result is flagged as
    non-derived.  With no overrides the key set is returned unchanged."""
    if not overrides:
        return keys
    allowed = {"h1", "h2", "h", "ke", "kd", "kc", "k"}
    unknown = set(overrides) - allowed
    if unknown:
        raise TypeError(f"unknown subkeys: {sorted(unknown)}")
    return dataclasses.replace(keys, derived=False, **overrides)


def _check_bounds(tweak: BitString, payload: BitString) -> None:
    if not BLOCK_BITS <= payload.bitlen <= MAX_BITS:
        raise LengthBounds(
            f"payload must be 128..2^39 bits, got {payload.bitlen}"
        )
    if tweak.bitlen > MAX_BITS:
        raise LengthBounds(f"tweak must be at most 2^39 bits, got {tweak.bitlen}")


def _pad_to_blocks(x: BitString) -> BitString:
    if x.bitlen % BLOCK_BITS == 0:
        return x
    return x + BitString.zeros(BLOCK_BITS - x.bitlen % BLOCK_BITS)


def _require_scheme(keys: TesKeySet, scheme: str) -> None:
    if keys.scheme != scheme:
        raise ValueError(f"key set is for {keys.scheme!r}, expected {scheme!r}")


def _xcb_hashes(variant: XcbVariant, keys: TesKeySet, tweak: BitString) -> tuple[_Hash, _Hash]:
    """The first and second hash of an XCB variant.

    v1 hashes (blocks, tweak) under h1 and then under h2.  v2 uses its one
    key twice: the first hash takes (0^128 || tweak) against the padded
    blocks followed by 0^128; the second takes (tweak || 0^128) against the
    padded blocks followed by an explicit length block, with the hash's own
    length term suppressed since the assembled argument already carries it.
    """
    if variant.version == "v1":
        return (
            lambda blocks: field_to_block(xcb_hash(keys.h1, blocks, tweak)),
            lambda blocks: field_to_block(xcb_hash(keys.h2, blocks, tweak)),
        )

    def first_hash(blocks: BitString) -> BitString:
        arg = _pad_to_blocks(blocks) + BLOCK
        return field_to_block(xcb_hash(keys.h, BLOCK + tweak, arg))

    def second_hash(blocks: BitString) -> BitString:
        lb = xcb_length_block(tweak.bitlen + BLOCK_BITS, blocks.bitlen)
        arg = _pad_to_blocks(blocks) + lb
        return field_to_block(xcb_hash(keys.h, tweak + BLOCK, arg, include_length=False))

    return first_hash, second_hash


def _encipher_then_add(e: BlockCipher, d: BlockCipher, x: BitString, h: BitString):
    """XCB's special block: S = E(x) xor H; the output block is D(S xor H')."""
    s = BitString(e.encrypt_block(x.data)) ^ h
    return s, lambda h_out: BitString(d.decrypt_block((s ^ h_out).data))


def _add_then_encipher(pi: Callable[[bytes], bytes], x: BitString, h: BitString):
    """HCTR's special block: U = x xor H, V = pi(U), S = U xor V; output V xor H'."""
    u = x ^ h
    v = BitString(pi(u.data))
    return u ^ v, lambda h_out: v ^ h_out


def _hash_counter_hash(data: BitString, special_last: bool, hash_in: _Hash, hash_out: _Hash,
                       counter: Callable[[BitString, BitString], BitString],
                       rule: _SpecialRule) -> BitString:
    """The sandwich every mode is built from.

    Split the special block x off the rest; ``rule(x, hash_in(rest))``
    gives the counter seed S and a finisher; the counter layer runs over
    the rest; the finisher turns ``hash_out`` of the counter output into
    the special output block; join in the original order.
    """
    n = data.bitlen - BLOCK_BITS
    if special_last:
        rest, x = data.msb(n), data.lsb(BLOCK_BITS)
    else:
        x, rest = data.msb(BLOCK_BITS), data.lsb(n)
    s, finish = rule(x, hash_in(rest))
    out = counter(s, rest) if n else rest
    y = finish(hash_out(out))
    return out + y if special_last else y + out


def _xcb(variant: XcbVariant, keys: TesKeySet, tweak: BitString, payload: BitString,
         allow_partial: bool, forward: bool) -> BitString:
    """Both directions of an XCB variant, behind the scheme, bounds and
    v2-alignment checks."""
    _require_scheme(keys, "xcb" + variant.version)
    _check_bounds(tweak, payload)
    if variant.version == "v2" and payload.bitlen % BLOCK_BITS and not allow_partial:
        raise PartialBlockRejected(
            "this variant is insecure for payloads that are not a multiple of "
            "128 bits; pass the explicit insecure-mode flag to force it"
        )
    hash_in, hash_out = _xcb_hashes(variant, keys, tweak)
    e, d = keys.ke, keys.kd
    if not forward:
        hash_in, hash_out, e, d = hash_out, hash_in, d, e
    counter = functools.partial(variant.counter, keys.kc)
    rule = functools.partial(_encipher_then_add, e, d)
    return _hash_counter_hash(payload, variant.special_last, hash_in, hash_out, counter, rule)


def xcb_encrypt(
    variant: XcbVariant,
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    allow_partial: bool = False,
) -> BitString:
    return _xcb(variant, keys, tweak, payload, allow_partial, forward=True)


def xcb_decrypt(
    variant: XcbVariant,
    keys: TesKeySet,
    tweak: BitString,
    payload: BitString,
    allow_partial: bool = False,
) -> BitString:
    return _xcb(variant, keys, tweak, payload, allow_partial, forward=False)


def _hctr(keys: TesKeySet, tweak: BitString, payload: BitString, fixed_hash: bool,
          forward: bool) -> BitString:
    """Special first block; the rest and the tweak are concatenated into a
    single hash input on both sides of the counter layer."""
    _require_scheme(keys, "hctr")
    _check_bounds(tweak, payload)
    hash_fn = hctr_hash_fixed if fixed_hash else hctr_hash

    def hash_rest(blocks: BitString) -> BitString:
        return field_to_block(hash_fn(keys.h, blocks + tweak))

    counter = functools.partial(ctr.xor_ctr, keys.k)
    pi = keys.k.encrypt_block if forward else keys.k.decrypt_block
    rule = functools.partial(_add_then_encipher, pi)
    return _hash_counter_hash(payload, False, hash_rest, hash_rest, counter, rule)


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


class Mode(NamedTuple):
    """A ``MODES`` entry: an XCB variant, or HCTR (``variant`` None) with or
    without the repaired hash.

    The methods look this module's functions up when called, never hold
    references taken at import, so a tracer that rebinds the module's names
    also sees calls made through the registry.
    """

    variant: Optional[XcbVariant] = None
    fixed_hash: bool = False

    def derive(self, master: bytes) -> TesKeySet:
        """The mode's key set from its master key."""
        if self.variant is None:
            return hctr_keys(master)
        return derive_keys_v1(master) if self.variant.version == "v1" else derive_keys_v2(master)

    def crypt(self, keys: TesKeySet, tweak: BitString, payload: BitString, encrypt: bool,
              allow_partial: bool) -> BitString:
        """Encipher or decipher; ``allow_partial`` matters only to the v2 variants."""
        if self.variant is None:
            fn = hctr_encrypt if encrypt else hctr_decrypt
            return fn(keys, tweak, payload, self.fixed_hash)
        fn = xcb_encrypt if encrypt else xcb_decrypt
        return fn(self.variant, keys, tweak, payload, allow_partial)


#: Every mode by name, in the order the CLI lists them.
MODES = {name: Mode(variant) for name, variant in VARIANTS.items()}
MODES |= {"hctr": Mode(), "hctr-fix": Mode(fixed_hash=True)}
