"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths:

* ``mul_oracle`` is a schoolbook 256-bit polynomial product followed by
  long division;
* ``mul``, ``pow``, ``inv``, ``sqrt`` and ``order_divisor`` are the original
  bit-serial field code that the table arithmetic in ``wideblock.field``
  replaced, kept as its reference;
* the hash oracles read blocks off the payload's integer value and evaluate
  explicit powers of the key instead of Horner's rule;
* ``xor``, ``lsb``, ``parse_n`` and ``concat`` are the original per-byte
  and big-int ``BitString`` code that the slicing, int-XOR and byte-shift
  paths replaced;
* ``inc`` is the block-at-a-time 32-bit counter increment that the
  counter layers in ``wideblock.ctr`` replaced with integer arithmetic
  over all counters at once, and ``ctr_blockwise`` runs both counter
  families a block at a time on top of it;
* ``carry_class_offsets`` is the original full-depth carry-chain search
  for Y_r that the closed form of W_r in ``wideblock.analysis`` replaced;
* ``exhaustive_offsets`` and ``compute_inc_sets`` (with its record
  ``IncSetTable`` and its ``WidthTooLarge`` error) are the brute-force
  enumeration of Y_r and W_r over every counter value, the reference for
  that closed form and for the carry-chain search;
* ``row`` is the loop over the bits of n that the written-out XORs of
  ``field._nibble_row`` replaced, and ``key_table`` builds a hash key's
  4-bit table from it;
* ``element_of_order`` is the search that the one power of the generator
  x in ``wideblock.field`` replaced: candidate bases 2, 3, 4, ... raised
  to (2^128 - 1)/r until the exact order, checked against every maximal
  proper divisor of r, is r.  It exponentiates with the public
  ``field.pow``, since the bit-serial ``pow`` would take seconds;
* ``xcb_crypt`` and ``hctr_crypt`` are the ``BitString``-level mode bodies
  (split, pad and concatenate bit strings, hash through the public hash
  functions, counter through the public counter functions) that the
  bytes-and-int bodies in ``wideblock.modes`` replaced; the v2 second
  hash, whose length block is explicit, runs through ``xcb_hash_oracle``;
* ``FeistelCipher`` is a keyed test permutation that the key derivations'
  ``factory`` argument can take in place of AES, so algebraic tests do not
  depend on an AES implementation.
"""

import hashlib
from typing import NamedTuple

from wideblock import ctr, field
from wideblock.blockcipher import BadBlockLength, BadKeyLength, BlockCipher, _check_block
from wideblock.field import FieldElement
from wideblock.polyhash import (
    BitString,
    field_to_block,
    hctr_hash,
    xcb_hash,
)

# x^128 + x^7 + x^2 + x + 1 with explicit degree-128 bit
_MODULUS = (1 << 128) | 0x87
_MASK128 = (1 << 128) - 1


def mul_oracle(a: FieldElement, b: FieldElement) -> FieldElement:
    """Schoolbook polynomial product, then long division by the modulus."""
    prod = 0
    x = a.value
    i = 0
    y = b.value
    while y:
        if y & 1:
            prod ^= x << i
        y >>= 1
        i += 1
    while prod.bit_length() > 128:
        prod ^= _MODULUS << (prod.bit_length() - 129)
    return FieldElement(prod)


# ---------------------------------------------------------------------------
# The bit-serial field code


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Shift-and-add over the bits of b; the running multiple of a is
    reduced whenever it reaches degree 128."""
    x = a.value
    y = b.value
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> 128:
            x ^= _MODULUS
    return FieldElement(acc)


def pow(a: FieldElement, e: int) -> FieldElement:  # noqa: A001 - mirrors field.pow
    """Right-to-left square-and-multiply; pow(a, 0) == 1."""
    result = field.ONE
    base = a
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def inv(a: FieldElement) -> FieldElement:
    """a^(2^128 - 2)."""
    return pow(a, field.GROUP_ORDER - 1)


def sqrt(a: FieldElement) -> FieldElement:
    """a^(2^127)."""
    return pow(a, 1 << 127)


def order_divisor(h: FieldElement, max_order: int) -> int | None:
    """Smallest r <= max_order dividing 2^128 - 1 with h^r = 1, by trial of
    every divisor in increasing order."""
    divisors = [1]
    for p in field.GROUP_ORDER_FACTORS:
        divisors += [d * p for d in divisors]
    for r in sorted(divisors):
        if r > max_order:
            break
        if pow(h, r) == field.ONE:
            return r
    return None


def row(v: int) -> tuple[list[int], int]:
    """The 16 products n*v for the polynomials n of degree below 4, and v*x^4."""
    products = [0] * 16
    for bit in (1, 2, 4, 8):
        for n in range(bit):
            products[bit + n] = products[n] ^ v
        v <<= 1
        if v >> 128:
            v ^= _MODULUS
    return products, v


def key_table(h: FieldElement) -> tuple:
    """h's 4-bit table (the layout of ``FieldElement._mul_table``) from ``row``."""
    rows = []
    v = h.value
    for _ in range(32):
        products, v = row(v)
        rows.append(tuple(products))
    return tuple(zip(rows[0::2], rows[1::2]))


def element_of_order(r: int) -> FieldElement:
    """The first of x^(N/r), 3^(N/r), 4^(N/r), ... (bases as field elements,
    N = 2^128 - 1) whose exact order is r, for a divisor r > 1 of N."""
    cofactor = field.GROUP_ORDER // r
    maximal = [r // p for p in field.GROUP_ORDER_FACTORS if r % p == 0]
    base = 2
    while True:
        t = field.pow(FieldElement(base), cofactor)
        if t != field.ONE and all(field.pow(t, d) != field.ONE for d in maximal):
            return t
        base += 1


# ---------------------------------------------------------------------------
# Hash oracles


def _padded_blocks(x: BitString) -> list[int]:
    """x's 128-bit blocks as integers, the last one zero-padded on the right."""
    nblocks = -(-x.bitlen // 128)
    v = x.to_int() << (128 * nblocks - x.bitlen)
    return [(v >> (128 * k)) & _MASK128 for k in reversed(range(nblocks))]


def _sum_of_powers(h: FieldElement, terms: list[int]) -> FieldElement:
    """sum of terms[i] * h^(m - i) for m terms, each power built explicitly."""
    powers = [field.ONE]
    for _ in terms:
        powers.append(mul_oracle(powers[-1], h))
    total = 0
    for idx, term in enumerate(terms):
        total ^= mul_oracle(FieldElement(term), powers[len(terms) - idx]).value
    return FieldElement(total)


def xcb_hash_oracle(
    h: FieldElement,
    x: BitString,
    t: BitString,
    include_length: bool = True,
) -> FieldElement:
    terms = _padded_blocks(x) + _padded_blocks(t)
    if include_length:
        terms.append(x.bitlen << 64 | t.bitlen)
    return _sum_of_powers(h, terms)


def hctr_hash_oracle(h: FieldElement, p: BitString) -> FieldElement:
    if p.bitlen == 0:
        return h
    return _sum_of_powers(h, _padded_blocks(p) + [p.bitlen])


# ---------------------------------------------------------------------------
# The per-byte and big-int BitString code


def xor(a: BitString, b: BitString) -> BitString:
    raw = bytes(p ^ q for p, q in zip(a.data, b.data))
    return BitString(raw, a.bitlen)


def lsb(x: BitString, r: int) -> BitString:
    return BitString.from_int(x.to_int() & ((1 << r) - 1), r)


def parse_n(x: BitString) -> list[BitString]:
    v = x.to_int()
    blocks = []
    remaining = x.bitlen
    while remaining > 0:
        width = min(128, remaining)
        remaining -= width
        blocks.append(BitString.from_int((v >> remaining) & ((1 << width) - 1), width))
    return blocks


def concat(a: BitString, b: BitString) -> BitString:
    return BitString.from_int((a.to_int() << b.bitlen) | b.to_int(), a.bitlen + b.bitlen)


def inc(x: BitString) -> BitString:
    """Increment the low 32 bits of a 128-bit block modulo 2^32."""
    if x.bitlen != 128:
        raise BadBlockLength("inc operates on full 128-bit blocks")
    low = (int.from_bytes(x.data[12:], "big") + 1) & 0xFFFFFFFF
    return BitString(x.data[:12] + low.to_bytes(4, "big"), 128)


def ctr_blockwise(cipher, s: BitString, data: BitString, inc32: bool) -> BitString:
    """data XOR the keystream, one block at a time: counter block i is
    inc^i(s) for inc32, else s xor bin128(i + 1)."""
    pieces = []
    counter = s
    for i in range(-(-data.bitlen // 128)):
        block = counter if inc32 else s ^ BitString.from_int(i + 1, 128)
        pieces.append(cipher.encrypt_block(block.data))
        counter = inc(counter)
    return xor(data, BitString(b"".join(pieces)).msb(data.bitlen))


# ---------------------------------------------------------------------------
# The BitString-level mode bodies, without the scheme, bounds and v2
# partial-block checks, joining bit strings with ``concat``


_BLOCK = BitString.from_int(0, 128)


def _pad_to_blocks(x: BitString) -> BitString:
    if x.bitlen % 128 == 0:
        return x
    return concat(x, BitString.from_int(0, 128 - x.bitlen % 128))


def _split(data: BitString, special_last: bool) -> tuple[BitString, BitString]:
    """The special block and the rest of the payload."""
    n = data.bitlen - 128
    if special_last:
        return data.lsb(128), data.msb(n)
    return data.msb(128), data.lsb(n)


def _xcb_hash(variant, keys, tweak: BitString, blocks: BitString, first: bool) -> BitString:
    if variant.scheme == "xcbv1":
        return field_to_block(xcb_hash(keys.h1 if first else keys.h2, blocks, tweak))
    if first:
        x = concat(_BLOCK, tweak)
        return field_to_block(xcb_hash(keys.h, x, concat(_pad_to_blocks(blocks), _BLOCK)))
    lb = BitString.from_int((tweak.bitlen + 128) << 64 | blocks.bitlen, 128)
    arg = concat(_pad_to_blocks(blocks), lb)
    return field_to_block(xcb_hash_oracle(keys.h, concat(tweak, _BLOCK), arg, include_length=False))


def xcb_crypt(variant, keys, tweak: BitString, payload: BitString, forward: bool) -> BitString:
    """S = E(x) xor H(rest), the counter from S over the rest, then
    y = D(S xor H'(out)); decryption swaps Ke with Kd and the two hashes."""
    e, d = (keys.ke, keys.kd) if forward else (keys.kd, keys.ke)
    x, rest = _split(payload, variant.special_last)
    s = BitString(e.encrypt_block(x.data)) ^ _xcb_hash(variant, keys, tweak, rest, forward)
    counter = ctr.xcb_ctr if variant.inc32 else ctr.xor_ctr
    out = counter(keys.kc, s, rest) if rest.bitlen else rest
    h_out = _xcb_hash(variant, keys, tweak, out, not forward)
    y = BitString(d.decrypt_block((s ^ h_out).data))
    return concat(out, y) if variant.special_last else concat(y, out)


def hctr_crypt(keys, tweak: BitString, payload: BitString, fixed_hash: bool,
               forward: bool) -> BitString:
    """U = x xor H(rest || T), V = pi(U), the counter from U xor V over the
    rest, then y = V xor H(out || T), with pi = E or D."""
    # the repaired hash is hctr_hash of its input with a 1 bit appended
    one = BitString.from_int(1, 1) if fixed_hash else BitString.empty()
    pi = keys.k.encrypt_block if forward else keys.k.decrypt_block
    x, rest = _split(payload, False)
    u = x ^ field_to_block(hctr_hash(keys.h, concat(concat(rest, tweak), one)))
    v = BitString(pi(u.data))
    out = ctr.xor_ctr(keys.k, u ^ v, rest) if rest.bitlen else rest
    return concat(v ^ field_to_block(hctr_hash(keys.h, concat(concat(out, tweak), one))), out)


def carry_class_offsets(width: int, r: int) -> frozenset[int]:
    """Y_r by following every carry chain through all ``width`` bits."""
    mask = (1 << width) - 1
    r &= mask
    out = set()
    stack = [(0, 0)]  # (bit position, carry word so far)
    while stack:
        pos, carry = stack.pop()
        if pos == width:
            out.add(r ^ carry)
            continue
        r_bit = (r >> pos) & 1
        c_bit = (carry >> pos) & 1
        nxt = pos + 1
        if c_bit == r_bit:
            # forced carry; the final carry-out is discarded by the wrap
            stack.append((nxt, carry | (r_bit << nxt) if nxt < width else carry))
        else:
            stack.append((nxt, carry))
            if nxt < width:
                stack.append((nxt, carry | (1 << nxt)))
    return frozenset(out)


def exhaustive_offsets(width: int, r: int) -> frozenset[int]:
    """Y_r by brute force over all 2^width counter values."""
    mask = (1 << width) - 1
    return frozenset((((y + r) & mask) ^ y) for y in range(1 << width))


class WidthTooLarge(ValueError):
    """Raised when exhaustive enumeration is requested beyond width 16."""


class IncSetTable(NamedTuple):
    """Exhaustively computed offset sets for r = 0..r_max."""

    width: int
    r_max: int
    y_sets: tuple[frozenset[int], ...]
    w_sets: tuple[frozenset[int], ...]
    w_max: int

    @property
    def w_cardinalities(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.w_sets)


def compute_inc_sets(width: int, r_max: int) -> IncSetTable:
    """Exact Y_r and W_r for all r <= r_max by exhaustive enumeration."""
    if width > 16:
        raise WidthTooLarge("exhaustive mode is limited to width <= 16")
    if width < 1 or r_max < 0:
        raise ValueError("width must be >= 1 and r_max >= 0")
    y_sets = []
    w_sets = []
    seen: set[int] = set()
    for r in range(r_max + 1):
        ys = exhaustive_offsets(width, r)
        y_sets.append(ys)
        w_sets.append(frozenset(ys - seen))
        seen |= ys
    return IncSetTable(
        width=width,
        r_max=r_max,
        y_sets=tuple(y_sets),
        w_sets=tuple(w_sets),
        w_max=max(len(w) for w in w_sets),
    )


def check_field_laws(rng, cases: int) -> None:
    """Commutativity, associativity and distributivity on random triples."""
    for _ in range(cases):
        a = FieldElement(rng.getrandbits(128))
        b = FieldElement(rng.getrandbits(128))
        c = FieldElement(rng.getrandbits(128))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )


# ---------------------------------------------------------------------------
# A keyed test permutation


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

    def encrypt_blocks(self, data: bytes) -> bytes:
        if len(data) % 16:
            raise BadBlockLength("data must be a multiple of 16 bytes")
        return b"".join(self.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16))
