"""GF(2^128) arithmetic for polynomial-evaluation hashing and weak-key analysis.

Elements are 128-bit integers where bit k is the coefficient of x^k, so the
rightmost (least significant) bit of a block is x^0 and the integer 1 is the
multiplicative identity.  The field is reduced by the fixed polynomial

    f(x) = x^128 + x^7 + x^2 + x + 1

which in this ordering is the constant 0x87 plus the implicit x^128 term.

Everything runs on plain ints.  Every fixed GF(2)-linear map (the
product by an element, ``mul`` included, squaring and the square root) is
applied through a table (Shoup 1996; McGrew & Viega, "The
Galois/Counter Mode of Operation", section 4), and every table is built
one way, from the map's images of x^0..x^127: ``_table`` gives the 16
images of each nibble of an operand (32 rows of ``_nibble_row``, about
22 KB) and ``_byte_rows`` combines them into the 256 images of each byte
(16 rows, about 213 KB).  A map is then one lookup per nibble, or byte.

The product by an element h (a hash key, the multiplier of ``mul`` or
the base of ``pow``) runs on h's 4-bit table, built from h's
``_doublings`` on first use and kept on that ``FieldElement``; there is
no per-call window.  A hash input of at least 2 KiB
(``BYTE_TABLE_BLOCKS`` blocks) runs on h's 8-bit table instead, built on
the first such input and also kept on h.  It halves the lookups per block
but takes a further 0.2-0.3 ms to build (CPython 3.11, 2-vCPU Xeon), which
short inputs under fresh keys (the attack demos) would never repay.
Squaring (x^k -> x^2k) and the square root (x^2k -> x^k, x^(2k+1) ->
x^k * sqrt(x)) each have a constant 8-bit table, built on first use and
kept for the process; hashing and enciphering build neither.

Both table kernels take the blocks as 128-bit ints from one iterator,
``_blocks``: ``struct`` splits each part of a hash input into 16-byte
blocks a chunk of 256 blocks at a time and ``int.from_bytes`` reads them,
both in C, so no Python step runs per block outside the lookups, and no
more than one chunk's blocks exist at once.  Only a part's partial last
block is copied, to pad it.

``order_divisor`` clears a key of no small order with a single
exponentiation by the product of the small prime factors of 2^128 - 1, not
one per candidate divisor.  x generates the cyclic group GF(2^128)^*, so
``element_of_order(r)``, the weak key of order r, is x^((2^128 - 1)/r).

The lookups of a key's tables are memory accesses indexed by key-dependent
data, so nothing here runs in constant time (pure Python would not anyway);
this is a study package, not a side-channel-hardened one.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from collections.abc import Iterable, Iterator
from itertools import chain, repeat

# f(x) = x^128 + x^7 + x^2 + x + 1, with the x^128 bit kept explicit so a
# shift by x can clear it in one XOR.
REDUCTION_POLY = (1 << 128) | 0x87

_MASK128 = (1 << 128) - 1

#: Prime factorization of the multiplicative group order 2^128 - 1.
GROUP_ORDER_FACTORS = (
    3,
    5,
    17,
    257,
    641,
    65537,
    274177,
    6700417,
    67280421310721,
)

GROUP_ORDER = (1 << 128) - 1

if math.prod(GROUP_ORDER_FACTORS) != GROUP_ORDER:
    raise AssertionError("group order factor list is inconsistent")


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting the zero element."""


class ZeroElement(ValueError):
    """Raised when an operation requires a nonzero element."""


class NotADivisor(ValueError):
    """Raised when a requested subgroup order does not divide 2^128 - 1."""


class FieldElement:
    """An element of GF(2^128), stored as a 128-bit integer.

    Two more slots hold the element's 4-bit and 8-bit multiplication tables
    once it has been used as a fixed multiplier; equality, hashing and
    immutability depend on ``value`` alone.
    """

    __slots__ = ("value", "_mul_table", "_byte_table")

    def __init__(self, value: int):
        if type(value) is not int:
            value = operator.index(value)
        if not 0 <= value <= _MASK128:
            raise ValueError("field element out of the 128-bit range")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError("FieldElement is immutable")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FieldElement":
        if len(data) != 16:
            raise ValueError("field element requires exactly 16 bytes")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "FieldElement":
        return cls.from_bytes(bytes.fromhex(text))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(16, "big")

    def to_hex(self) -> str:
        """32 lowercase hex characters, most significant bit first."""
        return self.to_bytes().hex()

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldElement) and self.value == other.value

    def __hash__(self) -> int:
        return hash((FieldElement, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"FieldElement(0x{self.value:032x})"

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)


ZERO = FieldElement(0)
ONE = FieldElement(1)


def _doublings(a: int, n: int = 128) -> list[int]:
    """a, a*x, ..., a*x^(n-1): the images of x^0..x^(n-1) under the product
    by a, each one shift by x of the last."""
    images = [a]
    for _ in range(n - 1):
        a = (a << 1) ^ REDUCTION_POLY if a >> 127 else a << 1
        images.append(a)
    return images


def _nibble_row(a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    """The images of the 16 nibbles n under a GF(2)-linear map that sends
    n's bits 1, 2, 4 and 8 to a, b, c and d: the XOR of the images of n's
    set bits, written out (under half the cost of a loop over n's bits)."""
    ab, ac, bc = a ^ b, a ^ c, b ^ c
    abc = ab ^ c
    return (0, a, b, ab, c, ac, bc, abc, d, a ^ d, b ^ d, ab ^ d, c ^ d, ac ^ d, bc ^ d, abc ^ d)


def _table(images: Iterable[int]) -> tuple:
    """The 4-bit table of the GF(2)-linear map that sends x^k to images[k].

    Entry j is the pair of rows for byte j of a little-endian operand: its
    low nibble n maps to the image of n*x^(8j), its high nibble to that of
    n*x^(8j+4).
    """
    it = iter(images)
    rows = map(_nibble_row, it, it, it, it)
    return tuple(zip(rows, rows))


def _byte_rows(table: tuple) -> tuple:
    """The 8-bit table of the same map: row j maps byte b of a little-endian
    operand to the XOR of the 4-bit entries for its low and high nibble."""
    return tuple(tuple([low ^ high for high in highs for low in lows]) for lows, highs in table)


def _key_table(h: FieldElement) -> tuple:
    """h's 4-bit table, the table of the product by h, built from h's
    doublings on first use and kept on h."""
    try:
        return h._mul_table
    except AttributeError:
        table = _table(_doublings(h.value))
        object.__setattr__(h, "_mul_table", table)
        return table


def _horner(table: tuple, acc: int, blocks: Iterable[int]) -> int:
    """Horner steps acc = (acc + c)*h over the 128-bit ints c of blocks, for
    the h whose table this is.

    Each product is one lookup per nibble of acc + c.  The 32 lookups are
    written out, since a loop over the table costs about a third more.
    """
    (l0, h0), (l1, h1), (l2, h2), (l3, h3), (l4, h4), (l5, h5), (l6, h6), (l7, h7), \
        (l8, h8), (l9, h9), (l10, h10), (l11, h11), (l12, h12), (l13, h13), (l14, h14), \
        (l15, h15) = table
    for c in blocks:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = (
            acc ^ c
        ).to_bytes(16, "little")
        acc = (
            l0[b0 & 15] ^ h0[b0 >> 4] ^ l1[b1 & 15] ^ h1[b1 >> 4]
            ^ l2[b2 & 15] ^ h2[b2 >> 4] ^ l3[b3 & 15] ^ h3[b3 >> 4]
            ^ l4[b4 & 15] ^ h4[b4 >> 4] ^ l5[b5 & 15] ^ h5[b5 >> 4]
            ^ l6[b6 & 15] ^ h6[b6 >> 4] ^ l7[b7 & 15] ^ h7[b7 >> 4]
            ^ l8[b8 & 15] ^ h8[b8 >> 4] ^ l9[b9 & 15] ^ h9[b9 >> 4]
            ^ l10[b10 & 15] ^ h10[b10 >> 4] ^ l11[b11 & 15] ^ h11[b11 >> 4]
            ^ l12[b12 & 15] ^ h12[b12 >> 4] ^ l13[b13 & 15] ^ h13[b13 >> 4]
            ^ l14[b14 & 15] ^ h14[b14 >> 4] ^ l15[b15 & 15] ^ h15[b15 >> 4]
        )
    return acc


def _key_byte_table(h: FieldElement) -> tuple:
    """h's 8-bit table, built from the 4-bit one on first use and kept on h."""
    try:
        return h._byte_table
    except AttributeError:
        table = _byte_rows(_key_table(h))
        object.__setattr__(h, "_byte_table", table)
        return table


def _horner_bytes(table: tuple, acc: int, blocks: Iterable[int]) -> int:
    """``_horner`` with h's 8-bit table: one lookup per byte of acc + c."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = table
    for c in blocks:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = (
            acc ^ c
        ).to_bytes(16, "little")
        acc = (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
        )
    return acc


#: Hash inputs of at least this many blocks' worth of bytes (2 KiB) use the
#: key's 8-bit table.  On CPython 3.11 (2-vCPU Xeon) it takes 0.18-0.29 ms
#: to build on top of the 4-bit table and saves 0.85-1.5 us a block (the
#: 4-bit kernel takes 1.7-2.9 us a block, the 8-bit one 0.8-1.4 us, both
#: fed by ``_blocks``; the spread is the shared host's), so it repays its
#: build after about 200 blocks hashed under one key.  Keys that hash
#: inputs this long are sector and file keys, which hash many of them; the
#: attack demos draw fresh keys and hash at most about 21 blocks under
#: each, which would never repay it.
BYTE_TABLE_BLOCKS = 128

#: ``_blocks`` splits whole chunks of this many blocks with one cached
#: ``Struct`` call each, so it holds at most one chunk's blocks at a time.
_CHUNK_BLOCKS = 256
_CHUNK = struct.Struct("16s" * _CHUNK_BLOCKS)


def _chunks(parts: tuple[bytes, ...]) -> Iterator[tuple[bytes, ...]]:
    """Tuples of the 16-byte blocks of each part in turn: first the whole
    blocks that do not fill a chunk, then each whole chunk through
    ``_CHUNK``, then the partial last block, if any, padded with zero bytes."""
    for part in parts:
        end = len(part) & -16
        start = end % _CHUNK.size
        if start:
            yield struct.unpack_from("16s" * (start >> 4), part)
        if end > start:  # short parts, the most common, skip building a range
            for i in range(start, end, _CHUNK.size):
                yield _CHUNK.unpack_from(part, i)
        if end != len(part):
            yield (bytes(part[end:]).ljust(16, b"\0"),)


def _blocks(parts: tuple[bytes, ...]) -> Iterator[int]:
    """The blocks of each part in turn as big-endian ints, lazily: ``struct``
    and ``int.from_bytes`` split them in C, one chunk at a time."""
    return map(int.from_bytes, chain.from_iterable(_chunks(parts)), repeat("big"))


def _hash(h: FieldElement, *parts: bytes) -> int:
    """Horner's rule from 0 over the 16-byte big-endian blocks of each part
    in turn, each part padded with zero bytes to whole blocks: the sum of
    c_i * h^(m - i + 1) over the m blocks c_1..c_m."""
    if sum(map(len, parts)) >= 16 * BYTE_TABLE_BLOCKS:
        return _horner_bytes(_key_byte_table(h), 0, _blocks(parts))
    return _horner(_key_table(h), 0, _blocks(parts))


@functools.cache
def _square_table() -> tuple:
    """The 8-bit table of squaring, which is GF(2)-linear: x^k -> x^2k."""
    return _byte_rows(_table(_doublings(1, 256)[::2]))


def add(a: FieldElement, b: FieldElement) -> FieldElement:
    """Addition in GF(2^128): bitwise XOR."""
    return FieldElement(a.value ^ b.value)


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Multiplication modulo x^128 + x^7 + x^2 + x + 1: one Horner step of
    a over b's 4-bit table, which is built on first use and kept on b, so
    further products by the same b only look it up."""
    return FieldElement(_horner(_key_table(b), a.value, (0,)))


def square(a: FieldElement) -> FieldElement:
    return FieldElement(_horner_bytes(_square_table(), a.value, (0,)))


def pow(a: FieldElement, e: int) -> FieldElement:  # noqa: A001 - mirrors math naming
    """Left-to-right square-and-multiply, so every multiply is by a and uses
    a's table; pow(a, 0) == 1 by convention, including for a == 0."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if e == 0:
        return ONE
    table, squares = _key_table(a), _square_table()
    r = a.value
    for bit in bin(e)[3:]:
        r = _horner_bytes(squares, r, (0,))
        if bit == "1":
            r = _horner(table, r, (0,))
    return FieldElement(r)


def inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse by the extended Euclidean algorithm on binary
    polynomials (Hankerson, Menezes & Vanstone, Algorithm 2.48).

    Invariants: u = g1*a and v = g2*a modulo f; g1 stays below degree 128.
    """
    if a.value == 0:
        raise ZeroInverse("zero has no multiplicative inverse")
    u, v, g1, g2 = a.value, REDUCTION_POLY, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return FieldElement(g1)


#: sqrt(x) = x^(2^127), so that _SQRT_X squared is x.
_SQRT_X = FieldElement(0x24924924924924926DB6DB6DB6DB6DA4)


@functools.cache
def _sqrt_table() -> tuple:
    """The 8-bit table of the square root, which is GF(2)-linear:
    x^2k -> x^k and x^(2k+1) -> x^k * sqrt(x)."""
    return _byte_rows(_table(chain.from_iterable(zip(_doublings(1, 64),
                                                     _doublings(_SQRT_X.value, 64)))))


def sqrt(a: FieldElement) -> FieldElement:
    """The unique square root, sqrt(sum a_k x^k) = sum a_k sqrt(x)^k, by its
    table: one lookup per byte of a, not 127 squarings."""
    return FieldElement(_horner_bytes(_sqrt_table(), a.value, (0,)))


def _divisors_of_group_order() -> list[int]:
    divs = [1]
    for p in GROUP_ORDER_FACTORS:
        divs += [d * p for d in divs]
    return sorted(divs)


_GROUP_ORDER_DIVISORS = _divisors_of_group_order()


#: x, a generator of the cyclic group GF(2^128)^*: x^((2^128 - 1)/p) != 1
#: for each prime p in ``GROUP_ORDER_FACTORS``.  A module constant, so its
#: table is built once.
_X = FieldElement(2)


def element_of_order(r: int) -> FieldElement:
    """The element x^((2^128 - 1)/r), of exact multiplicative order r.

    r must be a divisor of 2^128 - 1 greater than 1.  x generates the
    group, which has order N = 2^128 - 1, so x^(N/r) has order
    N/gcd(N, N/r) = r exactly, and the construction is deterministic.
    """
    if r <= 1 or GROUP_ORDER % r != 0:
        raise NotADivisor(f"{r} does not divide 2^128 - 1 (or is trivial)")
    return pow(_X, GROUP_ORDER // r)


def order_divisor(h: FieldElement, max_order: int) -> int | None:
    """Smallest divisor r <= max_order of 2^128 - 1 with h^r = 1, if any.

    This is the weak-key membership test: a hash key in a subgroup of order
    r satisfies h^r = 1, and every element order divides 2^128 - 1.

    2^128 - 1 is squarefree, so an order r <= max_order is a product of
    distinct prime factors p <= max_order and divides their product L.  One
    exponentiation h^L != 1 therefore clears h; only when h^L = 1 are the
    divisors tried in increasing order.
    """
    if h.value == 0:
        raise ZeroElement("zero is not in the multiplicative group")
    if pow(h, math.prod(p for p in GROUP_ORDER_FACTORS if p <= max_order)) != ONE:
        return None
    for r in _GROUP_ORDER_DIVISORS:
        if r > max_order:
            break
        if pow(h, r) == ONE:
            return r
    return None
